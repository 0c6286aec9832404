// Table 4: the issue classes the accuracy-diagnosis framework identified
// over six months of production operation (52 issues). Reproduced by
// injecting 52 issues with the paper's category mix into clean
// network+monitoring setups and running the §5.1/§5.2 workflows: every
// injection must be detected, and the automatic classification should land
// in the right §5.3 class (monitoring data / input pre-processing /
// simulation implementation).
#include <map>

#include "bench_util.h"
#include "diag/injection.h"

using namespace hoyan;
using namespace hoyan::bench;

int main() {
  Stopwatch stopwatch;
  const std::vector<InjectionOutcome> outcomes = runTable4Campaign();
  const double seconds = stopwatch.seconds();

  std::map<IssueCategory, std::tuple<int, int, int>> byCategory;  // injected/detected/classified
  for (const InjectionOutcome& outcome : outcomes) {
    auto& [injected, detected, classified] = byCategory[outcome.injected];
    ++injected;
    if (outcome.detected) ++detected;
    if (outcome.classifiedCorrectly) ++classified;
  }

  const int total = static_cast<int>(outcomes.size());
  std::vector<std::vector<std::string>> rows = {
      {"issue class (Table 4)", "injected", "share", "paper share", "detected",
       "classified"}};
  const std::map<IssueCategory, double> paperShare = {
      {IssueCategory::kRouteMonitoringData, 23.08},
      {IssueCategory::kTrafficMonitoringData, 19.28},
      {IssueCategory::kTopologyData, 11.54},
      {IssueCategory::kConfigParsingFlaw, 9.62},
      {IssueCategory::kInputRouteBuildingFlaw, 9.62},
      {IssueCategory::kSimImplementationBug, 7.69},
      {IssueCategory::kVendorSpecificBehavior, 5.77},
      {IssueCategory::kUnmodeledFeature, 3.85},
      {IssueCategory::kBgpNondeterminism, 1.92},
      {IssueCategory::kOther, 7.69},
  };
  int totalDetected = 0, totalClassified = 0;
  for (const auto& [category, count] : table4Mix()) {
    const auto& [injected, detected, classified] = byCategory[category];
    totalDetected += detected;
    totalClassified += classified;
    rows.push_back({issueCategoryName(category), std::to_string(injected),
                    fmt(100.0 * injected / total, "%.2f%%"),
                    fmt(paperShare.at(category), "%.2f%%"),
                    std::to_string(detected) + "/" + std::to_string(injected),
                    std::to_string(classified) + "/" + std::to_string(injected)});
  }
  printTable("Table 4 — injected issues over the paper's 6-month mix (52 total)", rows);
  std::printf("\ndetected %d/%d, classified into the correct issue class %d/%d, "
              "in %.3gs.\n",
              totalDetected, total, totalClassified, total, seconds);
  return totalDetected == total ? 0 : 1;
}
