// Table 6: the root causes of change risks Hoyan detected in 2024 and their
// shares. Reproduced with 32 planted risky change plans whose root-cause mix
// matches the paper (incorrect commands 37.5%, design flaws 34.4%, existing
// misconfiguration 15.6%, topology issues 6.3%, others 6.2%); every risk
// must be flagged before "rollout".
#include <map>

#include "bench_util.h"
#include "scenario/scenarios.h"

using namespace hoyan;
using namespace hoyan::bench;

int main() {
  const ScenarioEnvironment environment = makeStandardEnvironment();
  Hoyan hoyan = makeHoyan(environment);

  std::map<RiskRootCause, std::pair<int, int>> byCause;  // (flagged, total)
  Stopwatch total;
  const std::vector<Scenario> scenarios = table6RiskScenarios(environment);
  for (const Scenario& scenario : scenarios) {
    const ScenarioOutcome outcome = runScenario(hoyan, scenario);
    auto& [flagged, count] = byCause[scenario.risk];
    ++count;
    if (outcome.flagged) ++flagged;
  }
  const double seconds = total.seconds();

  const std::map<RiskRootCause, double> paperShare = {
      {RiskRootCause::kIncorrectCommands, 37.5},
      {RiskRootCause::kDesignFlaw, 34.4},
      {RiskRootCause::kExistingMisconfiguration, 15.6},
      {RiskRootCause::kTopologyIssue, 6.3},
      {RiskRootCause::kOther, 6.2},
  };

  std::vector<std::vector<std::string>> rows = {
      {"root cause", "planted", "share", "paper share", "flagged"}};
  int totalCount = 0, totalFlagged = 0;
  for (const auto& [cause, stats] : byCause) {
    totalCount += stats.second;
    totalFlagged += stats.first;
  }
  for (const auto& [cause, stats] : byCause) {
    rows.push_back({riskRootCauseName(cause), std::to_string(stats.second),
                    fmt(100.0 * stats.second / totalCount, "%.1f%%"),
                    fmt(paperShare.at(cause), "%.1f%%"),
                    std::to_string(stats.first) + "/" + std::to_string(stats.second)});
  }
  printTable("Table 6 — root causes of detected change risks", rows);
  std::printf("\n%d/%d planted risks flagged before rollout in %.3gs total.\n",
              totalFlagged, totalCount, seconds);
  return totalFlagged == totalCount ? 0 : 1;
}
