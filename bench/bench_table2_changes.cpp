// Table 2: all 12 change types Hoyan must support, each run end to end
// (change plan -> updated model -> distributed simulation -> intent
// verification) with its example intents. All safe plans must verify clean.
#include "bench_util.h"
#include "scenario/scenarios.h"

using namespace hoyan;
using namespace hoyan::bench;

int main() {
  const ScenarioEnvironment environment = makeStandardEnvironment();
  Stopwatch preprocessStopwatch;
  Hoyan hoyan = makeHoyan(environment);
  std::printf("preprocess (base model + base RIBs + base loads): %.3gs\n",
              preprocessStopwatch.seconds());

  std::vector<std::vector<std::string>> rows = {
      {"change type", "scenario", "verdict", "verify time (s)"}};
  size_t clean = 0;
  const std::vector<Scenario> scenarios = table2ChangeScenarios(environment);
  for (const Scenario& scenario : scenarios) {
    Stopwatch stopwatch;
    const ScenarioOutcome outcome = runScenario(hoyan, scenario);
    rows.push_back({scenario.changeType, scenario.name,
                    outcome.flagged ? "FLAGGED (unexpected)" : "clean",
                    fmt(stopwatch.seconds())});
    if (!outcome.flagged) ++clean;
  }
  printTable("Table 2 — the 12 change types, verified end to end", rows);
  std::printf("\n%zu/%zu safe change plans verified clean (target: all).\n", clean,
              scenarios.size());
  return clean == scenarios.size() ? 0 : 1;
}
