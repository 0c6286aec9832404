// Figure 5(b): distributed traffic simulation — end-to-end run time vs the
// number of working servers, 128 subtasks, ordering heuristic vs the
// baseline that loads every RIB file. Paper shape: ~4x faster at 10 servers
// than at 1; the baseline is ~52% slower at 10 servers because every subtask
// pays the full RIB-loading cost.
//
// Server model: as in bench_fig5a, per-subtask runtimes are measured on this
// host's cores and projected to 1..10 servers with the FIFO list-scheduling
// makespan (the message-queue semantics of §3.2).
#include <thread>

#include "bench_util.h"
#include "dist/dist_sim.h"

using namespace hoyan;
using namespace hoyan::bench;

namespace {

struct Series {
  std::string strategy;
  std::vector<std::pair<size_t, double>> modeled;
};
std::vector<Series> g_series;

}  // namespace

int main() {
  const GeneratedWan wan = generateWan(wanSpec());
  const NetworkModel model = wan.buildModel();
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, benchWorkload());
  const std::vector<Flow> flows = generateFlows(wan, benchWorkload(), 400000);

  for (const bool loadAll : {false, true}) {
    DistSimOptions options;
    options.workers = std::max(2u, std::thread::hardware_concurrency());
    options.routeSubtasks = 100;
    options.trafficSubtasks = 128;
    options.loadAllRibs = loadAll;
    DistributedSimulator simulator(model, options);
    if (!simulator.runRouteSimulation(inputs).succeeded) continue;
    const DistTrafficResult result = simulator.runTrafficSimulation(flows);
    if (!result.succeeded) continue;
    Series series;
    series.strategy = loadAll ? "baseline (load all RIBs)" : "ordering heuristic";
    std::vector<double> durations;
    for (const SubtaskMetric& metric : result.subtasks)
      durations.push_back(metric.seconds);
    for (const size_t workers : {1u, 2u, 4u, 6u, 8u, 10u})
      series.modeled.emplace_back(
          workers, result.splitSeconds + modelMakespan(durations, workers));
    g_series.push_back(std::move(series));
  }

  std::vector<std::vector<std::string>> rows = {{"strategy", "servers", "time (s)"}};
  double ordering10 = 0, baseline10 = 0, ordering1 = 0;
  for (const Series& series : g_series) {
    for (const auto& [workers, seconds] : series.modeled) {
      rows.push_back({series.strategy, std::to_string(workers), fmt(seconds)});
      if (workers == 10)
        (series.strategy[0] == 'b' ? baseline10 : ordering10) = seconds;
      if (workers == 1 && series.strategy[0] == 'o') ordering1 = seconds;
    }
  }
  printTable("Figure 5(b) — distributed traffic simulation time vs #servers", rows);
  if (ordering10 > 0) {
    std::printf("\n10-server speedup vs 1 server: %.2fx (paper: ~4x)\n",
                ordering1 / ordering10);
    std::printf("baseline overhead at 10 servers: +%.0f%% (paper: +52%%)\n",
                (baseline10 / ordering10 - 1.0) * 100);
    std::printf(
        "\nNote: the scaled-down flow workload makes RIB-file loading dominate\n"
        "each subtask, so the baseline penalty here is an upper bound — with the\n"
        "paper's O(10^7) flows per subtask the flow-simulation work amortises the\n"
        "loading and the penalty compresses toward +52%%. The *direction* (every\n"
        "baseline subtask pays the full loading cost the ordering heuristic\n"
        "avoids) is the reproduced effect; Fig. 5(d) quantifies the pruning.\n");
  }
  return 0;
}
