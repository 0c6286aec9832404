// Figure 5(a): distributed route simulation — end-to-end run time vs the
// number of working servers (WAN and WAN+DCN, 100 subtasks). Paper shape:
// time falls with servers (sublinearly — see Fig. 5(c)), 10 servers ≈ 5x
// faster than the centralized baseline, and WAN+DCN completes (which the
// centralized engine cannot, Fig. 1).
//
// Server model: this machine has few cores, so the framework runs once with
// the hardware's workers to *measure* every subtask's runtime, and the
// 1..10-server curve is the FIFO list-scheduling makespan of those measured
// subtasks plus the measured master split/merge phases — exactly the
// queue semantics the real cluster uses.
#include <thread>

#include "bench_util.h"
#include "dist/dist_sim.h"

using namespace hoyan;
using namespace hoyan::bench;

namespace {

struct Series {
  std::string network;
  double centralizedSeconds = 0;
  double realElapsed = 0;  // Actual wall clock on this machine's cores.
  double mergeSeconds = 0;  // Master-side full-RIB materialisation.
  std::vector<std::pair<size_t, double>> modeled;
};
std::vector<Series> g_series;

void runSeries(const std::string& label, const WanSpec& spec) {
  const GeneratedWan wan = generateWan(spec);
  const NetworkModel model = wan.buildModel();
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, benchWorkload());
  Series series;
  series.network = label;
  {
    Stopwatch stopwatch;
    simulateCentralized(model, inputs);
    series.centralizedSeconds = stopwatch.seconds();
  }
  DistSimOptions options;
  options.workers = std::max(2u, std::thread::hardware_concurrency());
  options.routeSubtasks = 100;
  DistributedSimulator simulator(model, options);
  const DistRouteResult result = simulator.runRouteSimulation(inputs);
  if (!result.succeeded) return;
  series.realElapsed = result.elapsedSeconds;
  series.mergeSeconds = result.mergeSeconds;
  std::vector<double> durations;
  for (const SubtaskMetric& metric : result.subtasks) durations.push_back(metric.seconds);
  // The distributed route phase ends when every subtask's result file is in
  // the object store — the traffic phase and verification consume the files
  // directly. Materialising one merged RIB on the master (mergeSeconds) is a
  // verification-time cost reported separately.
  for (const size_t workers : {1u, 2u, 4u, 6u, 8u, 10u})
    series.modeled.emplace_back(workers, result.splitSeconds +
                                             modelMakespan(durations, workers));
  g_series.push_back(std::move(series));
}

}  // namespace

int main() {
  runSeries("WAN", wanSpec());
  runSeries("WAN+DCN", wanDcnSpec());

  std::vector<std::vector<std::string>> rows = {
      {"network", "servers", "time (s)", "speedup vs centralized"}};
  for (const Series& series : g_series) {
    rows.push_back({series.network, "centralized", fmt(series.centralizedSeconds), "1.0"});
    for (const auto& [workers, seconds] : series.modeled)
      rows.push_back({series.network, std::to_string(workers), fmt(seconds),
                      fmt(series.centralizedSeconds / seconds, "%.2f")});
    rows.push_back({series.network, "(real, this host)", fmt(series.realElapsed), ""});
    rows.push_back({series.network, "(master merge)", fmt(series.mergeSeconds), ""});
  }
  printTable("Figure 5(a) — distributed route simulation time vs #servers", rows);
  std::printf("\nShape target: monotone decrease with diminishing returns; ~5x at 10\n"
              "servers vs centralized (paper: 6.6 min vs >30 min); WAN+DCN completes\n"
              "where a memory-bounded centralized server cannot (Fig. 1).\n"
              "Server counts beyond this host's cores use the FIFO-makespan model\n"
              "over *measured* subtask runtimes (see header comment).\n");
  return 0;
}
