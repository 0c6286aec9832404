// Figure 5(d): the CDF of RIB result files each traffic subtask loads, for
// the ordering heuristic vs a random split. Paper shape: with ordering, >80%
// of subtasks load no more than a third of the files and the heaviest loads
// <40%; with a random split every subtask depends on (nearly) all route
// subtasks, so it loads everything — same as the no-pruning baseline.
#include "bench_util.h"
#include "dist/dist_sim.h"

using namespace hoyan;
using namespace hoyan::bench;

namespace {

std::vector<double> loadedFractions(const DistTrafficResult& result) {
  std::vector<double> out;
  for (const SubtaskMetric& metric : result.subtasks)
    if (metric.ribFilesTotal > 0)
      out.push_back(static_cast<double>(metric.ribFilesLoaded) /
                    static_cast<double>(metric.ribFilesTotal));
  return out;
}

// Per executed subtask: files loaded, and routes copied into its own RIB
// (the local-routes file is forwarded over in place, not copied).
struct LoadMeans {
  double files = 0;
  double routesMerged = 0;
};

LoadMeans loadMeans(const DistTrafficResult& result) {
  LoadMeans means;
  size_t executed = 0;
  for (const SubtaskMetric& metric : result.subtasks) {
    if (metric.fromCache) continue;
    ++executed;
    means.files += static_cast<double>(metric.ribFilesLoaded);
    means.routesMerged += static_cast<double>(metric.routesMerged);
  }
  if (executed > 0) {
    means.files /= static_cast<double>(executed);
    means.routesMerged /= static_cast<double>(executed);
  }
  return means;
}

}  // namespace

int main() {
  const GeneratedWan wan = generateWan(wanSpec());
  const NetworkModel model = wan.buildModel();
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, benchWorkload());
  const std::vector<Flow> flows = generateFlows(wan, benchWorkload(), 400000);

  std::vector<double> orderingFractions, randomFractions;
  size_t orderingBytes = 0, randomBytes = 0;
  LoadMeans orderingMeans, randomMeans;
  for (const SplitStrategy strategy : {SplitStrategy::kOrdering, SplitStrategy::kRandom}) {
    DistSimOptions options;
    options.workers = 10;
    options.routeSubtasks = 100;
    options.trafficSubtasks = 128;
    options.strategy = strategy;
    DistributedSimulator simulator(model, options);
    if (!simulator.runRouteSimulation(inputs).succeeded) return 1;
    const DistTrafficResult result = simulator.runTrafficSimulation(flows);
    if (strategy == SplitStrategy::kOrdering) {
      orderingFractions = loadedFractions(result);
      orderingBytes = result.storeBytesRead;
      orderingMeans = loadMeans(result);
    } else {
      randomFractions = loadedFractions(result);
      randomBytes = result.storeBytesRead;
      randomMeans = loadMeans(result);
    }
  }

  printCdf("Figure 5(d) — fraction of RIB files loaded (ordering heuristic)",
           orderingFractions, "fraction");
  printCdf("Figure 5(d) — fraction of RIB files loaded (random split)",
           randomFractions, "fraction");

  // Paper claims, evaluated directly:
  size_t within = 0;
  double worst = 0;
  for (const double fraction : orderingFractions) {
    if (fraction <= 1.0 / 3.0 + 1e-9) ++within;
    worst = std::max(worst, fraction);
  }
  std::printf("\nordering: %.0f%% of subtasks load <= 1/3 of files (paper: >80%%); "
              "max loaded %.0f%% (paper: <40%%)\n",
              orderingFractions.empty()
                  ? 0.0
                  : 100.0 * within / orderingFractions.size(),
              100.0 * worst);
  double randomAverage = 0;
  for (const double fraction : randomFractions) randomAverage += fraction;
  if (!randomFractions.empty()) randomAverage /= randomFractions.size();
  std::printf("random: average loaded fraction %.0f%% (paper: ~all files)\n",
              100.0 * randomAverage);
  std::printf("mean per subtask: ordering %.1f files loaded, %.0f routes merged; "
              "random %.1f files loaded, %.0f routes merged\n",
              orderingMeans.files, orderingMeans.routesMerged, randomMeans.files,
              randomMeans.routesMerged);
  std::printf("object-store bytes read: ordering %zu vs random %zu (%.1fx)\n",
              orderingBytes, randomBytes,
              orderingBytes ? static_cast<double>(randomBytes) / orderingBytes : 0.0);
  return 0;
}
