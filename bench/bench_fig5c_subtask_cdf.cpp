// Figure 5(c): the CDF of route-simulation subtask run times — the cause of
// the diminishing returns in Fig. 5(a). Paper shape: highly uneven (shortest
// ~4s, longest >2min, a >30x spread) because route propagation depth differs
// wildly across input routes (ISP routes travel a few hops; DC-originated
// routes more than 10).
#include "bench_util.h"
#include "dist/dist_sim.h"

using namespace hoyan;
using namespace hoyan::bench;

int main() {
  const GeneratedWan wan = generateWan(wanSpec());
  const NetworkModel model = wan.buildModel();
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, benchWorkload());

  DistSimOptions options;
  options.workers = 10;
  options.routeSubtasks = 100;
  DistributedSimulator simulator(model, options);
  const DistRouteResult result = simulator.runRouteSimulation(inputs);

  std::vector<double> runtimes;
  double shortest = 1e30, longest = 0;
  for (const SubtaskMetric& metric : result.subtasks) {
    if (metric.id == "route-local") continue;
    runtimes.push_back(metric.seconds);
    shortest = std::min(shortest, metric.seconds);
    longest = std::max(longest, metric.seconds);
  }
  printCdf("Figure 5(c) — CDF of route subtask run times", runtimes, "seconds");
  std::printf("\nsubtasks: %zu, shortest %.4gs, longest %.4gs, spread %.1fx\n",
              runtimes.size(), shortest, longest,
              shortest > 0 ? longest / shortest : 0.0);
  std::printf("Shape target: a heavily skewed distribution (paper: 4s .. >2min),\n"
              "which is why adding servers yields sublinear gains in Fig. 5(a).\n");
  return 0;
}
