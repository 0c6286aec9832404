// Figure 1: the original *centralized* Hoyan — single-server route
// simulation time as the number of prefixes grows, on the WAN and on
// WAN+DCN. The paper's centralized WAN run needs >30 minutes for all
// prefixes; on WAN+DCN it completes only ~30% of prefixes and fails ~40%
// with memory exhaustion. Here the same centralized engine is swept over
// prefix fractions, with an emulated memory budget that the WAN+DCN run
// exhausts (the shape target: superlinear growth + OOM at hyper scale).
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sim/route_sim.h"

using namespace hoyan;
using namespace hoyan::bench;

namespace {

struct Row {
  std::string network;
  size_t inputs;
  double seconds;
  std::string status;
};
std::vector<Row> g_rows;

void runSweep(const std::string& label, const WanSpec& spec, size_t memoryBudget) {
  const GeneratedWan wan = generateWan(spec);
  const NetworkModel model = wan.buildModel();
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, benchWorkload());
  for (const double fraction : {0.25, 0.5, 0.75, 1.0}) {
    const size_t count = static_cast<size_t>(inputs.size() * fraction);
    const std::span<const InputRoute> slice(inputs.data(), count);
    RouteSimOptions options;
    options.memoryBudgetRoutes = memoryBudget;
    Stopwatch stopwatch;
    const RouteSimResult result = simulateCentralized(model, slice, options);
    g_rows.push_back({label, count, stopwatch.seconds(),
                      result.stats.outOfMemory ? "OUT-OF-MEMORY" : "ok"});
    if (result.stats.outOfMemory) break;  // The centralized run dies here.
  }
}

void BM_CentralizedWan(benchmark::State& state) {
  const GeneratedWan wan = generateWan(wanSpec());
  const NetworkModel model = wan.buildModel();
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, benchWorkload());
  for (auto _ : state) {
    const RouteSimResult result = simulateCentralized(model, inputs);
    benchmark::DoNotOptimize(result.ribs.routeCount());
  }
  state.counters["inputs"] = static_cast<double>(inputs.size());
}
BENCHMARK(BM_CentralizedWan)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // The WAN run completes; the WAN+DCN run hits the (emulated) single-server
  // memory budget before finishing all prefixes, as in Fig. 1.
  runSweep("WAN", wanSpec(), 0);
  runSweep("WAN+DCN", wanDcnSpec(), 200000);

  std::vector<std::vector<std::string>> rows = {
      {"network", "input routes", "centralized sim time (s)", "status"}};
  for (const Row& row : g_rows)
    rows.push_back({row.network, std::to_string(row.inputs), fmt(row.seconds), row.status});
  printTable("Figure 1 — centralized simulation time vs prefixes", rows);
  std::printf("\nShape target: time grows superlinearly with prefixes; the WAN+DCN\n"
              "run cannot complete within a single server's memory (paper: OOM for\n"
              "40%% of prefixes at O(10^4) routers).\n");
  return 0;
}
