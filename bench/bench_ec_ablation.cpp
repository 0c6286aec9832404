// §3.1 ablation: the equivalence-class techniques. Paper claims: route ECs
// cut input routes ~4x on the WAN; flow ECs cut flows by ~two orders of
// magnitude (the reduction grows with flow count toward the class-count
// asymptote). Also measures simulation time with ECs on/off.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sim/flow_ec.h"
#include "sim/route_ec.h"
#include "sim/route_sim.h"
#include "sim/traffic_sim.h"

using namespace hoyan;
using namespace hoyan::bench;

namespace {

GeneratedWan g_wan;
NetworkModel g_model;
std::vector<InputRoute> g_inputs;
NetworkRibs g_ribs;

void BM_BuildRouteEcs(benchmark::State& state) {
  for (auto _ : state) {
    EcStats stats;
    benchmark::DoNotOptimize(buildRouteEcs(g_model, g_inputs, &stats).toSimulate.size());
  }
}
BENCHMARK(BM_BuildRouteEcs)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_BuildFlowEcs(benchmark::State& state) {
  const std::vector<Flow> flows = generateFlows(g_wan, benchWorkload(), 100000);
  for (auto _ : state) {
    FlowEcStats stats;
    benchmark::DoNotOptimize(buildFlowEcs(g_model, g_ribs, flows, &stats).representatives.size());
  }
  state.counters["flows"] = 100000;
}
BENCHMARK(BM_BuildFlowEcs)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  g_wan = generateWan(wanSpec());
  g_model = g_wan.buildModel();
  g_inputs = generateInputRoutes(g_wan, benchWorkload());
  g_ribs = simulateCentralized(g_model, g_inputs).ribs;

  benchmark::RunSpecifiedBenchmarks();

  // --- route ECs -----------------------------------------------------------
  EcStats routeStats;
  buildRouteEcs(g_model, g_inputs, &routeStats);
  std::vector<std::vector<std::string>> routeRows = {
      {"metric", "value"},
      {"input routes", std::to_string(routeStats.inputRoutes)},
      {"equivalence classes", std::to_string(routeStats.classes)},
      {"reduction", fmt(routeStats.reductionFactor(), "%.2fx") + " (paper: ~4x)"},
      {"distinct prefix lists", std::to_string(routeStats.distinctPrefixLists)},
      {"distinct aggregates", std::to_string(routeStats.distinctAggregates)},
  };
  // Simulation time with and without ECs.
  for (const bool useEc : {true, false}) {
    RouteSimOptions options;
    options.useEquivalenceClasses = useEc;
    Stopwatch stopwatch;
    benchmark::DoNotOptimize(simulateCentralized(g_model, g_inputs, options).stats.rounds);
    routeRows.push_back({useEc ? "route sim time (ECs on)" : "route sim time (ECs off)",
                         fmt(stopwatch.seconds()) + " s"});
  }
  printTable("Route equivalence classes (§3.1)", routeRows);

  // --- flow ECs: reduction grows with flow count toward the class asymptote.
  std::vector<std::vector<std::string>> flowRows = {
      {"flows", "classes", "reduction", "traffic sim (ECs on)", "(ECs off)"}};
  for (const size_t count : {20000ul, 100000ul, 400000ul, 2000000ul}) {
    const std::vector<Flow> flows = generateFlows(g_wan, benchWorkload(), count);
    FlowEcStats stats;
    buildFlowEcs(g_model, g_ribs, flows, &stats);
    Stopwatch onWatch;
    simulateTraffic(g_model, g_ribs, flows, {.useEquivalenceClasses = true});
    const double onSeconds = onWatch.seconds();
    std::string offText = "-";
    if (count <= 400000) {  // The ECs-off run becomes prohibitive beyond this.
      Stopwatch offWatch;
      simulateTraffic(g_model, g_ribs, flows, {.useEquivalenceClasses = false});
      offText = fmt(offWatch.seconds()) + " s";
    }
    flowRows.push_back({std::to_string(count), std::to_string(stats.classes),
                        fmt(stats.reductionFactor(), "%.1fx"), fmt(onSeconds) + " s",
                        offText});
  }
  printTable("Flow equivalence classes (§3.1)", flowRows);
  std::printf("\nShape target: route ECs ~4x; flow ECs approach two orders of\n"
              "magnitude as the flow count reaches production density (paper: 100x\n"
              "at O(10^9) flows).\n");
  return 0;
}
