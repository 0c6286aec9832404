// Figure 8: RCL in production — (left) the CDF of specification sizes
// (internal AST nodes) over a 50-spec corpus, and (right) the CDF of
// verification times of those specifications against full simulated global
// RIBs. Paper shape: >90% of specs below size 15; >80% verify within one
// "minute-equivalent" — here, since our RIBs are proportionally smaller,
// the target is a short head and a long but bounded tail.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "gen/rcl_corpus.h"
#include "rcl/parser.h"
#include "rcl/verify.h"
#include "sim/route_sim.h"

using namespace hoyan;
using namespace hoyan::bench;

namespace {

rcl::GlobalRib g_base;
rcl::GlobalRib g_updated;

void BM_RclCheckUnchangedIntent(benchmark::State& state) {
  const rcl::ParseOutcome parsed = rcl::parseIntent("PRE = POST");
  for (auto _ : state) {
    const rcl::CheckResult result = rcl::checkIntent(*parsed.intent, g_base, g_updated);
    benchmark::DoNotOptimize(result.satisfied);
  }
  state.counters["rows"] = static_cast<double>(g_base.size());
}
BENCHMARK(BM_RclCheckUnchangedIntent)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  const GeneratedWan wan = generateWan(wanSpec());
  const NetworkModel model = wan.buildModel();
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, benchWorkload());
  const RouteSimResult base = simulateCentralized(model, inputs);
  g_base = rcl::GlobalRib::fromNetworkRibs(base.ribs);
  // An "updated" RIB differing mildly (a community retagged), so intents
  // exercise both satisfied and violated paths.
  NetworkRibs changed = base.ribs;
  for (auto& [deviceId, deviceRib] : changed.devices())
    for (auto& [vrfId, vrfRib] : deviceRib.vrfs())
      for (auto& [prefix, routes] : vrfRib.routes())
        for (Route& route : routes)
          if (route.attrs.communities.contains(Community(300, 1))) {
            route.attrs.communities.erase(Community(300, 1));
            route.attrs.communities.insert(Community(300, 7));
          }
  g_updated = rcl::GlobalRib::fromNetworkRibs(changed);
  std::printf("global RIBs: base %zu rows, updated %zu rows\n", g_base.size(),
              g_updated.size());

  benchmark::RunSpecifiedBenchmarks();

  const std::vector<std::string> corpus = generateRclCorpus(wan, 50);
  std::vector<double> sizes;
  std::vector<double> times;
  size_t satisfied = 0;
  for (const std::string& spec : corpus) {
    const rcl::ParseOutcome parsed = rcl::parseIntent(spec);
    if (!parsed.ok()) {
      std::printf("PARSE FAILURE: %s (%s)\n", spec.c_str(), parsed.error.c_str());
      continue;
    }
    sizes.push_back(static_cast<double>(parsed.intent->internalNodes()));
    Stopwatch stopwatch;
    const rcl::CheckResult result = rcl::checkIntent(*parsed.intent, g_base, g_updated);
    times.push_back(stopwatch.seconds());
    if (result.satisfied) ++satisfied;
  }
  printCdf("Figure 8 (left) — CDF of RCL specification sizes (internal AST nodes)",
           sizes, "size");
  printCdf("Figure 8 (right) — CDF of RCL verification time", times, "seconds");
  size_t below15 = 0;
  for (const double size : sizes)
    if (size < 15) ++below15;
  std::printf("\n%zu/%zu specs below size 15 (paper: >90%%); %zu/%zu satisfied\n",
              below15, sizes.size(), satisfied, sizes.size());
  double total = 0;
  for (const double t : times) total += t;
  std::printf("total verification time for all 50 specs: %.3gs\n", total);
  return 0;
}
