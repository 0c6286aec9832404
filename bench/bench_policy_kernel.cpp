// Policy-evaluation kernel differential bench (proto/policy_kernel.h).
//
// One centralized cold route simulation, twice over the same corpus: once
// with the per-class memo disabled (the plain-evaluator oracle) and once
// enabled. The two RIBs must render byte-identically — the kernel's whole
// contract is being invisible in results — and the memoized run reports its
// kernel counters: evaluations/second, memo hit rate, regex-cache hit rate.
//
// Self-gating like bench_kfailure_sweep: exits nonzero when the results
// diverge or the memo hit rate falls below 0.9 (the CI `perf-smoke` job also
// gates the dimensionless metrics against bench/baselines/BENCH_policy.json).
//
// Flags / env:
//   --json-out=<path>    HOYAN_POLICY_JSON       artifact path (BENCH_policy.json)
//   --regions=<n>        HOYAN_POLICY_REGIONS    corpus size (default 6)
//   --attr-group=<n>     HOYAN_POLICY_ATTR_GROUP prefixes sharing one
//                        attribute set (default 8, the DC-aggregate shape
//                        the memo targets; 1 = every prefix unique, its
//                        worst case)
//   --ec=on|off          HOYAN_POLICY_EC         equivalence-class reduction
//                        (default off: measures the kernel against the raw
//                        per-prefix repetition EC would otherwise pre-collapse)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rcl/global_rib.h"
#include "sim/route_sim.h"

using namespace hoyan;
using namespace hoyan::bench;

namespace {

std::string flagValue(const std::string& name, const char* envVar,
                      const std::string& fallback) {
  const std::string value = benchFlag(name, envVar);
  return value.empty() ? fallback : value;
}

std::vector<std::string> rowTexts(const NetworkRibs& ribs) {
  const rcl::GlobalRib global = rcl::GlobalRib::fromNetworkRibs(ribs);
  std::vector<std::string> out;
  out.reserve(global.size());
  for (const rcl::RibRow& row : global.rows()) out.push_back(row.str());
  return out;
}

}  // namespace

int main() {
  const std::string jsonPath =
      flagValue("json-out", "HOYAN_POLICY_JSON", "BENCH_policy.json");
  const size_t regions =
      std::stoul(flagValue("regions", "HOYAN_POLICY_REGIONS", "6"));
  const size_t attrGroup =
      std::stoul(flagValue("attr-group", "HOYAN_POLICY_ATTR_GROUP", "8"));
  const bool useEc = flagValue("ec", "HOYAN_POLICY_EC", "off") == "on";

  WanSpec spec = wanSpec();
  spec.regions = regions;
  GeneratedWan wan = generateWan(spec);

  // Real WANs hang as-path filters off their iBGP policies; the generator's
  // PASS policies carry none, so the bench grafts a behaviour-neutral pair
  // onto every internal device: a blacklist matching no corpus ASN (with one
  // deliberately invalid pattern, keeping the bad-regex path exercised) and
  // a catch-all allow. Verdicts and rewrites are unchanged — the extra nodes
  // only make evaluation regex-expensive, which is exactly the shape the
  // memo's structural gate targets.
  const NameId passName = Names::id("PASS");
  const NameId blacklistName = Names::id("BENCH-BLACKLIST");
  const NameId allowName = Names::id("BENCH-ALLOW");
  for (const NameId deviceName : wan.internalDevices()) {
    DeviceConfig& device = wan.configs.device(deviceName);  // CoW detach.
    AsPathList blacklist;
    blacklist.name = blacklistName;
    blacklist.entries.push_back({true, "(unclosed"});  // Invalid: never matches.
    blacklist.entries.push_back({true, "_64666_"});    // No corpus ASN matches.
    device.asPathLists[blacklistName] = blacklist;
    AsPathList allow;
    allow.name = allowName;
    allow.entries.push_back({true, ".*"});
    device.asPathLists[allowName] = allow;
    RoutePolicy& pass = device.routePolicy(passName);
    PolicyNode deny;
    deny.sequence = 4;
    deny.action = PolicyAction::kDeny;
    deny.match.asPathList = blacklistName;
    pass.upsertNode(deny);
    PolicyNode permit;
    permit.sequence = 6;
    permit.action = PolicyAction::kPermit;
    permit.match.asPathList = allowName;
    pass.upsertNode(permit);
  }

  const NetworkModel model = wan.buildModel();
  WorkloadSpec workload = benchWorkload();
  workload.prefixesPerIsp = 200;
  workload.attrGroupSize = attrGroup;
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, workload);

  const auto run = [&](bool memo) {
    RouteSimOptions options;
    options.useEquivalenceClasses = useEc;
    options.policyMemo = memo;
    Stopwatch stopwatch;
    RouteSimResult result = simulateCentralized(model, inputs, options);
    const double seconds = stopwatch.seconds();
    return std::make_pair(std::move(result), seconds);
  };

  auto [oracle, oracleSeconds] = run(false);
  auto [memoized, memoSeconds] = run(true);

  const auto oracleRows = rowTexts(oracle.ribs);
  const auto memoRows = rowTexts(memoized.ribs);
  bool identical = oracleRows.size() == memoRows.size();
  for (size_t i = 0; identical && i < oracleRows.size(); ++i)
    identical = oracleRows[i] == memoRows[i];

  const PolicyKernelStats& stats = memoized.stats.policy;
  const uint64_t memoLookups = stats.memoHits + stats.memoMisses;
  const double evalsPerSec = memoSeconds > 0 ? memoLookups / memoSeconds : 0;
  const double speedup = memoSeconds > 0 ? oracleSeconds / memoSeconds : 0;
  // Every policy evaluation, memoized or not: the same propagation makes the
  // same calls, so the two runs must agree.
  const uint64_t oracleEvaluations = oracle.stats.policy.evaluations;
  const uint64_t memoEvaluations = stats.evaluations;

  printTable(
      "Policy-eval kernel — memo off (oracle) vs on",
      {{"mode", "sim time (s)", "policy evals", "memo lookups", "memo hit rate",
        "regex hit rate"},
       {"memo off", fmt(oracleSeconds), std::to_string(oracleEvaluations), "-", "-", "-"},
       {"memo on", fmt(memoSeconds), std::to_string(memoEvaluations),
        std::to_string(memoLookups),
        fmt(stats.memoHitRate(), "%.4f"), fmt(stats.regexCacheHitRate(), "%.4f")}});
  std::printf("\n%zu RIB rows; results %s; %.3g memo lookups/s; speedup %.3gx; "
              "%llu attr classes; %llu bad-regex evals\n",
              memoRows.size(), identical ? "identical" : "DIVERGED", evalsPerSec,
              speedup, static_cast<unsigned long long>(stats.attrClasses),
              static_cast<unsigned long long>(stats.badRegexEvals));

  BenchJson artifact("policy_kernel");
  artifact.config("regions", static_cast<double>(regions));
  artifact.config("attr_group", static_cast<double>(attrGroup));
  artifact.config("ec", useEc ? "on" : "off");
  artifact.config("input_routes", static_cast<double>(inputs.size()));
  artifact.metric("results_identical", identical ? 1 : 0);
  artifact.metric("memo_hit_rate", stats.memoHitRate());
  artifact.metric("regex_cache_hit_rate", stats.regexCacheHitRate());
  artifact.metric("policy_evals", static_cast<double>(memoLookups));
  artifact.metric("evaluations_memo_off", static_cast<double>(oracleEvaluations));
  artifact.metric("evaluations_memo_on", static_cast<double>(memoEvaluations));
  artifact.metric("attr_classes", static_cast<double>(stats.attrClasses));
  artifact.metric("bad_regex_evals", static_cast<double>(stats.badRegexEvals));
  artifact.metric("evals_per_sec", evalsPerSec);
  artifact.metric("speedup", speedup);
  artifact.seconds("memo_off", oracleSeconds);
  artifact.seconds("memo_on", memoSeconds);
  if (obs::writeFile(jsonPath, artifact.str()))
    std::printf("json -> %s\n", jsonPath.c_str());
  else
    std::fprintf(stderr, "failed to write %s\n", jsonPath.c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: memoized RIB diverged from the oracle\n");
    return 1;
  }
  if (stats.memoHitRate() < 0.9) {
    std::fprintf(stderr, "FAIL: memo hit rate %.4f below the 0.9 floor\n",
                 stats.memoHitRate());
    return 1;
  }
  return 0;
}
