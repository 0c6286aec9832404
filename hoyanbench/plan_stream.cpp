#include "plan_stream.h"

#include <algorithm>
#include <thread>

namespace hoyanbench {

using namespace hoyan;

namespace {

constexpr size_t kChangeFlows = 50000;

// Generated ISP pool prefix n of ISP peer `isp` (gen/workload_gen.cc lays
// ISP i's v4 prefixes out as 100.<i>.<n>.0/24 for n < 256).
std::string ispPrefix(size_t isp, size_t n) {
  return "100." + std::to_string(isp) + "." + std::to_string(n) + ".0/24";
}

Corpus makeCorpus(const WanSpec& wan, const WorkloadSpec& workload, size_t flows) {
  Corpus corpus;
  corpus.wan = generateWan(wan);
  corpus.workload = workload;
  corpus.inputs = generateInputRoutes(corpus.wan, workload);
  if (flows > 0) corpus.flows = generateFlows(corpus.wan, workload, flows);
  return corpus;
}

}  // namespace

Corpus makeChangeCorpus(const Seeds& seeds) {
  WanSpec wan;
  wan.regions = 3;
  wan.coresPerRegion = 3;
  wan.bordersPerRegion = 2;
  wan.dcsPerRegion = 2;
  wan.ispsPerBorder = 2;
  wan.seed = static_cast<unsigned>(seeds.wan);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 32;
  workload.prefixesPerDc = 24;
  workload.attrGroupSize = 1;
  // v4 only: some vendors make a v4 prefix list match every v6 route, which
  // would turn every scoped edit into a whole-v6 dirty range.
  workload.v6Share = 0.0;
  workload.ispPathsPerPrefix = 8;
  workload.seed = static_cast<unsigned>(seeds.workload);
  // Routes and flows depend on the topology only, so grafting afterwards
  // leaves them unchanged.
  Corpus corpus = makeCorpus(wan, workload, kChangeFlows);
  graftAsPathFilters(corpus.wan);
  return corpus;
}

Corpus makeSweepCorpus(const Seeds& seeds) {
  WanSpec wan;
  wan.regions = 3;
  wan.coresPerRegion = 1;
  wan.bordersPerRegion = 2;
  wan.dcsPerRegion = 1;
  wan.ispsPerBorder = 1;
  wan.seed = static_cast<unsigned>(seeds.wan);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 4;
  workload.prefixesPerDc = 2;
  workload.v6Share = 0.0;
  workload.seed = static_cast<unsigned>(seeds.workload);
  return makeCorpus(wan, workload, 0);
}

DistSimOptions simOptions() {
  DistSimOptions options;
  // One core stays free for the master thread and the rest of the host: with
  // a worker on every core, any other activity stalls a phase's last subtask.
  const size_t cores = std::max<size_t>(std::thread::hardware_concurrency(), 1);
  options.workers = std::clamp<size_t>(cores - 1, 1, 3);
  options.routeSubtasks = 96;
  options.trafficSubtasks = 64;
  return options;
}

void graftAsPathFilters(GeneratedWan& wan) {
  const NameId passName = Names::id("PASS");
  const NameId blacklistName = Names::id("BENCH-BLACKLIST");
  const NameId allowName = Names::id("BENCH-ALLOW");
  for (const NameId deviceName : wan.internalDevices()) {
    DeviceConfig& device = wan.configs.device(deviceName);
    AsPathList blacklist;
    blacklist.name = blacklistName;
    blacklist.entries.push_back({true, "(unclosed"});  // Invalid: never matches.
    blacklist.entries.push_back({true, "_64666_"});    // No generated ASN.
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
}

const char* planKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScoped: return "scoped";
    case PlanKind::kViolated: return "violated";
    case PlanKind::kBroad: return "broad";
  }
  return "?";
}

PlanStream::PlanStream(const Corpus& corpus, uint64_t seed)
    : corpus_(corpus), rng_(seed) {}

StreamPlan PlanStream::next() {
  const WanSpec& spec = corpus_.wan.spec;
  const size_t i = index_++;
  // Borders take turns, so every run edits the same mix of them.
  const size_t slot = i % (spec.regions * spec.bordersPerRegion);
  const size_t region = slot / spec.bordersPerRegion;
  const size_t border = slot % spec.bordersPerRegion;
  const std::string device = "BR-" + std::to_string(region) + "-" + std::to_string(border);
  const std::string policy = "ISP-IN-" + std::to_string(region);
  const std::string tag = std::to_string(i);

  StreamPlan out;
  out.kind = i % 10 == 4 || i % 10 == 9 ? PlanKind::kBroad
             : i % 10 == 7             ? PlanKind::kViolated
                                       : PlanKind::kScoped;
  out.plan.name = std::string(planKindName(out.kind)) + "-" + tag;
  // Keeps the traffic phase in every verification; generated loads stay far
  // below it, so the load check never decides a verdict.
  out.intents.maxLinkUtilization = 5.0;
  if (out.kind == PlanKind::kBroad) {
    // Sequence 6 sits before the import policy's permit-all node, but the
    // community (64999:x) is on no generated route: the edit changes no
    // route, yet a node without a prefix-list match marks the run all-dirty.
    out.plan.commands = "device " + device + "\n" +
                        "community-list BENCH-NEVER-" + tag + " index 10 permit 64999:" +
                        std::to_string(1 + i % 60000) + "\n" +
                        "route-policy " + policy + " node 6 deny\n" +
                        " match community-list BENCH-NEVER-" + tag + "\n";
    out.intents.rclIntents = {"PRE = POST"};
    out.expectSatisfied = true;
    return out;
  }
  // One of the border's own ISP peers announces the prefix, so the edit
  // rewrites the border's own row for it (the violated kind relies on that).
  const size_t isp = (region * spec.bordersPerRegion + border) * spec.ispsPerBorder +
                     rng_() % spec.ispsPerBorder;
  const size_t n = rng_() % std::min<size_t>(corpus_.workload.prefixesPerIsp, 256);
  const std::string prefix = ispPrefix(isp, n);
  const uint32_t localPref = 120 + static_cast<uint32_t>(rng_() % 80);
  // Sequence 7 precedes the permit-all node 10, so matching routes take it.
  out.plan.commands = "device " + device + "\n" +
                      "ip-prefix LP-BENCH-" + tag + " index 10 permit " + prefix + "\n" +
                      "route-policy " + policy + " node 7 permit\n" +
                      " match ip-prefix LP-BENCH-" + tag + "\n" +
                      " apply local-pref " + std::to_string(localPref) + "\n";
  if (out.kind == PlanKind::kViolated) {
    out.intents.rclIntents = {"prefix = " + prefix + " => PRE = POST"};
    out.expectSatisfied = false;
  } else {
    out.intents.rclIntents = {"not prefix = " + prefix + " => PRE = POST"};
    out.expectSatisfied = true;
  }
  return out;
}

IntentStream::IntentStream(const Corpus& corpus, uint64_t seed)
    : corpus_(corpus), rng_(seed) {}

std::string IntentStream::next() {
  // ISP peers take turns: sweep cost depends on where the prefix enters, so
  // every run sweeps the same mix of them.
  const size_t isp = index_++ % corpus_.wan.externals.size();
  const size_t n = rng_() % std::min<size_t>(corpus_.workload.prefixesPerIsp, 256);
  return "prefix = " + ispPrefix(isp, n) + " => POST |> count() >= 1";
}

}  // namespace hoyanbench
