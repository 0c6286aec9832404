// Seeded inputs of the benchmark workloads. Everything the program under test
// receives is made here from the seeds: the generated WANs (with their
// behaviour-neutral as-path filter grafts), the input routes and flows, the
// change-plan stream with the verdict each plan's construction expects, and
// the stream of RCL intents the fault sweep checks.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"

namespace hoyanbench {

// The three seeds every workload takes. `wan` reaches WanSpec::seed,
// `workload` WorkloadSpec::seed (route attributes and flows), `plans` the
// plan or intent stream.
struct Seeds {
  uint64_t wan = 42;
  uint64_t workload = 7;
  uint64_t plans = 1;
};

// Generated network plus its simulation inputs.
struct Corpus {
  hoyan::GeneratedWan wan;
  hoyan::WorkloadSpec workload;
  std::vector<hoyan::InputRoute> inputs;
  std::vector<hoyan::Flow> flows;
};

// The change workloads' mid-size WAN: 3 regions x (RR, 3 cores, 2 borders,
// 2 DC gateways, 4 ISP peers), 32 prefixes per ISP with one route EC per
// prefix and 8 competing announcements each, v4 only, 50k flows. The as-path
// grafts are applied (graftAsPathFilters).
Corpus makeChangeCorpus(const Seeds& seeds);

// The fault sweep's WAN: 3 regions x (RR, 2 cores, 2 borders, 1 DC gateway,
// 2 ISP peers) = 24 devices, 4 prefixes per ISP, no flows and no grafts.
Corpus makeSweepCorpus(const Seeds& seeds);

// Distributed-simulation options of every workload: one worker thread per
// core but one (at most 3), 96 route and 64 traffic subtasks.
hoyan::DistSimOptions simOptions();

// Grafts a behaviour-neutral pair of as-path filters onto every internal
// device's iBGP PASS policy: a deny node whose list matches no generated ASN
// (plus one invalid pattern) and a permit-all node. Verdicts and rewrites
// are unchanged; evaluation becomes regex-bound, which is what the policy
// memo's structural gate needs to engage. The generated configs carry no
// as-path lists otherwise, and the memo then sees zero lookups.
void graftAsPathFilters(hoyan::GeneratedWan& wan);

enum class PlanKind {
  kScoped,    // Prefix-scoped ISP-IN local-pref edit, `not prefix = X` guard.
  kViolated,  // The same edit under `prefix = X => PRE = POST`.
  kBroad,     // Deny node on a community no route carries, `PRE = POST`.
};

const char* planKindName(PlanKind kind);

struct StreamPlan {
  PlanKind kind = PlanKind::kScoped;
  hoyan::ChangePlan plan;
  hoyan::IntentSet intents;
  bool expectSatisfied = true;
};

// The change-plan stream. Plans come in blocks of ten: positions 4 and 9 are
// broad (20%), position 7 is violated (10%), the rest scoped (70%). The
// edited border cycles through all borders; the ISP peer, prefix and
// local-pref value are drawn from the seeded generator. Every
// plan is verified against the base network, so the stream is unbounded and
// each plan is distinct (list names and community values carry the index).
class PlanStream {
 public:
  PlanStream(const Corpus& corpus, uint64_t seed);
  StreamPlan next();

 private:
  const Corpus& corpus_;
  std::mt19937_64 rng_;
  size_t index_ = 0;
};

// The fault sweep's intent stream: `prefix = P => POST |> count() >= 1`, P a
// seeded prefix of each ISP peer in turn.
class IntentStream {
 public:
  IntentStream(const Corpus& corpus, uint64_t seed);
  std::string next();

 private:
  const Corpus& corpus_;
  std::mt19937_64 rng_;
  size_t index_ = 0;
};

}  // namespace hoyanbench
