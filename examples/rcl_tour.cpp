// A tour of the RCL route-change intent language (§4) on the paper's Fig. 6
// example RIBs: every construct of the grammar, with verification results
// and counter-examples.
//
//   $ ./rcl_tour
#include <iostream>

#include "rcl/parser.h"
#include "rcl/verify.h"

using namespace hoyan;
using namespace hoyan::rcl;

namespace {

RibRow row(const std::string& device, const std::string& vrf, const std::string& prefix,
           const std::vector<std::string>& communities, uint32_t localPref,
           const std::string& nexthop) {
  RibRow r;
  r.device = device;
  r.vrf = vrf;
  r.prefix = *Prefix::parse(prefix);
  for (const std::string& community : communities)
    r.communities.insert(*Community::parse(community));
  r.localPref = localPref;
  r.nexthop = *IpAddress::parse(nexthop);
  r.routeType = RouteType::kBest;
  return r;
}

}  // namespace

int main() {
  // The Fig. 6 global RIBs: (top) base, (bottom) updated.
  GlobalRib base;
  base.add(row("A", "global", "10.0.0.0/24", {"100:1"}, 100, "2.0.0.1"));
  base.add(row("A", "vrf1", "20.0.0.0/24", {"100:1", "200:1"}, 10, "3.0.0.1"));
  base.add(row("B", "global", "10.0.0.0/24", {"100:1"}, 200, "4.0.0.1"));
  GlobalRib updated;
  updated.add(row("A", "global", "10.0.0.0/24", {"100:1"}, 300, "2.0.0.1"));
  updated.add(row("A", "vrf1", "20.0.0.0/24", {"100:1", "200:1"}, 10, "3.0.0.1"));
  updated.add(row("B", "global", "10.0.0.0/24", {"100:1"}, 300, "4.0.0.1"));

  std::cout << "Base global RIB:\n";
  for (const RibRow& r : base.rows()) std::cout << "  " << r.str() << "\n";
  std::cout << "Updated global RIB:\n";
  for (const RibRow& r : updated.rows()) std::cout << "  " << r.str() << "\n";

  const std::vector<std::string> tour = {
      // §4.1 intents (a) and (b).
      "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}",
      "prefix != 10.0.0.0/24 => PRE = POST",
      // RIB equality / inequality.
      "PRE = POST",
      "PRE != POST",
      // Filters and aggregates.
      "POST || device = A |> count() = 2",
      "POST || (communities contains 200:1) |> distVals(prefix) = {20.0.0.0/24}",
      "POST |> distCnt(device) = 2",
      // Arithmetic.
      "POST |> count() + 1 = PRE |> count() + 1",
      // Grouping intents, with and without explicit values.
      "forall device: forall prefix: POST |> distCnt(nexthop) = 1",
      "forall device in {A, B}: routeType = BEST => "
      "PRE |> distVals(prefix) = POST |> distVals(prefix)",
      // Predicates: in / matches / boolean composition / imply.
      "device in {A} and vrf in {vrf1} => POST |> count() = 1",
      "prefix matches \"^20\" => POST |> distVals(localPref) = {10}",
      "not device = A => POST |> count() = 1",
      "(PRE |> distVals(nexthop) = {9.9.9.9}) imply (POST |> count() = 0)",
      // A deliberately violated intent, to show counter-examples.
      "forall device: POST |> distVals(localPref) = {300}",
  };

  for (const std::string& spec : tour) {
    const ParseOutcome parsed = parseIntent(spec);
    if (!parsed.ok()) {
      std::cout << "\nPARSE ERROR in \"" << spec << "\": " << parsed.error << "\n";
      continue;
    }
    const CheckResult result = checkIntent(*parsed.intent, base, updated);
    std::cout << "\nspec (size " << parsed.intent->internalNodes() << "): " << spec
              << "\n  -> " << result.summary() << "\n";
  }
  return 0;
}
