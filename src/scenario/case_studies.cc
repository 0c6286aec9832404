#include "scenario/case_studies.h"

#include "core/hoyan.h"
#include "diag/root_cause.h"
#include "diag/validation.h"
#include "monitor/monitoring.h"
#include "obs/provenance.h"
#include "scenario/net_builder.h"
#include "sim/route_sim.h"
#include "sim/traffic_sim.h"

namespace hoyan {
namespace {

Flow makeFlow(NameId ingress, const std::string& src, const std::string& dst,
              double volumeBps, uint16_t port = 80) {
  Flow flow;
  flow.ingressDevice = ingress;
  flow.src = *IpAddress::parse(src);
  flow.dst = *IpAddress::parse(dst);
  flow.dstPort = port;
  flow.volumeBps = volumeBps;
  return flow;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fig. 10(a): shifting traffic to the new WAN.
// ---------------------------------------------------------------------------
CaseStudyResult runNewWanTrafficShiftCase() {
  CaseStudyResult result;
  NetBuilder nb;
  // M1/M2 are parallel routers of AS 65100 (not directly connected — they
  // meet only through old-WAN router A, as in Fig. 10(a)); A is the old WAN
  // (AS 65200), B the new WAN (AS 65300). DC traffic enters at M1 and M2.
  const NameId m1 = nb.device("cs-M1", 65100, vendorB());
  const NameId m2 = nb.device("cs-M2", 65100, vendorB());
  const NameId a = nb.device("cs-A", 65200, vendorB(), DeviceRole::kCore, false);
  const NameId b = nb.device("cs-B", 65300, vendorB(), DeviceRole::kCore, false);

  const IpAddress aToM1 = nb.link(m1, a).second;
  nb.link(m2, a, 10, /*bandwidthBps=*/1e9);  // The link that will overload.
  nb.link(m1, b);
  nb.link(m2, b);

  // The pre-installed ingress policies toward new-WAN router B: node 10
  // denies everything from B; node 20 (the permit for route R) was installed
  // on M2 only — the dormant misconfiguration.
  const NameId newWanIn = Names::id("NEWWAN-IN");
  for (const NameId border : {m1, m2}) {
    RoutePolicy& policy = nb.config(border).routePolicy(newWanIn);
    PolicyNode denyAll;
    denyAll.sequence = 10;
    denyAll.action = PolicyAction::kDeny;
    policy.upsertNode(denyAll);
  }
  {
    DeviceConfig& m2Config = nb.config(m2);
    PrefixList rList;
    rList.name = Names::id("R-LIST");
    rList.family = IpFamily::kV4;
    rList.entries.push_back({true, *Prefix::parse("1.0.0.0/24"), 0, 0});
    m2Config.prefixLists.emplace(rList.name, rList);
    PolicyNode permitR;
    permitR.sequence = 20;
    permitR.action = PolicyAction::kPermit;
    permitR.match.prefixList = rList.name;
    m2Config.routePolicy(newWanIn).upsertNode(permitR);
  }

  nb.ebgp(m1, a, nb.passPolicy(m1), nb.passPolicy(m1));
  nb.ebgp(m2, a, nb.passPolicy(m2), nb.passPolicy(m2));
  nb.ebgp(m1, b, newWanIn, nb.passPolicy(m1));
  nb.ebgp(m2, b, newWanIn, nb.passPolicy(m2));

  // M1's pre-configured default route 1.0.0.0/8 toward A.
  StaticRouteConfig defaultToA;
  defaultToA.prefix = *Prefix::parse("1.0.0.0/8");
  defaultToA.nexthop = aToM1;
  nb.config(m1).staticRoutes.push_back(defaultToA);

  // Inputs: the old WAN (A) and the new WAN (B) both announce 1.0.0.0/24.
  std::vector<InputRoute> inputs = {nb.originate(a, "1.0.0.0/24"),
                                    nb.originate(b, "1.0.0.0/24")};
  // DC traffic to 1.0.0.0/24 enters at M1 and M2: 0.9 Gbps each side.
  std::vector<Flow> flows;
  for (int i = 0; i < 3; ++i) {
    flows.push_back(makeFlow(m1, "20.0.0." + std::to_string(i + 2),
                             "1.0.0." + std::to_string(i + 10), 0.3e9));
    flows.push_back(makeFlow(m2, "20.0.1." + std::to_string(i + 2),
                             "1.0.0." + std::to_string(i + 20), 0.3e9));
  }

  Hoyan hoyan(nb.topologyCopy(), nb.configsCopy());
  hoyan.setInputRoutes(inputs);
  hoyan.setInputFlows(flows);
  hoyan.preprocess();

  // The change (Fig. 10(a)): delete policy node 10 on M1 and M2 so route R
  // from B is permitted; the old WAN (A) withdraws its announcement.
  ChangePlan plan;
  plan.name = "shift-traffic-to-new-wan";
  plan.commands = "device cs-M1\n"
                  "no route-policy NEWWAN-IN node 10\n"
                  "device cs-M2\n"
                  "no route-policy NEWWAN-IN node 10\n";
  plan.withdrawnInputs.push_back({a, *Prefix::parse("1.0.0.0/24")});

  IntentSet intents;
  // (1) Route R installed as best on both M1 and M2.
  intents.rclIntents = {
      "forall device in {cs-M1, cs-M2}: "
      "POST || prefix = 1.0.0.0/24 |> count() >= 1"};
  // (2) Traffic successfully shifted without overloading any link.
  intents.maxLinkUtilization = 0.8;

  const ChangeVerificationResult verification = hoyan.verifyChange(plan, intents);
  result.riskDetected = !verification.satisfied();

  // Narrative: trace one M1-ingress flow on the post-change network.
  NetworkModel updated = hoyan.buildUpdatedModel(plan);
  const FlowPath trace =
      simulateSingleFlow(updated, verification.updatedRibs, flows.front());
  result.narrative = "Change verification: " + verification.report();
  result.narrative += "\nPost-change forwarding of a DC flow: " + trace.str();
  const bool detourObserved = trace.usesLink(m1, a) && trace.usesLink(a, m2) &&
                              trace.usesLink(m2, b);
  result.narrative += detourObserved
                          ? "\n=> The M1-A-M2-B detour of Fig. 10(a) reproduced."
                          : "\n=> WARNING: expected detour not observed.";
  result.riskDetected = result.riskDetected && detourObserved;
  return result;
}

// ---------------------------------------------------------------------------
// Fig. 10(b): changing ISP exits (the ip-prefix/ipv6-prefix VSB).
// ---------------------------------------------------------------------------
CaseStudyResult runIspExitChangeCase() {
  CaseStudyResult result;
  NetBuilder nb;
  const NameId rr = nb.device("cs-RR", 64600, vendorB(), DeviceRole::kRouteReflector);
  const NameId core = nb.device("cs-CORE", 64600, vendorB());
  // Border C runs the vendor whose `ip-prefix` permits all IPv6 by default.
  const NameId c = nb.device("cs-C", 64600, vendorC(), DeviceRole::kBorder);
  const NameId d = nb.device("cs-D", 64600, vendorB(), DeviceRole::kBorder);
  const NameId isp1 = nb.device("cs-ISP1", 65201, vendorB(),
                                DeviceRole::kExternalPeer, false);
  const NameId isp2 = nb.device("cs-ISP2", 65202, vendorB(),
                                DeviceRole::kExternalPeer, false);

  nb.link(core, rr);
  nb.link(core, c);
  nb.link(core, d);
  nb.link(c, isp2, 10, /*bandwidthBps=*/1e9);  // The exit that will overload.
  nb.link(d, isp1, 10, /*bandwidthBps=*/10e9);

  nb.ibgp(rr, core, true);
  nb.ibgp(rr, c, true);
  nb.ibgp(rr, d, true);
  for (const NameId border : {c, d})
    for (BgpNeighbor& neighbor : nb.config(border).bgp.neighbors)
      if (neighbor.remoteAs == 64600) neighbor.nextHopSelf = true;

  // D prefers ISP1 (localPref 120); C takes ISP2 at default preference.
  const NameId isp1In = Names::id("ISP1-IN");
  {
    RoutePolicy& policy = nb.config(d).routePolicy(isp1In);
    PolicyNode node;
    node.sequence = 10;
    node.action = PolicyAction::kPermit;
    node.sets.localPref = 120;
    policy.upsertNode(node);
  }
  const NameId isp2In = Names::id("ISP2-IN");
  {
    RoutePolicy& policy = nb.config(c).routePolicy(isp2In);
    PolicyNode node;
    node.sequence = 10;
    node.action = PolicyAction::kPermit;
    policy.upsertNode(node);
  }
  nb.ebgp(d, isp1, isp1In, nb.passPolicy(d));
  nb.ebgp(c, isp2, isp2In, nb.passPolicy(c));

  // Both ISPs announce the same IPv6 prefixes: one target to be moved and
  // four that must stay on ISP1.
  const std::vector<std::string> prefixes = {"2400:1::/32", "2400:2::/32",
                                             "2400:3::/32", "2400:4::/32",
                                             "2400:5::/32"};
  std::vector<InputRoute> inputs;
  for (const std::string& prefix : prefixes) {
    inputs.push_back(nb.originate(isp1, prefix));
    inputs.push_back(nb.originate(isp2, prefix));
  }
  // IPv6 traffic from the core: 0.6 Gbps per prefix (3 Gbps total).
  std::vector<Flow> flows;
  for (size_t i = 0; i < prefixes.size(); ++i) {
    Flow flow;
    flow.ingressDevice = core;
    flow.src = *IpAddress::parse("2400:f::1");
    flow.dst = *IpAddress::parse("2400:" + std::to_string(i + 1) + "::99");
    flow.dstPort = 443;
    flow.volumeBps = 0.6e9;
    flows.push_back(flow);
  }

  Hoyan hoyan(nb.topologyCopy(), nb.configsCopy());
  hoyan.setInputRoutes(inputs);
  hoyan.setInputFlows(flows);
  hoyan.preprocess();

  // The change: steer the target prefix to exit via ISP2 by raising its
  // local preference at C. The operator mistypes `ip-prefix` instead of
  // `ipv6-prefix` — on C's vendor the v4 list then permits ALL IPv6 routes.
  ChangePlan plan;
  plan.name = "change-isp-exit";
  plan.commands = "device cs-C\n"
                  "ip-prefix EXIT-TARGETS index 10 permit 2400:1::/32\n"
                  "route-policy ISP2-IN node 5 permit\n"
                  " match ip-prefix EXIT-TARGETS\n"
                  " apply local-pref 150\n";

  IntentSet intents;
  const std::string cLoopback = nb.loopback(c).str();
  intents.rclIntents = {
      // The target prefix must move its nexthop to C on all region routers.
      "prefix = 2400:1::/32 and device in {cs-CORE, cs-RR} and routeType = BEST => "
      "POST |> distVals(nexthop) = {" + cLoopback + "}",
      // Other prefixes must remain unchanged.
      "not prefix = 2400:1::/32 => PRE = POST",
  };
  intents.maxLinkUtilization = 0.8;

  const ChangeVerificationResult verification = hoyan.verifyChange(plan, intents);
  result.riskDetected = !verification.satisfied();
  result.narrative = "Change verification: " + verification.report();

  // Confirm the signature of the incident: the steering intent itself
  // verified, but other prefixes moved and the exit overloaded.
  const bool steeringSatisfied =
      !verification.rclOutcomes.empty() && verification.rclOutcomes[0].result.satisfied;
  const bool othersChanged = verification.rclOutcomes.size() > 1 &&
                             !verification.rclOutcomes[1].result.satisfied;
  const bool overloaded = !verification.loadViolations.empty();
  result.narrative += steeringSatisfied
                          ? "\n=> Steering intent verified (as in the paper)."
                          : "\n=> WARNING: steering intent unexpectedly failed.";
  result.narrative += othersChanged
                          ? "\n=> All other IPv6 prefixes changed exit: the "
                            "ip-prefix/ipv6-prefix VSB reproduced."
                          : "\n=> WARNING: other prefixes did not move.";
  result.narrative += overloaded ? "\n=> C->ISP2 overload detected."
                                 : "\n=> WARNING: no overload detected.";
  result.riskDetected = steeringSatisfied && othersChanged && overloaded;
  return result;
}

// ---------------------------------------------------------------------------
// Fig. 9: root-cause analysis of the SR/IGP-cost VSB.
// ---------------------------------------------------------------------------
CaseStudyResult runSrIgpCostDiagnosisCase() {
  CaseStudyResult result;
  // The live network: router A's real vendor treats the IGP cost of
  // SR-reached destinations as 0 (VendorA). Hoyan's model (before the fix)
  // simulated A with generic semantics (VendorB): the faulty model.
  const auto buildNet = [](const VendorProfile& aVendor) {
    NetBuilder nb;
    const NameId ingress = nb.device("f9-IN", 64700, vendorB(), DeviceRole::kDcGateway);
    const NameId a = nb.device("f9-A", 64700, aVendor);
    const NameId b = nb.device("f9-B", 64700, vendorB());
    const NameId c = nb.device("f9-C", 64700, vendorB());
    nb.link(ingress, a, 10, 1e9);
    nb.link(a, b, 10, 1e9);
    nb.link(a, c, 10, 1e9);  // Equal IS-IS costs A-B and A-C.
    nb.ibgp(a, b, /*bIsClientOfA=*/true);
    nb.ibgp(a, c, /*bIsClientOfA=*/true);
    nb.ibgp(a, ingress, /*bIsClientOfA=*/true);
    // Both B and C originate the destination prefix with themselves as
    // nexthop: A sees two candidate routes, equal through IGP cost.
    // A has an SR policy tunnelling traffic for B's loopback.
    SrPolicyConfig sr;
    sr.name = Names::id("SR-TO-B");
    sr.endpoint = nb.loopback(b);
    nb.config(a).srPolicies.push_back(sr);
    return nb;
  };

  NetBuilder liveNet = buildNet(vendorA());
  NetBuilder modelNet = buildNet(vendorB());
  const NameId a = Names::id("f9-A");
  const NameId b = Names::id("f9-B");
  const NameId ingress = Names::id("f9-IN");

  const std::vector<InputRoute> inputs = {liveNet.originate(b, "77.0.0.0/16"),
                                          liveNet.originate(Names::id("f9-C"),
                                                            "77.0.0.0/16")};
  std::vector<Flow> flows = {makeFlow(ingress, "20.0.0.5", "77.0.1.1", 0.8e9)};

  // Record route-decision provenance for the destination prefix in both
  // runs: the Hoyan run's recorder drives §5.2's propagation-graph walk and
  // explain chains; the live run's recorder demonstrates the VSB firing.
  const Prefix dstPrefix = *Prefix::parse("77.0.0.0/16");
  obs::ProvenanceOptions provOptions;
  provOptions.enabled = true;
  provOptions.prefixes.push_back(dstPrefix);
  obs::ProvenanceRecorder liveProv(provOptions);
  obs::ProvenanceRecorder hoyanProv(provOptions);

  RouteSimOptions options;
  // Ground truth (the live network's converged state).
  options.provenance = &liveProv;
  NetworkModel liveModel = liveNet.build();
  const RouteSimResult liveRoutes = simulateCentralized(liveModel, inputs, options);
  const TrafficSimResult liveTraffic =
      simulateTraffic(liveModel, liveRoutes.ribs, flows);
  // Hoyan's (mis-modelled) simulation.
  options.provenance = &hoyanProv;
  NetworkModel hoyanModel = modelNet.build();
  const RouteSimResult hoyanRoutes = simulateCentralized(hoyanModel, inputs, options);
  const TrafficSimResult hoyanTraffic =
      simulateTraffic(hoyanModel, hoyanRoutes.ribs, flows);

  // §5.1 automatic accuracy validation: compare simulated loads with SNMP.
  const std::vector<MonitoredLinkLoad> monitored =
      collectMonitoredLinkLoads(liveTraffic.linkLoads);
  const LoadAccuracyReport loadReport = compareLinkLoads(
      hoyanModel.topology, hoyanTraffic.linkLoads, monitored, /*threshold=*/0.10);

  result.narrative = "Accuracy validation found " +
                     std::to_string(loadReport.inaccurateLinks.size()) +
                     " link(s) with load deltas > 10% of bandwidth";
  bool abLinkReported = false;
  for (const LinkLoadDelta& delta : loadReport.inaccurateLinks) {
    result.narrative += "\n  " + delta.str();
    if ((delta.from == a && delta.to == b) || (delta.from == b && delta.to == a))
      abLinkReported = true;
  }

  // §5.2 root-cause analysis.
  const std::vector<RootCauseFinding> findings = analyzeLoadInaccuracies(
      hoyanModel, hoyanRoutes.ribs, liveRoutes.ribs, flows, loadReport,
      /*maxFindings=*/8, &hoyanProv);
  bool vsbLocalised = false;
  for (const RootCauseFinding& finding : findings) {
    result.narrative += "\n" + finding.str();
    if (finding.classification == IssueCategory::kVendorSpecificBehavior &&
        finding.divergence && finding.divergence->device == a)
      vsbLocalised = true;
  }
  // The expert's confirmation: replaying A with the vendor's real semantics,
  // the explain chain for (A, 77.0.0.0/16) names the VSB as the point where
  // the decision diverges from the generic model.
  const std::string liveExplain = liveProv.explainJson(a, dstPrefix);
  const bool vsbExplained =
      liveExplain.find("vsb-applied") != std::string::npos &&
      liveExplain.find("igp-cost-zero-via-sr-tunnel") != std::string::npos;
  result.narrative += "\nExplain(f9-A, 77.0.0.0/16) on the live semantics:\n  " +
                      liveExplain;
  result.riskDetected = abLinkReported && vsbLocalised && vsbExplained;
  result.narrative += result.riskDetected
                          ? "\n=> The Fig. 9 'IGP cost for SR' VSB localised at A "
                            "and named by the explain chain."
                          : "\n=> WARNING: VSB not localised.";
  return result;
}

}  // namespace hoyan
