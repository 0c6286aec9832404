// Route-decision provenance: recorder semantics (filtering, caps, merge
// order), capture during route simulation (received/chosen/advertised/denied/
// tie-break/VSB events), explain chains, the propagation-graph builder, and
// which simulations a recorder attached to an observability context sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "config/vendor.h"
#include "core/hoyan.h"
#include "diag/prop_graph.h"
#include "obs/provenance.h"
#include "obs/telemetry.h"
#include "scenario/net_builder.h"
#include "sim/route_sim.h"
#include "sweep/sweep.h"
#include "test_fixtures.h"
#include "verify/properties.h"

namespace hoyan {
namespace {

using obs::ProvenanceOptions;
using obs::ProvenanceRecorder;
using obs::RouteEvent;
using obs::RouteEventKind;
using testing::buildSmallWan;
using testing::ispRoute;
using testing::SmallWan;

ProvenanceOptions watchAll() {
  ProvenanceOptions options;
  options.enabled = true;
  return options;
}

RouteEvent event(RouteEventKind kind, const std::string& device,
                 const std::string& prefix, const std::string& peer = "") {
  RouteEvent out;
  out.kind = kind;
  out.device = Names::id(device);
  out.prefix = *Prefix::parse(prefix);
  if (!peer.empty()) out.peer = Names::id(peer);
  return out;
}

std::vector<RouteEventKind> kindsFor(const std::vector<RouteEvent>& events,
                                     NameId device, const Prefix& prefix) {
  std::vector<RouteEventKind> out;
  for (const RouteEvent& e : events)
    if (e.device == device && e.prefix == prefix) out.push_back(e.kind);
  return out;
}

bool hasKind(const std::vector<RouteEventKind>& kinds, RouteEventKind kind) {
  return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
}

// ---------------------------------------------------------------------------
// Recorder semantics.
// ---------------------------------------------------------------------------

TEST(ProvenanceRecorderTest, DisabledRecorderWantsNothing) {
  ProvenanceRecorder recorder;  // enabled defaults to false.
  EXPECT_FALSE(recorder.wants(*Prefix::parse("10.0.0.0/8")));
  recorder.record(event(RouteEventKind::kReceived, "d", "10.0.0.0/8"));
  EXPECT_EQ(recorder.eventCount(), 1u);  // record() itself does not filter...
  ProvenanceRecorder enabled(watchAll());
  EXPECT_TRUE(enabled.wants(*Prefix::parse("10.0.0.0/8")));  // ...wants() does.
}

TEST(ProvenanceRecorderTest, PrefixFilterCoversContainedPrefixes) {
  ProvenanceOptions options = watchAll();
  options.prefixes.push_back(*Prefix::parse("77.0.0.0/16"));
  const ProvenanceRecorder recorder(options);
  EXPECT_TRUE(recorder.wants(*Prefix::parse("77.0.0.0/16")));
  EXPECT_TRUE(recorder.wants(*Prefix::parse("77.0.4.0/24")));  // Contained.
  EXPECT_FALSE(recorder.wants(*Prefix::parse("77.0.0.0/8")));  // Covering.
  EXPECT_FALSE(recorder.wants(*Prefix::parse("78.0.0.0/16")));
}

TEST(ProvenanceRecorderTest, PerDeviceCapDropsExcessAndCounts) {
  ProvenanceOptions options = watchAll();
  options.perDeviceEventCap = 3;
  ProvenanceRecorder recorder(options);
  for (int i = 0; i < 5; ++i)
    recorder.record(event(RouteEventKind::kReceived, "capped", "10.0.0.0/8"));
  recorder.record(event(RouteEventKind::kReceived, "other", "10.0.0.0/8"));
  EXPECT_EQ(recorder.eventCount(), 4u);  // 3 from "capped" + 1 from "other".
  EXPECT_EQ(recorder.droppedEvents(), 2u);
}

TEST(ProvenanceRecorderTest, TotalCapBoundsEverything) {
  ProvenanceOptions options = watchAll();
  options.totalEventCap = 4;
  ProvenanceRecorder recorder(options);
  for (int i = 0; i < 10; ++i)
    recorder.record(event(RouteEventKind::kReceived, "d" + std::to_string(i),
                          "10.0.0.0/8"));
  EXPECT_EQ(recorder.eventCount(), 4u);
  EXPECT_EQ(recorder.droppedEvents(), 6u);
}

TEST(ProvenanceRecorderTest, AppendReassignsSequenceNumbers) {
  ProvenanceRecorder a(watchAll());
  a.record(event(RouteEventKind::kReceived, "x", "10.0.0.0/8"));
  ProvenanceRecorder b(watchAll());
  b.record(event(RouteEventKind::kChosenBest, "y", "10.0.0.0/8"));
  b.record(event(RouteEventKind::kAdvertised, "y", "10.0.0.0/8"));
  a.append(b.snapshot());
  const std::vector<RouteEvent> merged = a.snapshot();
  ASSERT_EQ(merged.size(), 3u);
  for (size_t i = 0; i < merged.size(); ++i) EXPECT_EQ(merged[i].seq, i);
  EXPECT_EQ(merged[1].kind, RouteEventKind::kChosenBest);
}

TEST(ProvenanceRecorderTest, ClearResetsEventsAndDropCounts) {
  ProvenanceOptions options = watchAll();
  options.totalEventCap = 1;
  ProvenanceRecorder recorder(options);
  recorder.record(event(RouteEventKind::kReceived, "d", "10.0.0.0/8"));
  recorder.record(event(RouteEventKind::kReceived, "d", "10.0.0.0/8"));
  EXPECT_EQ(recorder.droppedEvents(), 1u);
  recorder.clear();
  EXPECT_EQ(recorder.eventCount(), 0u);
  EXPECT_EQ(recorder.droppedEvents(), 0u);
  recorder.record(event(RouteEventKind::kReceived, "d", "10.0.0.0/8"));
  EXPECT_EQ(recorder.snapshot()[0].seq, 0u);  // Sequence restarts.
}

TEST(ProvenanceTest, ParseExplainTarget) {
  std::string device;
  Prefix prefix;
  ASSERT_TRUE(obs::parseExplainTarget("f9-A/77.0.0.0/16", device, prefix));
  EXPECT_EQ(device, "f9-A");
  EXPECT_EQ(prefix, *Prefix::parse("77.0.0.0/16"));
  ASSERT_TRUE(obs::parseExplainTarget("R1/2400:1::/32", device, prefix));
  EXPECT_EQ(device, "R1");
  EXPECT_EQ(prefix, *Prefix::parse("2400:1::/32"));
  EXPECT_FALSE(obs::parseExplainTarget("no-slash", device, prefix));
  EXPECT_FALSE(obs::parseExplainTarget("R1/not-a-prefix", device, prefix));
}

TEST(ProvenanceTest, EventJsonNamesKindAndEscapes) {
  RouteEvent e = event(RouteEventKind::kPolicyDenied, "R1", "10.0.0.0/8", "R2");
  e.detail = "clause \"10\"";
  const std::string json = e.toJson();
  EXPECT_NE(json.find("\"kind\":\"policy-denied\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"10\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"device\":\"R1\""), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Capture during simulation.
// ---------------------------------------------------------------------------

TEST(ProvenanceSimTest, RecordsReceiveSelectAdvertiseChain) {
  const SmallWan net = buildSmallWan();
  ProvenanceRecorder recorder(watchAll());
  RouteSimOptions options;
  options.provenance = &recorder;
  const RouteSimResult result =
      simulateRoutes(net.model(), std::vector<InputRoute>{ispRoute(net, "100.1.0.0/16")}, options);
  ASSERT_TRUE(result.stats.converged);

  const Prefix prefix = *Prefix::parse("100.1.0.0/16");
  const std::vector<RouteEvent> events = recorder.snapshot();
  const auto onBorder = kindsFor(events, net.br1, prefix);
  EXPECT_TRUE(hasKind(onBorder, RouteEventKind::kReceived));
  EXPECT_TRUE(hasKind(onBorder, RouteEventKind::kChosenBest));
  EXPECT_TRUE(hasKind(onBorder, RouteEventKind::kAdvertised));
  // The cores received it via the RR and selected it too.
  EXPECT_TRUE(hasKind(kindsFor(events, net.c1, prefix), RouteEventKind::kChosenBest));
  // Every event carries a sequence number in recording order.
  for (size_t i = 1; i < events.size(); ++i)
    EXPECT_GT(events[i].seq, events[i - 1].seq);
}

TEST(ProvenanceSimTest, PrefixFilterScopesTheLog) {
  const SmallWan net = buildSmallWan();
  ProvenanceOptions options = watchAll();
  options.prefixes.push_back(*Prefix::parse("100.1.0.0/16"));
  ProvenanceRecorder recorder(options);
  RouteSimOptions simOptions;
  simOptions.provenance = &recorder;
  simulateRoutes(net.model(),
                 std::vector<InputRoute>{ispRoute(net, "100.1.0.0/16"), ispRoute(net, "200.2.0.0/16")},
                 simOptions);
  for (const RouteEvent& e : recorder.snapshot())
    EXPECT_EQ(e.prefix, *Prefix::parse("100.1.0.0/16")) << e.str();
  EXPECT_GT(recorder.eventCount(), 0u);
}

TEST(ProvenanceSimTest, LoopPreventionRecorded) {
  const SmallWan net = buildSmallWan();
  InputRoute poisoned = ispRoute(net, "100.2.0.0/16");
  poisoned.route.attrs.asPath = AsPath({70000, 64512});
  ProvenanceRecorder recorder(watchAll());
  RouteSimOptions options;
  options.provenance = &recorder;
  simulateRoutes(net.model(), std::vector<InputRoute>{poisoned}, options);
  const auto kinds = kindsFor(recorder.snapshot(), net.br1,
                              *Prefix::parse("100.2.0.0/16"));
  EXPECT_TRUE(hasKind(kinds, RouteEventKind::kLoopPrevented));
  EXPECT_FALSE(hasKind(kinds, RouteEventKind::kReceived));
}

TEST(ProvenanceSimTest, TieBreakLossNamesDecidingStep) {
  // Two equal-AS-path-length routes for one prefix differing in MED: the
  // loser must record a lost-tie-break event naming the step.
  const SmallWan net = buildSmallWan();
  ProvenanceRecorder recorder(watchAll());
  RouteSimOptions options;
  options.provenance = &recorder;
  const RouteSimResult result = simulateRoutes(
      net.model(), std::vector<InputRoute>{ispRoute(net, "100.3.0.0/16", /*med=*/10),
                    ispRoute(net, "100.3.0.0/16", /*med=*/50)},
      options);
  ASSERT_TRUE(result.stats.converged);
  bool lostOnMed = false;
  for (const RouteEvent& e : recorder.snapshot())
    if (e.kind == RouteEventKind::kLostTieBreak &&
        e.detail.find("med") != std::string::npos)
      lostOnMed = true;
  EXPECT_TRUE(lostOnMed);
}

TEST(ProvenanceSimTest, DisabledRecorderStaysEmpty) {
  const SmallWan net = buildSmallWan();
  ProvenanceRecorder recorder;  // Not enabled.
  RouteSimOptions options;
  options.provenance = &recorder;
  simulateRoutes(net.model(), std::vector<InputRoute>{ispRoute(net, "100.1.0.0/16")}, options);
  EXPECT_EQ(recorder.eventCount(), 0u);
}

// The Fig. 9 signature: vendorA's IGP-cost-for-SR rule leaves a vsb-applied
// event, and the explain chain surfaces it with the rewrite detail.
TEST(ProvenanceSimTest, VsbApplicationRecordedAndExplained) {
  NetBuilder nb;
  const NameId a = nb.device("pv-A", 64700, vendorA());
  const NameId b = nb.device("pv-B", 64700, vendorB());
  const NameId c = nb.device("pv-C", 64700, vendorB());
  nb.link(a, b, 10, 1e9);
  nb.link(a, c, 10, 1e9);
  nb.ibgp(a, b, /*bIsClientOfA=*/true);
  nb.ibgp(a, c, /*bIsClientOfA=*/true);
  SrPolicyConfig sr;
  sr.name = Names::id("SR-TO-B");
  sr.endpoint = nb.loopback(b);
  nb.config(a).srPolicies.push_back(sr);

  const Prefix prefix = *Prefix::parse("77.0.0.0/16");
  ProvenanceRecorder recorder(watchAll());
  RouteSimOptions options;
  options.provenance = &recorder;
  const RouteSimResult result = simulateRoutes(
      nb.build(),
      std::vector<InputRoute>{nb.originate(b, "77.0.0.0/16"),
                              nb.originate(c, "77.0.0.0/16")},
      options);
  ASSERT_TRUE(result.stats.converged);

  const auto kinds = kindsFor(recorder.snapshot(), a, prefix);
  EXPECT_TRUE(hasKind(kinds, RouteEventKind::kVsbApplied));
  const std::string explain = recorder.explainJson(a, prefix);
  EXPECT_NE(explain.find("vsb-applied"), std::string::npos) << explain;
  EXPECT_NE(explain.find("igp-cost-zero-via-sr-tunnel"), std::string::npos)
      << explain;
}

TEST(ProvenanceSimTest, ExplainChainFollowsUpstreamDevices) {
  const SmallWan net = buildSmallWan();
  ProvenanceRecorder recorder(watchAll());
  RouteSimOptions options;
  options.provenance = &recorder;
  simulateRoutes(net.model(), std::vector<InputRoute>{ispRoute(net, "100.1.0.0/16")}, options);
  // C1 learned the route via RR1 (from BR1): the chain must mention an
  // upstream section and the border's events.
  const std::string explain =
      recorder.explainJson(net.c1, *Prefix::parse("100.1.0.0/16"));
  EXPECT_NE(explain.find("\"upstream\""), std::string::npos) << explain;
  EXPECT_NE(explain.find(Names::str(net.br1)), std::string::npos) << explain;
  // Unknown pairs explain to an empty-events object, not an error.
  const std::string none =
      recorder.explainJson(Names::id("no-such-device"), *Prefix::parse("1.0.0.0/8"));
  EXPECT_NE(none.find("\"events\":[]"), std::string::npos) << none;
}

// ---------------------------------------------------------------------------
// Propagation graph.
// ---------------------------------------------------------------------------

TEST(PropGraphTest, BuildsEdgesFromSimulationEvents) {
  const SmallWan net = buildSmallWan();
  ProvenanceRecorder recorder(watchAll());
  RouteSimOptions options;
  options.provenance = &recorder;
  simulateRoutes(net.model(), std::vector<InputRoute>{ispRoute(net, "100.1.0.0/16")}, options);

  const PropagationGraph graph = PropagationGraph::fromProvenance(recorder.snapshot());
  EXPECT_FALSE(graph.nodes().empty());
  const auto hasEdge = [&](NameId from, NameId to, const std::string& kind) {
    return std::any_of(graph.edges().begin(), graph.edges().end(),
                       [&](const PropEdge& e) {
                         return e.from == from && e.to == to && e.kind == kind;
                       });
  };
  EXPECT_TRUE(hasEdge(net.isp1, net.br1, "received"));
  EXPECT_TRUE(hasEdge(net.br1, net.rr1, "advertised"));
  EXPECT_TRUE(hasEdge(net.rr1, net.c1, "received"));
}

TEST(PropGraphTest, AddEdgeDeduplicatesAndRegistersNodes) {
  PropagationGraph graph;
  PropEdge edge;
  edge.from = Names::id("pg-A");
  edge.to = Names::id("pg-B");
  edge.prefix = *Prefix::parse("10.0.0.0/8");
  edge.kind = "advertised";
  graph.addEdge(edge);
  graph.addEdge(edge);  // Identical: dropped.
  EXPECT_EQ(graph.edges().size(), 1u);
  EXPECT_EQ(graph.nodes().size(), 2u);
  edge.kind = "denied";
  graph.addEdge(edge);  // Different kind: kept.
  EXPECT_EQ(graph.edges().size(), 2u);
}

TEST(PropGraphTest, WalkOrderIsBreadthFirstFromStart) {
  PropagationGraph graph;
  const NameId a = Names::id("w-A"), b = Names::id("w-B"), c = Names::id("w-C"),
               d = Names::id("w-D");
  const auto edge = [](NameId from, NameId to) {
    PropEdge e;
    e.from = from;
    e.to = to;
    e.prefix = *Prefix::parse("10.0.0.0/8");
    e.kind = "advertised";
    return e;
  };
  graph.addEdge(edge(a, b));
  graph.addEdge(edge(b, c));
  graph.addEdge(edge(c, d));
  const std::vector<NameId> order = graph.walkOrder(b);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], b);
  // a and c are both at distance 1; d is at distance 2, so it comes last.
  EXPECT_EQ(order[3], d);
  // A start with no edges still leads a single-element order.
  const std::vector<NameId> lonely = graph.walkOrder(Names::id("w-Z"));
  ASSERT_EQ(lonely.size(), 1u);
  EXPECT_EQ(lonely[0], Names::id("w-Z"));
}

TEST(PropGraphTest, DotAndJsonExports) {
  PropagationGraph graph;
  PropEdge edge;
  edge.from = Names::id("ex-A");
  edge.to = Names::id("ex-B");
  edge.prefix = *Prefix::parse("10.0.0.0/8");
  edge.kind = "denied";
  edge.detail = "clause 10";
  graph.addEdge(edge);
  const std::string dot = graph.toDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos) << dot;
  EXPECT_NE(dot.find("\"ex-A\" -> \"ex-B\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("dashed"), std::string::npos) << dot;  // Denied edges.
  const std::string json = graph.toJson();
  EXPECT_NE(json.find("\"kind\":\"denied\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"nodes\":"), std::string::npos) << json;
}

TEST(PropGraphTest, JsonExportEscapesControlCharacters) {
  PropagationGraph graph;
  PropEdge edge;
  edge.from = Names::id("esc-A");
  edge.to = Names::id("esc-B");
  edge.prefix = *Prefix::parse("10.0.0.0/8");
  edge.kind = "denied";
  edge.detail = "clause\t10\r\x01";
  graph.addEdge(edge);
  const std::string json = graph.toJson();
  EXPECT_NE(json.find("\"detail\":\"clause\\t10\\r\\u0001\""), std::string::npos)
      << json;
  EXPECT_TRUE(std::none_of(json.begin(), json.end(),
                           [](char c) { return static_cast<unsigned char>(c) < 0x20; }))
      << "raw control character in " << json;
}

TEST(PropGraphTest, FromRibsReconstructsLearnedFromEdges) {
  const SmallWan net = buildSmallWan();
  const RouteSimResult result =
      simulateRoutes(net.model(), std::vector<InputRoute>{ispRoute(net, "100.1.0.0/16")});
  const PropagationGraph graph =
      PropagationGraph::fromRibs(result.ribs, *Prefix::parse("100.1.0.0/16"));
  EXPECT_FALSE(graph.edges().empty());
  for (const PropEdge& e : graph.edges()) EXPECT_EQ(e.kind, "rib");
  // The RR is on the reconstructed path from the border to the cores.
  const auto touches = [&](NameId device) {
    return std::find(graph.nodes().begin(), graph.nodes().end(), device) !=
           graph.nodes().end();
  };
  EXPECT_TRUE(touches(net.rr1));
  EXPECT_TRUE(touches(net.c1));
}

// ---------------------------------------------------------------------------
// Compressed event blobs (the cache's `#prov` side channel).
// ---------------------------------------------------------------------------

TEST(ProvenanceCompressionTest, RoundTripPreservesEveryField) {
  std::vector<RouteEvent> events;
  const std::vector<RouteEventKind> kinds = {
      RouteEventKind::kReceived,          RouteEventKind::kPolicyDenied,
      RouteEventKind::kLoopPrevented,     RouteEventKind::kNexthopUnresolved,
      RouteEventKind::kVsbApplied,        RouteEventKind::kChosenBest,
      RouteEventKind::kChosenEcmp,        RouteEventKind::kLostTieBreak,
      RouteEventKind::kWithdrawn,         RouteEventKind::kAdvertised,
  };
  for (size_t i = 0; i < kinds.size(); ++i) {
    RouteEvent e = event(kinds[i], "dev-" + std::to_string(i % 3),
                         i % 2 == 0 ? "100.1." + std::to_string(i) + ".0/24"
                                    : "2001:db8::/32",
                         i % 2 == 0 ? "peer-" + std::to_string(i % 2) : "");
    e.vrf = Names::id("vrf-main");
    e.detail = i % 3 == 0 ? "" : "clause " + std::to_string(i % 2);  // Repeats.
    e.route = i % 4 == 0 ? "rendered route " + std::to_string(i) : "";
    e.seq = 10 + i * 3;
    events.push_back(e);
  }

  const std::vector<uint8_t> bytes = obs::compressRouteEvents(events);
  const std::vector<RouteEvent> back = obs::decompressRouteEvents(bytes);
  ASSERT_EQ(back.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].kind, events[i].kind) << i;
    EXPECT_EQ(back[i].device, events[i].device) << i;
    EXPECT_EQ(back[i].vrf, events[i].vrf) << i;
    EXPECT_EQ(back[i].prefix, events[i].prefix) << i;
    EXPECT_EQ(back[i].peer, events[i].peer) << i;
    EXPECT_EQ(back[i].detail, events[i].detail) << i;
    EXPECT_EQ(back[i].route, events[i].route) << i;
    EXPECT_EQ(back[i].seq, events[i].seq) << i;
  }
}

TEST(ProvenanceCompressionTest, EmptyAndMalformedInputsAreSafe) {
  EXPECT_TRUE(obs::decompressRouteEvents(obs::compressRouteEvents({})).empty());
  EXPECT_TRUE(obs::decompressRouteEvents({}).empty());
  // Truncation and garbage must not crash; whatever parses before the first
  // inconsistency is returned.
  std::vector<RouteEvent> events;
  for (int i = 0; i < 8; ++i)
    events.push_back(event(RouteEventKind::kReceived, "d",
                           "10.0." + std::to_string(i) + ".0/24"));
  const std::vector<uint8_t> bytes = obs::compressRouteEvents(events);
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    const std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_LE(obs::decompressRouteEvents(truncated).size(), events.size());
  }
  const std::vector<uint8_t> garbage = {0xff, 0xff, 0xff, 0xff, 0x01, 0x02};
  obs::decompressRouteEvents(garbage);  // Must not crash or throw.
}

TEST(ProvenanceCompressionTest, StringTableBeatsNaiveEncoding) {
  // 500 events sharing two detail strings: interning should keep the blob far
  // below the repeated-payload size.
  std::vector<RouteEvent> events;
  size_t naive = 0;
  for (int i = 0; i < 500; ++i) {
    RouteEvent e = event(RouteEventKind::kLostTieBreak, "device-long-name",
                         "100.1.0.0/16", "peer-long-name");
    e.detail = i % 2 == 0 ? "lost to lower router-id after igp-cost tie"
                          : "lost to higher local-pref";
    e.seq = i;
    naive += e.detail.size() + 32;
    events.push_back(e);
  }
  const std::vector<uint8_t> bytes = obs::compressRouteEvents(events);
  EXPECT_LT(bytes.size(), naive / 3);
  EXPECT_EQ(obs::decompressRouteEvents(bytes).size(), events.size());
}

TEST(ProvenanceCompressionTest, OptionsFingerprintTracksTheFilter) {
  ProvenanceOptions base = watchAll();
  EXPECT_EQ(obs::provenanceOptionsFingerprint(base),
            obs::provenanceOptionsFingerprint(base));

  ProvenanceOptions narrowed = base;
  narrowed.prefixes.push_back(*Prefix::parse("100.1.0.0/16"));
  EXPECT_NE(obs::provenanceOptionsFingerprint(base),
            obs::provenanceOptionsFingerprint(narrowed));

  ProvenanceOptions otherPrefix = base;
  otherPrefix.prefixes.push_back(*Prefix::parse("100.2.0.0/16"));
  EXPECT_NE(obs::provenanceOptionsFingerprint(narrowed),
            obs::provenanceOptionsFingerprint(otherPrefix));

  ProvenanceOptions capped = base;
  capped.perDeviceEventCap = 7;
  EXPECT_NE(obs::provenanceOptionsFingerprint(base),
            obs::provenanceOptionsFingerprint(capped));

  ProvenanceOptions disabled = base;
  disabled.enabled = false;
  EXPECT_NE(obs::provenanceOptionsFingerprint(base),
            obs::provenanceOptionsFingerprint(disabled));
}

// ---------------------------------------------------------------------------
// Recorders attached to an observability context.
// ---------------------------------------------------------------------------

TEST(ProvenanceContextTest, GlobalRecorderSeesNoSweepOrOracleScenarios) {
  // A recorder on the global context is there to explain the network the
  // pipeline verifies. The fault sweep's and the serial oracle's
  // per-scenario simulations are not that network: they record nothing,
  // and their results (policy memo on) are the unrecorded ones.
  const SmallWan net = buildSmallWan();
  const NetworkModel model = net.model();
  const std::vector<InputRoute> inputs = {ispRoute(net, "100.1.0.0/16"),
                                          ispRoute(net, "100.2.0.0/16")};
  const NetworkProperty property = [&net](const NetworkModel& degraded,
                                          const NetworkRibs& ribs) {
    return dataPlaneReachable(degraded, ribs, net.c2, *IpAddress::parse("100.1.2.3"));
  };
  KFailureOptions failure;
  failure.k = 1;
  sweep::SweepOptions options;
  options.failure = failure;
  options.workers = 3;
  const KFailureResult serial = checkKFailures(model, inputs, property, failure);
  const sweep::SweepResult swept = sweep::sweepKFailures(model, inputs, property, options);

  ProvenanceRecorder recorder(watchAll());
  obs::Telemetry context;
  context.attach(&recorder);
  obs::Telemetry::setGlobal(&context);
  const KFailureResult serialRecorded = checkKFailures(model, inputs, property, failure);
  const sweep::SweepResult sweptRecorded =
      sweep::sweepKFailures(model, inputs, property, options);
  obs::Telemetry::setGlobal(nullptr);

  EXPECT_EQ(recorder.eventCount(), 0u);
  EXPECT_EQ(swept.stats.scheduled, 5u);
  for (const auto& [label, before, after] :
       {std::tuple{"serial", &serial, &serialRecorded},
        std::tuple{"sweep", &swept.result, &sweptRecorded.result}}) {
    EXPECT_EQ(before->scenariosChecked, after->scenariosChecked) << label;
    ASSERT_EQ(before->counterexamples.size(), after->counterexamples.size()) << label;
    for (size_t i = 0; i < before->counterexamples.size(); ++i)
      EXPECT_EQ(before->counterexamples[i].failedLinks,
                after->counterexamples[i].failedLinks)
          << label << " " << i;
  }
  EXPECT_EQ(sweptRecorded.stats.evaluated, swept.stats.evaluated);
}

TEST(ProvenanceContextTest, FacadeAndGlobalContextRecordersAgree) {
  // Hoyan handles a recorder the same way wherever its context comes from:
  // cleared at verifyChange entry, and read for the violations' explain
  // chains.
  struct Outcome {
    std::string explain;
    std::vector<std::string> chains;
    size_t events = 0;
  };
  const auto run = [](bool global) {
    const SmallWan net = buildSmallWan();
    Hoyan hoyan(net.topology, net.configs);
    hoyan.setInputRoutes({ispRoute(net, "100.1.0.0/16"), ispRoute(net, "100.2.0.0/16")});
    ProvenanceOptions options = watchAll();
    options.prefixes = {*Prefix::parse("100.1.0.0/16")};
    ProvenanceRecorder recorder(options);
    obs::Telemetry context;
    context.attach(&recorder);
    if (global)
      obs::Telemetry::setGlobal(&context);
    else
      hoyan.setTelemetry(&context);
    hoyan.preprocess();
    EXPECT_GT(recorder.eventCount(), 0u) << global;
    ChangePlan plan;
    plan.name = "withdraw";
    plan.withdrawnPrefixes = {*Prefix::parse("100.1.0.0/16")};
    IntentSet intents;
    intents.rclIntents = {"PRE = POST"};
    const ChangeVerificationResult result = hoyan.verifyChange(plan, intents);
    Outcome out;
    out.explain = hoyan.explain("t-C2", *Prefix::parse("100.1.0.0/16"));
    for (const RclOutcome& outcome : result.rclOutcomes)
      for (const rcl::Violation& violation : outcome.result.violations)
        out.chains.push_back(violation.provenanceJson);
    out.events = recorder.eventCount();
    obs::Telemetry::setGlobal(nullptr);
    return out;
  };
  const Outcome facade = run(false);
  const Outcome global = run(true);
  EXPECT_EQ(facade.events, 0u) << "the post-change run records no 100.1.0.0/16 route";
  ASSERT_EQ(facade.chains.size(), 1u);
  EXPECT_FALSE(facade.chains[0].empty());
  EXPECT_NE(facade.explain, "{}");
  EXPECT_EQ(global.events, facade.events);
  EXPECT_EQ(global.explain, facade.explain);
  EXPECT_EQ(global.chains, facade.chains);
}

}  // namespace
}  // namespace hoyan
