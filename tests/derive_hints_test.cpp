// Unit tests for sweep::deriveHints — the scope analysis, the prefix-universe
// evaluation, the relevant-device listing — plus end-to-end checks that
// derived hints prune and stay byte-identical to the serial oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hoyan.h"
#include "rcl/parser.h"
#include "rcl/verify.h"
#include "sweep/derive_hints.h"
#include "sweep/sweep.h"
#include "test_fixtures.h"
#include "verify/properties.h"

namespace hoyan {
namespace {

using testing::buildSmallWan;
using testing::ispRoute;
using testing::SmallWan;

sweep::DeriveResult derive(const std::string& spec, const NetworkModel& model,
                           const std::vector<InputRoute>& inputs) {
  const rcl::ParseOutcome outcome = rcl::parseIntent(spec);
  EXPECT_TRUE(outcome.ok()) << spec << ": " << outcome.error;
  return sweep::deriveHints(*outcome.intent, model, inputs);
}

bool hasPrefix(const sweep::SweepHints& hints, const std::string& prefix) {
  for (const Prefix& p : hints.relevantPrefixes)
    if (p.str() == prefix) return true;
  return false;
}

bool hasDevice(const sweep::SweepHints& hints, NameId device) {
  return std::find(hints.relevantDevices.begin(), hints.relevantDevices.end(),
                   device) != hints.relevantDevices.end();
}

class DeriveHintsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = buildSmallWan();
    model_ = net_.model();
    inputs_ = {ispRoute(net_, "100.1.0.0/16")};
  }

  SmallWan net_;
  NetworkModel model_;
  std::vector<InputRoute> inputs_;
};

TEST_F(DeriveHintsTest, PrefixGuardScopesPrefixesAndDevices) {
  const sweep::DeriveResult result = derive(
      "prefix = 100.1.0.0/16 => POST |> distVals(localPref) = {100}", model_, inputs_);
  ASSERT_TRUE(result.scoped) << result.reason;
  EXPECT_EQ(result.hints.source, "derived");
  EXPECT_FALSE(result.hints.cacheId.empty());
  ASSERT_EQ(result.hints.relevantPrefixes.size(), 1u);
  EXPECT_TRUE(hasPrefix(result.hints, "100.1.0.0/16"));
  // The injector has no IS-IS interface and its session to BR1 rides a
  // specific adjacency (no IGP path), so both session ends are listed; the
  // IGP-connected internal holders need no listing.
  EXPECT_TRUE(hasDevice(result.hints, net_.isp1));
  EXPECT_TRUE(hasDevice(result.hints, net_.br1));
  EXPECT_FALSE(hasDevice(result.hints, net_.c1));
  EXPECT_FALSE(hasDevice(result.hints, net_.c2));
  EXPECT_FALSE(hasDevice(result.hints, net_.rr1));
}

TEST_F(DeriveHintsTest, NegatedPrefixGuardScopesTheComplement) {
  // `not prefix = X` is still prefix-pure: the scope is everything but X.
  const sweep::DeriveResult result =
      derive("not prefix = 100.1.0.0/16 => PRE = POST", model_, inputs_);
  ASSERT_TRUE(result.scoped) << result.reason;
  EXPECT_FALSE(hasPrefix(result.hints, "100.1.0.0/16"));
  // Loopback host routes fall inside the complement.
  const Device* rr = model_.topology.findDevice(net_.rr1);
  EXPECT_TRUE(hasPrefix(result.hints, Prefix(rr->loopback, 32).str()));
  EXPECT_GT(result.hints.relevantPrefixes.size(), 4u);
}

TEST_F(DeriveHintsTest, ForallPrefixWithValuesScopes) {
  const sweep::DeriveResult result = derive(
      "forall device in {t-C1, t-C2}: forall prefix in {100.1.0.0/16}: "
      "routeType = BEST => PRE |> distVals(nexthop) = POST |> distVals(nexthop)",
      model_, inputs_);
  ASSERT_TRUE(result.scoped) << result.reason;
  ASSERT_EQ(result.hints.relevantPrefixes.size(), 1u);
  EXPECT_TRUE(hasPrefix(result.hints, "100.1.0.0/16"));
}

TEST_F(DeriveHintsTest, FilterConjunctScopes) {
  const sweep::DeriveResult result =
      derive("POST || prefix = 100.1.0.0/16 |> count() = 0", model_, inputs_);
  ASSERT_TRUE(result.scoped) << result.reason;
  ASSERT_EQ(result.hints.relevantPrefixes.size(), 1u);
  EXPECT_TRUE(hasPrefix(result.hints, "100.1.0.0/16"));
}

TEST_F(DeriveHintsTest, GuardConjunctionLiftsOnlyThePrefixPart) {
  const sweep::DeriveResult result = derive(
      "prefix = 100.1.0.0/16 and routeType = BEST => POST |> distCnt(device) >= 1",
      model_, inputs_);
  ASSERT_TRUE(result.scoped) << result.reason;
  ASSERT_EQ(result.hints.relevantPrefixes.size(), 1u);
  EXPECT_TRUE(hasPrefix(result.hints, "100.1.0.0/16"));
}

TEST_F(DeriveHintsTest, UnscopableIntentsFallBackWithReason) {
  const std::vector<std::string> unscopable = {
      // Bare RIB access.
      "POST |> count() >= PRE |> count()",
      // Guard is device-pure; forall prefix has no values.
      "device = t-C1 => forall prefix: POST |> distCnt(nexthop) >= 1",
      // Non-prefix filter on an otherwise unrestricted POST.
      "forall device in {t-C1}: POST || (communities contains 100:1) |> count() = 0",
      // Regex guard over a non-prefix field.
      "aspath matches \"^65000\" => PRE |> distCnt(prefix) = POST |> distCnt(prefix)",
      // forall prefix without values inside a scoped-by-nothing context.
      "forall device in {t-C1}: forall prefix: (PRE |> distVals(nexthop) = {1.2.3.4}) "
      "imply (POST |> distVals(nexthop) = {10.2.3.4})",
      // Prefix term buried under a mixed `or` cannot bound the row set.
      "POST || (prefix = 100.1.0.0/16 or routeType = BEST) |> count() >= 1",
  };
  for (const std::string& spec : unscopable) {
    const sweep::DeriveResult result = derive(spec, model_, inputs_);
    EXPECT_FALSE(result.scoped) << spec;
    EXPECT_FALSE(result.reason.empty()) << spec;
    EXPECT_TRUE(result.hints.relevantPrefixes.empty()) << spec;
    EXPECT_TRUE(result.hints.relevantDevices.empty()) << spec;
    // The fallback still names the intent for verdict caching.
    EXPECT_FALSE(result.hints.cacheId.empty()) << spec;
    EXPECT_EQ(result.hints.source, "derived") << spec;
  }
}

TEST_F(DeriveHintsTest, EmptyScopeFallsBack) {
  // Scoped to a prefix nothing in the network can carry: pruning everything
  // would be sound, but empty relevance means "prune nothing" to the engine,
  // so the derivation reports it as unscoped instead.
  const sweep::DeriveResult result =
      derive("prefix = 55.55.55.0/24 => POST |> count() = 0", model_, inputs_);
  EXPECT_FALSE(result.scoped);
  EXPECT_NE(result.reason.find("no prefix"), std::string::npos) << result.reason;
  EXPECT_TRUE(result.hints.relevantPrefixes.empty());
}

TEST_F(DeriveHintsTest, IrrelevantInjectorIsNotListed) {
  // A second external peer announcing an unrelated prefix: an intent scoped to
  // its announcement lists it (and BR1), but not the first ISP.
  Device isp2;
  isp2.name = Names::id("t-ISP2");
  isp2.role = DeviceRole::kExternalPeer;
  isp2.loopback = *IpAddress::parse("9.0.0.99");
  net_.topology.addDevice(isp2);
  DeviceConfig config;
  config.hostname = isp2.name;
  config.vendor = vendorB().name;
  config.routerId = isp2.loopback;
  config.bgp.asn = 65002;
  net_.configs.mutableDevices().emplace(isp2.name, std::move(config));
  Device* border = net_.topology.findDevice(net_.br1);
  Interface borderItf;
  borderItf.name = Names::id("t-BR1:isp2");
  borderItf.address = *IpAddress::parse("172.21.0.1");
  borderItf.prefixLength = 30;
  border->interfaces.push_back(borderItf);
  Device* peer = net_.topology.findDevice(isp2.name);
  Interface peerItf;
  peerItf.name = Names::id("t-ISP2:e0");
  peerItf.address = *IpAddress::parse("172.21.0.2");
  peerItf.prefixLength = 30;
  peer->interfaces.push_back(peerItf);
  net_.topology.addLink(net_.br1, borderItf.name, isp2.name, peerItf.name);
  BgpNeighbor toPeer;
  toPeer.peerAddress = peerItf.address;
  toPeer.remoteAs = 65002;
  net_.configs.device(net_.br1).bgp.neighbors.push_back(toPeer);
  BgpNeighbor toBorder;
  toBorder.peerAddress = borderItf.address;
  toBorder.remoteAs = 64512;
  net_.configs.device(isp2.name).bgp.neighbors.push_back(toBorder);
  // Without an export filter BR1 re-advertises ISP2's route to ISP1 over the
  // policy-free eBGP session, making ISP1 a holder. A deny-all export toward
  // ISP1 stops the route at BR1, so ISP1 stays genuinely inert.
  {
    const NameId denyAll = Names::id("DENY-ALL");
    RoutePolicy& policy = net_.configs.device(net_.br1).routePolicy(denyAll);
    PolicyNode node;
    node.sequence = 10;
    node.action = PolicyAction::kDeny;
    policy.upsertNode(node);
    for (BgpNeighbor& neighbor : net_.configs.device(net_.br1).bgp.neighbors)
      if (neighbor.remoteAs == 65001) neighbor.exportPolicy = denyAll;
  }
  // A stub peer hanging off ISP1 over a non-IS-IS link: the link touches no
  // relevant device, carries no adjacency, and overlaps nothing relevant, so
  // its failure scenarios are inert and must prune. (External peers are never
  // device-failure candidates, so link inertness is what pruning exercises.)
  Device stub;
  stub.name = Names::id("t-STUB");
  stub.role = DeviceRole::kExternalPeer;
  stub.loopback = *IpAddress::parse("9.0.0.98");
  net_.topology.addDevice(stub);
  DeviceConfig stubConfig;
  stubConfig.hostname = stub.name;
  stubConfig.vendor = vendorB().name;
  stubConfig.routerId = stub.loopback;
  stubConfig.bgp.asn = 65003;
  net_.configs.mutableDevices().emplace(stub.name, std::move(stubConfig));
  Device* isp1Device = net_.topology.findDevice(net_.isp1);
  Interface isp1Itf;
  isp1Itf.name = Names::id("t-ISP1:stub");
  isp1Itf.address = *IpAddress::parse("172.21.0.5");
  isp1Itf.prefixLength = 30;
  isp1Device->interfaces.push_back(isp1Itf);
  Interface stubItf;
  stubItf.name = Names::id("t-STUB:e0");
  stubItf.address = *IpAddress::parse("172.21.0.6");
  stubItf.prefixLength = 30;
  net_.topology.findDevice(stub.name)->interfaces.push_back(stubItf);
  net_.topology.addLink(net_.isp1, isp1Itf.name, stub.name, stubItf.name);
  model_ = net_.model();

  InputRoute announcement;
  announcement.device = isp2.name;
  announcement.route.prefix = *Prefix::parse("200.2.0.0/16");
  announcement.route.protocol = Protocol::kBgp;
  announcement.route.attrs.origin = BgpOrigin::kIgp;
  announcement.route.nexthop = isp2.loopback;
  announcement.route.nexthopDevice = isp2.name;
  inputs_.push_back(announcement);

  const sweep::DeriveResult result = derive(
      "prefix = 200.2.0.0/16 => POST |> count() >= 1", model_, inputs_);
  ASSERT_TRUE(result.scoped) << result.reason;
  EXPECT_TRUE(hasDevice(result.hints, isp2.name));
  EXPECT_TRUE(hasDevice(result.hints, net_.br1));
  EXPECT_FALSE(hasDevice(result.hints, net_.isp1));

  // End to end: the ISP1–STUB link is inert for this intent (neither end is
  // relevant or injects a relevant prefix, no IS-IS, no subnet overlap), so
  // its scenarios prune — and the result stays byte-identical to the oracle.
  const rcl::ParseOutcome outcome =
      rcl::parseIntent("prefix = 200.2.0.0/16 => POST |> count() >= 1");
  ASSERT_TRUE(outcome.ok());
  const rcl::IntentPtr intent = outcome.intent;
  const NetworkProperty property = [intent](const NetworkModel&,
                                            const NetworkRibs& ribs) {
    rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(ribs);
    return rcl::checkIntent(*intent, rib, rib).satisfied;
  };
  KFailureOptions failure;
  failure.k = 2;
  failure.includeDeviceFailures = true;
  failure.maxCounterexamples = 50;
  const KFailureResult serial = checkKFailures(model_, inputs_, property, failure);

  sweep::SweepOptions options;
  options.failure = failure;
  options.workers = 3;
  const sweep::SweepResult swept =
      sweep::sweepKFailures(model_, inputs_, property, options, result.hints);
  EXPECT_EQ(serial.scenariosChecked, swept.result.scenariosChecked);
  ASSERT_EQ(serial.counterexamples.size(), swept.result.counterexamples.size());
  for (size_t i = 0; i < serial.counterexamples.size(); ++i) {
    EXPECT_EQ(serial.counterexamples[i].failedLinks,
              swept.result.counterexamples[i].failedLinks);
    EXPECT_EQ(serial.counterexamples[i].failedDevices,
              swept.result.counterexamples[i].failedDevices);
  }
  EXPECT_GT(swept.stats.pruned, 0u);
}

TEST(DeriveHintsHoyanTest, IntentSweepDerivesHintsAndMatchesSerial) {
  SmallWan net = buildSmallWan();
  Hoyan hoyan(net.topology, net.configs);
  hoyan.setInputRoutes({ispRoute(net, "100.1.0.0/16")});
  DistSimOptions simOptions;
  simOptions.workers = 2;
  hoyan.setSimulationOptions(simOptions);
  obs::TelemetryOptions telemetryOptions;
  telemetryOptions.journal = true;
  hoyan.configureTelemetry(telemetryOptions);
  hoyan.enableIncremental();
  hoyan.preprocess();

  const std::string spec = "prefix = 100.1.0.0/16 => POST |> count() >= 1";
  const sweep::DeriveResult derived = hoyan.deriveSweepHints(spec);
  ASSERT_TRUE(derived.scoped) << derived.reason;

  const rcl::ParseOutcome outcome = rcl::parseIntent(spec);
  ASSERT_TRUE(outcome.ok());
  const rcl::IntentPtr intent = outcome.intent;
  const NetworkProperty property = [intent](const NetworkModel&,
                                            const NetworkRibs& ribs) {
    rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(ribs);
    return rcl::checkIntent(*intent, rib, rib).satisfied;
  };
  KFailureOptions failure;
  failure.k = 1;
  failure.maxCounterexamples = 20;
  const KFailureResult serial = hoyan.checkFaultToleranceSerial(property, failure);

  const sweep::SweepResult swept = hoyan.sweepIntentFaultTolerance(spec, failure);
  EXPECT_EQ(serial.scenariosChecked, swept.result.scenariosChecked);
  ASSERT_EQ(serial.counterexamples.size(), swept.result.counterexamples.size());
  for (size_t i = 0; i < serial.counterexamples.size(); ++i) {
    EXPECT_EQ(serial.counterexamples[i].failedLinks,
              swept.result.counterexamples[i].failedLinks);
    EXPECT_EQ(serial.counterexamples[i].failedDevices,
              swept.result.counterexamples[i].failedDevices);
  }
  // The sweep_plan journal event records that the hints were derived.
  ASSERT_NE(hoyan.telemetry(), nullptr);
  const std::string journal = hoyan.telemetry()->journal().toJsonl();
  EXPECT_NE(journal.find("\"ev\":\"sweep_plan\""), std::string::npos);
  EXPECT_NE(journal.find("\"note\":\"derived\""), std::string::npos);

  // CoW accounting: the peak worker footprint stays well under a deep copy.
  EXPECT_GT(swept.stats.workerModelDeepBytes, 0u);
  EXPECT_GT(swept.stats.workerModelPeakBytes, 0u);
  EXPECT_LT(swept.stats.workerModelPeakBytes, swept.stats.workerModelDeepBytes);

  // Warm re-run serves every job from the verdict cache.
  const sweep::SweepResult warm = hoyan.sweepIntentFaultTolerance(spec, failure);
  EXPECT_EQ(warm.stats.evaluated, 0u);
  EXPECT_GT(warm.stats.cacheHits, 0u);

  // An unscopable intent still verifies (unpruned fallback) instead of
  // throwing; a malformed one throws.
  const KFailureResult fallback =
      hoyan.checkIntentFaultTolerance("POST |> count() >= PRE |> count()", failure);
  EXPECT_EQ(fallback.scenariosChecked, serial.scenariosChecked);
  EXPECT_THROW(hoyan.checkIntentFaultTolerance("prefix = ", failure),
               std::invalid_argument);
}

TEST(DeriveHintsHoyanTest, IntentSweepCountsStoreTrafficInItsOwnContext) {
  // Regression: the engine's store kept the instruments of the context its
  // last run reported into. A sweep after that context was destroyed wrote
  // its cached verdicts through freed counters (and while it lived, counted
  // them into the wrong run).
  SmallWan net = buildSmallWan();
  Hoyan hoyan(net.topology, net.configs);
  hoyan.setInputRoutes({ispRoute(net, "100.1.0.0/16")});
  DistSimOptions simOptions;
  simOptions.workers = 2;
  hoyan.setSimulationOptions(simOptions);
  hoyan.enableIncremental();
  hoyan.configureTelemetry({});
  hoyan.preprocess();
  hoyan.configureTelemetry({});  // Destroys the context preprocess reported into.

  KFailureOptions failure;
  failure.k = 1;
  const sweep::SweepResult swept = hoyan.sweepIntentFaultTolerance(
      "prefix = 100.1.0.0/16 => POST |> count() >= 1", failure);
  ASSERT_GT(swept.stats.evaluated, 0u);
  ASSERT_NE(hoyan.telemetry(), nullptr);
  EXPECT_EQ(hoyan.telemetry()->metrics().counter("store.bytes_written").value(),
            swept.stats.evaluated);  // One byte per cached verdict.
}

}  // namespace
}  // namespace hoyan
