// Copy-on-write worker-model tests: a NetworkModel sharing the base model's
// topology/config/address storage, degraded through a FailureOverlay and
// rebuildDerivedForFailures(), must be semantically identical to the serial
// oracle's deep-copy + setLinkState/failDevice + rebuildDerived() path — for
// every overlay shape — and must materialize O(impact) bytes, not O(model).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "proto/network_model.h"
#include "rcl/global_rib.h"
#include "sim/route_sim.h"
#include "test_fixtures.h"
#include "topo/topology.h"

namespace hoyan {
namespace {

using testing::buildSmallWan;
using testing::ispRoute;
using testing::SmallWan;

// Canonical rendering of the simulated global RIB: byte-identical fingerprints
// mean byte-identical verification inputs.
std::string ribFingerprint(const NetworkModel& model,
                           std::span<const InputRoute> inputs) {
  const RouteSimResult sim = simulateCentralized(model, inputs);
  const rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(sim.ribs);
  std::string out;
  for (const rcl::RibRow& row : rib.rows()) {
    out += row.str();
    out += '\n';
  }
  return out;
}

// The serial oracle's degraded model: fresh tables, physical link-state flips,
// full derived-state rebuild.
NetworkModel deepDegraded(const NetworkModel& base,
                          const std::vector<std::pair<NameId, NameId>>& links,
                          const std::vector<NameId>& devices) {
  NetworkModel degraded;
  degraded.topology = base.topology;
  degraded.configs = base.configs;
  for (const auto& [a, b] : links) degraded.topology.setLinkState(a, b, false);
  for (const NameId device : devices) degraded.topology.failDevice(device);
  degraded.rebuildDerived();
  return degraded;
}

// The sweep worker's degraded model: shared tables, overlay mask, partial
// rebuild.
NetworkModel cowDegraded(const NetworkModel& base, FailureOverlay& overlay) {
  NetworkModel degraded;
  degraded.topology = base.topology;
  degraded.configs = base.configs;
  degraded.addresses = base.addresses;
  overlay.apply(degraded.topology);
  degraded.rebuildDerivedForFailures();
  return degraded;
}

void expectEquivalent(const NetworkModel& deep, const NetworkModel& cow,
                      std::span<const InputRoute> inputs,
                      const std::string& label) {
  // Effective topology view.
  ASSERT_EQ(deep.topology.links().size(), cow.topology.links().size()) << label;
  for (size_t i = 0; i < deep.topology.links().size(); ++i)
    EXPECT_EQ(deep.topology.linkUp(i), cow.topology.linkUp(i)) << label << " link " << i;
  for (const auto& [name, device] : deep.topology.devices()) {
    (void)device;
    EXPECT_EQ(deep.topology.deviceActive(name), cow.topology.deviceActive(name))
        << label << " device " << Names::str(name);
    const auto deepAdj = deep.adjacenciesOf(name);
    const auto cowAdj = cow.adjacenciesOf(name);
    ASSERT_EQ(deepAdj.size(), cowAdj.size()) << label << " " << Names::str(name);
    for (size_t i = 0; i < deepAdj.size(); ++i) {
      EXPECT_EQ(deepAdj[i].neighbor, cowAdj[i].neighbor) << label;
      EXPECT_EQ(deepAdj[i].linkIndex, cowAdj[i].linkIndex) << label;
    }
  }
  // Derived state: session set and the simulated global RIB.
  ASSERT_EQ(deep.sessions.size(), cow.sessions.size()) << label;
  for (size_t i = 0; i < deep.sessions.size(); ++i) {
    EXPECT_EQ(deep.sessions[i].local, cow.sessions[i].local) << label << " session " << i;
    EXPECT_EQ(deep.sessions[i].peer, cow.sessions[i].peer) << label << " session " << i;
  }
  EXPECT_EQ(ribFingerprint(deep, inputs), ribFingerprint(cow, inputs)) << label;
}

class CowModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = buildSmallWan();
    // A parallel C1-C2 link so the parallel-link overlay shape exists.
    Device* c1 = net_.topology.findDevice(net_.c1);
    Device* c2 = net_.topology.findDevice(net_.c2);
    Interface itfA;
    itfA.name = Names::id("t-C1:par");
    itfA.address = *IpAddress::parse("172.22.0.1");
    itfA.prefixLength = 30;
    itfA.isisEnabled = true;
    itfA.isisCost = 10;
    c1->interfaces.push_back(itfA);
    Interface itfB;
    itfB.name = Names::id("t-C2:par");
    itfB.address = *IpAddress::parse("172.22.0.2");
    itfB.prefixLength = 30;
    itfB.isisEnabled = true;
    itfB.isisCost = 10;
    c2->interfaces.push_back(itfB);
    net_.topology.addLink(net_.c1, itfA.name, net_.c2, itfB.name);
    model_ = net_.model();
    inputs_ = {ispRoute(net_, "100.1.0.0/16")};
  }

  SmallWan net_;
  NetworkModel model_;
  std::vector<InputRoute> inputs_;
};

TEST_F(CowModelTest, CopySharesStorageUntilStructurallyWritten) {
  NetworkModel copy;
  copy.topology = model_.topology;
  copy.configs = model_.configs;
  copy.addresses = model_.addresses;
  EXPECT_TRUE(copy.topology.sharesStorageWith(model_.topology));
  EXPECT_TRUE(copy.configs.sharesStorageWith(model_.configs));
  EXPECT_TRUE(copy.addresses.sharesStorageWith(model_.addresses));

  // Masking is per instance: no detach, base unaffected.
  copy.topology.maskLinkDown(0);
  EXPECT_TRUE(copy.topology.sharesStorageWith(model_.topology));
  EXPECT_FALSE(copy.topology.linkUp(0));
  EXPECT_TRUE(model_.topology.linkUp(0));
  copy.topology.unmaskLink(0);

  // Device failure is per instance too.
  copy.topology.failDevice(net_.c1);
  EXPECT_TRUE(copy.topology.sharesStorageWith(model_.topology));
  EXPECT_FALSE(copy.topology.deviceActive(net_.c1));
  EXPECT_TRUE(model_.topology.deviceActive(net_.c1));
  copy.topology.restoreDevice(net_.c1);

  // A structural write detaches the written table only — and never the base.
  copy.topology.setLinkState(net_.c1, net_.c2, false);
  EXPECT_FALSE(copy.topology.sharesStorageWith(model_.topology));
  EXPECT_TRUE(model_.topology.linkUp(0));
  copy.configs.mutableDevices();
  EXPECT_FALSE(copy.configs.sharesStorageWith(model_.configs));
}

TEST_F(CowModelTest, OverlayShapesMatchDeepCopyModels) {
  struct Shape {
    std::string label;
    std::vector<std::pair<NameId, NameId>> links;
    std::vector<NameId> devices;
  };
  const std::vector<Shape> shapes = {
      {"links-only", {{net_.br1, net_.c1}}, {}},
      {"parallel-links", {{net_.c1, net_.c2}}, {}},
      {"two-links", {{net_.c1, net_.rr1}, {net_.br1, net_.isp1}}, {}},
      {"device-only", {}, {net_.rr1}},
      {"mixed", {{net_.c1, net_.c2}}, {net_.br1}},
      {"external-device", {}, {net_.isp1}},
  };
  for (const Shape& shape : shapes) {
    const NetworkModel deep = deepDegraded(model_, shape.links, shape.devices);
    FailureOverlay overlay;
    for (const auto& [a, b] : shape.links) overlay.addLink(a, b);
    for (const NameId device : shape.devices) overlay.addDevice(device);
    NetworkModel cow = cowDegraded(model_, overlay);
    EXPECT_TRUE(cow.topology.sharesStorageWith(model_.topology)) << shape.label;
    EXPECT_TRUE(cow.addresses.sharesStorageWith(model_.addresses)) << shape.label;
    expectEquivalent(deep, cow, inputs_, shape.label);
    overlay.revert(cow.topology);
  }
}

TEST_F(CowModelTest, OverlayOverPreexistingFailuresMatchesDeepCopy) {
  // Base already has a down link and a failed device; the overlay adds more,
  // including elements already down (which it must leave untouched).
  NetworkModel base = model_;
  base.topology.setLinkState(net_.c2, net_.rr1, false);
  base.topology.failDevice(net_.isp1);
  base.rebuildDerived();

  const NetworkModel deep =
      deepDegraded(base, {{net_.c1, net_.c2}, {net_.c2, net_.rr1}}, {net_.isp1, net_.br1});
  FailureOverlay overlay;
  overlay.addLink(net_.c1, net_.c2);
  overlay.addLink(net_.c2, net_.rr1);  // Already down.
  overlay.addDevice(net_.isp1);        // Already failed.
  overlay.addDevice(net_.br1);
  NetworkModel cow = cowDegraded(base, overlay);
  expectEquivalent(deep, cow, inputs_, "preexisting");

  // Revert restores exactly the pre-overlay degraded state.
  overlay.revert(cow.topology);
  cow.rebuildDerivedForFailures();
  expectEquivalent(base, cow, inputs_, "preexisting-revert");
}

TEST_F(CowModelTest, RevertRestoresBaseIdentity) {
  FailureOverlay overlay;
  overlay.addLink(net_.br1, net_.c1);
  overlay.addDevice(net_.rr1);
  NetworkModel cow = cowDegraded(model_, overlay);
  EXPECT_GT(cow.topology.overlayMaskedLinks(), 0u);

  overlay.revert(cow.topology);
  cow.rebuildDerivedForFailures();
  EXPECT_EQ(cow.topology.overlayMaskedLinks(), 0u);
  EXPECT_TRUE(cow.topology.sharesStorageWith(model_.topology));
  expectEquivalent(model_, cow, inputs_, "revert");

  // The overlay is reusable after revert (the worker loop reuses one model).
  overlay.apply(cow.topology);
  cow.rebuildDerivedForFailures();
  const NetworkModel deep = deepDegraded(model_, {{net_.br1, net_.c1}}, {net_.rr1});
  expectEquivalent(deep, cow, inputs_, "reuse");
  overlay.revert(cow.topology);
}

TEST_F(CowModelTest, AddressIndexIsFailureIndependent) {
  // Ownership is inventory-derived: the degraded model keeps the base index
  // (shared storage) and it still resolves addresses of failed elements.
  FailureOverlay overlay;
  overlay.addDevice(net_.br1);
  overlay.addLink(net_.c1, net_.c2);
  NetworkModel cow = cowDegraded(model_, overlay);
  ASSERT_TRUE(cow.addresses.sharesStorageWith(model_.addresses));
  const Device* border = model_.topology.findDevice(net_.br1);
  EXPECT_EQ(cow.addresses.owner(border->loopback), net_.br1);
  // Rebuilding from the masked topology yields the same ownership.
  const AddressIndex rebuilt = AddressIndex::build(cow.topology);
  EXPECT_EQ(rebuilt.owner(border->loopback), net_.br1);
  EXPECT_EQ(rebuilt.owner(net_.ispLinkAddr), cow.addresses.owner(net_.ispLinkAddr));
  overlay.revert(cow.topology);
}

TEST(CowMemoryTest, MaterializedBytesScaleWithImpactNotModel) {
  WanSpec smallSpec;
  smallSpec.regions = 1;
  smallSpec.coresPerRegion = 2;
  smallSpec.bordersPerRegion = 1;
  smallSpec.dcsPerRegion = 1;
  smallSpec.ispsPerBorder = 1;
  WanSpec largeSpec;
  largeSpec.regions = 4;
  largeSpec.coresPerRegion = 3;
  largeSpec.bordersPerRegion = 2;
  largeSpec.dcsPerRegion = 2;
  largeSpec.ispsPerBorder = 2;

  const auto workerBytes = [](const WanSpec& spec) {
    const GeneratedWan wan = generateWan(spec);
    const NetworkModel base = wan.buildModel();
    NetworkModel worker;
    worker.topology = base.topology;
    worker.configs = base.configs;
    worker.addresses = base.addresses;
    FailureOverlay overlay;
    overlay.addLink(wan.cores[0], wan.cores[1]);
    overlay.apply(worker.topology);
    worker.rebuildDerivedForFailures();
    const size_t materialized = worker.materializedBytes(base);
    const size_t deep = base.approxDeepBytes();
    const size_t topoOnly = worker.topology.materializedBytes(base.topology);
    overlay.revert(worker.topology);
    return std::tuple{materialized, deep, topoOnly};
  };

  const auto [smallMat, smallDeep, smallTopo] = workerBytes(smallSpec);
  const auto [largeMat, largeDeep, largeTopo] = workerBytes(largeSpec);

  // CoW sharing: a worker materializes well under half of a deep copy.
  EXPECT_LT(smallMat * 2, smallDeep);
  EXPECT_LT(largeMat * 2, largeDeep);

  // The topology overlay itself is O(impact): a one-link overlay costs the
  // same few bytes on a 7-device WAN as on a 50+-device WAN, while the deep
  // model size keeps growing.
  EXPECT_GT(largeDeep, smallDeep * 2);
  EXPECT_LE(largeTopo, 256u);
  EXPECT_LE(smallTopo, 256u);

  // Shape check: a bigger overlay materializes more mask bytes.
  const GeneratedWan wan = generateWan(largeSpec);
  const NetworkModel base = wan.buildModel();
  Topology oneLink = base.topology;
  oneLink.maskLinkDown(0);
  Topology manyLinks = base.topology;
  for (size_t i = 0; i < 8; ++i) manyLinks.maskLinkDown(i);
  EXPECT_GE(manyLinks.materializedBytes(base.topology),
            oneLink.materializedBytes(base.topology));
}

}  // namespace
}  // namespace hoyan
