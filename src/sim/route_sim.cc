#include "sim/route_sim.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "obs/provenance.h"
#include "obs/telemetry.h"
#include "proto/bgp.h"
#include "proto/policy_eval.h"
#include "sim/local_routes.h"

namespace hoyan {
namespace {

// Route-target constant for the global (default VRF) table: "0:0". A VRF
// with import-rt 0:0 imports global routes; export-rt 0:0 leaks into global.
constexpr uint64_t kGlobalRouteTarget = 0;

struct CellKey {
  NameId device;
  NameId vrf;
  Prefix prefix;

  friend bool operator==(const CellKey&, const CellKey&) = default;
};

struct CellKeyHash {
  // splitmix64 finalizer: the previous xor-of-multiplied-ids kept small
  // NameIds (the common case — ids are dense, starting at 0) clustered in
  // the low bucket bits; full avalanche costs two multiplies and fixes the
  // load factor of the cells_/dirty_ maps.
  static uint64_t mix(uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }
  size_t operator()(const CellKey& key) const {
    const uint64_t ids = (uint64_t{key.device} << 32) | key.vrf;
    return static_cast<size_t>(mix(mix(ids) ^ key.prefix.hashValue()));
  }
};

// A route as held in a device's Adj-RIB-In, remembering the session it
// arrived on (needed for iBGP re-advertisement rules).
struct ReceivedRoute {
  Route route;
  size_t viaSession = SIZE_MAX;
  uint32_t pathId = 0;
};

// Every route a cell holds is BGP-family (kBgp or kAggregate): inputs are
// injected as kBgp unless they are aggregates, the engine originates
// aggregates as kAggregate, leaks copy a BGP-family best, and received routes
// were sent as kBgp. So `selected` ranks exactly the routes advertisement
// ranks, and advertisement reads it instead of ranking the cell again.
struct Cell {
  std::vector<ReceivedRoute> adjIn;
  std::vector<Route> localOrigin;  // Inputs injected here, aggregates, leaks.
  std::vector<Route> selected;     // Post-selection RIB content.
};

// One advertisement: the full set of routes `fromSession.local` currently
// advertises for (vrf-at-receiver, prefix) — replaces all previous routes
// from that sender (an empty set is a withdraw).
struct Advertisement {
  size_t session = SIZE_MAX;  // Direction local -> peer.
  Prefix prefix;
  std::vector<Route> routes;
};

class RouteSimEngine {
 public:
  RouteSimEngine(const NetworkModel& model, const RouteSimOptions& options)
      : model_(model), options_(options) {
    prov_ = options.provenance && options.provenance->enabled() ? options.provenance
                                                                : nullptr;
    // Provenance bypass: replay needs real per-route event emission, so a
    // recording engine never consults the memo (the regex cache and interning
    // still apply through ctx.kernel).
    memoEnabled_ = options.policyMemo && prov_ == nullptr;
    // Reverse-session lookup: receiving side of each directed session.
    // Parallel sessions between the same device pair are disambiguated by
    // the session addresses (the reverse session dials our local address).
    for (size_t i = 0; i < model_.sessions.size(); ++i) {
      const BgpSession& session = model_.sessions[i];
      size_t fallback = SIZE_MAX;
      for (const size_t j : model_.sessionIndex.of(session.peer)) {
        if (model_.sessions[j].peer != session.local) continue;
        if (model_.sessions[j].peerAddress == session.localAddress) {
          fallback = j;
          break;
        }
        if (fallback == SIZE_MAX) fallback = j;
      }
      reverse_.push_back(fallback);
    }
  }

  RouteSimResult run(std::span<const InputRoute> inputs) {
    obs::Telemetry& tel = obs::Telemetry::orDisabled(options_.telemetry);
    RouteSimResult result;
    result.stats.inputRoutes = inputs.size();

    // Equivalence-class reduction.
    obs::Span ecSpan = tel.tracer().span("route_sim.ec", "sim");
    EcPlan plan;
    std::span<const InputRoute> effective = inputs;
    if (options_.useEquivalenceClasses) {
      plan = buildRouteEcs(model_, inputs, &result.stats.ec);
      effective = plan.toSimulate;
    }
    ecSpan.finish();
    result.stats.ecSeconds = ecSpan.seconds();
    result.stats.simulatedInputs = effective.size();

    obs::Span propagateSpan = tel.tracer().span("route_sim.propagate", "sim");

    // Inject inputs as locally originated routes at their devices, as BGP
    // routes (the BGP-family invariant above Cell).
    for (const InputRoute& input : effective) {
      if (!model_.topology.deviceActive(input.device)) continue;
      Route route = input.route;
      if (route.protocol != Protocol::kBgp && route.protocol != Protocol::kAggregate)
        route.protocol = Protocol::kBgp;
      Cell& cell = cellFor(CellKey{input.device, route.vrf, route.prefix});
      dirty_.insert({CellKey{input.device, route.vrf, route.prefix}, true});
      cell.localOrigin.push_back(std::move(route));
      ++installed_;
    }

    // Fixpoint rounds.
    std::vector<Advertisement> pending;
    int round = 0;
    while (round < options_.maxRounds) {
      ++round;
      // Selection + advertisement for all dirty cells.
      std::vector<CellKey> dirtyNow;
      dirtyNow.reserve(dirty_.size());
      for (const auto& [key, flag] : dirty_) dirtyNow.push_back(key);
      dirty_.clear();
      if (dirtyNow.empty()) break;
      // Deterministic processing order.
      std::sort(dirtyNow.begin(), dirtyNow.end(), [](const CellKey& a, const CellKey& b) {
        if (a.device != b.device) return a.device < b.device;
        if (a.vrf != b.vrf) return a.vrf < b.vrf;
        return a.prefix < b.prefix;
      });
      for (const CellKey& key : dirtyNow) {
        reselectCell(key);
        updateAggregates(key);
        leakAcrossVrfs(key);
        produceAdvertisements(key, pending);
      }
      // Deliver this round's advertisements.
      if (pending.empty() && dirty_.empty()) break;
      for (const Advertisement& adv : pending) receive(adv);
      result.stats.messagesProcessed += pending.size();
      pending.clear();
      if (options_.memoryBudgetRoutes && installed_ > options_.memoryBudgetRoutes) {
        result.stats.outOfMemory = true;
        break;
      }
    }
    result.stats.rounds = static_cast<size_t>(round);
    result.stats.converged = dirty_.empty() && !result.stats.outOfMemory;
    propagateSpan.arg("rounds", std::to_string(round));
    propagateSpan.finish();
    result.stats.propagateSeconds = propagateSpan.seconds();
    tel.metrics().counter("sim.route.messages").add(result.stats.messagesProcessed);

    // Materialise RIBs.
    obs::Span materializeSpan = tel.tracer().span("route_sim.materialize", "sim");
    for (auto& [key, cell] : cells_) {
      if (cell.selected.empty()) continue;
      auto& routes = result.ribs.device(key.device).vrf(key.vrf).routesFor(key.prefix);
      routes.insert(routes.end(), cell.selected.begin(), cell.selected.end());
    }
    if (options_.useEquivalenceClasses) expandEcResults(plan.classes, result.ribs);
    result.stats.installedRoutes = result.ribs.routeCount();
    materializeSpan.finish();
    result.stats.materializeSeconds = materializeSpan.seconds();
    result.stats.policy = kernel_.stats();
    result.stats.policy.evaluations = policyEvaluations_;
    tel.metrics().counter("sim.policy_memo.hits").add(result.stats.policy.memoHits);
    tel.metrics().counter("sim.policy_memo.misses").add(result.stats.policy.memoMisses);
    tel.metrics().counter("sim.regex_cache.hits").add(result.stats.policy.regexCacheHits);
    tel.metrics().counter("sim.regex_cache.misses").add(result.stats.policy.regexCacheMisses);
    tel.metrics().counter("sim.policy.bad_regex").add(result.stats.policy.badRegexEvals);
    tel.log().debug("route_sim.done",
                    {{"inputs", std::to_string(inputs.size())},
                     {"routes", std::to_string(result.stats.installedRoutes)},
                     {"rounds", std::to_string(result.stats.rounds)}});
    return result;
  }

 private:
  // --- provenance -----------------------------------------------------------
  // Builds and records one event; callers must have checked
  // `prov_ && prov_->wants(prefix)` first (so the disabled path renders no
  // strings).
  void emitEvent(obs::RouteEventKind kind, NameId device, NameId vrf,
                 const Prefix& prefix, NameId peer, std::string detail,
                 std::string routeStr = {}) {
    obs::RouteEvent event;
    event.kind = kind;
    event.device = device;
    event.vrf = vrf;
    event.prefix = prefix;
    event.peer = peer;
    event.detail = std::move(detail);
    event.route = std::move(routeStr);
    prov_->record(std::move(event));
  }

  // --- policy ---------------------------------------------------------------
  // One policy evaluation for this engine. Fast path (no recorder): the
  // per-class memo (proto/policy_kernel.h) rewrites `route` in place with no
  // reason strings. Recorder path: the plain evaluator runs, formatting the
  // decision trace only when `watch` says this prefix's events are recorded.
  bool applyPolicy(const PolicyContext& context, std::optional<NameId> policyName,
                   Route& route, bool watch, std::string* reason = nullptr) {
    ++policyEvaluations_;
    if (memoEnabled_) return kernel_.evaluate(context, policyName, route);
    if (!watch && !reason) return evaluatePolicyInPlace(context, policyName, route);
    PolicyResult verdict = evaluatePolicy(context, policyName, route, /*explain=*/watch);
    if (reason) *reason = std::move(verdict.reason);
    if (!verdict.permitted) return false;
    route = std::move(verdict.route);
    return true;
  }

  // --- receive side ---------------------------------------------------------
  void receive(const Advertisement& adv) {
    const BgpSession& session = model_.sessions[adv.session];
    const size_t reverseIdx = reverse_[adv.session];
    if (reverseIdx == SIZE_MAX) return;  // No reverse session: never delivers.
    const BgpSession& receiverSide = model_.sessions[reverseIdx];
    const NameId receiver = session.peer;
    const DeviceConfig* config = model_.configs.findDevice(receiver);
    if (!config) return;
    const VendorProfile& vendor = model_.vendorOf(receiver);
    // Deny-policy isolation (Table 5 "device isolation"): sessions stay up
    // but an implicit deny-all policy blocks every update.
    if (config->isolated && vendor.isolationViaDenyPolicy) return;
    const PolicyContext context{config, &vendor, config->bgp.asn, &kernel_};

    const CellKey key{receiver, receiverSide.vrf, adv.prefix};
    Cell& cell = cellFor(key);
    // Replace everything previously received on this session for the prefix.
    const size_t before = cell.adjIn.size();
    std::erase_if(cell.adjIn, [&](const ReceivedRoute& r) { return r.viaSession == reverseIdx; });
    installed_ -= before - cell.adjIn.size();
    const bool watch = prov_ && prov_->wants(adv.prefix);
    if (watch && adv.routes.empty() && before > cell.adjIn.size())
      emitEvent(obs::RouteEventKind::kWithdrawn, receiver, receiverSide.vrf,
                adv.prefix, session.local, "all routes from this session withdrawn");

    uint32_t pathId = 0;
    cell.adjIn.reserve(cell.adjIn.size() + adv.routes.size());
    for (const Route& advertised : adv.routes) {
      Route route = advertised;
      route.vrf = receiverSide.vrf;
      route.learnedFrom = session.local;
      route.ebgpLearned = session.ebgp;
      if (session.ebgp) {
        // AS-loop prevention.
        if (route.attrs.asPath.contains(config->bgp.asn)) {
          if (watch)
            emitEvent(obs::RouteEventKind::kLoopPrevented, receiver,
                      receiverSide.vrf, adv.prefix, session.local,
                      "as-path contains local ASN " + std::to_string(config->bgp.asn));
          continue;
        }
        // localPref and weight are not transitive over eBGP.
        route.attrs.localPref = 100;
        route.attrs.weight = 0;
      } else {
        // Reflection loop prevention.
        if (route.attrs.originatorId == receiver) {
          if (watch)
            emitEvent(obs::RouteEventKind::kLoopPrevented, receiver,
                      receiverSide.vrf, adv.prefix, session.local,
                      "originator-id names this device (reflection loop)");
          continue;
        }
      }
      // Ingress policy (the receiver's import policy for this neighbour).
      std::string reason;
      if (!applyPolicy(context, receiverSide.importPolicy, route, watch, &reason)) {
        if (watch)
          emitEvent(obs::RouteEventKind::kPolicyDenied, receiver, receiverSide.vrf,
                    adv.prefix, session.local, "ingress: " + reason);
        continue;
      }
      route.adminDistance =
          session.ebgp ? vendor.ebgpAdminDistance : vendor.ibgpAdminDistance;
      // Nexthop resolution: IGP cost, SR tunnel detection (Table 5 "IGP cost
      // for SR" — the Fig. 9 root cause).
      if (!resolveNexthop(receiver, vendor, route)) {
        if (watch)
          emitEvent(obs::RouteEventKind::kNexthopUnresolved, receiver,
                    receiverSide.vrf, adv.prefix, session.local,
                    "nexthop " + route.nexthop.str() +
                        " neither IGP-reachable nor adjacent");
        continue;
      }
      route.type = RouteType::kAlternate;
      if (watch)
        emitEvent(obs::RouteEventKind::kReceived, receiver, receiverSide.vrf,
                  adv.prefix, session.local, std::move(reason), route.str());
      cell.adjIn.push_back(ReceivedRoute{std::move(route), reverseIdx, pathId++});
      ++installed_;
    }
    dirty_[key] = true;
  }

  bool resolveNexthop(NameId device, const VendorProfile& vendor, Route& route) {
    if (route.nexthop == IpAddress{}) return true;  // Local/discard routes.
    const auto owner = model_.addresses.owner(route.nexthop);
    if (!owner) return false;  // Unresolvable nexthop: session peer unknown.
    route.nexthopDevice = *owner;
    if (*owner == device) {
      route.igpCost = 0;
      return true;
    }
    const SrPolicyConfig* sr = model_.srPolicyFor(device, route.nexthop);
    route.viaSrTunnel = sr != nullptr;
    const IgpPath path = model_.igp.path(device, *owner);
    if (path.reachable()) {
      route.igpCost = path.cost;
    } else {
      // Not IGP-reachable: usable only if directly adjacent (eBGP peer).
      const auto adjacencies = model_.adjacenciesOf(device);
      const bool adjacent =
          std::any_of(adjacencies.begin(), adjacencies.end(),
                      [&](const Adjacency& adj) { return adj.neighbor == *owner; });
      if (!adjacent && !sr) return false;
      route.igpCost = 0;
    }
    if (sr && vendor.igpCostZeroViaSrTunnel) {
      // The Fig. 9 VSB: the vendor reports IGP cost 0 for nexthops reached
      // through an SR tunnel, changing downstream tie-breaks. Record before
      // rewriting so the event names the cost it erased.
      if (prov_ && prov_->wants(route.prefix))
        emitEvent(obs::RouteEventKind::kVsbApplied, device, route.vrf, route.prefix,
                  route.learnedFrom,
                  "igp-cost-zero-via-sr-tunnel: igp cost " +
                      std::to_string(route.igpCost) + " -> 0");
      route.igpCost = 0;
    }
    return true;
  }

  // --- selection -------------------------------------------------------------
  void reselectCell(const CellKey& key) {
    Cell& cell = cellFor(key);
    cell.selected.clear();
    cell.selected.reserve(cell.adjIn.size() + cell.localOrigin.size());
    for (const ReceivedRoute& received : cell.adjIn) cell.selected.push_back(received.route);
    for (const Route& route : cell.localOrigin) cell.selected.push_back(route);
    selectBestRoutes(cell.selected);
  }

  // --- aggregation -------------------------------------------------------------
  void updateAggregates(const CellKey& key) {
    const DeviceConfig* config = model_.configs.findDevice(key.device);
    if (!config) return;
    const VendorProfile& vendor = model_.vendorOf(key.device);
    for (const AggregateConfig& aggregate : config->bgp.aggregates) {
      if (aggregate.vrf != key.vrf) continue;
      if (!aggregate.prefix.contains(key.prefix) || aggregate.prefix == key.prefix) continue;
      // Recompute the aggregate from all current contributors (scanning only
      // this device+VRF's table via the prefix index).
      std::vector<const Route*> contributors;
      const auto tableIt = tableIndex_.find((uint64_t{key.device} << 32) | key.vrf);
      if (tableIt != tableIndex_.end()) {
        for (const Prefix& prefix : tableIt->second) {
          if (!aggregate.prefix.contains(prefix) || aggregate.prefix == prefix) continue;
          const Cell& otherCell = cells_.find(CellKey{key.device, key.vrf, prefix})->second;
          for (const Route& route : otherCell.selected)
            if (route.type != RouteType::kAlternate) contributors.push_back(&route);
        }
      }
      const CellKey aggKey{key.device, key.vrf, aggregate.prefix};
      Cell& aggCell = cellFor(aggKey);
      // Drop any previously originated aggregate; re-add if still active.
      std::erase_if(aggCell.localOrigin,
                    [](const Route& r) { return r.protocol == Protocol::kAggregate; });
      if (!contributors.empty()) {
        Route route;
        route.prefix = aggregate.prefix;
        route.vrf = key.vrf;
        route.protocol = Protocol::kAggregate;
        route.adminDistance = kAggregateAdminDistance;
        route.attrs.origin = BgpOrigin::kIgp;
        const Device* self = model_.topology.findDevice(key.device);
        route.nexthop = self ? self->loopback : IpAddress{};
        route.nexthopDevice = key.device;
        if (aggregate.asSet) {
          // Union of contributor ASNs as one AS_SET segment.
          std::vector<Asn> asns;
          for (const Route* contributor : contributors)
            for (const AsPath::Segment& segment : contributor->attrs.asPath.segments())
              for (const Asn asn : segment.asns)
                if (std::find(asns.begin(), asns.end(), asn) == asns.end())
                  asns.push_back(asn);
          std::sort(asns.begin(), asns.end());
          if (!asns.empty()) route.attrs.asPath.appendSet(std::move(asns));
        } else if (vendor.keepCommonAsPathOnAggregate) {
          // Table 5 "common AS path prefix": keep the contributors' common
          // leading AS sequence.
          std::vector<Asn> common;
          bool first = true;
          for (const Route* contributor : contributors) {
            std::vector<Asn> flat;
            for (const AsPath::Segment& segment : contributor->attrs.asPath.segments())
              for (const Asn asn : segment.asns) flat.push_back(asn);
            if (first) {
              common = flat;
              first = false;
            } else {
              size_t i = 0;
              while (i < common.size() && i < flat.size() && common[i] == flat[i]) ++i;
              common.resize(i);
            }
          }
          route.attrs.asPath = AsPath(common);
        }
        aggCell.localOrigin.push_back(route);
      }
      dirty_[aggKey] = true;
    }
  }

  // --- VRF route-target leaking (device-local) ---------------------------------
  void leakAcrossVrfs(const CellKey& key) {
    const DeviceConfig* config = model_.configs.findDevice(key.device);
    if (!config || config->vrfs.empty()) return;
    const VendorProfile& vendor = model_.vendorOf(key.device);
    const Cell& cell = cellFor(key);

    // Export route targets of the source table.
    std::vector<uint64_t> exportRts;
    std::optional<NameId> sourceExportPolicy;
    if (key.vrf == kInvalidName) {
      exportRts.push_back(kGlobalRouteTarget);
    } else {
      const auto it = config->vrfs.find(key.vrf);
      if (it == config->vrfs.end()) return;
      exportRts = it->second.exportRouteTargets;
      sourceExportPolicy = it->second.exportPolicy;
    }
    if (exportRts.empty()) return;

    const Route* best = nullptr;
    for (const Route& route : cell.selected)
      if (route.type == RouteType::kBest &&
          (route.protocol == Protocol::kBgp || route.protocol == Protocol::kAggregate))
        best = &route;

    for (const auto& [vrfName, vrf] : config->vrfs) {
      if (vrfName == key.vrf) continue;
      const bool imports = std::any_of(
          vrf.importRouteTargets.begin(), vrf.importRouteTargets.end(), [&](uint64_t rt) {
            return std::find(exportRts.begin(), exportRts.end(), rt) != exportRts.end();
          });
      if (!imports) continue;
      const CellKey targetKey{key.device, vrfName, key.prefix};
      Cell& target = cellFor(targetKey);
      std::erase_if(target.localOrigin, [&](const Route& r) {
        return r.leaked && r.prefix == key.prefix;
      });
      if (best && (!best->leaked || vendor.reLeakLeakedRoutes)) {
        Route leakedRoute = *best;
        // The VSB: whether the importing VRF's export policy filters global
        // routes on their way into VPNv4.
        bool permitted = true;
        const std::optional<NameId> policy =
            key.vrf == kInvalidName
                ? (vendor.vrfExportPolicyAppliesToGlobalLeaks ? vrf.exportPolicy
                                                              : std::nullopt)
                : sourceExportPolicy;
        if (policy) {
          const PolicyContext context{config, &vendor, config->bgp.asn, &kernel_};
          // Nothing reads a leak-denial reason — never format one.
          permitted = applyPolicy(context, policy, leakedRoute, /*watch=*/false);
        }
        if (permitted) {
          leakedRoute.vrf = vrfName;
          leakedRoute.leaked = true;
          leakedRoute.type = RouteType::kAlternate;
          target.localOrigin.push_back(leakedRoute);
          ++installed_;
        }
      }
      dirty_[targetKey] = true;
    }
  }

  // --- advertisement ------------------------------------------------------------
  void produceAdvertisements(const CellKey& key, std::vector<Advertisement>& out) {
    const auto sessionIndices = model_.sessionIndex.of(key.device);
    if (sessionIndices.empty()) return;
    const DeviceConfig* config = model_.configs.findDevice(key.device);
    if (!config) return;
    const VendorProfile& vendor = model_.vendorOf(key.device);
    // Deny-policy isolation: the device advertises nothing.
    if (config->isolated && vendor.isolationViaDenyPolicy) return;
    // BGP best + ECMP: the cell holds only BGP-family routes (see Cell), and
    // reselectCell ranked them earlier in this loop step. The candidates are
    // its non-alternate routes, in rank order; the best comes first.
    const std::vector<Route>& ranked = cellFor(key).selected;

    // Suppress aggregate contributors (summary-only).
    const bool suppressed = isSuppressedContributor(*config, key);

    const bool watch = prov_ && prov_->wants(key.prefix);
    for (const size_t sessionIdx : sessionIndices) {
      const BgpSession& session = model_.sessions[sessionIdx];
      if (session.vrf != key.vrf) continue;
      Advertisement adv;
      adv.session = sessionIdx;
      adv.prefix = key.prefix;
      // Events buffered until the changed-set check below: the fixpoint
      // re-evaluates unchanged advertisements every dirty round, and only
      // rounds that alter the advertised set are provenance-worthy.
      std::vector<obs::RouteEvent> events;
      if (!suppressed) {
        const size_t limit = session.addPathSend ? ranked.size() : 1;
        size_t considered = 0;
        for (const Route& candidate : ranked) {
          if (candidate.type == RouteType::kAlternate) continue;
          if (considered++ == limit) break;
          if (!mayAdvertise(candidate, session, key)) continue;
          Route outbound = candidate;
          applyEgress(*config, session, outbound);
          const PolicyContext context{config, &vendor, config->bgp.asn, &kernel_};
          std::string reason;
          if (!applyPolicy(context, session.exportPolicy, outbound, watch, &reason)) {
            if (watch)
              events.push_back(obs::RouteEvent{
                  obs::RouteEventKind::kPolicyDenied, key.device, key.vrf,
                  key.prefix, session.peer, "egress: " + reason, {}, 0});
            continue;
          }
          if (watch)
            events.push_back(obs::RouteEvent{
                obs::RouteEventKind::kAdvertised, key.device, key.vrf, key.prefix,
                session.peer, {}, outbound.str(), 0});
          adv.routes.push_back(std::move(outbound));
        }
      }
      // Only emit when the advertised set changed (incl. withdraws).
      const auto advKey = std::make_pair(sessionIdx, key.prefix);
      auto& last = lastAdvertised_[advKey];
      if (last != adv.routes) {
        last = adv.routes;
        for (obs::RouteEvent& event : events) prov_->record(std::move(event));
        out.push_back(std::move(adv));
      }
    }
  }

  bool isSuppressedContributor(const DeviceConfig& config, const CellKey& key) const {
    for (const AggregateConfig& aggregate : config.bgp.aggregates) {
      if (aggregate.vrf != key.vrf || !aggregate.summaryOnly) continue;
      if (aggregate.prefix.contains(key.prefix) && !(aggregate.prefix == key.prefix)) {
        // Suppressed only while the aggregate is actually originated.
        const auto it = cells_.find(CellKey{key.device, key.vrf, aggregate.prefix});
        if (it != cells_.end())
          for (const Route& route : it->second.localOrigin)
            if (route.protocol == Protocol::kAggregate) return true;
      }
    }
    return false;
  }

  // iBGP/eBGP re-advertisement rules and the /32 direct VSB.
  bool mayAdvertise(const Route& route, const BgpSession& session, const CellKey& key) {
    const VendorProfile& vendor = model_.vendorOf(key.device);
    // Table 5 "sending /32 route to peer".
    if (route.fromDirectSlash32 && !vendor.sendDirectSlash32ToPeer) return false;
    if (session.ebgp) return true;
    // iBGP: locally originated or eBGP-learned routes go to all iBGP peers.
    if (route.ebgpLearned || route.learnedFrom == kInvalidName ||
        route.protocol == Protocol::kAggregate)
      return true;
    // iBGP-learned: only a route reflector re-advertises.
    const bool fromClient = receivedFromClient(route, key);
    if (fromClient) return true;                    // Reflect to everyone.
    return session.routeReflectorClient;            // Non-client -> clients only.
  }

  bool receivedFromClient(const Route& route, const CellKey& key) {
    const auto it = cells_.find(key);
    if (it == cells_.end()) return false;
    for (const ReceivedRoute& received : it->second.adjIn) {
      if (!(received.route == route)) continue;
      if (received.viaSession == SIZE_MAX) continue;
      return model_.sessions[received.viaSession].routeReflectorClient;
    }
    return false;
  }

  void applyEgress(const DeviceConfig& config, const BgpSession& session,
                   Route& route) const {
    route.protocol = Protocol::kBgp;
    if (session.ebgp) {
      route.attrs.asPath.prepend(config.bgp.asn);
      route.nexthop = session.localAddress;
      route.attrs.originatorId = kInvalidName;
    } else {
      if (session.nextHopSelf) {
        const Device* self = model_.topology.findDevice(session.local);
        route.nexthop = self ? self->loopback : session.localAddress;
      }
      // Stamp the originator: the device that injected the route into iBGP
      // (this device for eBGP-learned/local routes, the iBGP sender when
      // reflecting), so reflection cannot loop it back.
      if (route.attrs.originatorId == kInvalidName) {
        route.attrs.originatorId =
            (route.ebgpLearned || route.learnedFrom == kInvalidName)
                ? session.local
                : route.learnedFrom;
      }
    }
    route.learnedFrom = kInvalidName;  // Receiver re-stamps.
    route.igpCost = 0;
    route.type = RouteType::kAlternate;
  }

  // Cell accessor maintaining the per-(device, vrf) prefix index used by
  // aggregate-contributor scans.
  Cell& cellFor(const CellKey& key) {
    const auto [it, inserted] = cells_.try_emplace(key);
    if (inserted)
      tableIndex_[(uint64_t{key.device} << 32) | key.vrf].push_back(key.prefix);
    return it->second;
  }

  const NetworkModel& model_;
  const RouteSimOptions& options_;
  std::vector<size_t> reverse_;
  std::unordered_map<uint64_t, std::vector<Prefix>> tableIndex_;
  std::unordered_map<CellKey, Cell, CellKeyHash> cells_;
  std::unordered_map<CellKey, bool, CellKeyHash> dirty_;
  struct AdvKeyHash {
    size_t operator()(const std::pair<size_t, Prefix>& key) const {
      return key.first * 0x9e3779b97f4a7c15ULL ^ key.second.hashValue();
    }
  };
  std::unordered_map<std::pair<size_t, Prefix>, std::vector<Route>, AdvKeyHash>
      lastAdvertised_;
  size_t installed_ = 0;
  obs::ProvenanceRecorder* prov_ = nullptr;  // Null when disabled.
  PolicyEvalKernel kernel_;
  bool memoEnabled_ = false;  // options.policyMemo, minus the provenance bypass.
  uint64_t policyEvaluations_ = 0;  // applyPolicy calls, on every path.
};

// Drops exact duplicates from one cell, keeping each route's first copy in
// place and the cell's order.
void dedupeInPlace(std::vector<Route>& routes) {
  auto kept = routes.begin();
  for (auto it = routes.begin(); it != routes.end(); ++it) {
    if (std::find(routes.begin(), kept, *it) != kept) continue;
    if (kept != it) *kept = std::move(*it);
    ++kept;
  }
  routes.erase(kept, routes.end());
}

void recordSelectionEvents(const NetworkRibs& ribs, obs::ProvenanceRecorder* recorder) {
  if (!recorder || !recorder->enabled()) return;
  // Sorted iteration: the RIB maps are unordered, but provenance output must
  // be byte-identical run to run (and across worker counts).
  std::vector<NameId> deviceIds;
  deviceIds.reserve(ribs.devices().size());
  for (const auto& [deviceId, deviceRib] : ribs.devices()) deviceIds.push_back(deviceId);
  std::sort(deviceIds.begin(), deviceIds.end());
  for (const NameId deviceId : deviceIds) {
    const DeviceRib* deviceRib = ribs.findDevice(deviceId);
    std::vector<NameId> vrfIds;
    vrfIds.reserve(deviceRib->vrfs().size());
    for (const auto& [vrfId, vrfRib] : deviceRib->vrfs()) vrfIds.push_back(vrfId);
    std::sort(vrfIds.begin(), vrfIds.end());
    for (const NameId vrfId : vrfIds) {
      const VrfRib* vrfRib = deviceRib->findVrf(vrfId);
      for (const auto& [prefix, routes] : vrfRib->routes()) {
        if (routes.empty() || !recorder->wants(prefix)) continue;
        const Route& best = routes.front();
        for (const Route& route : routes) {
          obs::RouteEvent event;
          event.device = deviceId;
          event.vrf = vrfId;
          event.prefix = prefix;
          event.peer = route.learnedFrom;
          event.route = route.str();
          switch (route.type) {
            case RouteType::kBest:
              event.kind = obs::RouteEventKind::kChosenBest;
              break;
            case RouteType::kEcmp:
              event.kind = obs::RouteEventKind::kChosenEcmp;
              break;
            case RouteType::kAlternate:
              event.kind = obs::RouteEventKind::kLostTieBreak;
              event.detail = "lost on ";
              event.detail += bgpDecisionStep(best, route);
              break;
          }
          recorder->record(std::move(event));
        }
      }
    }
  }
}

}  // namespace

RouteSimResult simulateRoutes(const NetworkModel& model,
                              std::span<const InputRoute> inputs,
                              const RouteSimOptions& options) {
  RouteSimEngine engine(model, options);
  return engine.run(inputs);
}

void finishRib(NetworkRibs& ribs, obs::ProvenanceRecorder* recorder) {
  for (auto& [deviceId, deviceRib] : ribs.devices()) {
    for (auto& [vrfId, vrfRib] : deviceRib.vrfs()) {
      for (auto& [prefix, routes] : vrfRib.routes()) {
        dedupeInPlace(routes);
        selectBestRoutes(routes);
      }
      vrfRib.buildForwardingIndex();
    }
  }
  recordSelectionEvents(ribs, recorder);
}

RouteSimResult simulateCentralized(const NetworkModel& model,
                                   std::span<const InputRoute> inputs,
                                   const RouteSimOptions& options,
                                   const LocalPrefixSet* keepLocal) {
  RouteSimResult result = simulateRoutes(model, inputs, options);
  NetworkRibs local;
  result.stats.localRoutes =
      installLocalRoutes(model, local, options.provenance, keepLocal);
  result.ribs.merge(std::move(local));
  finishRib(result.ribs, options.provenance);
  result.stats.installedRoutes = result.ribs.routeCount();
  return result;
}

}  // namespace hoyan
