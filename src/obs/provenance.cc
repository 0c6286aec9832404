#include "obs/provenance.h"

#include <algorithm>

#include "obs/json.h"

namespace hoyan::obs {

std::string routeEventKindName(RouteEventKind kind) {
  switch (kind) {
    case RouteEventKind::kReceived: return "received";
    case RouteEventKind::kPolicyDenied: return "policy-denied";
    case RouteEventKind::kLoopPrevented: return "loop-prevented";
    case RouteEventKind::kNexthopUnresolved: return "nexthop-unresolved";
    case RouteEventKind::kVsbApplied: return "vsb-applied";
    case RouteEventKind::kChosenBest: return "chosen-best";
    case RouteEventKind::kChosenEcmp: return "chosen-ecmp";
    case RouteEventKind::kLostTieBreak: return "lost-tie-break";
    case RouteEventKind::kWithdrawn: return "withdrawn";
    case RouteEventKind::kAdvertised: return "advertised";
    case RouteEventKind::kLocalInstalled: return "local-installed";
  }
  return "?";
}

std::string RouteEvent::str() const {
  std::string out = "[" + std::to_string(seq) + "] " + Names::str(device) + " " +
                    prefix.str() + " " + routeEventKindName(kind);
  if (peer != kInvalidName) out += " peer=" + Names::str(peer);
  if (!detail.empty()) out += " (" + detail + ")";
  return out;
}

std::string RouteEvent::toJson() const {
  std::string out = "{\"seq\":" + std::to_string(seq);
  out += ",\"kind\":\"" + routeEventKindName(kind) + "\"";
  out += ",\"device\":\"" + jsonEscape(Names::str(device)) + "\"";
  if (vrf != kInvalidName) out += ",\"vrf\":\"" + jsonEscape(Names::str(vrf)) + "\"";
  out += ",\"prefix\":\"" + prefix.str() + "\"";
  if (peer != kInvalidName) out += ",\"peer\":\"" + jsonEscape(Names::str(peer)) + "\"";
  if (!detail.empty()) out += ",\"detail\":\"" + jsonEscape(detail) + "\"";
  if (!route.empty()) out += ",\"route\":\"" + jsonEscape(route) + "\"";
  out += "}";
  return out;
}

bool ProvenanceRecorder::wants(const Prefix& prefix) const {
  if (!options_.enabled) return false;
  if (options_.prefixes.empty()) return true;
  for (const Prefix& watched : options_.prefixes)
    if (watched == prefix || watched.contains(prefix)) return true;
  return false;
}

void ProvenanceRecorder::record(RouteEvent event) {
  std::lock_guard lock(mutex_);
  if (events_.size() >= options_.totalEventCap) {
    ++dropped_;
    return;
  }
  size_t& deviceCount = perDevice_[event.device];
  if (deviceCount >= options_.perDeviceEventCap) {
    ++dropped_;
    return;
  }
  ++deviceCount;
  event.seq = nextSeq_++;
  events_.push_back(std::move(event));
}

void ProvenanceRecorder::append(const std::vector<RouteEvent>& events) {
  std::lock_guard lock(mutex_);
  for (const RouteEvent& event : events) {
    if (events_.size() >= options_.totalEventCap) {
      ++dropped_;
      continue;
    }
    size_t& deviceCount = perDevice_[event.device];
    if (deviceCount >= options_.perDeviceEventCap) {
      ++dropped_;
      continue;
    }
    ++deviceCount;
    RouteEvent copy = event;
    copy.seq = nextSeq_++;
    events_.push_back(std::move(copy));
  }
}

std::vector<RouteEvent> ProvenanceRecorder::snapshot() const {
  std::lock_guard lock(mutex_);
  return events_;
}

size_t ProvenanceRecorder::eventCount() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

size_t ProvenanceRecorder::droppedEvents() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void ProvenanceRecorder::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
  perDevice_.clear();
  dropped_ = 0;
  nextSeq_ = 0;
}

namespace {

// Renders the explain block for one device, recursing into the devices the
// chosen routes were learned from. `visited` cuts reflection cycles.
std::string explainDevice(const std::vector<RouteEvent>& events, NameId device,
                          const Prefix& prefix, size_t depth,
                          std::vector<NameId>& visited) {
  visited.push_back(device);
  std::string out = "{\"device\":\"" + jsonEscape(Names::str(device)) + "\"";
  out += ",\"prefix\":\"" + prefix.str() + "\"";
  out += ",\"events\":[";
  std::vector<NameId> upstream;
  bool first = true;
  for (const RouteEvent& event : events) {
    if (event.device != device) continue;
    if (!(event.prefix == prefix) && !prefix.contains(event.prefix)) continue;
    if (!first) out += ",";
    first = false;
    out += event.toJson();
    // Selection winners name the advertising neighbour: the next hop of the
    // step-by-step trace.
    if ((event.kind == RouteEventKind::kChosenBest ||
         event.kind == RouteEventKind::kChosenEcmp) &&
        event.peer != kInvalidName &&
        std::find(visited.begin(), visited.end(), event.peer) == visited.end() &&
        std::find(upstream.begin(), upstream.end(), event.peer) == upstream.end())
      upstream.push_back(event.peer);
  }
  out += "]";
  if (depth > 0 && !upstream.empty()) {
    out += ",\"upstream\":[";
    for (size_t i = 0; i < upstream.size(); ++i) {
      if (i) out += ",";
      out += explainDevice(events, upstream[i], prefix, depth - 1, visited);
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace

std::string ProvenanceRecorder::explainJson(NameId device, const Prefix& prefix,
                                            size_t maxDepth) const {
  std::vector<RouteEvent> events = snapshot();
  std::vector<NameId> visited;
  std::string out = explainDevice(events, device, prefix, maxDepth, visited);
  // Wrap with recorder-level bookkeeping so consumers can see truncation.
  const size_t dropped = droppedEvents();
  out.insert(out.size() - 1, ",\"dropped\":" + std::to_string(dropped));
  return out;
}

bool parseExplainTarget(const std::string& spec, std::string& device, Prefix& prefix) {
  const size_t slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size())
    return false;
  const auto parsed = Prefix::parse(spec.substr(slash + 1));
  if (!parsed) return false;
  device = spec.substr(0, slash);
  prefix = *parsed;
  return true;
}

// --- compressed event logs ---------------------------------------------------

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t fnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ (value & 0xff)) * kFnvPrime;
    value >>= 8;
  }
  return hash;
}

void putVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

bool getVarint(const std::vector<uint8_t>& in, size_t& pos, uint64_t& value) {
  value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= in.size()) return false;
    const uint8_t byte = in[pos++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return true;
  }
  return false;
}

void putPrefix(std::vector<uint8_t>& out, const Prefix& prefix) {
  out.push_back(static_cast<uint8_t>(prefix.family()));
  putVarint(out, prefix.address().bits().hi);
  putVarint(out, prefix.address().bits().lo);
  out.push_back(prefix.length());
}

bool getPrefix(const std::vector<uint8_t>& in, size_t& pos, Prefix& prefix) {
  if (pos >= in.size()) return false;
  const auto family = static_cast<IpFamily>(in[pos++]);
  uint64_t hi, lo;
  if (!getVarint(in, pos, hi) || !getVarint(in, pos, lo)) return false;
  if (pos >= in.size()) return false;
  const uint8_t length = in[pos++];
  prefix = Prefix(IpAddress(family, U128{hi, lo}), length);
  return true;
}

}  // namespace

uint64_t provenanceOptionsFingerprint(const ProvenanceOptions& options) {
  uint64_t hash = kFnvOffset;
  hash = fnvMix(hash, options.enabled ? 1 : 0);
  hash = fnvMix(hash, options.prefixes.size());
  for (const Prefix& prefix : options.prefixes) {
    hash = fnvMix(hash, static_cast<uint64_t>(prefix.family()));
    hash = fnvMix(hash, prefix.address().bits().hi);
    hash = fnvMix(hash, prefix.address().bits().lo);
    hash = fnvMix(hash, prefix.length());
  }
  hash = fnvMix(hash, options.perDeviceEventCap);
  hash = fnvMix(hash, options.totalEventCap);
  return hash;
}

std::vector<uint8_t> compressRouteEvents(const std::vector<RouteEvent>& events) {
  // String table: detail/route strings repeat heavily (the same policy clause
  // or rendered route shows up across events), so each unique string is
  // stored once and referenced by index.
  std::vector<uint8_t> out;
  std::unordered_map<std::string, uint64_t> stringIndex;
  std::vector<const std::string*> strings;
  const auto intern = [&](const std::string& text) {
    const auto [it, inserted] = stringIndex.emplace(text, strings.size());
    if (inserted) strings.push_back(&it->first);
    return it->second;
  };
  struct Packed {
    uint64_t detail, route;
  };
  std::vector<Packed> packed;
  packed.reserve(events.size());
  for (const RouteEvent& event : events)
    packed.push_back(Packed{intern(event.detail), intern(event.route)});

  putVarint(out, events.size());
  putVarint(out, strings.size());
  for (const std::string* text : strings) {
    putVarint(out, text->size());
    out.insert(out.end(), text->begin(), text->end());
  }
  uint64_t lastSeq = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const RouteEvent& event = events[i];
    out.push_back(static_cast<uint8_t>(event.kind));
    putVarint(out, event.device);
    putVarint(out, event.vrf);
    putPrefix(out, event.prefix);
    putVarint(out, event.peer);
    putVarint(out, packed[i].detail);
    putVarint(out, packed[i].route);
    putVarint(out, event.seq - lastSeq);  // Monotone within one recorder.
    lastSeq = event.seq;
  }
  return out;
}

std::vector<RouteEvent> decompressRouteEvents(const std::vector<uint8_t>& bytes) {
  std::vector<RouteEvent> events;
  size_t pos = 0;
  uint64_t count, stringCount;
  if (!getVarint(bytes, pos, count) || !getVarint(bytes, pos, stringCount))
    return events;
  std::vector<std::string> strings;
  strings.reserve(stringCount);
  for (uint64_t i = 0; i < stringCount; ++i) {
    uint64_t size;
    if (!getVarint(bytes, pos, size) || pos + size > bytes.size()) return events;
    strings.emplace_back(reinterpret_cast<const char*>(bytes.data() + pos), size);
    pos += size;
  }
  events.reserve(count);
  uint64_t lastSeq = 0;
  for (uint64_t i = 0; i < count; ++i) {
    RouteEvent event;
    if (pos >= bytes.size()) break;
    event.kind = static_cast<RouteEventKind>(bytes[pos++]);
    uint64_t device, vrf, peer, detail, route, seqDelta;
    if (!getVarint(bytes, pos, device) || !getVarint(bytes, pos, vrf) ||
        !getPrefix(bytes, pos, event.prefix) || !getVarint(bytes, pos, peer) ||
        !getVarint(bytes, pos, detail) || !getVarint(bytes, pos, route) ||
        !getVarint(bytes, pos, seqDelta))
      break;
    if (detail >= strings.size() || route >= strings.size()) break;
    event.device = static_cast<NameId>(device);
    event.vrf = static_cast<NameId>(vrf);
    event.peer = static_cast<NameId>(peer);
    event.detail = strings[detail];
    event.route = strings[route];
    event.seq = lastSeq + seqDelta;
    lastSeq = event.seq;
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace hoyan::obs
