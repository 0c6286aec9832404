#include "config/parser.h"

#include <algorithm>
#include <charconv>
#include <optional>

namespace hoyan {
namespace {

// The largest IS-IS wide metric (RFC 5305: 24 bits).
constexpr uint64_t kMaxIsisCost = 0xffffff;

std::optional<uint64_t> parseNumber(std::string_view text) {
  if (text.empty()) return std::nullopt;
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

// Route targets are written "asn:value" like communities but may exceed
// 16-bit halves; pack as asn<<32 | value.
std::optional<uint64_t> parseRouteTarget(std::string_view text) {
  const size_t colon = text.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto asn = parseNumber(text.substr(0, colon));
  const auto value = parseNumber(text.substr(colon + 1));
  if (!asn || !value) return std::nullopt;
  return (*asn << 32) | (*value & 0xffffffffULL);
}

// The parser proper. Tracks the current block context between lines.
class LineParser {
 public:
  LineParser(DeviceConfig& config, Device* device) : config_(config), device_(device) {}

  std::vector<ParseError> run(std::string_view text) {
    int lineNo = 0;
    size_t pos = 0;
    while (pos <= text.size()) {
      const size_t eol = text.find('\n', pos);
      const std::string_view line =
          eol == std::string_view::npos ? text.substr(pos) : text.substr(pos, eol - pos);
      ++lineNo;
      parseLine(line, lineNo);
      if (eol == std::string_view::npos) break;
      pos = eol + 1;
    }
    return std::move(errors_);
  }

 private:
  enum class Context { kTop, kInterface, kPolicyNode, kBgp, kVrf };

  void error(int lineNo, std::string_view line, std::string message) {
    errors_.push_back({lineNo, std::move(message), std::string(line)});
  }

  void parseLine(std::string_view rawLine, int lineNo) {
    std::vector<std::string> tokens = tokenizeConfigLine(rawLine);
    if (tokens.empty() || tokens[0][0] == '#') return;
    if (tokens[0] == "!") {
      context_ = Context::kTop;
      return;
    }
    bool negate = false;
    if (tokens[0] == "no") {
      negate = true;
      tokens.erase(tokens.begin());
      if (tokens.empty()) return error(lineNo, rawLine, "dangling 'no'");
    }
    const std::string& keyword = tokens[0];

    // Block-continuation keywords are tried first in a matching context;
    // anything unrecognised in a block falls through to top-level commands.
    if (context_ == Context::kInterface && parseInterfaceLine(tokens, negate, lineNo, rawLine))
      return;
    if (context_ == Context::kPolicyNode && parsePolicyNodeLine(tokens, negate, lineNo, rawLine))
      return;
    if (context_ == Context::kBgp && parseBgpLine(tokens, negate, lineNo, rawLine)) return;
    if (context_ == Context::kVrf && parseVrfLine(tokens, negate, lineNo, rawLine)) return;

    context_ = Context::kTop;
    if (keyword == "vendor" && tokens.size() == 2) {
      config_.vendor = Names::id(tokens[1]);
    } else if (keyword == "hostname" && tokens.size() == 2) {
      config_.hostname = Names::id(tokens[1]);
    } else if (keyword == "router-id" && tokens.size() == 2) {
      const auto addr = IpAddress::parse(tokens[1]);
      if (!addr) return error(lineNo, rawLine, "bad router-id");
      config_.routerId = *addr;
    } else if (keyword == "isolate") {
      config_.isolated = !negate;
    } else if (keyword == "vrf" && tokens.size() == 2) {
      const NameId name = Names::id(tokens[1]);
      if (negate) {
        config_.vrfs.erase(name);
        return;
      }
      config_.vrfs[name].name = name;
      currentVrf_ = name;
      context_ = Context::kVrf;
    } else if (keyword == "interface" && tokens.size() == 2) {
      currentInterface_ = Names::id(tokens[1]);
      context_ = Context::kInterface;
      if (device_ && !device_->findInterface(currentInterface_)) {
        Interface itf;
        itf.name = currentInterface_;
        device_->interfaces.push_back(itf);
      }
    } else if (keyword == "ip-prefix" || keyword == "ipv6-prefix") {
      parsePrefixListLine(tokens, negate, lineNo, rawLine);
    } else if (keyword == "community-list") {
      parseCommunityListLine(tokens, negate, lineNo, rawLine);
    } else if (keyword == "as-path-list") {
      parseAsPathListLine(tokens, negate, lineNo, rawLine);
    } else if (keyword == "route-policy") {
      parseRoutePolicyHeader(tokens, negate, lineNo, rawLine);
    } else if (keyword == "router" && tokens.size() == 3 && tokens[1] == "bgp") {
      const auto asn = parseNumber(tokens[2]);
      if (!asn) return error(lineNo, rawLine, "bad ASN");
      if (negate) {
        config_.bgp = BgpConfig{};
        return;
      }
      config_.bgp.asn = static_cast<Asn>(*asn);
      context_ = Context::kBgp;
    } else if (keyword == "static-route") {
      parseStaticRoute(tokens, negate, lineNo, rawLine);
    } else if (keyword == "sr-policy") {
      parseSrPolicy(tokens, negate, lineNo, rawLine);
    } else if (keyword == "pbr-policy") {
      parsePbrPolicy(tokens, negate, lineNo, rawLine);
    } else if (keyword == "acl") {
      parseAcl(tokens, negate, lineNo, rawLine);
    } else if (keyword == "apply" && tokens.size() == 5 && tokens[3] == "interface") {
      parseApply(tokens, negate, lineNo, rawLine);
    } else {
      error(lineNo, rawLine, "unknown command '" + keyword + "'");
    }
  }

  // --- interface block -----------------------------------------------------
  bool parseInterfaceLine(const std::vector<std::string>& tokens, bool negate, int lineNo,
                          std::string_view rawLine) {
    if (!device_) return false;
    Interface* itf = device_->findInterface(currentInterface_);
    if (!itf) return false;
    if (tokens[0] == "address" && tokens.size() == 2) {
      const auto prefix = Prefix::parse(tokens[1]);
      if (!prefix) return false;
      // Keep the configured (non-canonicalised) host address.
      const auto addr = IpAddress::parse(tokens[1].substr(0, tokens[1].find('/')));
      itf->address = addr.value_or(prefix->address());
      itf->prefixLength = prefix->length();
      return true;
    }
    if (tokens[0] == "vrf" && tokens.size() == 2) {
      itf->vrf = negate ? kInvalidName : Names::id(tokens[1]);
      return true;
    }
    if (tokens[0] == "isis" && tokens.size() >= 2) {
      if (tokens[1] == "enable") {
        itf->isisEnabled = !negate;
        return true;
      }
      if (tokens[1] == "cost" && tokens.size() == 3) {
        const auto cost = parseNumber(tokens[2]);
        if (!cost) return false;
        if (*cost > kMaxIsisCost) {
          error(lineNo, rawLine,
                "isis cost " + tokens[2] + " out of range 0.." + std::to_string(kMaxIsisCost));
          return true;
        }
        itf->isisCost = static_cast<uint32_t>(*cost);
        return true;
      }
      return false;
    }
    if (tokens[0] == "bandwidth" && tokens.size() == 2) {
      const auto bw = parseNumber(tokens[1]);
      if (!bw) return false;
      itf->bandwidthBps = static_cast<double>(*bw);
      return true;
    }
    if (tokens[0] == "shutdown" && tokens.size() == 1) {
      itf->shutdown = !negate;
      return true;
    }
    return false;
  }

  // --- vrf block -------------------------------------------------------------
  bool parseVrfLine(const std::vector<std::string>& tokens, bool negate, int lineNo,
                    std::string_view rawLine) {
    VrfConfig& vrf = config_.vrfs[currentVrf_];
    if (tokens[0] == "import-rt" && tokens.size() == 2) {
      const auto rt = parseRouteTarget(tokens[1]);
      if (!rt) {
        error(lineNo, rawLine, "bad route-target");
        return true;
      }
      auto& rts = vrf.importRouteTargets;
      if (negate)
        std::erase(rts, *rt);
      else
        rts.push_back(*rt);
      return true;
    }
    if (tokens[0] == "export-rt" && tokens.size() == 2) {
      const auto rt = parseRouteTarget(tokens[1]);
      if (!rt) {
        error(lineNo, rawLine, "bad route-target");
        return true;
      }
      auto& rts = vrf.exportRouteTargets;
      if (negate)
        std::erase(rts, *rt);
      else
        rts.push_back(*rt);
      return true;
    }
    if (tokens[0] == "export-policy" && tokens.size() == 2) {
      if (negate)
        vrf.exportPolicy.reset();
      else
        vrf.exportPolicy = Names::id(tokens[1]);
      return true;
    }
    return false;
  }

  // --- filter lists ----------------------------------------------------------
  // ip-prefix NAME index N (permit|deny) PREFIX [ge G] [le L]
  void parsePrefixListLine(const std::vector<std::string>& tokens, bool negate, int lineNo,
                           std::string_view rawLine) {
    if (tokens.size() < 2) return error(lineNo, rawLine, "prefix-list: missing name");
    const NameId name = Names::id(tokens[1]);
    // Note: family comes from the *command keyword*, not the entry contents —
    // this is exactly what enables the §6.1(b) ip-prefix/ipv6-prefix VSB.
    const IpFamily family = tokens[0] == "ipv6-prefix" ? IpFamily::kV6 : IpFamily::kV4;
    if (negate && tokens.size() == 2) {
      config_.prefixLists.erase(name);
      return;
    }
    if (tokens.size() < 5 || tokens[2] != "index")
      return error(lineNo, rawLine, "prefix-list: expected 'index N permit|deny PREFIX'");
    const auto index = parseNumber(tokens[3]);
    if (!index) return error(lineNo, rawLine, "prefix-list: bad index");
    PrefixList& list = config_.prefixLists[name];
    if (list.entries.empty()) {
      list.name = name;
      list.family = family;
    }
    if (negate) {
      const size_t slot = static_cast<size_t>(*index);
      if (slot < list.entries.size()) list.entries.erase(list.entries.begin() + slot);
      return;
    }
    if (tokens[4] != "permit" && tokens[4] != "deny")
      return error(lineNo, rawLine, "prefix-list: expected permit/deny");
    PrefixListEntry entry;
    entry.permit = tokens[4] == "permit";
    if (tokens.size() < 6) return error(lineNo, rawLine, "prefix-list: missing prefix");
    const auto prefix = Prefix::parse(tokens[5]);
    if (!prefix) return error(lineNo, rawLine, "prefix-list: bad prefix");
    entry.prefix = *prefix;
    for (size_t i = 6; i + 1 < tokens.size(); i += 2) {
      const auto bound = parseNumber(tokens[i + 1]);
      if (!bound) return error(lineNo, rawLine, "prefix-list: bad ge/le");
      if (tokens[i] == "ge")
        entry.ge = static_cast<uint8_t>(*bound);
      else if (tokens[i] == "le")
        entry.le = static_cast<uint8_t>(*bound);
      else
        return error(lineNo, rawLine, "prefix-list: expected ge/le");
    }
    list.entries.push_back(entry);
  }

  // community-list NAME index N (permit|deny) COMM
  void parseCommunityListLine(const std::vector<std::string>& tokens, bool negate, int lineNo,
                              std::string_view rawLine) {
    if (tokens.size() < 2) return error(lineNo, rawLine, "community-list: missing name");
    const NameId name = Names::id(tokens[1]);
    if (negate && tokens.size() == 2) {
      config_.communityLists.erase(name);
      return;
    }
    if (tokens.size() != 6 || tokens[2] != "index")
      return error(lineNo, rawLine, "community-list: expected 'index N permit|deny COMM'");
    if (tokens[4] != "permit" && tokens[4] != "deny")
      return error(lineNo, rawLine, "community-list: expected permit/deny");
    const auto community = Community::parse(tokens[5]);
    if (!community) return error(lineNo, rawLine, "community-list: bad community");
    CommunityList& list = config_.communityLists[name];
    list.name = name;
    list.entries.push_back({tokens[4] == "permit", *community});
  }

  // as-path-list NAME index N (permit|deny) "REGEX"
  void parseAsPathListLine(const std::vector<std::string>& tokens, bool negate, int lineNo,
                           std::string_view rawLine) {
    if (tokens.size() < 2) return error(lineNo, rawLine, "as-path-list: missing name");
    const NameId name = Names::id(tokens[1]);
    if (negate && tokens.size() == 2) {
      config_.asPathLists.erase(name);
      return;
    }
    if (tokens.size() != 6 || tokens[2] != "index")
      return error(lineNo, rawLine, "as-path-list: expected 'index N permit|deny REGEX'");
    if (tokens[4] != "permit" && tokens[4] != "deny")
      return error(lineNo, rawLine, "as-path-list: expected permit/deny");
    AsPathList& list = config_.asPathLists[name];
    list.name = name;
    list.entries.push_back({tokens[4] == "permit", tokens[5]});
  }

  // route-policy NAME node N [permit|deny]
  void parseRoutePolicyHeader(const std::vector<std::string>& tokens, bool negate, int lineNo,
                              std::string_view rawLine) {
    if (tokens.size() < 2) return error(lineNo, rawLine, "route-policy: missing name");
    const NameId name = Names::id(tokens[1]);
    if (tokens.size() == 2) {
      if (negate) config_.routePolicies.erase(name);
      // A bare header (non-negated) just declares the policy.
      if (!negate) config_.routePolicy(name);
      return;
    }
    if (tokens.size() < 4 || tokens[2] != "node")
      return error(lineNo, rawLine, "route-policy: expected 'node N [permit|deny]'");
    const auto sequence = parseNumber(tokens[3]);
    if (!sequence) return error(lineNo, rawLine, "route-policy: bad node number");
    RoutePolicy& policy = config_.routePolicy(name);
    if (negate) {
      policy.removeNode(static_cast<uint32_t>(*sequence));
      return;
    }
    PolicyNode node;
    node.sequence = static_cast<uint32_t>(*sequence);
    if (tokens.size() >= 5) {
      if (tokens[4] == "permit")
        node.action = PolicyAction::kPermit;
      else if (tokens[4] == "deny")
        node.action = PolicyAction::kDeny;
      else
        return error(lineNo, rawLine, "route-policy: bad action");
    }
    // If the node already exists, keep its clauses and only update action —
    // re-entering a node is how change commands edit it.
    if (PolicyNode* existing = policy.findNode(node.sequence)) {
      existing->action = node.action;
    } else {
      policy.upsertNode(node);
    }
    currentPolicy_ = name;
    currentNode_ = node.sequence;
    context_ = Context::kPolicyNode;
  }

  bool parsePolicyNodeLine(const std::vector<std::string>& tokens, bool negate, int lineNo,
                           std::string_view rawLine) {
    RoutePolicy* policy = &config_.routePolicy(currentPolicy_);
    PolicyNode* node = policy->findNode(currentNode_);
    if (!node) return false;
    if (tokens[0] == "match") {
      if (tokens.size() < 2) return false;
      if (tokens[1] == "ip-prefix" || tokens[1] == "ipv6-prefix") {
        if (tokens.size() != 3) {
          error(lineNo, rawLine, "match prefix: missing list");
          return true;
        }
        node->match.prefixList = negate ? std::optional<NameId>() : Names::id(tokens[2]);
        return true;
      }
      if (tokens[1] == "community-list" && tokens.size() == 3) {
        node->match.communityList = negate ? std::optional<NameId>() : Names::id(tokens[2]);
        return true;
      }
      if (tokens[1] == "as-path-list" && tokens.size() == 3) {
        node->match.asPathList = negate ? std::optional<NameId>() : Names::id(tokens[2]);
        return true;
      }
      if (tokens[1] == "nexthop" && tokens.size() == 3) {
        const auto addr = IpAddress::parse(tokens[2]);
        if (!addr) {
          error(lineNo, rawLine, "match nexthop: bad address");
          return true;
        }
        node->match.nexthop = negate ? std::optional<IpAddress>() : *addr;
        return true;
      }
      if (tokens[1] == "protocol" && tokens.size() == 3) {
        if (tokens[2] == "direct")
          node->match.protocol = Protocolish::kDirect;
        else if (tokens[2] == "static")
          node->match.protocol = Protocolish::kStatic;
        else if (tokens[2] == "isis")
          node->match.protocol = Protocolish::kIsis;
        else if (tokens[2] == "bgp")
          node->match.protocol = Protocolish::kBgp;
        else
          error(lineNo, rawLine, "match protocol: unknown protocol");
        if (negate) node->match.protocol.reset();
        return true;
      }
      return false;
    }
    if (tokens[0] == "apply") {
      if (tokens.size() < 2) return false;
      if (tokens[1] == "local-pref" && tokens.size() == 3) {
        const auto value = parseNumber(tokens[2]);
        if (value) node->sets.localPref = static_cast<uint32_t>(*value);
        return true;
      }
      if (tokens[1] == "med" && tokens.size() == 3) {
        const auto value = parseNumber(tokens[2]);
        if (value) node->sets.med = static_cast<uint32_t>(*value);
        return true;
      }
      if (tokens[1] == "weight" && tokens.size() == 3) {
        const auto value = parseNumber(tokens[2]);
        if (value) node->sets.weight = static_cast<uint32_t>(*value);
        return true;
      }
      if (tokens[1] == "nexthop" && tokens.size() == 3) {
        const auto addr = IpAddress::parse(tokens[2]);
        if (addr) node->sets.nexthop = *addr;
        return true;
      }
      if (tokens[1] == "community" && tokens.size() >= 3) {
        if (tokens[2] == "none") {
          node->sets.clearCommunities = true;
          return true;
        }
        if (tokens.size() == 4) {
          const auto community = Community::parse(tokens[3]);
          if (!community) {
            error(lineNo, rawLine, "apply community: bad community");
            return true;
          }
          if (tokens[2] == "add")
            node->sets.addCommunities.push_back(*community);
          else if (tokens[2] == "delete")
            node->sets.deleteCommunities.push_back(*community);
          else
            error(lineNo, rawLine, "apply community: expected add/delete/none");
          return true;
        }
        return true;
      }
      if (tokens[1] == "as-path" && tokens.size() >= 3) {
        if (tokens[2] == "prepend" && tokens.size() == 5) {
          const auto asn = parseNumber(tokens[3]);
          const auto count = parseNumber(tokens[4]);
          if (asn && count)
            node->sets.prepend = {static_cast<Asn>(*asn), static_cast<uint32_t>(*count)};
          return true;
        }
        if (tokens[2] == "overwrite") {
          std::vector<Asn> path;
          for (size_t i = 3; i < tokens.size(); ++i) {
            const auto asn = parseNumber(tokens[i]);
            if (!asn) {
              error(lineNo, rawLine, "apply as-path overwrite: bad ASN");
              return true;
            }
            path.push_back(static_cast<Asn>(*asn));
          }
          node->sets.overwriteAsPath = std::move(path);
          return true;
        }
        return false;
      }
      return false;
    }
    return false;
  }

  // --- router bgp block --------------------------------------------------------
  bool parseBgpLine(const std::vector<std::string>& tokens, bool negate, int lineNo,
                    std::string_view rawLine) {
    if (tokens[0] == "neighbor") {
      if (tokens.size() < 2) return false;
      const auto peer = IpAddress::parse(tokens[1]);
      if (!peer) {
        error(lineNo, rawLine, "neighbor: bad address");
        return true;
      }
      BgpNeighbor* neighbor = config_.bgp.findNeighbor(*peer);
      if (negate && tokens.size() == 2) {
        std::erase_if(config_.bgp.neighbors,
                      [&](const BgpNeighbor& n) { return n.peerAddress == *peer; });
        return true;
      }
      if (!neighbor) {
        config_.bgp.neighbors.push_back({});
        neighbor = &config_.bgp.neighbors.back();
        neighbor->peerAddress = *peer;
      }
      if (tokens.size() == 2) return true;
      const std::string& option = tokens[2];
      if (option == "remote-as" && tokens.size() == 4) {
        const auto asn = parseNumber(tokens[3]);
        if (asn) neighbor->remoteAs = static_cast<Asn>(*asn);
      } else if (option == "import-policy" && tokens.size() == 4) {
        if (negate)
          neighbor->importPolicy.reset();
        else
          neighbor->importPolicy = Names::id(tokens[3]);
      } else if (option == "export-policy" && tokens.size() == 4) {
        if (negate)
          neighbor->exportPolicy.reset();
        else
          neighbor->exportPolicy = Names::id(tokens[3]);
      } else if (option == "reflect-client") {
        neighbor->routeReflectorClient = !negate;
      } else if (option == "next-hop-self") {
        neighbor->nextHopSelf = !negate;
      } else if (option == "add-path-send") {
        neighbor->addPathSend = !negate;
      } else if (option == "shutdown") {
        neighbor->shutdown = !negate;
      } else if (option == "vrf" && tokens.size() == 4) {
        neighbor->vrf = negate ? kInvalidName : Names::id(tokens[3]);
      } else if (option == "peer-group" && tokens.size() == 4) {
        if (negate)
          neighbor->peerGroup.reset();
        else
          neighbor->peerGroup = Names::id(tokens[3]);
      } else {
        error(lineNo, rawLine, "neighbor: unknown option '" + option + "'");
      }
      return true;
    }
    if (tokens[0] == "peer-group" && tokens.size() >= 2) {
      const NameId name = Names::id(tokens[1]);
      BgpPeerGroup* group = nullptr;
      for (BgpPeerGroup& g : config_.bgp.peerGroups)
        if (g.name == name) group = &g;
      if (negate && tokens.size() == 2) {
        std::erase_if(config_.bgp.peerGroups,
                      [name](const BgpPeerGroup& g) { return g.name == name; });
        return true;
      }
      if (!group) {
        config_.bgp.peerGroups.push_back({});
        group = &config_.bgp.peerGroups.back();
        group->name = name;
      }
      if (tokens.size() == 2) return true;
      const std::string& option = tokens[2];
      if (option == "import-policy" && tokens.size() == 4)
        group->importPolicy = Names::id(tokens[3]);
      else if (option == "export-policy" && tokens.size() == 4)
        group->exportPolicy = Names::id(tokens[3]);
      else if (option == "reflect-client")
        group->routeReflectorClient = !negate;
      else if (option == "next-hop-self")
        group->nextHopSelf = !negate;
      else if (option == "add-path-send")
        group->addPathSend = !negate;
      else
        error(lineNo, rawLine, "peer-group: unknown option '" + option + "'");
      return true;
    }
    if (tokens[0] == "redistribute" && tokens.size() >= 2) {
      Protocolish from;
      if (tokens[1] == "static")
        from = Protocolish::kStatic;
      else if (tokens[1] == "direct")
        from = Protocolish::kDirect;
      else if (tokens[1] == "isis")
        from = Protocolish::kIsis;
      else {
        error(lineNo, rawLine, "redistribute: unknown source");
        return true;
      }
      if (negate) {
        std::erase_if(config_.bgp.redistributions,
                      [from](const Redistribution& r) { return r.from == from; });
        return true;
      }
      Redistribution redist;
      redist.from = from;
      if (tokens.size() == 4 && tokens[2] == "policy") redist.policy = Names::id(tokens[3]);
      config_.bgp.redistributions.push_back(redist);
      return true;
    }
    if (tokens[0] == "aggregate" && tokens.size() >= 2) {
      const auto prefix = Prefix::parse(tokens[1]);
      if (!prefix) {
        error(lineNo, rawLine, "aggregate: bad prefix");
        return true;
      }
      if (negate) {
        std::erase_if(config_.bgp.aggregates,
                      [&](const AggregateConfig& a) { return a.prefix == *prefix; });
        return true;
      }
      AggregateConfig aggregate;
      aggregate.prefix = *prefix;
      for (size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "as-set")
          aggregate.asSet = true;
        else if (tokens[i] == "advertise-all")
          aggregate.summaryOnly = false;
        else if (tokens[i] == "vrf" && i + 1 < tokens.size())
          aggregate.vrf = Names::id(tokens[++i]);
        else
          error(lineNo, rawLine, "aggregate: unknown option");
      }
      config_.bgp.aggregates.push_back(aggregate);
      return true;
    }
    return false;
  }

  // --- top-level subsystems ----------------------------------------------------
  // static-route PREFIX (nexthop A | discard) [vrf V] [preference N]
  void parseStaticRoute(const std::vector<std::string>& tokens, bool negate, int lineNo,
                        std::string_view rawLine) {
    if (tokens.size() < 3) return error(lineNo, rawLine, "static-route: too short");
    const auto prefix = Prefix::parse(tokens[1]);
    if (!prefix) return error(lineNo, rawLine, "static-route: bad prefix");
    StaticRouteConfig route;
    route.prefix = *prefix;
    size_t i = 2;
    if (tokens[i] == "discard") {
      route.discard = true;
      ++i;
    } else if (tokens[i] == "nexthop" && i + 1 < tokens.size()) {
      const auto nexthop = IpAddress::parse(tokens[i + 1]);
      if (!nexthop) return error(lineNo, rawLine, "static-route: bad nexthop");
      route.nexthop = *nexthop;
      i += 2;
    } else {
      return error(lineNo, rawLine, "static-route: expected nexthop/discard");
    }
    for (; i + 1 < tokens.size(); i += 2) {
      if (tokens[i] == "vrf")
        route.vrf = Names::id(tokens[i + 1]);
      else if (tokens[i] == "preference") {
        const auto pref = parseNumber(tokens[i + 1]);
        if (!pref) return error(lineNo, rawLine, "static-route: bad preference");
        route.preference = static_cast<uint8_t>(*pref);
      } else {
        return error(lineNo, rawLine, "static-route: unknown option");
      }
    }
    if (negate) {
      std::erase_if(config_.staticRoutes, [&](const StaticRouteConfig& s) {
        return s.prefix == route.prefix && s.vrf == route.vrf &&
               (route.discard ? s.discard : s.nexthop == route.nexthop);
      });
      return;
    }
    config_.staticRoutes.push_back(route);
  }

  // sr-policy NAME endpoint A [color N] [segments S1 S2 ...]
  void parseSrPolicy(const std::vector<std::string>& tokens, bool negate, int lineNo,
                     std::string_view rawLine) {
    if (tokens.size() < 2) return error(lineNo, rawLine, "sr-policy: missing name");
    const NameId name = Names::id(tokens[1]);
    if (negate) {
      std::erase_if(config_.srPolicies,
                    [name](const SrPolicyConfig& p) { return p.name == name; });
      return;
    }
    SrPolicyConfig policy;
    policy.name = name;
    for (size_t i = 2; i < tokens.size(); ++i) {
      if (tokens[i] == "endpoint" && i + 1 < tokens.size()) {
        const auto addr = IpAddress::parse(tokens[++i]);
        if (!addr) return error(lineNo, rawLine, "sr-policy: bad endpoint");
        policy.endpoint = *addr;
      } else if (tokens[i] == "color" && i + 1 < tokens.size()) {
        const auto color = parseNumber(tokens[++i]);
        if (!color) return error(lineNo, rawLine, "sr-policy: bad color");
        policy.color = static_cast<uint32_t>(*color);
      } else if (tokens[i] == "segments") {
        for (++i; i < tokens.size(); ++i) {
          const auto addr = IpAddress::parse(tokens[i]);
          if (!addr) return error(lineNo, rawLine, "sr-policy: bad segment");
          policy.segments.push_back(*addr);
        }
      } else {
        return error(lineNo, rawLine, "sr-policy: unknown option");
      }
    }
    // Replace an existing policy of the same name.
    std::erase_if(config_.srPolicies,
                  [name](const SrPolicyConfig& p) { return p.name == name; });
    config_.srPolicies.push_back(policy);
  }

  // pbr-policy NAME rule [src P] [dst P] [port N] nexthop A
  void parsePbrPolicy(const std::vector<std::string>& tokens, bool negate, int lineNo,
                      std::string_view rawLine) {
    if (tokens.size() < 2) return error(lineNo, rawLine, "pbr-policy: missing name");
    const NameId name = Names::id(tokens[1]);
    if (negate && tokens.size() == 2) {
      config_.pbrPolicies.erase(name);
      return;
    }
    if (tokens.size() < 3 || tokens[2] != "rule")
      return error(lineNo, rawLine, "pbr-policy: expected 'rule ...'");
    PbrRule rule;
    bool haveNexthop = false;
    for (size_t i = 3; i + 1 < tokens.size(); i += 2) {
      if (tokens[i] == "src") {
        const auto prefix = Prefix::parse(tokens[i + 1]);
        if (!prefix) return error(lineNo, rawLine, "pbr: bad src");
        rule.srcPrefix = *prefix;
      } else if (tokens[i] == "dst") {
        const auto prefix = Prefix::parse(tokens[i + 1]);
        if (!prefix) return error(lineNo, rawLine, "pbr: bad dst");
        rule.dstPrefix = *prefix;
      } else if (tokens[i] == "port") {
        const auto port = parseNumber(tokens[i + 1]);
        if (!port) return error(lineNo, rawLine, "pbr: bad port");
        rule.dstPort = static_cast<uint16_t>(*port);
      } else if (tokens[i] == "nexthop") {
        const auto addr = IpAddress::parse(tokens[i + 1]);
        if (!addr) return error(lineNo, rawLine, "pbr: bad nexthop");
        rule.setNexthop = *addr;
        haveNexthop = true;
      } else {
        return error(lineNo, rawLine, "pbr: unknown option");
      }
    }
    if (!haveNexthop) return error(lineNo, rawLine, "pbr: missing nexthop");
    PbrPolicy& policy = config_.pbrPolicies[name];
    policy.name = name;
    policy.rules.push_back(rule);
  }

  // acl NAME rule (permit|deny) [src P] [dst P] [port N] [proto N]
  void parseAcl(const std::vector<std::string>& tokens, bool negate, int lineNo,
                std::string_view rawLine) {
    if (tokens.size() < 2) return error(lineNo, rawLine, "acl: missing name");
    const NameId name = Names::id(tokens[1]);
    if (negate && tokens.size() == 2) {
      config_.acls.erase(name);
      return;
    }
    if (tokens.size() < 4 || tokens[2] != "rule")
      return error(lineNo, rawLine, "acl: expected 'rule permit|deny ...'");
    AclRule rule;
    rule.permit = tokens[3] == "permit";
    for (size_t i = 4; i + 1 < tokens.size(); i += 2) {
      if (tokens[i] == "src") {
        const auto prefix = Prefix::parse(tokens[i + 1]);
        if (!prefix) return error(lineNo, rawLine, "acl: bad src");
        rule.srcPrefix = *prefix;
      } else if (tokens[i] == "dst") {
        const auto prefix = Prefix::parse(tokens[i + 1]);
        if (!prefix) return error(lineNo, rawLine, "acl: bad dst");
        rule.dstPrefix = *prefix;
      } else if (tokens[i] == "port") {
        const auto port = parseNumber(tokens[i + 1]);
        if (!port) return error(lineNo, rawLine, "acl: bad port");
        rule.dstPort = static_cast<uint16_t>(*port);
      } else if (tokens[i] == "proto") {
        const auto proto = parseNumber(tokens[i + 1]);
        if (!proto) return error(lineNo, rawLine, "acl: bad proto");
        rule.ipProtocol = static_cast<uint8_t>(*proto);
      } else {
        return error(lineNo, rawLine, "acl: unknown option");
      }
    }
    AclConfig& acl = config_.acls[name];
    acl.name = name;
    acl.rules.push_back(rule);
  }

  // apply (pbr|acl) NAME interface IF
  void parseApply(const std::vector<std::string>& tokens, bool negate, int lineNo,
                  std::string_view rawLine) {
    const NameId target = Names::id(tokens[2]);
    const NameId itf = Names::id(tokens[4]);
    auto applyTo = [negate, itf](std::vector<NameId>& interfaces) {
      if (negate) {
        std::erase(interfaces, itf);
      } else if (std::find(interfaces.begin(), interfaces.end(), itf) == interfaces.end()) {
        interfaces.push_back(itf);
      }
    };
    if (tokens[1] == "pbr") {
      const auto it = config_.pbrPolicies.find(target);
      if (it == config_.pbrPolicies.end())
        return error(lineNo, rawLine, "apply pbr: unknown policy");
      applyTo(it->second.appliedInterfaces);
    } else if (tokens[1] == "acl") {
      const auto it = config_.acls.find(target);
      if (it == config_.acls.end()) return error(lineNo, rawLine, "apply acl: unknown acl");
      applyTo(it->second.appliedInterfaces);
    } else {
      error(lineNo, rawLine, "apply: expected pbr/acl");
    }
  }

  DeviceConfig& config_;
  Device* device_;
  Context context_ = Context::kTop;
  NameId currentInterface_ = kInvalidName;
  NameId currentVrf_ = kInvalidName;
  NameId currentPolicy_ = kInvalidName;
  uint32_t currentNode_ = 0;
  std::vector<ParseError> errors_;
};

}  // namespace

std::vector<std::string> tokenizeConfigLine(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) ++i;
    if (i >= line.size()) break;
    if (line[i] == '"') {
      const size_t close = line.find('"', i + 1);
      if (close == std::string_view::npos) {
        tokens.emplace_back(line.substr(i + 1));
        break;
      }
      tokens.emplace_back(line.substr(i + 1, close - i - 1));
      i = close + 1;
      continue;
    }
    size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t' && line[j] != '\r') ++j;
    tokens.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

ParseResult parseDeviceConfig(std::string_view text) {
  ParseResult result;
  LineParser parser(result.config, &result.device);
  result.errors = parser.run(text);
  result.device.name = result.config.hostname;
  return result;
}

std::vector<ParseError> applyDeviceCommands(DeviceConfig& config, Device* device,
                                            std::string_view text) {
  LineParser parser(config, device);
  return parser.run(text);
}

}  // namespace hoyan
