#include "diag/prop_graph.h"

#include <algorithm>
#include <deque>

#include "obs/json.h"

namespace hoyan {
namespace {

std::string escapeForDot(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

}  // namespace

void PropagationGraph::addNode(NameId device) {
  if (device == kInvalidName) return;
  if (std::find(nodes_.begin(), nodes_.end(), device) == nodes_.end())
    nodes_.push_back(device);
}

void PropagationGraph::addEdge(PropEdge edge) {
  if (edge.from == kInvalidName || edge.to == kInvalidName) return;
  addNode(edge.from);
  addNode(edge.to);
  for (const PropEdge& existing : edges_)
    if (existing.from == edge.from && existing.to == edge.to &&
        existing.prefix == edge.prefix && existing.kind == edge.kind)
      return;
  edges_.push_back(std::move(edge));
}

PropagationGraph PropagationGraph::fromProvenance(
    const std::vector<obs::RouteEvent>& events) {
  PropagationGraph graph;
  for (const obs::RouteEvent& event : events) {
    graph.addNode(event.device);
    if (event.peer == kInvalidName) continue;
    PropEdge edge;
    edge.prefix = event.prefix;
    edge.detail = event.detail;
    switch (event.kind) {
      case obs::RouteEventKind::kReceived:
      case obs::RouteEventKind::kLoopPrevented:
      case obs::RouteEventKind::kNexthopUnresolved:
        edge.from = event.peer;
        edge.to = event.device;
        edge.kind = event.kind == obs::RouteEventKind::kReceived ? "received" : "denied";
        break;
      case obs::RouteEventKind::kPolicyDenied:
        // Ingress denials arrive from the peer; egress denials never left the
        // device (the capture site prefixes the detail accordingly).
        if (event.detail.rfind("egress:", 0) == 0) {
          edge.from = event.device;
          edge.to = event.peer;
        } else {
          edge.from = event.peer;
          edge.to = event.device;
        }
        edge.kind = "denied";
        break;
      case obs::RouteEventKind::kWithdrawn:
        edge.from = event.peer;
        edge.to = event.device;
        edge.kind = "withdrawn";
        break;
      case obs::RouteEventKind::kAdvertised:
        edge.from = event.device;
        edge.to = event.peer;
        edge.kind = "advertised";
        break;
      case obs::RouteEventKind::kChosenBest:
      case obs::RouteEventKind::kChosenEcmp:
        edge.from = event.peer;
        edge.to = event.device;
        edge.kind = "chosen";
        break;
      case obs::RouteEventKind::kVsbApplied:
        edge.from = event.peer;
        edge.to = event.device;
        edge.kind = "vsb";
        break;
      case obs::RouteEventKind::kLostTieBreak:
      case obs::RouteEventKind::kLocalInstalled:
        continue;  // Node-local outcomes, not propagation edges.
    }
    graph.addEdge(std::move(edge));
  }
  return graph;
}

PropagationGraph PropagationGraph::fromRibs(const NetworkRibs& ribs,
                                            const Prefix& prefix) {
  PropagationGraph graph;
  std::vector<NameId> deviceIds;
  deviceIds.reserve(ribs.devices().size());
  for (const auto& [deviceId, deviceRib] : ribs.devices()) deviceIds.push_back(deviceId);
  std::sort(deviceIds.begin(), deviceIds.end());
  for (const NameId deviceId : deviceIds) {
    const DeviceRib* deviceRib = ribs.findDevice(deviceId);
    std::vector<NameId> vrfIds;
    for (const auto& [vrfId, vrfRib] : deviceRib->vrfs()) vrfIds.push_back(vrfId);
    std::sort(vrfIds.begin(), vrfIds.end());
    for (const NameId vrfId : vrfIds) {
      const std::vector<Route>* routes = deviceRib->findVrf(vrfId)->find(prefix);
      if (!routes) continue;
      for (const Route& route : *routes) {
        if (route.learnedFrom == kInvalidName) {
          graph.addNode(deviceId);
          continue;
        }
        PropEdge edge;
        edge.from = route.learnedFrom;
        edge.to = deviceId;
        edge.prefix = prefix;
        edge.kind = "rib";
        edge.detail = routeTypeName(route.type);
        graph.addEdge(std::move(edge));
      }
    }
  }
  return graph;
}

std::vector<NameId> PropagationGraph::walkOrder(NameId start) const {
  std::vector<NameId> order;
  if (start == kInvalidName) return order;
  std::vector<NameId> visited{start};
  std::deque<NameId> frontier{start};
  while (!frontier.empty()) {
    const NameId current = frontier.front();
    frontier.pop_front();
    order.push_back(current);
    std::vector<NameId> neighbours;
    for (const PropEdge& edge : edges_) {
      if (edge.from == current) neighbours.push_back(edge.to);
      if (edge.to == current) neighbours.push_back(edge.from);
    }
    std::sort(neighbours.begin(), neighbours.end());
    neighbours.erase(std::unique(neighbours.begin(), neighbours.end()),
                     neighbours.end());
    for (const NameId neighbour : neighbours) {
      if (std::find(visited.begin(), visited.end(), neighbour) != visited.end())
        continue;
      visited.push_back(neighbour);
      frontier.push_back(neighbour);
    }
  }
  return order;
}

std::string PropagationGraph::toDot() const {
  std::string out = "digraph propagation {\n  rankdir=LR;\n";
  for (const NameId node : nodes_)
    out += "  \"" + escapeForDot(Names::str(node)) + "\";\n";
  for (const PropEdge& edge : edges_) {
    out += "  \"" + escapeForDot(Names::str(edge.from)) + "\" -> \"" +
           escapeForDot(Names::str(edge.to)) + "\" [label=\"" +
           escapeForDot(edge.kind + " " + edge.prefix.str()) + "\"";
    if (edge.kind == "denied" || edge.kind == "withdrawn") out += ", style=dashed";
    if (edge.kind == "chosen") out += ", style=bold";
    out += "];\n";
  }
  out += "}\n";
  return out;
}

std::string PropagationGraph::toJson() const {
  std::string out = "{\"nodes\":[";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (i) out += ",";
    out += "\"" + obs::jsonEscape(Names::str(nodes_[i])) + "\"";
  }
  out += "],\"edges\":[";
  for (size_t i = 0; i < edges_.size(); ++i) {
    const PropEdge& edge = edges_[i];
    if (i) out += ",";
    out += "{\"from\":\"" + obs::jsonEscape(Names::str(edge.from)) + "\"";
    out += ",\"to\":\"" + obs::jsonEscape(Names::str(edge.to)) + "\"";
    out += ",\"prefix\":\"" + edge.prefix.str() + "\"";
    out += ",\"kind\":\"" + obs::jsonEscape(edge.kind) + "\"";
    if (!edge.detail.empty())
      out += ",\"detail\":\"" + obs::jsonEscape(edge.detail) + "\"";
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace hoyan
