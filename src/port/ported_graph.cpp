#include "port/ported_graph.hpp"

#include <span>
#include <sstream>
#include <utility>

namespace eds::port {

namespace {

[[noreturn]] void throw_not_permutation(NodeId v) {
  std::ostringstream os;
  os << "PortedGraph: port order of node " << v
     << " is not a permutation of its incident edges";
  throw InvalidStructure(os.str());
}

/// Every node's incident edge ids in adjacency-list order, back to back.
std::vector<EdgeId> incidence_order(const SimpleGraph& g) {
  std::vector<EdgeId> order;
  order.reserve(2 * g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& inc : g.incidences(v)) order.push_back(inc.edge);
  }
  return order;
}

}  // namespace

PortedGraph::PortedGraph(
    SimpleGraph graph, const std::vector<std::vector<EdgeId>>& order_per_node)
    : graph_(std::move(graph)) {
  const std::size_t n = graph_.num_nodes();
  if (order_per_node.size() != n) {
    throw InvalidArgument("PortedGraph: order_per_node size mismatch");
  }
  edge_at_port_.reserve(2 * graph_.num_edges());
  for (NodeId v = 0; v < n; ++v) {
    if (order_per_node[v].size() != graph_.degree(v)) throw_not_permutation(v);
    edge_at_port_.insert(edge_at_port_.end(), order_per_node[v].begin(),
                         order_per_node[v].end());
  }
  number_ports();
}

PortedGraph::PortedGraph(SimpleGraph graph, std::vector<EdgeId> flat_order)
    : graph_(std::move(graph)), edge_at_port_(std::move(flat_order)) {
  number_ports();
}

void PortedGraph::number_ports() {
  // Each node's list has length d(v), so it is a permutation of v's
  // incident edges exactly when every entry is incident to v and claims a
  // distinct endpoint slot 2e + side (0 marks a slot still free).
  const std::size_t n = graph_.num_nodes();
  const std::size_t m = graph_.num_edges();
  const auto edges = graph_.edges();
  port_at_.assign(2 * m, 0);
  std::vector<Port> degrees(n);
  std::size_t flat = 0;
  for (NodeId v = 0; v < n; ++v) {
    degrees[v] = static_cast<Port>(graph_.degree(v));
    for (Port i = 1; i <= degrees[v]; ++i, ++flat) {
      const EdgeId e = edge_at_port_[flat];
      if (e >= m) throw_not_permutation(v);
      const auto& edge = edges[e];
      const std::size_t slot = 2 * std::size_t{e} + (edge.u == v ? 0 : 1);
      if ((edge.u != v && edge.v != v) || port_at_[slot] != 0) {
        throw_not_permutation(v);
      }
      port_at_[slot] = i;
    }
  }

  PortGraphBuilder builder(std::move(degrees));
  for (EdgeId e = 0; e < m; ++e) {
    const auto& edge = edges[e];
    builder.connect({edge.u, port_at_[2 * std::size_t{e}]},
                    {edge.v, port_at_[2 * std::size_t{e} + 1]});
  }
  ports_ = std::move(builder).build();
}

EdgeId PortedGraph::edge_at(NodeId v, Port i) const {
  if (v >= ports_.num_nodes() || i < 1 || i > ports_.degree(v)) {
    throw InvalidArgument("PortedGraph::edge_at: port out of range");
  }
  return edge_at_port_[ports_.flat_index(v, i)];
}

Port PortedGraph::port_of(NodeId v, EdgeId e) const {
  if (v >= graph_.num_nodes()) {
    throw InvalidArgument("PortedGraph::port_of: node out of range");
  }
  if (e < graph_.num_edges()) {
    const auto& edge = graph_.edge(e);
    if (edge.u == v) return port_at_[2 * std::size_t{e}];
    if (edge.v == v) return port_at_[2 * std::size_t{e} + 1];
  }
  throw InvalidArgument("PortedGraph::port_of: node is not an endpoint");
}

Port PortedGraph::port_towards(NodeId v, NodeId u) const {
  const auto e = graph_.find_edge(v, u);
  if (!e) throw InvalidArgument("PortedGraph::port_towards: no such edge");
  return port_of(v, *e);
}

PortedGraph with_canonical_ports(SimpleGraph g) {
  auto order = incidence_order(g);
  return PortedGraph(std::move(g), std::move(order));
}

PortedGraph with_random_ports(SimpleGraph g, Rng& rng) {
  auto order = incidence_order(g);
  std::size_t start = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t d = g.degree(v);
    rng.shuffle(std::span(order).subspan(start, d));
    start += d;
  }
  return PortedGraph(std::move(g), std::move(order));
}

}  // namespace eds::port
