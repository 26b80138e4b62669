#include "graph/simple_graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace eds::graph {

SimpleGraph::SimpleGraph(std::size_t n) : offsets_(n + 1, 0) {}

SimpleGraph SimpleGraph::from_edges(std::size_t n, std::vector<Edge> edges) {
  SimpleGraph g(n);
  // Counting pass: offsets_[v] collects d(v) while the endpoints are
  // validated and normalised.
  for (auto& e : edges) {
    if (e.u >= n || e.v >= n) {
      throw InvalidStructure("SimpleGraph: edge endpoint out of range");
    }
    if (e.u == e.v) {
      throw InvalidStructure("SimpleGraph: loops are not allowed");
    }
    if (e.u > e.v) std::swap(e.u, e.v);
    ++g.offsets_[e.u];
    ++g.offsets_[e.v];
  }
  // Inclusive prefix sums make offsets_[v] the end of v's list; placing the
  // incidences at --offsets_[x] then leaves it at the start.
  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    total += g.offsets_[v];
    g.offsets_[v] = total;
  }
  g.offsets_[n] = total;
  g.incidences_.resize(total);
  for (std::size_t id = edges.size(); id-- > 0;) {
    const Edge e = edges[id];
    const auto eid = static_cast<EdgeId>(id);
    g.incidences_[--g.offsets_[e.u]] = {e.v, eid};
    g.incidences_[--g.offsets_[e.v]] = {e.u, eid};
  }
  g.edges_ = std::move(edges);

  // Sort each list by (neighbour, edge id); a parallel edge shows up as two
  // adjacent entries with the same neighbour.
  for (std::size_t v = 0; v < n; ++v) {
    const auto first = g.incidences_.begin() +
                       static_cast<std::ptrdiff_t>(g.offsets_[v]);
    const auto last = g.incidences_.begin() +
                      static_cast<std::ptrdiff_t>(g.offsets_[v + 1]);
    std::sort(first, last, [](const Incidence& a, const Incidence& b) {
      return std::pair(a.neighbour, a.edge) < std::pair(b.neighbour, b.edge);
    });
    if (std::adjacent_find(first, last,
                           [](const Incidence& a, const Incidence& b) {
                             return a.neighbour == b.neighbour;
                           }) != last) {
      throw InvalidStructure("SimpleGraph: parallel edges are not allowed");
    }
  }
  return g;
}

void SimpleGraph::check_node(NodeId v) const {
  if (v >= num_nodes()) {
    throw std::out_of_range("SimpleGraph: node out of range");
  }
}

std::size_t SimpleGraph::max_degree() const noexcept {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    best = std::max(best, offsets_[v + 1] - offsets_[v]);
  }
  return best;
}

std::size_t SimpleGraph::min_degree() const noexcept {
  if (num_nodes() == 0) return 0;
  std::size_t best = offsets_[1] - offsets_[0];
  for (std::size_t v = 1; v < num_nodes(); ++v) {
    best = std::min(best, offsets_[v + 1] - offsets_[v]);
  }
  return best;
}

bool SimpleGraph::is_regular(std::size_t d) const noexcept {
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    if (offsets_[v + 1] - offsets_[v] != d) return false;
  }
  return true;
}

std::optional<EdgeId> SimpleGraph::find_edge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) {
    throw InvalidArgument("SimpleGraph::find_edge: node out of range");
  }
  // Binary search in the smaller adjacency list (sorted by neighbour).
  const NodeId probe = degree(u) <= degree(v) ? u : v;
  const NodeId target = probe == u ? v : u;
  const auto list = incidences(probe);
  const auto it = std::lower_bound(
      list.begin(), list.end(), target,
      [](const Incidence& inc, NodeId x) { return inc.neighbour < x; });
  if (it != list.end() && it->neighbour == target) return it->edge;
  return std::nullopt;
}

std::string SimpleGraph::summary() const {
  std::ostringstream os;
  os << "n=" << num_nodes() << " m=" << num_edges()
     << " degmin=" << min_degree() << " degmax=" << max_degree();
  return os.str();
}

GraphBuilder& GraphBuilder::add_edge(NodeId u, NodeId v) {
  if (u >= n_ || v >= n_) {
    throw InvalidArgument("GraphBuilder::add_edge: node out of range");
  }
  edges_.push_back({u, v});
  return *this;
}

SimpleGraph GraphBuilder::build() {
  return SimpleGraph::from_edges(n_, std::move(edges_));
}

}  // namespace eds::graph
