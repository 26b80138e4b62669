#include "port/port_graph.hpp"

#include <atomic>
#include <numeric>
#include <sstream>
#include <utility>

namespace eds::port {

PortGraph::PortGraph(PortGraph&& other) noexcept
    : degrees_(std::exchange(other.degrees_, {})),
      offsets_(std::exchange(other.offsets_, {})),
      partner_(std::exchange(other.partner_, {})),
      id_(std::exchange(other.id_, 0)) {}

PortGraph& PortGraph::operator=(PortGraph&& other) noexcept {
  if (this != &other) {
    degrees_ = std::exchange(other.degrees_, {});
    offsets_ = std::exchange(other.offsets_, {});
    partner_ = std::exchange(other.partner_, {});
    id_ = std::exchange(other.id_, 0);
  }
  return *this;
}

std::vector<PortEdge> PortGraph::port_edges() const {
  std::vector<PortEdge> out;
  out.reserve(num_ports() / 2 + 1);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (Port i = 1; i <= degrees_[v]; ++i) {
      const PortRef here{v, i};
      const PortRef there = partner(here);
      if (there == here) {
        out.push_back({here, here, /*directed_loop=*/true});
      } else if (std::pair(v, i) < std::pair(there.node, there.port)) {
        out.push_back({here, there, /*directed_loop=*/false});
      }
    }
  }
  return out;
}

bool PortGraph::is_simple() const {
  // One pass over every node's ports, stamping each neighbour with the node
  // that reached it: a loop of either kind lands on the node itself, and a
  // parallel edge reaches the same neighbour twice from one node.
  constexpr NodeId kUnseen = ~NodeId{0};
  std::vector<NodeId> reached_from(num_nodes(), kUnseen);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (std::size_t q = offsets_[v]; q < offsets_[v] + degrees_[v]; ++q) {
      const NodeId u = partner_[q].node;
      if (u == v || reached_from[u] == v) return false;
      reached_from[u] = v;
    }
  }
  return true;
}

void PortGraph::validate() const {
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (Port i = 1; i <= degrees_[v]; ++i) {
      const PortRef there = partner(v, i);
      if (there.node >= num_nodes() || there.port < 1 ||
          there.port > degrees_[there.node]) {
        std::ostringstream os;
        os << "PortGraph: p(" << v << "," << i << ") points out of range";
        throw InvalidStructure(os.str());
      }
      const PortRef back = partner(there);
      if (!(back == PortRef{v, i})) {
        std::ostringstream os;
        os << "PortGraph: involution violated at node " << v << " port " << i;
        throw InvalidStructure(os.str());
      }
    }
  }
}

std::string PortGraph::summary() const {
  std::size_t loops = 0;
  for (const auto& e : port_edges()) {
    if (e.is_loop()) ++loops;
  }
  std::ostringstream os;
  os << "nodes=" << num_nodes() << " ports=" << num_ports()
     << " loops=" << loops;
  return os.str();
}

PortGraphBuilder::PortGraphBuilder(std::vector<Port> degrees) {
  g_.degrees_ = std::move(degrees);
  g_.offsets_.resize(g_.degrees_.size());
  std::size_t total = 0;
  for (std::size_t v = 0; v < g_.degrees_.size(); ++v) {
    g_.offsets_[v] = total;
    total += g_.degrees_[v];
  }
  g_.partner_.resize(total);
  assigned_.assign(total, false);
}

std::size_t PortGraphBuilder::flat_index(PortRef r) const {
  return g_.flat_index(r.node, r.port);
}

PortGraphBuilder& PortGraphBuilder::connect(PortRef a, PortRef b) {
  if (a == b) {
    throw InvalidArgument(
        "PortGraphBuilder::connect: use fix() for a directed loop");
  }
  const std::size_t ia = flat_index(a);
  const std::size_t ib = flat_index(b);
  if (assigned_[ia] || assigned_[ib]) {
    std::ostringstream os;
    os << "PortGraphBuilder: port already connected: (" << a.node << ","
       << a.port << ") or (" << b.node << "," << b.port << ")";
    throw InvalidStructure(os.str());
  }
  g_.partner_[ia] = b;
  g_.partner_[ib] = a;
  assigned_[ia] = assigned_[ib] = true;
  return *this;
}

PortGraphBuilder& PortGraphBuilder::fix(PortRef a) {
  const std::size_t ia = flat_index(a);
  if (assigned_[ia]) {
    throw InvalidStructure("PortGraphBuilder::fix: port already connected");
  }
  g_.partner_[ia] = a;
  assigned_[ia] = true;
  return *this;
}

PortGraph PortGraphBuilder::build() const& {
  return PortGraphBuilder(*this).build();
}

PortGraph PortGraphBuilder::build() && {
  for (std::size_t idx = 0; idx < assigned_.size(); ++idx) {
    if (!assigned_[idx]) {
      std::ostringstream os;
      os << "PortGraphBuilder::build: unassigned port (flat index " << idx
         << ")";
      throw InvalidStructure(os.str());
    }
  }
  g_.validate();
  static std::atomic<std::uint64_t> next_id{1};
  g_.id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  return std::move(g_);
}

}  // namespace eds::port
