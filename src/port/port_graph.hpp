// Port-numbered graphs (Section 2.1 of the paper).
//
// A port-numbered graph is a set of nodes V, a degree function d : V -> N,
// and an involution p on the set of ports {(v, i) : v in V, 1 <= i <= d(v)}.
// Crucially this definition admits *multigraphs*: parallel edges, undirected
// loops (p maps two distinct ports of the same node to each other), and
// directed loops (fixed points of p).  The lower-bound machinery depends on
// this: the covering multigraphs of Theorems 1 and 2 have loops and parallel
// edges, and the simulator must run algorithms on them unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/simple_graph.hpp"
#include "util/error.hpp"

namespace eds::port {

using graph::NodeId;

/// 1-based port number, matching the paper's convention.
using Port = std::uint32_t;

/// A port: a (node, port-number) pair.
struct PortRef {
  NodeId node = 0;
  Port port = 1;

  [[nodiscard]] bool operator==(const PortRef&) const = default;
};

/// One structural edge of a port-numbered graph: either an undirected edge
/// joining two distinct ports, or a directed loop at a fixed point of p.
struct PortEdge {
  PortRef a;
  PortRef b;                  // equals `a` for a directed loop
  bool directed_loop = false;

  [[nodiscard]] bool is_loop() const noexcept {
    return directed_loop || a.node == b.node;
  }
};

/// An immutable port-numbered (multi)graph: degrees plus the involution p.
class PortGraph {
 public:
  PortGraph() = default;
  PortGraph(const PortGraph&) = default;
  PortGraph& operator=(const PortGraph&) = default;
  /// A move leaves `other` with no nodes and id 0, so an id never names
  /// two different structures.
  PortGraph(PortGraph&& other) noexcept;
  PortGraph& operator=(PortGraph&& other) noexcept;

  /// The identity of the PortGraphBuilder::build() call that made this
  /// graph: unique within the process, shared by copies, held by no other
  /// graph.  A default-constructed or moved-from graph has no nodes and
  /// id 0.  PlanCache keys plans by it, so recognising a repeated graph
  /// reads none of its ports; a separately built graph of equal structure
  /// has a different id.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return degrees_.size();
  }

  /// Total number of ports, i.e. the sum of degrees.
  [[nodiscard]] std::size_t num_ports() const noexcept {
    return partner_.size();
  }

  [[nodiscard]] Port degree(NodeId v) const {
    if (v >= degrees_.size()) {
      throw InvalidArgument("PortGraph::degree: node out of range");
    }
    return degrees_[v];
  }

  /// The involution: p(v, i).  Ports are 1-based.
  [[nodiscard]] PortRef partner(NodeId v, Port i) const {
    return partner_[flat_index(v, i)];
  }
  [[nodiscard]] PortRef partner(PortRef r) const {
    return partner(r.node, r.port);
  }

  /// The degree sequence as a flat array (d(v) = degree_sequence()[v]).
  /// Hot-path view for the engine layer: plan compilation scans these
  /// contiguously instead of paying a bounds-checked lookup per port.
  [[nodiscard]] const std::vector<Port>& degree_sequence() const noexcept {
    return degrees_;
  }

  /// The involution as a flat array indexed by flat port index (ports of
  /// node v start at offset Σ_{u<v} d(u)); companion of degree_sequence().
  [[nodiscard]] const std::vector<PortRef>& partner_table() const noexcept {
    return partner_;
  }

  /// All structural edges: one entry per unordered port pair {(v,i),(u,j)}
  /// with p(v,i) = (u,j), plus one entry per fixed point (directed loop).
  [[nodiscard]] std::vector<PortEdge> port_edges() const;

  /// True when the graph is simple: no loops of either kind and no parallel
  /// edges (at most one edge per unordered node pair).
  [[nodiscard]] bool is_simple() const;

  /// Verifies the involution property p(p(v,i)) = (v,i) and range validity;
  /// throws InvalidStructure with a description on failure.
  void validate() const;

  /// One-line summary ("nodes=5 ports=20 loops=2").
  [[nodiscard]] std::string summary() const;

  /// The flat index of port (v, i): Σ_{u<v} d(u) + i - 1, the position of
  /// that port in partner_table().  Throws InvalidArgument when out of range.
  [[nodiscard]] std::size_t flat_index(NodeId v, Port i) const {
    if (v >= degrees_.size() || i < 1 || i > degrees_[v]) {
      throw InvalidArgument("PortGraph: port reference out of range");
    }
    return offsets_[v] + (i - 1);
  }

 private:
  friend class PortGraphBuilder;

  std::vector<Port> degrees_;
  std::vector<std::size_t> offsets_;  // prefix sums of degrees
  std::vector<PortRef> partner_;      // involution, indexed by flat port index
  std::uint64_t id_ = 0;              // set by PortGraphBuilder::build
};

/// Incremental construction of a PortGraph.  Every port must be assigned
/// exactly once, either by connect() (joining two distinct ports — possibly
/// of the same node, which creates an undirected loop) or by fix() (a
/// directed loop).  build() validates completeness and the involution.
class PortGraphBuilder {
 public:
  /// Degrees per node; degrees[v] = d(v).
  explicit PortGraphBuilder(std::vector<Port> degrees);

  /// Declares p(a) = b and p(b) = a; a and b must be distinct ports.
  PortGraphBuilder& connect(PortRef a, PortRef b);

  /// Declares the fixed point p(a) = a (a directed loop).
  PortGraphBuilder& fix(PortRef a);

  /// Validates that every port was assigned and returns the graph with a
  /// fresh PortGraph::id().  The builder stays usable, so build() may be
  /// called again; each call's graph has its own id.
  [[nodiscard]] PortGraph build() const&;

  /// The same for a builder that is done with: the graph is moved out
  /// instead of copied.
  [[nodiscard]] PortGraph build() &&;

 private:
  [[nodiscard]] std::size_t flat_index(PortRef r) const;

  PortGraph g_;
  std::vector<bool> assigned_;
};

}  // namespace eds::port
