#include "runtime/outputs.hpp"

#include <algorithm>
#include <sstream>
#include <string>

namespace eds::runtime {

namespace {

/// The consistency walk every decoder below shares: calls
/// visit(v, i, partner) for each port i each node v claims, in node and
/// port order, and returns the first claim whose partner does not claim
/// its end back (nullopt when there is none).  Throws ExecutionError
/// naming `caller` unless `result` has one output per node of `g`.
template <typename Visit>
std::optional<port::PortRef> one_sided_claim(const port::PortGraph& g,
                                             const RunResult& result,
                                             const char* caller,
                                             Visit visit) {
  if (result.outputs.size() != g.num_nodes()) {
    throw ExecutionError(std::string(caller) + ": node count mismatch");
  }
  const auto& claimed = result.outputs;  // each node's sorted port list
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const port::Port i : claimed[v]) {
      const auto there = g.partner(v, i);
      const auto& theirs = claimed[there.node];
      if (!std::binary_search(theirs.begin(), theirs.end(), there.port)) {
        return port::PortRef{v, i};
      }
      visit(v, i, there);
    }
  }
  return std::nullopt;
}

/// A visitor for one_sided_claim that counts each selected structural
/// edge once, from its lexicographically first port (a fixed point from
/// itself).
auto edge_counter(std::size_t& selected) {
  return [&selected](port::NodeId v, port::Port i, port::PortRef there) {
    if (std::pair(v, i) <= std::pair(there.node, there.port)) ++selected;
  };
}

}  // namespace

graph::EdgeSet validated_edge_set(const port::PortedGraph& pg,
                                  const RunResult& result) {
  graph::EdgeSet out(pg.graph().num_edges());
  const auto bad = one_sided_claim(
      pg.ports(), result, "validated_edge_set",
      [&](port::NodeId v, port::Port i, port::PortRef) {
        out.insert(pg.edge_at(v, i));
      });
  if (bad) {
    const auto there = pg.ports().partner(*bad);
    std::ostringstream os;
    os << "validated_edge_set: inconsistent output — node " << bad->node
       << " claims port " << bad->port << " but node " << there.node
       << " does not claim port " << there.port;
    throw ExecutionError(os.str());
  }
  return out;
}

bool all_outputs_identical(const RunResult& result) {
  if (result.outputs.empty()) return true;
  const auto& first = result.outputs.front();
  return std::all_of(result.outputs.begin(), result.outputs.end(),
                     [&first](const auto& x) { return x == first; });
}

std::size_t validated_selection_size(const port::PortGraph& g,
                                     const RunResult& result) {
  std::size_t selected = 0;
  if (const auto bad = one_sided_claim(g, result, "validated_selection_size",
                                       edge_counter(selected))) {
    std::ostringstream os;
    os << "validated_selection_size: inconsistent output at node "
       << bad->node << " port " << bad->port;
    throw ExecutionError(os.str());
  }
  return selected;
}

std::optional<std::size_t> consistent_selection_size(const port::PortGraph& g,
                                                     const RunResult& result) {
  std::size_t selected = 0;
  if (one_sided_claim(g, result, "consistent_selection_size",
                      edge_counter(selected))) {
    return std::nullopt;
  }
  return selected;
}

}  // namespace eds::runtime
