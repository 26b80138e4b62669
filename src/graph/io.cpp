#include "graph/io.hpp"

#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "graph/edge_set.hpp"

namespace eds::graph {

void write_edge_list(std::ostream& os, const SimpleGraph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const auto& e : g.edges()) os << e.u << ' ' << e.v << '\n';
}

SimpleGraph read_edge_list(std::istream& is) {
  std::string line;
  auto next_data_line = [&is, &line]() -> bool {
    while (std::getline(is, line)) {
      const auto pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos || line[pos] == '#') continue;
      return true;
    }
    return false;
  };

  if (!next_data_line()) {
    throw InvalidStructure("read_edge_list: missing header line");
  }
  std::istringstream header(line);
  std::size_t n = 0;
  std::size_t m = 0;
  if (!(header >> n >> m)) {
    throw InvalidStructure("read_edge_list: malformed header line");
  }
  if (n > std::numeric_limits<NodeId>::max()) {
    throw InvalidStructure("read_edge_list: node count exceeds the NodeId "
                           "range");
  }

  // The header's m is a claim, not a size: the buffer grows with the edge
  // lines actually present.
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    if (!next_data_line()) {
      throw InvalidStructure("read_edge_list: fewer edges than promised");
    }
    std::istringstream row(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(row >> u >> v)) {
      throw InvalidStructure("read_edge_list: malformed edge line");
    }
    if (u >= n || v >= n) {
      throw InvalidStructure("read_edge_list: endpoint out of range");
    }
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
  }
  return SimpleGraph::from_edges(n, std::move(edges));
}

std::string to_edge_list_string(const SimpleGraph& g) {
  std::ostringstream os;
  write_edge_list(os, g);
  return os.str();
}

SimpleGraph from_edge_list_string(const std::string& text) {
  std::istringstream is(text);
  return read_edge_list(is);
}

void write_dot(std::ostream& os, const SimpleGraph& g,
               const EdgeSet* highlight, const std::string& name) {
  os << "graph " << name << " {\n";
  os << "  node [shape=circle];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  " << v << ";\n";
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    os << "  " << g.edge(e).u << " -- " << g.edge(e).v;
    if (highlight != nullptr && highlight->contains(e)) {
      os << " [color=red, penwidth=2.5]";
    }
    os << ";\n";
  }
  os << "}\n";
}

}  // namespace eds::graph
