#include "port/io.hpp"

#include <limits>
#include <memory>
#include <sstream>
#include <vector>

namespace eds::port {

void write_port_graph(std::ostream& os, const PortGraph& g) {
  os << "ports " << g.num_nodes() << '\n';
  os << "deg";
  for (NodeId v = 0; v < g.num_nodes(); ++v) os << ' ' << g.degree(v);
  os << '\n';
  for (const auto& pe : g.port_edges()) {
    if (pe.directed_loop) {
      os << "loop " << pe.a.node << ' ' << pe.a.port << '\n';
    } else {
      os << "conn " << pe.a.node << ' ' << pe.a.port << ' ' << pe.b.node << ' '
         << pe.b.port << '\n';
    }
  }
}

PortGraph read_port_graph(std::istream& is) {
  std::string line;
  auto fail = [](const std::string& why) -> void {
    throw InvalidStructure("read_port_graph: " + why);
  };

  std::size_t n = 0;
  bool have_header = false;
  bool have_degrees = false;
  std::vector<Port> degrees;
  std::unique_ptr<PortGraphBuilder> builder;

  while (std::getline(is, line)) {
    const auto pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos || line[pos] == '#') continue;
    std::istringstream row(line);
    std::string keyword;
    row >> keyword;

    if (keyword == "ports") {
      if (have_header) fail("duplicate 'ports' line");
      if (!(row >> n)) fail("malformed 'ports' line");
      if (n > std::numeric_limits<NodeId>::max()) {
        fail("node count exceeds the NodeId range");
      }
      have_header = true;
    } else if (keyword == "deg") {
      if (!have_header) fail("'deg' before 'ports'");
      if (have_degrees) fail("duplicate 'deg' line");
      // Grows with the degrees actually present, not the declared n.
      while (degrees.size() < n) {
        Port degree = 0;
        if (!(row >> degree)) fail("too few degrees");
        degrees.push_back(degree);
      }
      builder = std::make_unique<PortGraphBuilder>(degrees);
      have_degrees = true;
    } else if (keyword == "conn") {
      if (!have_degrees) fail("'conn' before 'deg'");
      NodeId v = 0;
      NodeId u = 0;
      Port i = 0;
      Port j = 0;
      if (!(row >> v >> i >> u >> j)) fail("malformed 'conn' line");
      builder->connect({v, i}, {u, j});
    } else if (keyword == "loop") {
      if (!have_degrees) fail("'loop' before 'deg'");
      NodeId v = 0;
      Port i = 0;
      if (!(row >> v >> i)) fail("malformed 'loop' line");
      builder->fix({v, i});
    } else {
      fail("unknown keyword '" + keyword + "'");
    }
  }
  if (!have_degrees) fail("missing 'deg' line");
  return builder->build();
}

std::string to_port_graph_string(const PortGraph& g) {
  std::ostringstream os;
  write_port_graph(os, g);
  return os.str();
}

PortGraph from_port_graph_string(const std::string& text) {
  std::istringstream is(text);
  return read_port_graph(is);
}

}  // namespace eds::port
