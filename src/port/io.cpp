#include "port/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

namespace eds::port {

namespace {

/// Appends `value` in decimal after a space.
char* put(char* p, std::uint64_t value) {
  *p++ = ' ';
  return std::to_chars(p, p + 20, value).ptr;
}

/// Whitespace as std::isspace classifies it in the "C" locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Drops the whitespace `line` starts with.
void skip_space(std::string_view& line) {
  while (!line.empty() && is_space(line.front())) line.remove_prefix(1);
}

/// Takes the next whitespace-delimited token off `line` (empty at its end).
std::string_view token(std::string_view& line) {
  skip_space(line);
  std::size_t k = 0;
  while (k < line.size() && !is_space(line[k])) ++k;
  const auto taken = line.substr(0, k);
  line.remove_prefix(k);
  return taken;
}

/// Takes the next unsigned decimal off `line`, or nothing if no digit
/// follows the whitespace or the value does not fit T.  It ends after its
/// last digit, so whatever follows a record's last field is never read.
template <typename T>
std::optional<T> number(std::string_view& line) {
  skip_space(line);
  T value{};
  const auto [ptr, ec] =
      std::from_chars(line.data(), line.data() + line.size(), value);
  if (ec != std::errc()) return std::nullopt;
  line.remove_prefix(static_cast<std::size_t>(ptr - line.data()));
  return value;
}

}  // namespace

std::string to_port_graph_string(const PortGraph& g) {
  const std::size_t n = g.num_nodes();
  std::string out;
  // A degree takes at most 11 bytes, and a port at most 27 bytes of
  // records (a loop record names one port, a conn record two).
  out.reserve(32 + 11 * n + 27 * g.num_ports());
  // Long enough for the longest record, "conn" and four 20-digit fields.
  char buf[96];

  out += "ports";
  out.append(buf, put(buf, n));
  out += "\ndeg";
  for (NodeId v = 0; v < n; ++v) out.append(buf, put(buf, g.degree(v)));
  out += '\n';
  // The records of port_edges(), in its order: each pair once, from its
  // smaller end, and each fixed point.
  for (NodeId v = 0; v < n; ++v) {
    for (Port i = 1; i <= g.degree(v); ++i) {
      const PortRef there = g.partner(v, i);
      char* p = buf;
      if (there.node == v && there.port == i) {
        std::memcpy(p, "loop", 4);
        p = put(put(p + 4, v), i);
      } else if (std::pair(v, i) < std::pair(there.node, there.port)) {
        std::memcpy(p, "conn", 4);
        p = put(put(put(put(p + 4, v), i), there.node), there.port);
      } else {
        continue;
      }
      *p++ = '\n';
      out.append(buf, p);
    }
  }
  return out;
}

PortGraph from_port_graph_string(const std::string& text) {
  auto fail = [](const std::string& why) -> void {
    throw InvalidStructure("read_port_graph: " + why);
  };

  std::size_t n = 0;
  bool have_header = false;
  std::optional<PortGraphBuilder> builder;

  std::string_view rest(text);
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    std::string_view row = rest.substr(0, eol);
    rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);

    const auto pos = row.find_first_not_of(" \t\r");
    if (pos == std::string_view::npos || row[pos] == '#') continue;
    const std::string_view keyword = token(row);

    if (keyword == "ports") {
      if (have_header) fail("duplicate 'ports' line");
      const auto count = number<std::size_t>(row);
      if (!count) fail("malformed 'ports' line");
      n = *count;
      if (n > std::numeric_limits<NodeId>::max()) {
        fail("node count exceeds the NodeId range");
      }
      have_header = true;
    } else if (keyword == "deg") {
      if (!have_header) fail("'deg' before 'ports'");
      if (builder) fail("duplicate 'deg' line");
      // Grows with the degrees actually present, not the declared n: each
      // takes at least two bytes of the line.
      std::vector<Port> degrees;
      degrees.reserve(std::min(n, row.size() / 2 + 1));
      std::size_t ports = 0;
      while (degrees.size() < n) {
        const auto degree = number<Port>(row);
        if (!degree) fail("too few degrees");
        degrees.push_back(*degree);
        ports += *degree;
      }
      // Every port is named by a later record, and each takes at least
      // four bytes of them (a conn record names two ports in at least
      // twelve, a loop record one in at least eight): more ports than
      // that cannot all be assigned, so none is allocated.
      if (ports > rest.size() / 4) {
        fail("more ports than the remaining records can assign");
      }
      builder.emplace(std::move(degrees));
    } else if (keyword == "conn") {
      if (!builder) fail("'conn' before 'deg'");
      const auto v = number<NodeId>(row);
      const auto i = v ? number<Port>(row) : std::nullopt;
      const auto u = i ? number<NodeId>(row) : std::nullopt;
      const auto j = u ? number<Port>(row) : std::nullopt;
      if (!j) fail("malformed 'conn' line");
      builder->connect({*v, *i}, {*u, *j});
    } else if (keyword == "loop") {
      if (!builder) fail("'loop' before 'deg'");
      const auto v = number<NodeId>(row);
      const auto i = v ? number<Port>(row) : std::nullopt;
      if (!i) fail("malformed 'loop' line");
      builder->fix({*v, *i});
    } else {
      fail("unknown keyword '" + std::string(keyword) + "'");
    }
  }
  if (!builder) fail("missing 'deg' line");
  return std::move(*builder).build();
}

void write_port_graph(std::ostream& os, const PortGraph& g) {
  const std::string text = to_port_graph_string(g);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

PortGraph read_port_graph(std::istream& is) {
  std::string text;
  char chunk[1 << 16];
  while (is.read(chunk, sizeof chunk) || is.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return from_port_graph_string(text);
}

}  // namespace eds::port
