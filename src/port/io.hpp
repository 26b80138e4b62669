// Serialisation of port-numbered graphs.
//
// Plain-text format, one record per line, '#' comments allowed:
//
//   ports <n>
//   deg <d_0> <d_1> ... <d_{n-1}>
//   conn <v> <i> <u> <j>     # p(v,i) = (u,j), written once per pair
//   loop <v> <i>             # fixed point p(v,i) = (v,i)
//
// Grammar, as the reader accepts it:
//   * Lines end at '\n'; a '\r' before it is whitespace, and the last line
//     needs no newline.  A line that is blank, or whose first character
//     other than ' ', '\t' and '\r' is '#', is skipped.
//   * Fields are separated by any run of " \t\n\v\f\r".  Numbers are
//     unsigned decimals: digits only, no sign (neither '+' nor '-'), and a
//     value past the range of its field (NodeId or Port, both 32-bit; the
//     node count up to the NodeId range) is rejected.
//   * A record's fields end where the last one's digits do; anything after
//     them on the line is not read.
//   * The degrees of `deg` sum to at most a quarter of the bytes after
//     that line: every port needs a record, and a shorter text cannot hold
//     them, so it is rejected before the ports are allocated.
// The writer emits exactly the form above: single spaces, '\n' endings,
// the conn/loop records in port_edges() order.
//
// This is the on-disk form of adversarial instances: a researcher can dump
// a lower-bound construction, edit it, and feed it back to the simulator.
// It is also the graph segment of the process-sharded wire
// (runtime/shard.hpp), so both directions cost time in proportion to the
// bytes: one std::to_chars writer and one std::from_chars line parser.
#pragma once

#include <iosfwd>
#include <string>

#include "port/port_graph.hpp"

namespace eds::port {

/// Writes `g` in the portgraph text format.
void write_port_graph(std::ostream& os, const PortGraph& g);

/// Reads the stream to its end and parses it as from_port_graph_string
/// does.
[[nodiscard]] PortGraph read_port_graph(std::istream& is);

/// The text of `g`, byte for byte what write_port_graph writes.
[[nodiscard]] std::string to_port_graph_string(const PortGraph& g);

/// Parses a port graph; throws InvalidStructure on malformed input,
/// incomplete involutions or double assignments, and InvalidArgument on a
/// record naming a node or port outside the declared degrees.
[[nodiscard]] PortGraph from_port_graph_string(const std::string& text);

}  // namespace eds::port
