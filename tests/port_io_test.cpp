#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "lb/lower_bounds.hpp"
#include "port/io.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "util/rng.hpp"

namespace eds::port {
namespace {

void expect_same_structure(const PortGraph& a, const PortGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v));
    for (Port i = 1; i <= a.degree(v); ++i) {
      EXPECT_EQ(a.partner(v, i), b.partner(v, i));
    }
  }
}

TEST(PortIo, RoundTripSimple) {
  Rng rng(1);
  const auto pg = with_random_ports(graph::petersen(), rng);
  const auto text = to_port_graph_string(pg.ports());
  expect_same_structure(pg.ports(), from_port_graph_string(text));
}

TEST(PortIo, RoundTripMultigraphWithLoops) {
  PortGraphBuilder b({3, 4});
  b.connect({0, 1}, {1, 2});
  b.connect({0, 2}, {1, 1});
  b.fix({0, 3});
  b.connect({1, 3}, {1, 4});
  const auto g = b.build();
  expect_same_structure(g, from_port_graph_string(to_port_graph_string(g)));
}

TEST(PortIo, RoundTripRandomFuzz) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Port> degrees(8);
    for (auto& d : degrees) d = static_cast<Port>(rng.below(5));
    const auto g = random_port_graph(degrees, rng);
    expect_same_structure(g, from_port_graph_string(to_port_graph_string(g)));
  }
}

TEST(PortIo, RoundTripLowerBoundInstances) {
  for (const Port d : {2u, 4u, 3u, 5u}) {
    const auto inst =
        d % 2 == 0 ? lb::even_lower_bound(d) : lb::odd_lower_bound(d);
    const auto& g = inst.ported.ports();
    expect_same_structure(g, from_port_graph_string(to_port_graph_string(g)));
    // The covering bases contain loops; round-trip those too.
    expect_same_structure(
        inst.covering_base,
        from_port_graph_string(to_port_graph_string(inst.covering_base)));
  }
}

TEST(PortIo, CommentsAndBlanksIgnored) {
  const auto g = from_port_graph_string(
      "# adversarial instance\n"
      "ports 2\n"
      "\n"
      "deg 1 1\n"
      "# the single edge\n"
      "conn 0 1 1 1\n");
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.partner(0, 1), (PortRef{1, 1}));
}

TEST(PortIo, MalformedInputs) {
  EXPECT_THROW((void)from_port_graph_string(""), InvalidStructure);
  EXPECT_THROW((void)from_port_graph_string("deg 1\n"), InvalidStructure);
  EXPECT_THROW((void)from_port_graph_string("ports 1\nconn 0 1 0 2\n"),
               InvalidStructure);
  EXPECT_THROW((void)from_port_graph_string("ports 1\ndeg 2\nwhat 1\n"),
               InvalidStructure);
  // Incomplete involution.
  EXPECT_THROW((void)from_port_graph_string("ports 2\ndeg 1 1\n"),
               InvalidStructure);
  // Double assignment.
  EXPECT_THROW((void)from_port_graph_string(
                   "ports 2\ndeg 1 1\nconn 0 1 1 1\nloop 0 1\n"),
               InvalidStructure);
  // Out-of-range port.
  EXPECT_THROW((void)from_port_graph_string("ports 2\ndeg 1 1\nconn 0 1 1 9\n"),
               InvalidArgument);
}

TEST(PortIo, DeclaredNodeCountAllocatesNothingUntilTheDegreesArrive) {
  // Beyond the NodeId range: rejected before any degree is read.
  EXPECT_THROW((void)from_port_graph_string("ports 99999999999\ndeg 1\n"),
               InvalidStructure);
  EXPECT_THROW((void)from_port_graph_string("ports 5000000000\ndeg 1\n"),
               InvalidStructure);
  // In range but absent: the degree buffer grows with the data, so a
  // 4-billion-node claim backed by one degree fails as a short line.
  EXPECT_THROW((void)from_port_graph_string("ports 4000000000\ndeg 1\n"),
               InvalidStructure);
}

}  // namespace
}  // namespace eds::port
