#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

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

/// FNV-1a (64-bit) over the bytes of `text`.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The message `text` is rejected with, as InvalidStructure.
std::string rejection(const std::string& text) {
  try {
    (void)from_port_graph_string(text);
  } catch (const InvalidStructure& e) {
    return e.what();
  }
  return "accepted";
}

// Recorded against the std::ostream writer the codec replaced.
constexpr std::size_t kTorusTextBytes = 118455;
constexpr std::uint64_t kTorusTextHash = 15017215545236912165ULL;
constexpr std::size_t kMultiTextBytes = 10422;
constexpr std::uint64_t kMultiTextHash = 3383048887505325489ULL;

/// The one-edge graph every grammar variant below must parse to.
void expect_single_edge(const PortGraph& g) {
  ASSERT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.partner(0, 1), (PortRef{1, 1}));
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

TEST(PortIo, DegreesTheRecordsCannotAssignAllocateNothing) {
  // Every port needs a record, and each takes at least four bytes of the
  // text after the 'deg' line: four billion ports behind no records are
  // refused before any port is allocated.
  EXPECT_EQ(rejection("ports 1\ndeg 4000000000\n"),
            "read_port_graph: more ports than the remaining records can "
            "assign");
  EXPECT_EQ(rejection("ports 2\ndeg 4000000000 4000000000\nloop 0 1\n"),
            "read_port_graph: more ports than the remaining records can "
            "assign");
  // The shortest records still fit: a loop names one port in eight bytes,
  // a conn record two in twelve.
  EXPECT_EQ(from_port_graph_string("ports 1\ndeg 1\nloop 0 1").num_ports(),
            1u);
  EXPECT_EQ(
      from_port_graph_string("ports 1\ndeg 2\nconn 0 1 0 2").num_ports(), 2u);
}

TEST(PortIoGrammar, CrlfLineEndings) {
  expect_single_edge(
      from_port_graph_string("ports 2\r\ndeg 1 1\r\nconn 0 1 1 1\r\n"));
}

TEST(PortIoGrammar, TabsBetweenFields) {
  expect_single_edge(
      from_port_graph_string("ports\t2\ndeg\t1 \t1\n\tconn\t0\t1\t1\t1\n"));
}

TEST(PortIoGrammar, IndentedCommentsAndWhitespaceLines) {
  expect_single_edge(from_port_graph_string(
      "  # leading comment\n"
      "ports 2\n"
      " \t \r\n"
      "\t# between records\n"
      "deg 1 1\n"
      "   #conn 0 1 1 1 is not a record\n"
      "conn 0 1 1 1\n"));
}

TEST(PortIoGrammar, MissingFinalNewline) {
  expect_single_edge(from_port_graph_string("ports 2\ndeg 1 1\nconn 0 1 1 1"));
  const auto g = from_port_graph_string("ports 1\ndeg 1\nloop 0 1");
  EXPECT_EQ(g.partner(0, 1), (PortRef{0, 1}));
}

TEST(PortIoGrammar, ExtraTokensAfterARecordAreIgnored) {
  expect_single_edge(from_port_graph_string(
      "ports 2 nodes\ndeg 1 1 7 extra\nconn 0 1 1 1 # the edge\n"));
  // A number ends where its digits do; what follows the last field is
  // not read.
  expect_single_edge(
      from_port_graph_string("ports 2\ndeg 1 1\nconn 0 1 1 1x\n"));
}

TEST(PortIoGrammar, ValuesPastTheirRangeAreRejected) {
  // Port and NodeId are 32-bit: 2^32 fits neither.
  EXPECT_EQ(rejection("ports 2\ndeg 1 4294967296\n"),
            "read_port_graph: too few degrees");
  EXPECT_EQ(rejection("ports 2\ndeg 1 1\nconn 0 4294967296 1 1\n"),
            "read_port_graph: malformed 'conn' line");
  EXPECT_EQ(rejection("ports 2\ndeg 1 1\nconn 4294967296 1 1 1\n"),
            "read_port_graph: malformed 'conn' line");
  EXPECT_EQ(rejection("ports 1\ndeg 1\nloop 0 99999999999999999999\n"),
            "read_port_graph: malformed 'loop' line");
  EXPECT_EQ(rejection("ports 99999999999999999999999\n"),
            "read_port_graph: malformed 'ports' line");
}

TEST(PortIoGrammar, SignedNumbersAreRejected) {
  // The grammar's numbers are unsigned decimals: no sign, not even '+'.
  EXPECT_EQ(rejection("ports +2\ndeg 1 1\nconn 0 1 1 1\n"),
            "read_port_graph: malformed 'ports' line");
  EXPECT_EQ(rejection("ports 2\ndeg 1 +1\nconn 0 1 1 1\n"),
            "read_port_graph: too few degrees");
  EXPECT_EQ(rejection("ports 2\ndeg 1 1\nconn 0 1 1 -1\n"),
            "read_port_graph: malformed 'conn' line");
  EXPECT_EQ(rejection("ports 2\ndeg 1 1\nconn -0 1 1 1\n"),
            "read_port_graph: malformed 'conn' line");
  EXPECT_EQ(rejection("ports 1\ndeg 1\nloop 0 +1\n"),
            "read_port_graph: malformed 'loop' line");
}

TEST(PortIoGrammar, MessagesNameTheFaultyRecord) {
  EXPECT_EQ(rejection(""), "read_port_graph: missing 'deg' line");
  EXPECT_EQ(rejection("deg 1\n"), "read_port_graph: 'deg' before 'ports'");
  EXPECT_EQ(rejection("ports 1\nports 1\n"),
            "read_port_graph: duplicate 'ports' line");
  EXPECT_EQ(rejection("ports 1\ndeg 0\ndeg 0\n"),
            "read_port_graph: duplicate 'deg' line");
  EXPECT_EQ(rejection("ports 2\nconn 0 1 1 1\n"),
            "read_port_graph: 'conn' before 'deg'");
  EXPECT_EQ(rejection("ports 1\nloop 0 1\n"),
            "read_port_graph: 'loop' before 'deg'");
  EXPECT_EQ(rejection("ports\n"), "read_port_graph: malformed 'ports' line");
  EXPECT_EQ(rejection("ports 3\ndeg 1 1\n"),
            "read_port_graph: too few degrees");
  EXPECT_EQ(rejection("ports 2\ndeg 1 1\nconn 0 1 1\n"),
            "read_port_graph: malformed 'conn' line");
  EXPECT_EQ(rejection("ports 1\ndeg 1\nloop 0\n"),
            "read_port_graph: malformed 'loop' line");
  EXPECT_EQ(rejection("ports 1\ndeg 1\nLOOP 0 1\n"),
            "read_port_graph: unknown keyword 'LOOP'");
  EXPECT_EQ(rejection("ports 1\ndeg 1\nloop0 1\n"),
            "read_port_graph: unknown keyword 'loop0'");
}

TEST(PortIoGrammar, StreamAndStringReadersAgree) {
  const std::string text = "# c\nports 2\r\ndeg 1 1\nconn 0 1 1 1";
  std::istringstream is(text);
  expect_single_edge(read_port_graph(is));
  std::ostringstream os;
  write_port_graph(os, from_port_graph_string(text));
  EXPECT_EQ(os.str(), "ports 2\ndeg 1 1\nconn 0 1 1 1\n");
}

// Golden hashes of the writer's output: a codec rewrite must keep every
// byte.  Instances come from fixed Rng seeds, so the pins hold under every
// EDS_FUZZ_SEED.
TEST(PortIoPin, WriterOutputIsByteStable) {
  Rng rng(20260);
  const auto torus = with_random_ports(graph::torus(64, 48), rng);
  const auto torus_text = to_port_graph_string(torus.ports());
  EXPECT_EQ(torus_text.size(), kTorusTextBytes);
  EXPECT_EQ(fnv1a(torus_text), kTorusTextHash);

  std::vector<Port> degrees(300);
  for (auto& d : degrees) d = static_cast<Port>(rng.below(9));
  const auto multi = random_port_graph(degrees, rng, 0.3);
  const auto multi_text = to_port_graph_string(multi);
  EXPECT_NE(multi_text.find("\nloop "), std::string::npos);
  EXPECT_EQ(multi_text.size(), kMultiTextBytes);
  EXPECT_EQ(fnv1a(multi_text), kMultiTextHash);
  // Parsing the text back and writing it again gives the same bytes.
  EXPECT_EQ(to_port_graph_string(from_port_graph_string(multi_text)),
            multi_text);
}

}  // namespace
}  // namespace eds::port
