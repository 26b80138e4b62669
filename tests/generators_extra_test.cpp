#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <utility>

#include "algo/driver.hpp"
#include "analysis/verify.hpp"
#include "exact/exact_eds.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "port/ported_graph.hpp"
#include "util/rng.hpp"

namespace eds::graph {
namespace {

TEST(GeneratorsExtra, CaterpillarShape) {
  // spine 4, 2 legs per spine node: 12 nodes, 3 spine edges + 8 leg edges.
  const auto g = caterpillar(4, 2);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 11u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_bipartite(g));  // caterpillars are trees
  // Interior spine nodes: 2 spine neighbours + 2 legs.
  EXPECT_EQ(g.degree(1), 4u);
  EXPECT_EQ(g.degree(0), 3u);   // spine end
  EXPECT_EQ(g.degree(11), 1u);  // a leaf
  // Legless caterpillar degenerates to a path; single-node spine to a star.
  EXPECT_EQ(caterpillar(5, 0).num_edges(), 4u);
  EXPECT_EQ(caterpillar(1, 7).num_nodes(), 8u);
  EXPECT_THROW((void)caterpillar(0, 2), InvalidArgument);
}

TEST(GeneratorsExtra, RandomPowerLawRespectsCapAndDeterminism) {
  Rng rng(501);
  const auto g = random_power_law(200, 2.5, rng);
  EXPECT_EQ(g.num_nodes(), 200u);
  EXPECT_GT(g.num_edges(), 0u);
  // Default cap: ceil(sqrt(200)) = 15.
  EXPECT_LE(g.max_degree(), 15u);

  Rng rng_a(77);
  Rng rng_b(77);
  const auto a = random_power_law(64, 2.0, rng_a, 8);
  const auto b = random_power_law(64, 2.0, rng_b, 8);
  std::ostringstream sa;
  std::ostringstream sb;
  write_edge_list(sa, a);
  write_edge_list(sb, b);
  EXPECT_EQ(sa.str(), sb.str()) << "same seed, same graph";
  EXPECT_LE(a.max_degree(), 8u);

  // The degree distribution is heavy-tailed: degree-1 nodes dominate
  // degree->=4 nodes by a wide margin at exponent 2.5.
  Rng rng_c(9);
  const auto big = random_power_law(2000, 2.5, rng_c);
  std::size_t ones = 0;
  std::size_t heavy = 0;
  for (NodeId v = 0; v < big.num_nodes(); ++v) {
    if (big.degree(v) <= 1) ++ones;
    if (big.degree(v) >= 4) ++heavy;
  }
  EXPECT_GT(ones, heavy * 2);

  EXPECT_THROW((void)random_power_law(1, 2.5, rng), InvalidArgument);
  EXPECT_THROW((void)random_power_law(10, 0.0, rng), InvalidArgument);
}

TEST(GeneratorsExtra, PowerLawAndCaterpillarSolveFeasibly) {
  Rng rng(502);
  for (const auto* family : {"powerlaw", "caterpillar"}) {
    const auto g = std::string(family) == "powerlaw"
                       ? random_power_law(80, 2.5, rng)
                       : caterpillar(26, 2);
    const auto pg = port::with_random_ports(g, rng);
    const auto rec = algo::recommended_for(g);
    const auto outcome = algo::run_algorithm(pg, rec.algorithm, rec.param);
    EXPECT_TRUE(analysis::is_edge_dominating_set(g, outcome.solution))
        << family;
  }
}

TEST(GeneratorsExtra, PrismIsThreeRegular) {
  for (const std::size_t n : {3u, 4u, 7u}) {
    const auto g = prism(n);
    EXPECT_EQ(g.num_nodes(), 2 * n);
    EXPECT_TRUE(g.is_regular(3));
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(is_bipartite(g), n % 2 == 0);
  }
  EXPECT_THROW((void)prism(2), InvalidArgument);
}

TEST(GeneratorsExtra, MoebiusLadder) {
  const auto k4 = moebius_ladder(2);
  EXPECT_TRUE(k4.is_regular(3));
  EXPECT_EQ(k4.num_edges(), 6u);  // K_4
  // A chord plus the n-edge arc between its endpoints closes an
  // (n+1)-cycle, so M_n is bipartite iff n is odd.
  const auto m5 = moebius_ladder(5);
  EXPECT_TRUE(m5.is_regular(3));
  EXPECT_TRUE(is_bipartite(m5));
  const auto m4 = moebius_ladder(4);
  EXPECT_FALSE(is_bipartite(m4));
  EXPECT_THROW((void)moebius_ladder(1), InvalidArgument);
}

TEST(GeneratorsExtra, Wheel) {
  const auto g = wheel(6);
  EXPECT_EQ(g.num_nodes(), 7u);
  EXPECT_EQ(g.degree(6), 6u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_THROW((void)wheel(2), InvalidArgument);
}

TEST(GeneratorsExtra, CompleteMultipartite) {
  const auto g = complete_multipartite({2, 2, 2});  // K_{2,2,2}: octahedron
  EXPECT_TRUE(g.is_regular(4));
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_THROW((void)complete_multipartite({}), InvalidArgument);
  EXPECT_THROW((void)complete_multipartite({2, 0}), InvalidArgument);
}

TEST(GeneratorsExtra, Barbell) {
  const auto g = barbell(4, 3);
  EXPECT_EQ(g.num_nodes(), 10u);  // 2*4 cliques + 2 bridge nodes
  EXPECT_TRUE(is_connected(g));
  const auto direct = barbell(3, 1);  // cliques joined by a single edge
  EXPECT_EQ(direct.num_nodes(), 6u);
  EXPECT_TRUE(is_connected(direct));
  const auto disjoint = barbell(3, 0);
  EXPECT_EQ(num_components(disjoint), 2u);
}

TEST(GeneratorsExtra, OddRegularFamiliesSolveCleanly) {
  // Deterministic 3-regular families through the full pipeline.
  Rng rng(21);
  for (const auto& g :
       {prism(5), prism(6), moebius_ladder(4), moebius_ladder(6)}) {
    const auto pg = port::with_random_ports(g, rng);
    const auto outcome =
        algo::run_algorithm(pg, algo::Algorithm::kOddRegular, 3);
    EXPECT_TRUE(analysis::is_edge_dominating_set(g, outcome.solution));
    const auto optimum = exact::minimum_eds_size(g);
    EXPECT_LE(outcome.solution.size() * 2, optimum * 5);  // ratio <= 5/2
  }
}

TEST(GeneratorsExtra, WheelSolvesViaBoundedDegree) {
  Rng rng(22);
  const auto g = wheel(8);
  const auto pg = port::with_random_ports(g, rng);
  const auto outcome = algo::run_algorithm(
      pg, algo::Algorithm::kBoundedDegree, 8);
  EXPECT_TRUE(analysis::is_edge_dominating_set(g, outcome.solution));
}

TEST(GeneratorsExtra, RandomRegularIsWellMixed) {
  // The double-edge-swap randomiser must actually change the seed circulant.
  Rng rng(23);
  const auto a = random_regular(24, 4, rng);
  const auto b = random_regular(24, 4, rng);
  std::size_t common = 0;
  for (const auto& e : a.edges()) {
    if (b.has_edge(e.u, e.v)) ++common;
  }
  EXPECT_LT(common, a.num_edges());  // overwhelmingly unlikely to coincide
}

TEST(GeneratorsExtra, RandomRegularHighDegree) {
  // Degrees that defeat configuration-model rejection must still work.
  Rng rng(24);
  for (const std::size_t d : {6u, 8u, 10u, 12u}) {
    const auto g = random_regular(2 * d + 2, d, rng);
    EXPECT_TRUE(g.is_regular(d)) << "d=" << d;
  }
}

// FNV-1a (64-bit) over a stream of 32-bit words, each fed as four
// little-endian bytes.
class Fnv1a {
 public:
  void word(std::uint32_t w) {
    for (int byte = 0; byte < 4; ++byte) {
      hash_ ^= (w >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// n, m, then every edge (u, v) in edge-id order.
std::uint64_t edge_list_hash(const SimpleGraph& g) {
  Fnv1a h;
  h.word(static_cast<std::uint32_t>(g.num_nodes()));
  h.word(static_cast<std::uint32_t>(g.num_edges()));
  for (const auto& e : g.edges()) {
    h.word(e.u);
    h.word(e.v);
  }
  return h.value();
}

// For every port (v, i) in flat order: the edge on it and its partner port.
std::uint64_t port_numbering_hash(const port::PortedGraph& pg) {
  Fnv1a h;
  const auto& ports = pg.ports();
  for (NodeId v = 0; v < ports.num_nodes(); ++v) {
    for (port::Port i = 1; i <= ports.degree(v); ++i) {
      const auto there = ports.partner(v, i);
      h.word(pg.edge_at(v, i));
      h.word(there.node);
      h.word(there.port);
    }
  }
  return h.value();
}

TEST(GeneratorsGolden, SeededGraphsAndPortsMatchRecordedHashes) {
  // Pins the exact output of the seeded generators and of the random port
  // numbering (edge list, edge ids, port order and RNG consumption), as
  // recorded before the flat edge-set / CSR rewrite.  A rewrite of the
  // graph or port layer that changes any bit of it fails here, which a
  // "same seed, same graph" comparison within one build cannot catch.
  struct Golden {
    const char* name;
    std::uint64_t seed;
    SimpleGraph (*make)(Rng&);
    std::uint64_t edges;
    std::uint64_t ports;
  };
  const Golden cases[] = {
      {"random_regular(8192,5)", 1,
       [](Rng& rng) { return random_regular(8192, 5, rng); },
       0x4D6DBC37E0303F8DULL, 0xF2E0A4F1777CFCD5ULL},
      {"random_bipartite_regular(1024,5)", 2,
       [](Rng& rng) { return random_bipartite_regular(1024, 5, rng); },
       0x0B8FF5464ED420E5ULL, 0x0C8752F37F936C1DULL},
      {"random_power_law(4096,2.5)", 3,
       [](Rng& rng) { return random_power_law(4096, 2.5, rng); },
       0xB93C0149F437A713ULL, 0x40CC8533BC99E013ULL},
      {"random_bounded_degree(4096,6,10000)", 4,
       [](Rng& rng) { return random_bounded_degree(4096, 6, 10000, rng); },
       0x610ABF7A982E9247ULL, 0x10A51E98C07DD917ULL},
      {"torus(512,512)", 5, [](Rng&) { return torus(512, 512); },
       0xA497D356893A72D1ULL, 0x649350E7AD95516DULL},
  };
  for (const auto& c : cases) {
    Rng rng(c.seed);
    auto g = c.make(rng);
    const auto edges = edge_list_hash(g);
    const auto pg = port::with_random_ports(std::move(g), rng);
    EXPECT_EQ(edges, c.edges) << c.name << " edge list";
    EXPECT_EQ(port_numbering_hash(pg), c.ports) << c.name << " ports";
  }
}

TEST(Dot, ExportContainsAllEdges) {
  const auto g = cycle(4);
  EdgeSet highlight(4, {0});
  std::ostringstream os;
  write_dot(os, g, &highlight, "C4");
  const auto text = os.str();
  EXPECT_NE(text.find("graph C4"), std::string::npos);
  EXPECT_NE(text.find("0 -- 1"), std::string::npos);
  EXPECT_NE(text.find("color=red"), std::string::npos);
}

TEST(Dot, NoHighlight) {
  std::ostringstream os;
  write_dot(os, path(3));
  EXPECT_EQ(os.str().find("color=red"), std::string::npos);
}

}  // namespace
}  // namespace eds::graph
