#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "port/covering.hpp"
#include "port/labels.hpp"
#include "port/port_graph.hpp"
#include "port/ported_graph.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::port {
namespace {

using graph::EdgeId;
using graph::SimpleGraph;

// Figure 2 of the paper; shared with other suites via test_util.hpp.
using test::figure2_graph_h;
using test::figure2_multigraph_m;

TEST(PortGraphBuilder, Figure2MultigraphStructure) {
  const auto m = figure2_multigraph_m();
  EXPECT_EQ(m.num_nodes(), 2u);
  EXPECT_EQ(m.num_ports(), 7u);
  EXPECT_EQ(m.partner(0, 1), (PortRef{1, 2}));
  EXPECT_EQ(m.partner(1, 2), (PortRef{0, 1}));
  EXPECT_EQ(m.partner(0, 3), (PortRef{0, 3}));  // directed loop
  EXPECT_EQ(m.partner(1, 3), (PortRef{1, 4}));  // undirected loop

  const auto edges = m.port_edges();
  EXPECT_EQ(edges.size(), 4u);
  std::size_t loops = 0;
  std::size_t directed = 0;
  for (const auto& e : edges) {
    if (e.is_loop()) ++loops;
    if (e.directed_loop) ++directed;
  }
  EXPECT_EQ(loops, 2u);
  EXPECT_EQ(directed, 1u);
  EXPECT_FALSE(m.is_simple());
}

TEST(PortGraphBuilder, RejectsDoubleAssignment) {
  PortGraphBuilder b({2, 2});
  b.connect({0, 1}, {1, 1});
  EXPECT_THROW(b.connect({0, 1}, {1, 2}), InvalidStructure);
}

TEST(PortGraphBuilder, RejectsSelfConnect) {
  PortGraphBuilder b({2});
  EXPECT_THROW(b.connect({0, 1}, {0, 1}), InvalidArgument);
}

TEST(PortGraphBuilder, RejectsIncompleteBuild) {
  PortGraphBuilder b({2, 2});
  b.connect({0, 1}, {1, 1});
  EXPECT_THROW((void)b.build(), InvalidStructure);
}

TEST(PortGraphBuilder, RejectsOutOfRangePort) {
  PortGraphBuilder b({2});
  EXPECT_THROW(b.fix({0, 3}), InvalidArgument);
  EXPECT_THROW(b.fix({1, 1}), InvalidArgument);
}

TEST(PortedGraph, CanonicalPortsAreValid) {
  const auto pg = with_canonical_ports(graph::cycle(5));
  pg.ports().validate();
  EXPECT_TRUE(pg.ports().is_simple());
  EXPECT_EQ(pg.ports().num_ports(), 10u);
}

TEST(PortedGraph, RandomPortsAreValidPermutation) {
  Rng rng(1);
  const auto g = graph::complete(6);
  const auto pg = with_random_ports(g, rng);
  pg.ports().validate();
  for (graph::NodeId v = 0; v < 6; ++v) {
    std::vector<bool> seen(g.num_edges(), false);
    for (Port i = 1; i <= 5; ++i) {
      const auto e = pg.edge_at(v, i);
      EXPECT_FALSE(seen[e]);
      seen[e] = true;
    }
  }
}

TEST(PortedGraph, PortEdgeRoundTrip) {
  Rng rng(2);
  const auto pg = test::random_ported_regular(12, 3, rng);
  const auto& g = pg.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    EXPECT_EQ(pg.edge_at(edge.u, pg.port_of(edge.u, e)), e);
    EXPECT_EQ(pg.edge_at(edge.v, pg.port_of(edge.v, e)), e);
  }
}

TEST(PortedGraph, PortTowards) {
  const auto pg = figure2_graph_h();
  EXPECT_EQ(pg.port_towards(0, 2), 1u);  // a's port 1 points to c
  EXPECT_EQ(pg.port_towards(2, 0), 2u);  // c's port 2 points to a
  EXPECT_THROW((void)pg.port_towards(0, 3), InvalidArgument);  // no edge a-d
}

TEST(PortedGraph, RejectsNonPermutationOrder) {
  auto g = SimpleGraph::from_edges(3, {{0, 1}, {1, 2}});
  const std::vector<std::vector<EdgeId>> bad{{0}, {0, 0}, {1}};
  EXPECT_THROW((void)PortedGraph(std::move(g), bad), InvalidStructure);
}

TEST(PortedGraph, EdgeAtAndPortOfAreInverseOnEveryPort) {
  // edge_at(v, i) and port_of(v, e) round-trip over every (v, i), and the
  // involution joins the two ports that carry the same edge: on a dense
  // graph (every node has degree 39) and on a heavy-tailed one.
  Rng rng(31);
  const auto dense = with_random_ports(graph::complete(40), rng);
  const auto sparse = with_random_ports(graph::random_power_law(600, 2.2, rng),
                                        rng);
  for (const auto* pg : {&dense, &sparse}) {
    const auto& g = pg->graph();
    std::size_t checked = 0;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto d = static_cast<Port>(g.degree(v));
      for (Port i = 1; i <= d; ++i) {
        const EdgeId e = pg->edge_at(v, i);
        const graph::NodeId u = g.edge(e).other(v);
        EXPECT_EQ(pg->port_of(v, e), i);
        EXPECT_EQ(pg->ports().partner(v, i), (PortRef{u, pg->port_of(u, e)}));
        ++checked;
      }
      EXPECT_THROW((void)pg->edge_at(v, 0), InvalidArgument);
      EXPECT_THROW((void)pg->edge_at(v, d + 1), InvalidArgument);
    }
    EXPECT_EQ(checked, 2 * g.num_edges());
  }
  // A node that is not an endpoint, an edge id past the end, a node past
  // the end.
  const auto& g = dense.graph();
  const auto far = static_cast<graph::NodeId>(
      g.edge(0).u == 2 || g.edge(0).v == 2 ? 3 : 2);
  EXPECT_THROW((void)dense.port_of(far, 0), InvalidArgument);
  EXPECT_THROW((void)dense.port_of(0, static_cast<EdgeId>(g.num_edges())),
               InvalidArgument);
  EXPECT_THROW((void)dense.port_of(40, 0), InvalidArgument);
  EXPECT_THROW((void)dense.edge_at(40, 1), InvalidArgument);
}

TEST(PortedGraph, RejectsDuplicatedEdgeIdInOneNodesOrder) {
  // Star K_{1,3}: node 0 carries edges 0, 1, 2.  Listing edge 0 twice keeps
  // the list length equal to the degree, so only the duplicate is wrong.
  auto g = graph::star(3);
  const std::vector<std::vector<EdgeId>> bad{{0, 0, 2}, {0}, {1}, {2}};
  EXPECT_THROW((void)PortedGraph(std::move(g), bad), InvalidStructure);
}

TEST(PortedGraph, RejectsNonIncidentEdgeInOneNodesOrder) {
  // Path 0-1-2-3 with edges 0 = {0,1}, 1 = {1,2}, 2 = {2,3}.
  const std::vector<std::vector<EdgeId>> non_incident{{2}, {0, 1}, {1, 2}, {2}};
  EXPECT_THROW((void)PortedGraph(graph::path(4), non_incident),
               InvalidStructure);
  const std::vector<std::vector<EdgeId>> past_end{{7}, {0, 1}, {1, 2}, {2}};
  EXPECT_THROW((void)PortedGraph(graph::path(4), past_end), InvalidStructure);
  const std::vector<std::vector<EdgeId>> too_long{{0}, {0, 1}, {1, 2}, {2, 1}};
  EXPECT_THROW((void)PortedGraph(graph::path(4), too_long), InvalidStructure);
}

TEST(PortGraph, IsSimpleRejectsLoopsAndParallelEdges) {
  Rng rng(3);
  EXPECT_TRUE(with_random_ports(graph::complete(7), rng).ports().is_simple());
  PortGraphBuilder directed_loop({2, 1});
  directed_loop.connect({0, 1}, {1, 1}).fix({0, 2});
  EXPECT_FALSE(directed_loop.build().is_simple());
  PortGraphBuilder undirected_loop({3, 1});
  undirected_loop.connect({0, 1}, {1, 1}).connect({0, 2}, {0, 3});
  EXPECT_FALSE(undirected_loop.build().is_simple());
  PortGraphBuilder parallel({1, 2, 1});
  parallel.connect({1, 1}, {0, 1}).connect({1, 2}, {2, 1});
  EXPECT_TRUE(parallel.build().is_simple());
  PortGraphBuilder doubled({1, 3, 2});
  doubled.connect({0, 1}, {1, 1}).connect({1, 2}, {2, 1}).connect({2, 2},
                                                                  {1, 3});
  EXPECT_FALSE(doubled.build().is_simple());
}

TEST(PortedGraph, InvolutionMatchesPorts) {
  const auto pg = figure2_graph_h();
  // a: port1->c (c receives on its port 2).
  EXPECT_EQ(pg.ports().partner(0, 1), (PortRef{2, 2}));
  // b: port3->d (d receives on its port 2).
  EXPECT_EQ(pg.ports().partner(1, 3), (PortRef{3, 2}));
}

TEST(Labels, Figure2LabelPairs) {
  const auto pg = figure2_graph_h();
  const auto& g = pg.graph();
  // Edge cd carries label pair {1,1}; edge ab carries {1,2}.
  EXPECT_EQ(label_pair(pg, *g.find_edge(2, 3)), (LabelPair{1, 1}));
  EXPECT_EQ(label_pair(pg, *g.find_edge(0, 1)), (LabelPair{1, 2}));
}

TEST(Labels, Figure2DistinguishableNeighbours) {
  const auto pg = figure2_graph_h();
  // The paper's stated facts: a is the DN of b, d is the DN of c, and a has
  // no uniquely labelled edge (hence no DN).
  EXPECT_EQ(distinguishable_neighbour(pg, 1), graph::NodeId{0});
  EXPECT_EQ(distinguishable_neighbour(pg, 2), graph::NodeId{3});
  EXPECT_EQ(distinguishable_neighbour(pg, 0), std::nullopt);
  EXPECT_TRUE(uniquely_labelled_edges(pg, 0).empty());
}

TEST(Labels, Figure2MatchingsM) {
  const auto pg = figure2_graph_h();
  const auto& g = pg.graph();
  const auto m12 = matching_m(pg, 1, 2);
  EXPECT_EQ(m12.size(), 1u);
  EXPECT_TRUE(m12.contains(*g.find_edge(0, 1)));
  const auto m11 = matching_m(pg, 1, 1);
  EXPECT_EQ(m11.size(), 1u);
  EXPECT_TRUE(m11.contains(*g.find_edge(2, 3)));
}

TEST(Labels, Lemma1OddDegreeAlwaysHasDn) {
  // Property test over random odd-regular graphs and random numberings.
  Rng rng(7);
  for (const std::size_t d : {3u, 5u, 7u}) {
    for (int trial = 0; trial < 5; ++trial) {
      const auto pg =
          test::random_ported_regular(2 * d + 2, d, rng);
      for (graph::NodeId v = 0; v < pg.graph().num_nodes(); ++v) {
        EXPECT_TRUE(distinguishable_neighbour(pg, v).has_value())
            << "d=" << d << " v=" << v;
      }
    }
  }
}

TEST(Labels, Lemma1HoldsForOddDegreeNodesInIrregularGraphs) {
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pg = with_random_ports(
        graph::random_bounded_degree(30, 5, 50, rng), rng);
    for (graph::NodeId v = 0; v < pg.graph().num_nodes(); ++v) {
      if (pg.graph().degree(v) % 2 == 1) {
        EXPECT_TRUE(distinguishable_neighbour(pg, v).has_value());
      }
    }
  }
}

TEST(Labels, Lemma2EveryMijIsAMatching) {
  Rng rng(9);
  for (int trial = 0; trial < 6; ++trial) {
    const auto g = graph::random_regular(14, 4, rng);
    const auto pg = with_random_ports(g, rng);
    const auto d = static_cast<Port>(pg.graph().max_degree());
    for (Port i = 1; i <= d; ++i) {
      for (Port j = 1; j <= d; ++j) {
        const auto m = matching_m(pg, i, j);
        // Verify no two member edges share an endpoint.
        std::vector<int> deg(pg.graph().num_nodes(), 0);
        for (const auto e : m.to_vector()) {
          EXPECT_LE(++deg[pg.graph().edge(e).u], 1);
          EXPECT_LE(++deg[pg.graph().edge(e).v], 1);
        }
      }
    }
  }
}

TEST(Labels, UnionOfMijCoversOddDegreeNodes) {
  // Lemmas 1+2 together: the union of all M(i,j) covers each odd-degree node.
  Rng rng(10);
  const auto g = graph::random_regular(12, 5, rng);
  const auto pg = with_random_ports(g, rng);
  std::vector<bool> covered(g.num_nodes(), false);
  for (Port i = 1; i <= 5; ++i) {
    for (Port j = 1; j <= 5; ++j) {
      for (const auto e : matching_m(pg, i, j).to_vector()) {
        covered[g.edge(e).u] = true;
        covered[g.edge(e).v] = true;
      }
    }
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(covered[v]) << "node " << v;
  }
}

/// Oriented C_6 covering the single-node multigraph with p(x,1) <-> (x,2).
TEST(Covering, CycleCoversBouquet) {
  const std::size_t n = 6;
  auto g = graph::cycle(n);
  std::vector<std::vector<EdgeId>> order(n, std::vector<EdgeId>(2));
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto fwd = *g.find_edge(v, static_cast<graph::NodeId>((v + 1) % n));
    const auto bwd =
        *g.find_edge(v, static_cast<graph::NodeId>((v + n - 1) % n));
    order[v] = {fwd, bwd};
  }
  const PortedGraph pg(std::move(g), order);

  PortGraphBuilder mb({2});
  mb.connect({0, 1}, {0, 2});
  const auto base = mb.build();

  const std::vector<graph::NodeId> f(n, 0);
  EXPECT_TRUE(is_covering_map(pg.ports(), base, f));
}

TEST(Covering, DetectsNonSurjective) {
  PortGraphBuilder b1({1, 1});
  b1.connect({0, 1}, {1, 1});
  const auto cover = b1.build();
  PortGraphBuilder b2({1, 1});
  b2.connect({0, 1}, {1, 1});
  const auto base = b2.build();
  const auto check = check_covering_map(cover, base, {0, 0});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("surjective"), std::string::npos);
}

TEST(Covering, DetectsDegreeMismatch) {
  PortGraphBuilder b1({1, 1});
  b1.connect({0, 1}, {1, 1});
  const auto cover = b1.build();
  PortGraphBuilder b2({2});
  b2.connect({0, 1}, {0, 2});
  const auto base = b2.build();
  const auto check = check_covering_map(cover, base, {0, 0});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("degree"), std::string::npos);
}

TEST(Covering, DetectsConnectionMismatch) {
  // C_4 with ports 1/2 towards fixed directions vs a base expecting 1<->1.
  const std::size_t n = 4;
  auto g = graph::cycle(n);
  std::vector<std::vector<EdgeId>> order(n, std::vector<EdgeId>(2));
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto fwd = *g.find_edge(v, static_cast<graph::NodeId>((v + 1) % n));
    const auto bwd =
        *g.find_edge(v, static_cast<graph::NodeId>((v + n - 1) % n));
    order[v] = {fwd, bwd};
  }
  const PortedGraph pg(std::move(g), order);

  PortGraphBuilder mb({2});
  mb.connect({0, 1}, {0, 2});
  const auto base_ok = mb.build();
  EXPECT_TRUE(is_covering_map(pg.ports(), base_ok, {0, 0, 0, 0}));

  PortGraphBuilder mb2({2});
  mb2.fix({0, 1});
  mb2.fix({0, 2});
  const auto base_bad = mb2.build();
  const auto check = check_covering_map(pg.ports(), base_bad, {0, 0, 0, 0});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("connections"), std::string::npos);
}

TEST(Covering, IdentityIsACoveringMap) {
  const auto pg = figure2_graph_h();
  std::vector<graph::NodeId> id{0, 1, 2, 3};
  EXPECT_TRUE(is_covering_map(pg.ports(), pg.ports(), id));
}

TEST(PortGraph, SummaryMentionsLoops) {
  const auto m = figure2_multigraph_m();
  EXPECT_NE(m.summary().find("loops=2"), std::string::npos);
}

TEST(PortGraph, DegreeOutOfRangeThrows) {
  const auto m = figure2_multigraph_m();
  EXPECT_THROW((void)m.degree(5), InvalidArgument);
  EXPECT_THROW((void)m.partner(0, 9), InvalidArgument);
}

TEST(PortGraph, IdNamesTheBuildNotTheStructure) {
  PortGraphBuilder builder({1, 1});
  builder.connect({0, 1}, {1, 1});
  const PortGraph a = builder.build();
  const PortGraph b = builder.build();  // same structure, another build
  EXPECT_NE(a.id(), 0u);
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.partner_table(), b.partner_table());

  PortGraph copy = a;
  EXPECT_EQ(copy.id(), a.id());
  const PortGraph moved = std::move(copy);
  EXPECT_EQ(moved.id(), a.id());
  // The moved-from graph is empty, so it cannot share an id with `a`.
  EXPECT_EQ(copy.id(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.num_nodes(), 0u);
  EXPECT_EQ(copy.num_ports(), 0u);
  EXPECT_EQ(PortGraph{}.id(), 0u);

  PortGraph assigned;
  assigned = b;
  EXPECT_EQ(assigned.id(), b.id());
  PortGraph target = a;
  target = std::move(assigned);
  EXPECT_EQ(target.id(), b.id());
  EXPECT_EQ(assigned.id(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned.num_ports(), 0u);
}

TEST(PortGraph, ConcurrentBuildsGetDistinctIds) {
  // Builders on several threads at once (run under TSan in CI): every
  // graph gets its own id.
  constexpr int kThreads = 4;
  constexpr int kBuilds = 64;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&out = ids[t]] {
      for (int i = 0; i < kBuilds; ++i) {
        out.push_back(with_canonical_ports(graph::cycle(5)).ports().id());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<std::uint64_t> all;
  for (const auto& part : ids) all.insert(all.end(), part.begin(), part.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), std::size_t{kThreads * kBuilds});
  EXPECT_NE(all.front(), 0u);
}

}  // namespace
}  // namespace eds::port
