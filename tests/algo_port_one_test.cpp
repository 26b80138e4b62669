#include <gtest/gtest.h>

#include "algo/driver.hpp"
#include "analysis/ratio.hpp"
#include "analysis/verify.hpp"
#include "exact/exact_eds.hpp"
#include "factor/two_factor.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::algo {
namespace {

using analysis::approximation_ratio;
using analysis::is_edge_cover;
using analysis::is_edge_dominating_set;
using analysis::paper_bound_regular;

TEST(PortOne, SolutionDominatesOnRegularFamilies) {
  Rng rng(1);
  for (const std::size_t d : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const std::size_t n = 2 * d + 4;  // even, so n*d is even and n > d
    const auto pg = test::random_ported_regular(n, d, rng);
    const auto outcome = run_algorithm(pg, Algorithm::kPortOne);
    EXPECT_TRUE(is_edge_dominating_set(pg.graph(), outcome.solution))
        << "d=" << d;
    EXPECT_TRUE(is_edge_cover(pg.graph(), outcome.solution)) << "d=" << d;
  }
}

TEST(PortOne, RunsInExactlyOneRound) {
  Rng rng(2);
  const auto pg = test::random_ported_regular(20, 4, rng);
  const auto outcome = run_algorithm(pg, Algorithm::kPortOne);
  EXPECT_EQ(outcome.stats.rounds, 1u);
}

TEST(PortOne, RatioWithinPaperBoundOnSmallRegularGraphs) {
  Rng rng(3);
  for (const std::size_t d : {2u, 4u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto pg = test::random_ported_regular(10, d, rng);
      const auto& g = pg.graph();
      const auto outcome = run_algorithm(pg, Algorithm::kPortOne);
      const auto optimum = exact::minimum_eds_size(g);
      EXPECT_LE(approximation_ratio(outcome.solution.size(), optimum),
                paper_bound_regular(d))
          << "d=" << d << " trial=" << trial;
    }
  }
}

TEST(PortOne, SizeNeverExceedsNodeCount) {
  // |D| <= |V| is the key counting step in the proof of Theorem 3.
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pg = test::random_ported_regular(16, 4, rng);
    const auto& g = pg.graph();
    const auto outcome = run_algorithm(pg, Algorithm::kPortOne);
    EXPECT_LE(outcome.solution.size(), g.num_nodes());
  }
}

TEST(PortOne, OnFactorPortsSelectsExactlyTheFirstFactor) {
  // With a factorisation-induced numbering, the port-1 edges are exactly
  // factor 1: a spanning set of cycles, so |D| = |V|.
  const auto g = graph::torus(4, 5);
  const auto pg = factor::with_factor_ports(g);
  const auto outcome = run_algorithm(pg, Algorithm::kPortOne);
  EXPECT_EQ(outcome.solution.size(), g.num_nodes());
}

TEST(PortOne, WorksOnCyclesAllNumberings) {
  Rng rng(5);
  const auto g = graph::cycle(9);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pg = port::with_random_ports(g, rng);
    const auto outcome = run_algorithm(pg, Algorithm::kPortOne);
    EXPECT_TRUE(is_edge_dominating_set(g, outcome.solution));
    // C_9: optimum 3, bound 3 for d=2: |D| <= 9.
    EXPECT_LE(approximation_ratio(outcome.solution.size(), 3),
              paper_bound_regular(2));
  }
}

TEST(PortOne, HandlesCompleteGraphs) {
  Rng rng(6);
  for (const std::size_t n : {4u, 6u, 9u}) {
    const auto g = graph::complete(n);
    const auto pg = port::with_random_ports(g, rng);
    const auto outcome = run_algorithm(pg, Algorithm::kPortOne);
    EXPECT_TRUE(is_edge_dominating_set(g, outcome.solution));
  }
}

TEST(AllEdges, OptimalOnMatchingGraphs) {
  // ∆ = 1: the trivial algorithm returns every edge, which is optimal.
  const auto g = graph::circulant(10, {5});  // five disjoint edges
  ASSERT_TRUE(g.is_regular(1));
  const auto pg = port::with_canonical_ports(g);
  const auto outcome = run_algorithm(pg, Algorithm::kAllEdges);
  EXPECT_EQ(outcome.solution.size(), 5u);
  EXPECT_EQ(outcome.stats.rounds, 0u);
  EXPECT_EQ(exact::minimum_eds_size(g), 5u);
}

TEST(Driver, RecommendationMatchesTable1) {
  Rng rng(7);
  EXPECT_EQ(recommended_for(graph::circulant(8, {4})).algorithm,
            Algorithm::kAllEdges);
  EXPECT_EQ(recommended_for(graph::cycle(5)).algorithm, Algorithm::kPortOne);
  EXPECT_EQ(recommended_for(graph::petersen()).algorithm,
            Algorithm::kOddRegular);
  EXPECT_EQ(recommended_for(graph::grid(3, 3)).algorithm,
            Algorithm::kBoundedDegree);
}

TEST(Driver, FactoryValidation) {
  // The three algorithms that take d or ∆ refuse 0; the others ignore it.
  for (const auto a : {Algorithm::kOddRegular, Algorithm::kBoundedDegree,
                       Algorithm::kDoubleCover}) {
    EXPECT_THROW((void)make_factory(a, 0), InvalidArgument)
        << algorithm_token(a);
    EXPECT_NO_THROW((void)make_factory(a, 3)) << algorithm_token(a);
  }
  EXPECT_NO_THROW((void)make_factory(Algorithm::kPortOne, 0));
  EXPECT_NO_THROW((void)make_factory(Algorithm::kAllEdges, 0));
}

TEST(Driver, OddRegularRejectsIrregularGraphs) {
  const auto pg = port::with_canonical_ports(graph::grid(2, 3));
  EXPECT_THROW((void)run_algorithm(pg, Algorithm::kOddRegular),
               InvalidArgument);
}

TEST(Driver, NamesAreStable) {
  // Each token maps to its algorithm and back (the CLI and wire
  // vocabulary), and each display name is pinned (sweep rows print it).
  struct Row {
    Algorithm algorithm;
    const char* token;
    const char* name;
  };
  for (const auto& row : {
           Row{Algorithm::kAllEdges, "all-edges", "all-edges"},
           Row{Algorithm::kPortOne, "port-one", "port-one (Thm 3)"},
           Row{Algorithm::kOddRegular, "odd-regular", "odd-regular (Thm 4)"},
           Row{Algorithm::kBoundedDegree, "bounded-degree",
               "bounded-degree (Thm 5)"},
           Row{Algorithm::kDoubleCover, "double-cover",
               "double-cover 2-matching"},
       }) {
    EXPECT_EQ(algorithm_token(row.algorithm), row.token);
    EXPECT_EQ(algorithm_from_token(row.token), row.algorithm) << row.token;
    EXPECT_EQ(algorithm_name(row.algorithm), row.name);
  }
  EXPECT_EQ(algorithm_from_token("auto"), std::nullopt);
  EXPECT_EQ(algorithm_from_token("Port-One"), std::nullopt);
  EXPECT_EQ(algorithm_from_token(""), std::nullopt);
}

}  // namespace
}  // namespace eds::algo
