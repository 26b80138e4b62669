// The rebuilt message transport (sender-indexed double-buffered outbox,
// degree-balanced shard boundaries) against the
// policy-free seed oracle: bit-identity across lane counts on the degree
// distributions that stress lane balancing hardest, with and without a
// metrics sink.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/engine.hpp"
#include "runtime/message.hpp"
#include "runtime/runner.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using test::EchoFactory;
using test::reference_run;

/// Runs `g` under every lane count in `lane_counts` (plus the oracle) and
/// demands bit-identical RunResults.  The worst-case inputs here are
/// degree-skewed: balanced_shard_bounds hands lanes very different node
/// counts, and empty shards are possible — none of which may leak into
/// results.
/// With `metrics` set, the engine runs carry it as their sink.
void expect_lane_counts_match(const port::PortGraph& g,
                              const ProgramFactory& factory,
                              const char* label,
                              RunMetrics* metrics = nullptr) {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto expected = reference_run(g, factory, options);
  options.metrics = metrics;
  for (const unsigned threads : {1u, 2u, 8u, 16u}) {
    options.exec.threads = threads;
    const auto got = run_synchronous(g, factory, options);
    EXPECT_TRUE(got == expected)
        << label << ": threads=" << threads
        << " diverged from the seed oracle (rounds " << got.stats.rounds
        << " vs " << expected.stats.rounds << ", messages "
        << got.stats.messages_sent << " vs " << expected.stats.messages_sent
        << ", log " << got.message_log.size() << " vs "
        << expected.message_log.size() << ")";
  }
}

TEST(EngineSoa, PowerLawDifferentialAcrossLaneCounts) {
  // Power-law degrees: a few heavy nodes absorb several port-balanced
  // boundary targets, so some shards come out empty and the rest carry
  // wildly uneven node counts.
  auto rng = test::make_rng(0x50A1);
  const auto pg =
      port::with_random_ports(graph::random_power_law(300, 2.1, rng), rng);
  expect_lane_counts_match(pg.ports(), EchoFactory(5), "power-law");
}

TEST(EngineSoa, StarDifferentialAcrossLaneCounts) {
  // The star is the extreme imbalance: the hub holds half of all ports, so
  // every port-balanced split puts it alone in one shard.
  auto rng = test::make_rng(0x57A2);
  const auto pg = port::with_random_ports(graph::star(64), rng);
  expect_lane_counts_match(pg.ports(), EchoFactory(4), "star");
}

TEST(EngineSoa, StarMultigraphDifferentialAcrossLaneCounts) {
  // A star-shaped multigraph built straight from a degree sequence: one
  // hub of degree 96 against 32 leaves of degree 3, wired by a random
  // involution — parallel edges, self-loops and fixed points included, so
  // the sender-segment transport is exercised on every port species.
  auto rng = test::make_rng(0x57A3);
  std::vector<port::Port> degrees(33, 3);
  degrees[0] = 96;
  const auto g = port::random_port_graph(degrees, rng);
  expect_lane_counts_match(g, EchoFactory(6), "star-multigraph");
}

TEST(EngineSoa, ProfiledRunsStayBitIdentical) {
  // A sink adds timestamps around each shard's receive and send sweeps;
  // the differential bar applies to a profiled run unchanged.
  auto rng = test::make_rng(0x50A4);
  const auto pg =
      port::with_random_ports(graph::random_power_law(200, 2.3, rng), rng);
  RunMetrics metrics;
  expect_lane_counts_match(pg.ports(), EchoFactory(5), "profiled power-law",
                           &metrics);
  const auto rounds = run_synchronous(pg.ports(), EchoFactory(5)).stats.rounds;
  EXPECT_EQ(metrics.rounds, 4 * rounds) << "one sink totals the four runs";
}

TEST(EngineSoa, BalancedShardBoundsEqualizePortCounts) {
  // Star worklist: hub (64 ports) first, then 64 leaves (1 port each).
  // Port-balanced bounds must give the hub its own shard and split the
  // leaves over the rest; equal-count bounds would put 16 leaves next to
  // the hub and starve the last shard.
  std::vector<std::uint64_t> weights{64};
  weights.insert(weights.end(), 64, 1);
  std::vector<std::size_t> bounds;
  balanced_shard_bounds(
      weights.size(), 4, [&](std::size_t i) { return weights[i]; }, bounds);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], 1u) << "the hub alone already fills shard 0's target";
  EXPECT_EQ(bounds[4], weights.size());
  // Every remaining shard's port total stays near 128 / 4 = 32.
  for (std::size_t s = 1; s < 4; ++s) {
    std::uint64_t total = 0;
    for (std::size_t i = bounds[s]; i < bounds[s + 1]; ++i) {
      total += weights[i];
    }
    EXPECT_LE(total, 33u) << "shard " << s;
  }

  // All-zero weights fall back to an equal-count split.
  balanced_shard_bounds(
      8, 4, [](std::size_t) { return std::uint64_t{0}; }, bounds);
  EXPECT_EQ(bounds, (std::vector<std::size_t>{0, 2, 4, 6, 8}));
}

}  // namespace
}  // namespace eds::runtime
