// PlanCache contract: plans are shared exactly among a graph and its
// copies (one PortGraph::id()), the LRU bound holds, concurrent lookups
// build one plan per graph, and cached plans are bit-identical to fresh
// ones under every policy — the cache must be invisible except in its own
// counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "algo/bounded_degree.hpp"
#include "algo/driver.hpp"
#include "algo/port_one.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace eds::runtime {
namespace {

using port::Port;
using port::PortGraph;
using test::EchoFactory;

TEST(PlanCache, HitsOnIdenticalStructureMissesOnDifferent) {
  auto rng = test::make_rng(0xCAC1);
  const auto a = test::random_ported_regular(12, 4, rng);
  const auto b = test::random_ported_regular(12, 4, rng);  // other numbering

  PlanCache cache;
  const auto plan_a1 = cache.get(a.ports());
  const auto plan_a2 = cache.get(a.ports());
  EXPECT_EQ(plan_a1.get(), plan_a2.get()) << "same structure must share";

  const auto plan_b = cache.get(b.ports());
  EXPECT_NE(plan_a1.get(), plan_b.get())
      << "a different port numbering is a different structure";

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(PlanCache, CopyHitsAndRebuildMisses) {
  // A copy is the same graph (same id) and shares its plan.  A separate
  // build of literally the same structure — canonical ports of the same
  // generator output — is another graph and compiles its own plan.
  const auto a = port::with_canonical_ports(graph::cycle(10));
  const PortGraph copy = a.ports();
  const auto rebuilt = port::with_canonical_ports(graph::cycle(10));
  ASSERT_EQ(copy.id(), a.ports().id());
  ASSERT_NE(rebuilt.ports().id(), a.ports().id());
  ASSERT_EQ(rebuilt.ports().partner_table(), a.ports().partner_table());

  PlanCache cache;
  const auto plan = cache.get(a.ports());
  EXPECT_EQ(cache.get(copy).get(), plan.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  EXPECT_NE(cache.get(rebuilt.ports()).get(), plan.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCache, LruEvictionUnderCapacity) {
  const auto g1 = port::with_canonical_ports(graph::cycle(6));
  const auto g2 = port::with_canonical_ports(graph::cycle(8));
  const auto g3 = port::with_canonical_ports(graph::cycle(10));

  PlanCache cache(2);
  ASSERT_EQ(cache.capacity(), 2u);
  const auto p1 = cache.get(g1.ports());
  const auto p2 = cache.get(g2.ports());
  // Touch g1 so g2 becomes the LRU victim.
  EXPECT_EQ(cache.get(g1.ports()).get(), p1.get());
  const auto p3 = cache.get(g3.ports());

  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);

  // g1 and g3 are resident; g2 was evicted and recompiles.
  EXPECT_EQ(cache.get(g1.ports()).get(), p1.get());
  EXPECT_EQ(cache.get(g3.ports()).get(), p3.get());
  EXPECT_NE(cache.get(g2.ports()).get(), p2.get());
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);  // g1, g2, g3, g2 again
  EXPECT_EQ(stats.evictions, 2u);

  // Evicted plans stay usable through their shared_ptr.
  EXPECT_EQ(p2->num_nodes(), 8u);
  EXPECT_EQ(p2->total_ports(), 16u);
}

TEST(PlanCache, ByteAccountingShrinksOnClearAndEviction) {
  const auto g1 = port::with_canonical_ports(graph::cycle(6));
  const auto g2 = port::with_canonical_ports(graph::cycle(64));
  PlanCache cache(1);
  (void)cache.get(g1.ports());
  const auto small = cache.stats().bytes;
  (void)cache.get(g2.ports());  // evicts g1
  const auto big = cache.stats().bytes;
  EXPECT_GT(small, 0u);
  EXPECT_GT(big, small);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(PlanCache, PlanBytesCountEachArrayAtItsElementSize) {
  // cycle(6): 6 nodes of degree 2, 12 ports.  Per node a Port degree and a
  // size_t offset; per port a uint32 flat partner and a PortRef.  The flat
  // partner table is uint32, not size_t: counting it as size_t overstated
  // every plan by 4 bytes a port and made the byte bound evict early.
  const auto g = port::with_canonical_ports(graph::cycle(6));
  const ExecutionPlan plan(g.ports());
  const std::size_t expected =
      6 * (sizeof(Port) + sizeof(std::size_t)) +
      12 * (sizeof(std::uint32_t) + sizeof(port::PortRef));
  EXPECT_EQ(plan.memory_bytes(), expected);
  static_assert(sizeof(Port) == 4 && sizeof(port::PortRef) == 8);
  if constexpr (sizeof(std::size_t) == 8) {
    EXPECT_EQ(plan.memory_bytes(), 216u);
  }

  // The cache charges exactly the plan's bytes.
  PlanCache cache;
  (void)cache.get(g.ports());
  EXPECT_EQ(cache.stats().bytes, expected);
}

TEST(PlanCache, ByteBoundEvictsIndependentlyOfEntryBound) {
  const auto small = port::with_canonical_ports(graph::cycle(8));
  const auto big = port::with_canonical_ports(graph::cycle(512));

  // Generous entry bound, byte bound sized so `big` alone exceeds it: the
  // byte bound must evict `small` but always keep the newest plan.
  PlanCache cache(16, /*max_bytes=*/4096);
  const auto p_small = cache.get(small.ports());
  (void)cache.get(big.ports());
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 1u) << "only the oversized newest plan remains";

  // The evicted plan recompiles on the next request.
  EXPECT_NE(cache.get(small.ports()).get(), p_small.get());
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(PlanCache, ConcurrentLookupsCompileOnePlanPerStructure) {
  // 8 threads x 32 lookups over 3 graphs: exactly 3 compilations, and
  // every thread observes the same shared plan per graph.  Run under TSan
  // (EDS_TSAN=ON) this is the cache's race check.
  const auto g1 = port::with_canonical_ports(graph::cycle(9));
  const auto g2 = port::with_canonical_ports(graph::path(9));
  const auto g3 = port::with_canonical_ports(graph::complete(5));
  const PortGraph* graphs[] = {&g1.ports(), &g2.ports(), &g3.ports()};

  PlanCache cache;
  std::vector<std::vector<const ExecutionPlan*>> seen(8);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &graphs, &seen = seen[t]] {
      for (int i = 0; i < 32; ++i) {
        seen.push_back(cache.get(*graphs[i % 3]).get());
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 8u * 32u - 3u);
  for (const auto& plans : seen) {
    ASSERT_EQ(plans.size(), 32u);
    for (int i = 0; i < 32; ++i) {
      const auto& g = *graphs[i % 3];
      EXPECT_EQ(plans[i], cache.get(g).get());
      EXPECT_EQ(plans[i]->total_ports(), g.num_ports());
    }
  }
}

TEST(PlanCache, ThousandJobSweepCompilesExactlyOnePlan) {
  // The acceptance point: a 1000-job sweep over one port-numbered graph —
  // the `edsim sweep --repeat 1000` shape — compiles exactly 1
  // ExecutionPlan; all 999 remaining jobs are cache hits.
  auto rng = test::make_rng(0x1000);
  const auto pg = test::random_ported_regular(16, 4, rng);
  const std::vector<algo::BatchItem> items(
      1000, algo::BatchItem{&pg, algo::Algorithm::kBoundedDegree, 4});

  PlanCache cache;
  std::vector<algo::EdsOutcome> outcomes;
  algo::run_batch_streaming(
      items, ExecOptions{.threads = 4},
      [&](std::size_t, algo::EdsOutcome&& outcome) {
        outcomes.push_back(std::move(outcome));
      },
      &cache);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 999u);
  ASSERT_EQ(outcomes.size(), 1000u);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.solution, outcomes.front().solution);
    EXPECT_TRUE(outcome.stats == outcomes.front().stats);
  }
}

TEST(PlanCache, CachedPlansAreBitIdenticalToFreshOnesUnderEveryPolicy) {
  // The differential guarantee extended to the cached-plan path: for every
  // policy, a run through the cache equals a fresh-plan run field by field
  // (outputs, stats, trace, message-log order).
  auto rng = test::make_rng(0xCAC2);
  std::vector<port::PortGraph> graphs;
  graphs.push_back(test::random_ported_regular(18, 4, rng).ports());
  std::vector<Port> degrees(10);
  for (auto& deg : degrees) deg = static_cast<Port>(rng.below(5));
  graphs.push_back(port::random_port_graph(degrees, rng));  // multigraph

  PlanCache cache;
  for (const auto& g : graphs) {
    Port max_degree = 1;
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      max_degree = std::max(max_degree, g.degree(static_cast<port::NodeId>(v)));
    }
    const algo::BoundedDegreeFactory bounded(max_degree);
    const EchoFactory echo(3);
    for (const auto* factory :
         std::initializer_list<const ProgramFactory*>{&bounded, &echo}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        RunOptions fresh;
        fresh.collect_trace = true;
        fresh.collect_messages = true;
        fresh.exec.threads = threads;
        const auto expected = run_synchronous(g, *factory, fresh);

        RunOptions cached = fresh;
        cached.exec.plan_cache = &cache;
        // Twice: a cold (miss) and a warm (hit) pass must both match.
        const auto got_cold = run_synchronous(g, *factory, cached);
        const auto got_warm = run_synchronous(g, *factory, cached);
        EXPECT_TRUE(got_cold == expected) << "threads=" << threads;
        EXPECT_TRUE(got_warm == expected) << "threads=" << threads;
      }
    }
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

/// Bytes the heap holds right now (glibc), or 0 where that is unknown.
std::int64_t heap_in_use() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const auto info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
#else
  return 0;
#endif
}

TEST(PlanCache, RunAlgorithmLeavesNoPlanBehind) {
  // Without a cache, run_algorithm compiles a plan for its run and frees
  // it when the run returns: no cache anywhere keeps a plan whose graph
  // may die next.  A plan kept behind shows as heap still in use after the
  // run, about its memory_bytes().
  auto rng = test::make_rng(0x610B);
  const auto warm = port::with_random_ports(graph::torus(96, 96), rng);
  const auto pg = port::with_random_ports(graph::torus(96, 96), rng);
  const auto plan_bytes =
      static_cast<std::int64_t>(ExecutionPlan(pg.ports()).memory_bytes());
  ASSERT_GT(plan_bytes, 100000);
  // A first run on another graph of the same shape makes whatever a run
  // allocates once per process.
  const auto expected = algo::run_algorithm(warm, algo::Algorithm::kPortOne);
  const auto before = heap_in_use();
  (void)algo::run_algorithm(pg, algo::Algorithm::kPortOne);
  const auto kept = heap_in_use() - before;
  EXPECT_LT(kept, plan_bytes / 2) << "a " << plan_bytes << "-byte plan";

  // With a cache, the plan lives exactly as long as the caller's cache.
  PlanCache cache;
  const ExecOptions cached{.plan_cache = &cache};
  const auto first =
      algo::run_algorithm(warm, algo::Algorithm::kPortOne, 0, cached);
  const auto second =
      algo::run_algorithm(warm, algo::Algorithm::kPortOne, 0, cached);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(first.solution, expected.solution);
  EXPECT_EQ(second.solution, expected.solution);
}

}  // namespace
}  // namespace eds::runtime
