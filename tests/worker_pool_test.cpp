// The warm worker pool behind ProcessShardExecutor: warm reuse (fork
// once, serve many batches, keep plan caches hot), transparent respawn
// after a mid-batch death, idle reaping, drain/destructor teardown, and
// the batch framing + async payload codecs that carry it all.  The
// differential anchors: warm, drained (cold) and in-process runs must be
// bit-identical, for sync and async jobs alike.
//
// Tests that fork real worker subprocesses resolve the edsim binary from
// the EDSIM_BIN_PATH compile definition (set by tests/CMakeLists.txt) with
// an EDSIM_BIN environment override, and skip when neither points at an
// executable.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "algo/driver.hpp"
#include "graph/generators.hpp"
#include "port/io.hpp"
#include "port/ported_graph.hpp"
#include "runtime/batch.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/shard.hpp"
#include "runtime/worker_pool.hpp"
#include "util/error.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

#define REQUIRE_EDSIM_OR_SKIP(var)                                        \
  const std::string var = test::edsim_binary();                           \
  if (var.empty()) GTEST_SKIP() << "edsim binary not found (set EDSIM_BIN)"

/// A job any backend can run: factory for in-process execution, JobSpec
/// for process shards.  The factory must outlive the returned job.
BatchJob shippable_job(const port::PortGraph& g, const ProgramFactory& factory,
                       const std::string& token, Port param,
                       Round max_rounds = 100000) {
  BatchJob job;
  job.graph = &g;
  job.factory = &factory;
  job.options.max_rounds = max_rounds;
  JobSpec spec;
  spec.algorithm = token;
  spec.param = param;
  spec.group = structural_hash(g);
  job.spec = spec;
  return job;
}

std::vector<RunResult> collect(const Executor& executor,
                               const std::vector<BatchJob>& jobs) {
  std::vector<RunResult> got(jobs.size());
  std::size_t next = 0;
  executor.run_streaming(jobs, [&](std::size_t i, RunResult&& result) {
    EXPECT_EQ(i, next++) << "delivery must be in job order";
    got[i] = std::move(result);
  });
  EXPECT_EQ(next, jobs.size());
  return got;
}

// ---------------------------------------------------------------------------
// Batch framing and async payload codecs.

TEST(WireCodecV2, BatchFramingRoundTrips) {
  const auto begin = decode_parent_line(encode_batch_begin(42));
  EXPECT_EQ(begin.kind, ParentLine::Kind::kBatchBegin);
  EXPECT_EQ(begin.batch_id, 42u);

  const auto end = decode_parent_line(encode_batch_end(42));
  EXPECT_EQ(end.kind, ParentLine::Kind::kBatchEnd);
  EXPECT_EQ(end.batch_id, 42u);

  // Any schema but the current one is a protocol error.
  EXPECT_THROW((void)decode_parent_line("{\"schema\":1,\"batch_begin\":"
                                        "{\"batch\":1}}"),
               InvalidArgument);
  EXPECT_THROW((void)decode_parent_line("{\"schema\":9,\"batch_begin\":"
                                        "{\"batch\":1}}"),
               InvalidArgument);
}

TEST(WireCodecV2, AsyncJobRoundTripsBitExactly) {
  WireJob job;
  job.index = 3;
  job.algorithm = "port-one";
  job.param = 0;
  job.threads = 2;
  job.max_rounds = 500;
  job.graph_text = "ports 2\ndeg 1 1\nconn 0 1 1 1\n";
  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kUniform, 1, 6};
  async.seed = 0xDEADBEEFCAFEF00DULL;
  async.round_timeout = 9;
  // Probabilities chosen to not be exactly representable: the codec must
  // round-trip them bit-exactly (max_digits10), not "close enough".
  async.faults.loss = 0.1;
  async.faults.duplicate = 0.05;
  async.faults.crashes = {{2, 17}, {5, 3}};
  job.async = async;

  const auto line = encode_wire_job(job);
  const auto parsed = decode_parent_line(line);
  ASSERT_EQ(parsed.kind, ParentLine::Kind::kJob);
  const auto& back = parsed.job;
  ASSERT_TRUE(back.async.has_value());
  EXPECT_EQ(back.async->synchronizer, async.synchronizer);
  EXPECT_EQ(back.async->delay.kind, async.delay.kind);
  EXPECT_EQ(back.async->delay.a, async.delay.a);
  EXPECT_EQ(back.async->delay.b, async.delay.b);
  EXPECT_EQ(back.async->seed, async.seed);
  EXPECT_EQ(back.async->round_timeout, async.round_timeout);
  EXPECT_EQ(back.async->faults.loss, async.faults.loss);
  EXPECT_EQ(back.async->faults.duplicate, async.faults.duplicate);
  ASSERT_EQ(back.async->faults.crashes.size(), 2u);
  EXPECT_EQ(back.async->faults.crashes[0].node, 2u);
  EXPECT_EQ(back.async->faults.crashes[0].time, 17u);
  EXPECT_TRUE(back.async->schedule.empty());
}

TEST(WireCodecV2, SummaryCarriesBatchIdAndTotals) {
  WorkerSummary summary;
  summary.batch_id = 7;
  summary.jobs = 4;
  summary.plans_compiled = 1;
  summary.plan_hits = 3;
  summary.total_jobs = 12;
  summary.total_compiled = 2;
  summary.total_hits = 10;
  const auto parsed = decode_worker_line(encode_worker_summary(summary));
  ASSERT_EQ(parsed.kind, WorkerLine::Kind::kSummary);
  EXPECT_EQ(parsed.summary.batch_id, 7u);
  EXPECT_EQ(parsed.summary.jobs, 4u);
  EXPECT_EQ(parsed.summary.plans_compiled, 1u);
  EXPECT_EQ(parsed.summary.plan_hits, 3u);
  EXPECT_EQ(parsed.summary.total_jobs, 12u);
  EXPECT_EQ(parsed.summary.total_compiled, 2u);
  EXPECT_EQ(parsed.summary.total_hits, 10u);
}

// ---------------------------------------------------------------------------
// Warm reuse: the point of the pool.

TEST(WorkerPool, SecondIdenticalBatchIsWarmAndAllHits) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0x9001);
  const auto a = test::random_ported_regular(12, 3, rng);
  const auto b = test::random_ported_regular(16, 3, rng);
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);
  std::vector<BatchJob> jobs{
      shippable_job(a.ports(), *bounded, "bounded-degree", 3),
      shippable_job(b.ports(), *bounded, "bounded-degree", 3),
      shippable_job(a.ports(), *bounded, "bounded-degree", 3),
  };

  const ProcessShardExecutor executor({bin, "worker"}, 2);
  const auto first = collect(executor, jobs);
  const auto cold = executor.stats();
  EXPECT_EQ(cold.batches_run, 1u);
  EXPECT_GE(cold.workers_spawned, 1u);
  EXPECT_EQ(cold.workers_respawned, 0u);
  EXPECT_EQ(cold.plans_compiled, 2u);
  EXPECT_EQ(cold.plan_hits, 1u);
  EXPECT_GE(executor.live_workers(), 1u) << "workers must stay warm";

  // Same batch again: no forks, no compilations — every job is a cache
  // hit inside a reused worker.  Results stay bit-identical.
  const auto second = collect(executor, jobs);
  const auto warm = executor.stats();
  EXPECT_EQ(warm.workers_spawned, cold.workers_spawned)
      << "a warm batch must not fork";
  EXPECT_EQ(warm.workers_respawned, 0u);
  EXPECT_EQ(warm.plans_compiled, cold.plans_compiled)
      << "warm caches compile nothing new";
  EXPECT_EQ(warm.plan_hits, cold.plan_hits + jobs.size());
  EXPECT_EQ(warm.batches_run, 2u);
  EXPECT_EQ(warm.jobs_shipped, 2 * jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(first[i] == second[i]) << "warmth must not change results";
  }
}

// ---------------------------------------------------------------------------
// Bit-identity across backends and modes.

TEST(WorkerPool, PooledUnpooledAndInProcessAreBitIdentical) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0x1D3A);
  const auto a = test::random_ported_regular(14, 4, rng);
  const auto b = port::with_canonical_ports(graph::cycle(9));
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 4);
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);

  std::vector<BatchJob> jobs;
  for (int r = 0; r < 3; ++r) {
    jobs.push_back(shippable_job(a.ports(), *bounded, "bounded-degree", 4));
    jobs.push_back(shippable_job(b.ports(), *port_one, "port-one", 0));
  }

  const auto expected = InProcessExecutor(2).run(jobs);
  for (const unsigned shards : {1u, 3u}) {
    const ProcessShardExecutor executor({bin, "worker"}, shards);
    // Three passes through one executor: the first forks a cold fleet, the
    // second reuses it warm, the third runs on the cold fleet drain()
    // leaves behind.  None may change a bit.
    for (int pass = 0; pass < 3; ++pass) {
      if (pass == 2) executor.drain();
      const auto got = collect(executor, jobs);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(got[i] == expected[i])
            << "job " << i << " differs at shards=" << shards
            << " pass=" << pass;
      }
    }
  }
}

TEST(WorkerPool, AsyncJobsCrossTheWireBitIdentically) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0xA57C);
  const auto a = test::random_ported_regular(12, 3, rng);
  const auto b = port::with_canonical_ports(graph::cycle(7));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);

  // Two flavours: a synchronized fault-free run (the α-synchronizer
  // oracle) and a free-running faulty one (loss + duplication), each with
  // its own per-job seed — exactly what `sweep --model async --shards`
  // ships.
  std::vector<BatchJob> jobs;
  for (int r = 0; r < 2; ++r) {
    auto oracle = shippable_job(a.ports(), *port_one, "port-one", 0);
    AsyncOptions sync_async;
    sync_async.delay = {DelayKind::kUniform, 1, 5};
    sync_async.seed = 0x5EED0000ULL + static_cast<std::uint64_t>(r);
    oracle.options.exec.async = sync_async;
    jobs.push_back(oracle);

    auto faulty = shippable_job(b.ports(), *port_one, "port-one", 0);
    AsyncOptions faulty_async;
    faulty_async.synchronizer = false;
    faulty_async.delay = {DelayKind::kGeometric, 3, 12};
    faulty_async.seed = 0xFA0170000ULL + static_cast<std::uint64_t>(r);
    faulty_async.round_timeout = 8;
    faulty_async.faults.loss = 0.1;
    faulty_async.faults.duplicate = 0.05;
    faulty.options.exec.async = faulty_async;
    jobs.push_back(faulty);
  }

  const auto expected = InProcessExecutor(2).run(jobs);
  for (const unsigned shards : {1u, 3u}) {
    const ProcessShardExecutor executor({bin, "worker"}, shards);
    const auto got = collect(executor, jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(got[i] == expected[i])
          << "async job " << i << " differs at shards=" << shards;
    }
  }
}

// ---------------------------------------------------------------------------
// Death, respawn, reap, drain.

TEST(WorkerPool, MidBatchDeathRetriesTheOrphansAndTheBatchSucceeds) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);

  // --chaos crash:2 kills the worker after its second result ever.  Under the resilient default the batch no
  // longer fails: the in-flight job is charged an attempt and re-queued
  // to a respawned worker — whose fresh crash counter is not yet
  // exhausted — so all three jobs are delivered, in order, with the
  // retry visible only in stats().
  ProcessShardExecutor::Options options;
  options.retry_backoff_ms = 1;
  const ProcessShardExecutor executor({bin, "worker", "--chaos", "crash:2"},
                                      1, options);
  const std::vector<BatchJob> batch1(
      3, shippable_job(pg.ports(), *port_one, "port-one", 0));
  std::vector<std::size_t> delivered;
  executor.run_streaming(batch1, [&](std::size_t i, RunResult&&) {
    delivered.push_back(i);
  });
  EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(executor.live_workers(), 1u)
      << "the retry pass's respawned worker stays warm";

  auto stats = executor.stats();
  EXPECT_EQ(stats.workers_spawned, 2u);
  EXPECT_EQ(stats.workers_respawned, 1u)
      << "replacing a dead worker is a respawn";
  EXPECT_EQ(stats.jobs_retried, 1u) << "only the orphaned job is re-shipped";
  EXPECT_EQ(stats.jobs_shipped, 4u) << "3 jobs + 1 retry shipment";
  EXPECT_EQ(stats.jobs_poisoned, 0u);
  EXPECT_EQ(stats.summaries_lost, 1u)
      << "the dead worker's batch summary is gone; its totals are not";

  // The respawned worker answered one job; its next result is its second
  // ever, so it dies again — *after* delivering everything.  A
  // post-completion death is absorbed (summaries_lost), not fatal.
  const std::vector<BatchJob> batch2(
      1, shippable_job(pg.ports(), *port_one, "port-one", 0));
  EXPECT_NO_THROW((void)collect(executor, batch2))
      << "a post-completion death must not fail a fully delivered batch";
  stats = executor.stats();
  EXPECT_EQ(stats.summaries_lost, 2u);
  EXPECT_EQ(stats.jobs_retried, 1u) << "nothing was orphaned in batch 2";
}

TEST(WorkerPool, IdleReapRetiresWarmWorkersWithoutCountingRespawns) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(6));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      2, shippable_job(pg.ports(), *port_one, "port-one", 0));

  WorkerPool::Options options;
  options.idle_timeout_ms = 1;
  WorkerPool pool({bin, "worker"}, 1, options);
  pool.run_batch(jobs, [](std::size_t, RunResult&&) {});
  EXPECT_EQ(pool.live_workers(), 1u);

  // Anything past the 1 ms timeout is idle; the reap is a *clean*
  // retirement, so the next batch's fork is a plain spawn, not a respawn.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pool.reap_idle();
  EXPECT_EQ(pool.live_workers(), 0u);
  auto stats = pool.stats();
  EXPECT_EQ(stats.workers_reaped, 1u);
  EXPECT_EQ(stats.workers_respawned, 0u);

  pool.run_batch(jobs, [](std::size_t, RunResult&&) {});
  stats = pool.stats();
  EXPECT_EQ(stats.workers_spawned, 2u);
  EXPECT_EQ(stats.workers_respawned, 0u)
      << "a reaped slot is empty, not dead — refilling it is not a respawn";
}

TEST(WorkerPool, DrainRetiresEverythingAndThePoolStaysUsable) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(6));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      3, shippable_job(pg.ports(), *port_one, "port-one", 0));

  const ProcessShardExecutor executor({bin, "worker"}, 2);
  (void)collect(executor, jobs);
  EXPECT_GE(executor.live_workers(), 1u);
  executor.drain();
  EXPECT_EQ(executor.live_workers(), 0u);
  EXPECT_GE(executor.stats().workers_reaped, 1u);
  // Lazy respawn: the drained executor serves the next batch normally.
  (void)collect(executor, jobs);
  EXPECT_GE(executor.live_workers(), 1u);
  // Destructor teardown of the still-warm fleet runs at scope exit —
  // ASan/TSan CI verifies no fd or process leaks behind it.
}

// A long-haul dose of the steady state: many small batches through one
// pool must never respawn a worker, and the shared plan caches must only
// get hotter — cache hits strictly monotone, compilations frozen after
// the first batch.  The per-push run keeps a small dose; nightly CI
// raises EDS_POOL_SOAK_BATCHES to soak the pool for hundreds of batches.
TEST(WorkerPool, SoakManySmallBatchesZeroRespawnsMonotoneHits) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  std::size_t batches = 12;
  if (const char* env = std::getenv("EDS_POOL_SOAK_BATCHES")) {
    batches = static_cast<std::size_t>(std::stoull(env));
  }
  auto rng = test::make_rng(0x50AC);
  const auto a = test::random_ported_regular(10, 3, rng);
  const auto b = port::with_canonical_ports(graph::cycle(7));
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs{
      shippable_job(a.ports(), *bounded, "bounded-degree", 3),
      shippable_job(b.ports(), *port_one, "port-one", 0),
  };

  const ProcessShardExecutor executor({bin, "worker"}, 2);
  const auto reference = collect(executor, jobs);
  const auto cold = executor.stats();
  auto previous = cold;
  for (std::size_t batch = 1; batch < batches; ++batch) {
    const auto got = collect(executor, jobs);
    const auto now = executor.stats();
    ASSERT_EQ(now.workers_respawned, 0u)
        << "soak batch " << batch << " respawned a worker";
    ASSERT_EQ(now.workers_spawned, cold.workers_spawned)
        << "soak batch " << batch << " forked";
    ASSERT_EQ(now.plans_compiled, cold.plans_compiled)
        << "soak batch " << batch << " recompiled a plan";
    ASSERT_GT(now.plan_hits, previous.plan_hits)
        << "cache hits must grow every batch";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(reference[i] == got[i])
          << "soak batch " << batch << " drifted on job " << i;
    }
    previous = now;
  }
  EXPECT_EQ(previous.batches_run, batches);
  EXPECT_EQ(previous.jobs_shipped, batches * jobs.size());
}

}  // namespace
}  // namespace eds::runtime
