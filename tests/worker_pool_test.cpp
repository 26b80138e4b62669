// The worker fleet behind ProcessShardExecutor: one fleet per batch,
// transparent respawn after a mid-batch death, and the async payload codec
// that lets `--model async` jobs cross the wire.  The differential
// anchors: repeated batches and in-process runs must be bit-identical,
// for sync and async jobs alike.
//
// Tests that fork real worker subprocesses resolve the edsim binary from
// the EDSIM_BIN_PATH compile definition (set by tests/CMakeLists.txt) with
// an EDSIM_BIN environment override, and skip when neither points at an
// executable.
#include <gtest/gtest.h>

#include <string>
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
// The async payload and summary codecs.

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

  const auto back = decode_wire_job(encode_wire_job(job));
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

// The summary a worker writes at stdin EOF carries that worker's totals and
// nothing else: its one batch is its whole life, so the batch id and the
// lifetime total_* fields of the framed protocol are gone, and a summary
// stamped with them is a foreign line.
TEST(WireCodecV2, SummaryCarriesBatchIdAndTotals) {
  WorkerSummary summary;
  summary.jobs = 12;
  summary.plans_compiled = 2;
  summary.plan_hits = 10;
  const auto parsed = decode_worker_line(encode_worker_summary(summary));
  ASSERT_EQ(parsed.kind, WorkerLine::Kind::kSummary);
  EXPECT_EQ(parsed.summary.jobs, 12u);
  EXPECT_EQ(parsed.summary.plans_compiled, 2u);
  EXPECT_EQ(parsed.summary.plan_hits, 10u);

  EXPECT_THROW((void)decode_worker_line(
                   "{\"schema\":2,\"worker_summary\":{\"batch\":7,"
                   "\"jobs\":4,\"plans_compiled\":1,\"plan_hits\":3,"
                   "\"total_jobs\":12,\"total_compiled\":2,"
                   "\"total_hits\":10}}"),
               InvalidArgument);
  EXPECT_THROW((void)decode_worker_line(
                   "{\"schema\":2,\"worker_summary\":{\"batch\":7,"
                   "\"jobs\":4,\"plans_compiled\":1,\"plan_hits\":3}}"),
               InvalidArgument);
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
    // Three batches through one executor, each on the fleet it forks for
    // itself.  None may change a bit.
    for (int pass = 0; pass < 3; ++pass) {
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
// Death and respawn.

TEST(WorkerPool, MidBatchDeathRetriesTheOrphansAndTheBatchSucceeds) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);

  // --chaos crash:2 kills the worker after its second result.  Under the
  // resilient default the batch does not fail: the in-flight job is
  // charged an attempt and re-queued to a respawned worker — whose fresh
  // crash counter is not yet exhausted — so all three jobs are delivered,
  // in order, with the retry visible only in stats().
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

  auto stats = executor.stats();
  EXPECT_EQ(stats.workers_spawned, 2u);
  EXPECT_EQ(stats.workers_respawned, 1u)
      << "replacing a dead worker is a respawn";
  EXPECT_EQ(stats.jobs_retried, 1u) << "only the orphaned job is re-shipped";
  EXPECT_EQ(stats.jobs_shipped, 4u) << "3 jobs + 1 retry shipment";
  EXPECT_EQ(stats.jobs_poisoned, 0u);
  EXPECT_EQ(stats.summaries_lost, 1u) << "the dead worker's summary is gone";

  // A two-job batch forks a fresh worker, which dies right *after*
  // delivering everything.  A post-completion death is absorbed
  // (summaries_lost), not fatal, and it is not a respawn.
  const std::vector<BatchJob> batch2(
      2, shippable_job(pg.ports(), *port_one, "port-one", 0));
  EXPECT_NO_THROW((void)collect(executor, batch2))
      << "a post-completion death must not fail a fully delivered batch";
  stats = executor.stats();
  EXPECT_EQ(stats.workers_spawned, 3u);
  EXPECT_EQ(stats.workers_respawned, 1u);
  EXPECT_EQ(stats.summaries_lost, 2u);
  EXPECT_EQ(stats.jobs_retried, 1u) << "nothing was orphaned in batch 2";
}

}  // namespace
}  // namespace eds::runtime
