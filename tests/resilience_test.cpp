// The resilience layer of the sharded backend: bounded job retries after
// a worker death, job/batch deadlines that kill hung workers, poison-job
// quarantine with per-attempt diagnostics, the crash-loop breaker with
// its optional in-process fallback, and the deterministic chaos harness
// (`edsim worker --chaos SPEC` / EDS_WORKER_CHAOS) that drives them all.
//
// The anchor throughout: however the chaos harness abuses the workers,
// every job that completes must complete bit-identically to an
// in-process run — retries route through the same reorder buffer, so a
// re-shipped job is indistinguishable from a first-try one.
//
// Tests that fork real worker subprocesses resolve the edsim binary from
// the EDSIM_BIN_PATH compile definition (set by tests/CMakeLists.txt)
// with an EDSIM_BIN environment override, and skip when neither points
// at an executable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "algo/driver.hpp"
#include "graph/generators.hpp"
#include "port/io.hpp"
#include "port/ported_graph.hpp"
#include "runtime/batch.hpp"
#include "runtime/executor.hpp"
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

/// Runs a batch expected to end in an ExecutionError, recording which job
/// indices were delivered before the failure stopped the prefix.
struct FailedRun {
  std::vector<std::size_t> delivered;
  std::string what;
};
FailedRun collect_failure(const Executor& executor,
                          const std::vector<BatchJob>& jobs) {
  FailedRun run;
  try {
    executor.run_streaming(jobs, [&](std::size_t i, RunResult&&) {
      run.delivered.push_back(i);
    });
    ADD_FAILURE() << "batch was expected to fail";
  } catch (const ExecutionError& e) {
    run.what = e.what();
  }
  return run;
}

/// Scoped setenv/unsetenv, so an env-route test can't leak chaos into the
/// suites that run after it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

// ---------------------------------------------------------------------------
// Wire diagnostics: a decode error names the line, not just the parse.

TEST(WireDiagnostics, DescribeWireLineQuotesAndTruncates) {
  EXPECT_EQ(detail::describe_wire_line(7, "{\"bad\":"),
            "line 7 (\"{\\\"bad\\\":\")");
  // Long lines are cut at 80 characters so a megabyte of garbage from a
  // corrupted worker cannot balloon the error message.
  const std::string long_line(200, 'x');
  const auto described = detail::describe_wire_line(1, long_line);
  EXPECT_LT(described.size(), 120u);
  EXPECT_NE(described.find("…"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The chaos codec: a pure, deterministic spec → action function.

TEST(ChaosSpec, ParseAndFormatRoundTrip) {
  for (const char* text : {"crash:2", "hang:1:50", "garbage:3", "slow:2:5",
                           "exit-mid:1", "poison:4", "rand:123:60"}) {
    EXPECT_EQ(format_chaos_spec(parse_chaos_spec(text)), text);
  }
  EXPECT_EQ(parse_chaos_spec("").mode, ChaosSpec::Mode::kNone);
  EXPECT_EQ(format_chaos_spec(ChaosSpec{}), "");
}

TEST(ChaosSpec, ParseRejectsMalformedSpecs) {
  for (const char* bad : {
           "frobnicate:1",   // unknown mode
           "crash",          // missing field
           "crash:1:2",      // extra field
           "crash:0",        // ordinal modes are 1-based
           "crash:x",        // not a number
           "hang:1",         // hang needs a duration
           "rand:1:1001",    // permille > 1000
           "rand:1",         // rand needs both fields
       }) {
    EXPECT_THROW((void)parse_chaos_spec(bad), InvalidArgument) << bad;
  }
}

TEST(ChaosSpec, ActionsAreDeterministicFunctionsOfOrdinalAndIndex) {
  // crash:N fires on every ordinal >= N — the worker that replaces a
  // crashed one starts a fresh count.
  const auto crash = parse_chaos_spec("crash:3");
  EXPECT_EQ(chaos_action(crash, 2, 0).mode, ChaosSpec::Mode::kNone);
  EXPECT_EQ(chaos_action(crash, 3, 0).mode, ChaosSpec::Mode::kCrash);
  EXPECT_EQ(chaos_action(crash, 4, 0).mode, ChaosSpec::Mode::kCrash);

  // One-shot ordinal modes fire exactly once per worker lifetime.
  const auto hang = parse_chaos_spec("hang:2:75");
  EXPECT_EQ(chaos_action(hang, 1, 0).mode, ChaosSpec::Mode::kNone);
  EXPECT_EQ(chaos_action(hang, 2, 0).mode, ChaosSpec::Mode::kHang);
  EXPECT_EQ(chaos_action(hang, 2, 0).ms, 75u);
  EXPECT_EQ(chaos_action(hang, 3, 0).mode, ChaosSpec::Mode::kNone);

  // poison keys on the *wire index*, not the ordinal: the job itself is
  // bad, so it fails on every worker it is retried to.
  const auto poison = parse_chaos_spec("poison:5");
  EXPECT_EQ(chaos_action(poison, 1, 5).mode, ChaosSpec::Mode::kPoison);
  EXPECT_EQ(chaos_action(poison, 9, 5).mode, ChaosSpec::Mode::kPoison);
  EXPECT_EQ(chaos_action(poison, 5, 4).mode, ChaosSpec::Mode::kNone);

  // rand is a pure function of (seed, ordinal): same inputs, same action;
  // permille 0 never fires, permille 1000 always does.
  const auto rand = parse_chaos_spec("rand:99:500");
  for (std::uint64_t o = 1; o <= 32; ++o) {
    EXPECT_EQ(chaos_action(rand, o, 0).mode, chaos_action(rand, o, 7).mode)
        << "wire index must not perturb rand draws";
  }
  const auto never = parse_chaos_spec("rand:99:0");
  const auto always = parse_chaos_spec("rand:99:1000");
  for (std::uint64_t o = 1; o <= 32; ++o) {
    EXPECT_EQ(chaos_action(never, o, 0).mode, ChaosSpec::Mode::kNone);
    EXPECT_NE(chaos_action(always, o, 0).mode, ChaosSpec::Mode::kNone);
  }
}

// ---------------------------------------------------------------------------
// Retry bit-identity: a chaos-ridden batch must match in-process exactly.

class ChaosRetry : public ::testing::TestWithParam<const char*> {};

TEST_P(ChaosRetry, BatchSurvivesChaosBitIdenticallyPooledAndUnpooled) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0xC4A0);
  const auto a = test::random_ported_regular(12, 3, rng);
  const auto b = port::with_canonical_ports(graph::cycle(9));
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs{
      shippable_job(a.ports(), *bounded, "bounded-degree", 3),
      shippable_job(b.ports(), *port_one, "port-one", 0),
      shippable_job(a.ports(), *bounded, "bounded-degree", 3),
      shippable_job(b.ports(), *port_one, "port-one", 0),
  };
  const auto expected = InProcessExecutor(1).run(jobs);

  const ProcessShardExecutor executor({bin, "worker", "--chaos", GetParam()},
                                      1);
  const auto got = collect(executor, jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(got[i] == expected[i])
        << "job " << i << " differs under --chaos " << GetParam();
  }
  const auto stats = executor.stats();
  EXPECT_EQ(stats.jobs_poisoned, 0u);
  EXPECT_EQ(stats.batch_timeouts, 0u);
  EXPECT_EQ(stats.pool_quarantines, 0u);
}

// slow:2:10 is pure latency (no deaths, no retries); the others each kill
// a worker mid-batch in a different way — after answering (crash), by
// corrupting an answer (garbage) and by truncating one mid-line
// (exit-mid) — and all must come out bit-identical through the retry
// path.
INSTANTIATE_TEST_SUITE_P(Modes, ChaosRetry,
                         ::testing::Values("crash:2", "garbage:2",
                                           "exit-mid:2", "slow:2:10"));

TEST(Resilience, RetryCountersAreExact) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      4, shippable_job(pg.ports(), *port_one, "port-one", 0));

  // garbage:2 corrupts every worker's second answer, so with one shard
  // the batch needs three passes: {0,1,2,3} loses job 1, {1,2,3} loses
  // job 2, {2,3} loses job 3, {3} completes.  Each pass charges exactly
  // the in-flight job and re-queues its unstarted siblings uncharged.
  const ProcessShardExecutor executor({bin, "worker", "--chaos", "garbage:2"},
                                      1);
  (void)collect(executor, jobs);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.workers_respawned, 3u);
  EXPECT_EQ(stats.jobs_retried, 6u) << "3 + 2 + 1 re-shipments";
  EXPECT_EQ(stats.jobs_shipped, 10u) << "4 + 3 + 2 + 1 shipments";
  EXPECT_EQ(stats.jobs_poisoned, 0u) << "no job was charged twice";
  EXPECT_EQ(stats.summaries_lost, 3u);
}

// ---------------------------------------------------------------------------
// Deadlines: hung workers die; stuck batches fail instead of stalling.

TEST(Resilience, JobDeadlineKillsAHungWorkerAndTheBatchStillSucceeds) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      3, shippable_job(pg.ports(), *port_one, "port-one", 0));

  // Every worker hangs 60 s on its second job; the job deadline turns
  // that into a SIGKILL + retry long before.  The hang recurs once on the
  // respawned worker (its second job is the batch's third), so the batch
  // costs two deadline kills — and still delivers everything.
  ProcessShardExecutor::Options options;
  options.job_timeout_ms = 250;
  const ProcessShardExecutor executor(
      {bin, "worker", "--chaos", "hang:2:60000"}, 1, options);
  (void)collect(executor, jobs);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.deadline_kills, 2u);
  EXPECT_EQ(stats.workers_respawned, 2u);
  EXPECT_EQ(stats.jobs_retried, 3u) << "{1,2} after the first kill, {2} after "
                                       "the second";
  EXPECT_EQ(stats.jobs_poisoned, 0u);
  EXPECT_EQ(stats.batch_timeouts, 0u);
}

TEST(Resilience, BatchDeadlineFailsTheBatchCleanly) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      2, shippable_job(pg.ports(), *port_one, "port-one", 0));

  // No job deadline: only the batch-level bound stands between a worker
  // hanging on its first job and the sweep hanging forever.
  ProcessShardExecutor::Options options;
  options.batch_timeout_ms = 300;
  const ProcessShardExecutor executor(
      {bin, "worker", "--chaos", "hang:1:60000"}, 1, options);
  const auto failed = collect_failure(executor, jobs);
  EXPECT_TRUE(failed.delivered.empty());
  EXPECT_NE(failed.what.find("batch deadline of 300 ms exceeded"),
            std::string::npos)
      << failed.what;
  EXPECT_EQ(executor.stats().batch_timeouts, 1u);

  // The deadline is per batch, not a latched failure: a healthy batch
  // afterwards runs normally on its own fleet.
  const ProcessShardExecutor healthy({bin, "worker"}, 1, options);
  EXPECT_NO_THROW((void)collect(healthy, jobs));
}

// ---------------------------------------------------------------------------
// Poison-job quarantine: a bad job fails alone, with its case history.

TEST(Resilience, PoisonJobFailsAloneWithPerAttemptDiagnostics) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      4, shippable_job(pg.ports(), *port_one, "port-one", 0));

  // poison:2 kills any worker handed wire index 2, before it answers —
  // the job is bad everywhere, so retrying it cannot help.  Its attempt
  // budget (1 try + 2 retries) runs out and it fails alone; the jobs
  // before it were delivered, and no sibling was charged an attempt.
  const ProcessShardExecutor executor({bin, "worker", "--chaos", "poison:2"},
                                      1);
  const auto failed = collect_failure(executor, jobs);
  EXPECT_EQ(failed.delivered, (std::vector<std::size_t>{0, 1}));
  EXPECT_NE(failed.what.find("job 2 poisoned after 3 attempts"),
            std::string::npos)
      << failed.what;
  // The diagnostic carries one clause per attempt, each with the exit
  // status the chaos harness pins (13).
  EXPECT_NE(failed.what.find("attempt 1:"), std::string::npos) << failed.what;
  EXPECT_NE(failed.what.find("attempt 3:"), std::string::npos) << failed.what;
  EXPECT_NE(failed.what.find("exited with status 13"), std::string::npos)
      << failed.what;

  const auto stats = executor.stats();
  EXPECT_EQ(stats.jobs_poisoned, 1u);
  EXPECT_EQ(stats.workers_respawned, 3u) << "one death per attempt";
  EXPECT_EQ(stats.pool_quarantines, 0u)
      << "three deaths stay under the default breaker";
}

// ---------------------------------------------------------------------------
// The crash-loop breaker and the in-process fallback.

TEST(Resilience, BreakerQuarantinesACrashLoopingPool) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      4, shippable_job(pg.ports(), *port_one, "port-one", 0));

  // crash:1 kills every worker after its first answer: one death per
  // pass.  With the breaker at 1 the second death trips it; the jobs
  // already answered were delivered and the rest fail with the
  // breaker's diagnostic instead of burning through retries.
  ProcessShardExecutor::Options options;
  options.max_retries = 10;
  options.breaker_deaths = 1;
  const ProcessShardExecutor executor({bin, "worker", "--chaos", "crash:1"},
                                      1, options);
  const auto failed = collect_failure(executor, jobs);
  EXPECT_EQ(failed.delivered, (std::vector<std::size_t>{0, 1}));
  EXPECT_NE(failed.what.find("pool quarantined (2 worker deaths in one "
                             "batch)"),
            std::string::npos)
      << failed.what;
  EXPECT_EQ(executor.stats().pool_quarantines, 1u);
  EXPECT_EQ(executor.stats().workers_spawned, 2u);

  // The breaker decides per batch: the next batch forks a fresh fleet,
  // which crash-loops and trips it again.
  const auto again = collect_failure(executor, jobs);
  EXPECT_EQ(again.delivered, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(executor.stats().pool_quarantines, 2u);
  EXPECT_EQ(executor.stats().workers_spawned, 4u);
}

TEST(Resilience, FallbackInprocessDegradesGracefullyAndBitIdentically) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0xFA11);
  const auto a = test::random_ported_regular(12, 3, rng);
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);
  const std::vector<BatchJob> jobs(
      4, shippable_job(a.ports(), *bounded, "bounded-degree", 3));
  const auto expected = InProcessExecutor(1).run(jobs);

  ProcessShardExecutor::Options options;
  options.max_retries = 10;
  options.breaker_deaths = 1;
  options.fallback_inprocess = true;
  const ProcessShardExecutor executor({bin, "worker", "--chaos", "crash:1"},
                                      1, options);
  // The breaker trips mid-batch, but with the fallback the batch still
  // completes — jobs 0..1 from workers, 2..3 in-process, byte for byte
  // what a healthy run produces.
  const auto got = collect(executor, jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(got[i] == expected[i]) << "job " << i << " differs";
  }
  const auto stats = executor.stats();
  EXPECT_EQ(stats.pool_quarantines, 1u);
  EXPECT_EQ(stats.fallback_jobs, 2u);
  EXPECT_EQ(stats.workers_spawned, 2u);
}

// ---------------------------------------------------------------------------
// The EDS_WORKER_CHAOS env route: chaos without touching the argv.

TEST(Resilience, EnvRouteInjectsChaosIntoForkedWorkers) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      3, shippable_job(pg.ports(), *port_one, "port-one", 0));

  const ScopedEnv chaos("EDS_WORKER_CHAOS", "crash:2");
  const ProcessShardExecutor executor({bin, "worker"}, 1);
  (void)collect(executor, jobs);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.jobs_retried, 1u)
      << "the forked worker must inherit EDS_WORKER_CHAOS";
  EXPECT_EQ(stats.workers_respawned, 1u);
}

// ---------------------------------------------------------------------------
// Chaos soak: many batches under seeded random faults, zero lost jobs.
// The per-push run keeps a small dose; nightly CI raises
// EDS_CHAOS_SOAK_BATCHES (and can override the spec via EDS_WORKER_CHAOS)
// to soak for hundreds of batches.  Every batch forks its own fleet, so
// the executor's counters are sums over batches and can only grow.

TEST(Resilience, ChaosSoakLosesNoJobsAndKeepsCountersMonotone) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  std::size_t batches = 6;
  if (const char* env = std::getenv("EDS_CHAOS_SOAK_BATCHES")) {
    batches = static_cast<std::size_t>(std::stoull(env));
  }
  // rand:1:60 faults ~6% of job ordinals (crash/garbage/exit-mid/slow,
  // never hang or poison).  One seed-dependent hazard needs screening: a
  // garbage/exit-mid draw at ordinal 1 would kill every fresh worker
  // before its first answer, so the retried job re-charges its budget
  // forever and poisons — a property of the seed, not a resilience bug.
  // Nightly CI rotates the seed by date, so sanitize deterministically:
  // bump the seed until ordinal 1 answers, and log the effective spec.
  //
  // Every batch forks fresh workers whose job ordinals restart at 1, so
  // one fixed spec would replay the same faults in every batch.  Batch b
  // therefore runs under seed + b (then screened), routed to the workers
  // through EDS_WORKER_CHAOS so that one executor serves every batch.
  std::string spec = "rand:1:60";
  if (const char* env = std::getenv("EDS_WORKER_CHAOS")) spec = env;
  const auto base = parse_chaos_spec(spec);
  const auto spec_for_batch = [&](std::size_t batch) {
    if (base.mode != ChaosSpec::Mode::kRandom) return spec;
    auto parsed = base;
    parsed.seed += batch;
    const auto unanswering = [](const ChaosSpec& s) {
      const auto mode = chaos_action(s, 1, 0).mode;
      return mode == ChaosSpec::Mode::kGarbage ||
             mode == ChaosSpec::Mode::kExitMid;
    };
    while (unanswering(parsed)) ++parsed.seed;
    return format_chaos_spec(parsed);
  };
  std::cerr << "chaos soak spec: " << spec << " (rand seeds advance per "
            << "batch), " << batches << " batches\n";

  auto rng = test::make_rng(0x50C4);
  const auto a = test::random_ported_regular(10, 3, rng);
  const auto b = port::with_canonical_ports(graph::cycle(7));
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  std::vector<BatchJob> jobs;
  for (int r = 0; r < 3; ++r) {
    jobs.push_back(shippable_job(a.ports(), *bounded, "bounded-degree", 3));
    jobs.push_back(shippable_job(b.ports(), *port_one, "port-one", 0));
  }
  const auto expected = InProcessExecutor(1).run(jobs);

  ProcessShardExecutor::Options options;
  options.max_retries = 10;
  // A hard stop under every job, so a chaos-harness bug can never turn
  // this soak into a CI hang: a stall becomes a kill + retry instead.
  options.job_timeout_ms = 10000;
  const ProcessShardExecutor executor({bin, "worker"}, 2, options);
  auto previous = executor.stats();
  for (std::size_t batch = 0; batch < batches; ++batch) {
    const auto batch_spec = spec_for_batch(batch);
    const ScopedEnv chaos("EDS_WORKER_CHAOS", batch_spec.c_str());
    const auto got = collect(executor, jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(got[i] == expected[i])
          << "soak batch " << batch << " drifted on job " << i
          << " under " << batch_spec;
    }
    const auto now = executor.stats();
    ASSERT_EQ(now.jobs_poisoned, 0u) << "soak batch " << batch << " under "
                                     << batch_spec;
    ASSERT_EQ(now.batch_timeouts, 0u) << "soak batch " << batch;
    ASSERT_EQ(now.pool_quarantines, 0u) << "soak batch " << batch;
    // Every batch ships each job at least once and forks at least one
    // worker; a death costs only that worker's summary, never the counts
    // earlier batches added.
    ASSERT_GE(now.jobs_shipped, previous.jobs_shipped + jobs.size());
    ASSERT_GE(now.plan_hits + now.plans_compiled,
              previous.plan_hits + previous.plans_compiled)
        << "soak batch " << batch << " lost summed worker counters";
    ASSERT_GT(now.workers_spawned, previous.workers_spawned);
    ASSERT_GE(now.jobs_retried, previous.jobs_retried);
    previous = now;
  }
}

}  // namespace
}  // namespace eds::runtime
