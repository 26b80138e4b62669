// The executor layer: the backend contract shared by InProcessExecutor and
// ProcessShardExecutor, the NDJSON wire codecs, and the process-sharding
// failure modes (worker death, protocol violations) that the in-process
// backend can never hit.
//
// Tests that fork real worker subprocesses resolve the edsim binary from
// the EDSIM_BIN_PATH compile definition (set by tests/CMakeLists.txt) with
// an EDSIM_BIN environment override, and skip when neither points at an
// executable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include <sys/wait.h>

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

// ---------------------------------------------------------------------------
// Wire codecs.

/// `line` with the first `from` replaced by `to`.
std::string replaced(std::string line, const std::string& from,
                     const std::string& to) {
  const auto pos = line.find(from);
  EXPECT_NE(pos, std::string::npos) << from << " in " << line;
  if (pos != std::string::npos) line.replace(pos, from.size(), to);
  return line;
}

TEST(WireCodec, JobRoundTripsIncludingGraphText) {
  const auto pg = port::with_canonical_ports(graph::cycle(5));
  WireJob job;
  job.index = 42;
  job.algorithm = "bounded-degree";
  job.param = 3;
  job.threads = 2;
  job.max_rounds = 12345;
  const auto text = port::to_port_graph_string(pg.ports());
  ASSERT_NE(text.find('\n'), std::string::npos)
      << "the interesting case is multi-line text";

  // The graph travels in its own line, the job in another.
  const auto graph_line = encode_wire_graph(text);
  EXPECT_EQ(graph_line.find('\n'), std::string::npos) << "one graph = one line";
  const auto parsed_graph = decode_parent_line(graph_line);
  ASSERT_TRUE(std::holds_alternative<std::string>(parsed_graph));
  EXPECT_EQ(std::get<std::string>(parsed_graph), text);
  EXPECT_THROW((void)decode_wire_job(graph_line), InvalidArgument);

  const auto line = encode_wire_job(job);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one job = one line";
  EXPECT_EQ(line,
            "{\"schema\":2,\"job\":{\"index\":42,\"algorithm\":"
            "\"bounded-degree\",\"param\":3,\"threads\":2,"
            "\"max_rounds\":12345}}");
  const auto parsed_job = decode_parent_line(line);
  ASSERT_TRUE(std::holds_alternative<WireJob>(parsed_job));
  for (const auto& back : {decode_wire_job(line), std::get<WireJob>(parsed_job)}) {
    EXPECT_EQ(back.index, job.index);
    EXPECT_EQ(back.algorithm, job.algorithm);
    EXPECT_EQ(back.param, job.param);
    EXPECT_EQ(back.threads, job.threads);
    EXPECT_EQ(back.max_rounds, job.max_rounds);
    EXPECT_FALSE(back.async.has_value());
  }

  // The text form still parses into the same structure.
  const auto g = port::from_port_graph_string(std::get<std::string>(parsed_graph));
  EXPECT_EQ(g.num_nodes(), pg.ports().num_nodes());
  EXPECT_EQ(g.degree_sequence(), pg.ports().degree_sequence());
  EXPECT_EQ(g.partner_table(), pg.ports().partner_table());

  // A job line of the one-line-per-job wire, graph text inside, is a
  // foreign line: a worker of this version refuses it.
  EXPECT_THROW((void)decode_parent_line(replaced(
                   line, "}}", ",\"graph\":\"ports 0\\n\"}}")),
               InvalidArgument);
}

TEST(WireCodec, ResultRoundTripsOutputsAndStats) {
  RunResult result;
  result.outputs = {{1, 2}, {}, {3}};
  result.stats.rounds = 7;
  result.stats.messages_sent = 1234567890123ull;
  result.stats.ports_served = 42;

  const auto line = encode_wire_result(9, result);
  const auto parsed = decode_worker_line(line);
  ASSERT_EQ(parsed.kind, WorkerLine::Kind::kResult);
  EXPECT_EQ(parsed.index, 9u);
  EXPECT_TRUE(parsed.result == result);
}

TEST(WireCodec, ErrorAndSummaryRoundTrip) {
  const auto err =
      decode_worker_line(encode_wire_error(3, "bad \"quote\"\nand newline"));
  ASSERT_EQ(err.kind, WorkerLine::Kind::kError);
  EXPECT_EQ(err.index, 3u);
  EXPECT_EQ(err.message, "bad \"quote\"\nand newline");

  WorkerSummary summary;
  summary.jobs = 11;
  summary.plans_compiled = 4;
  summary.plan_hits = 7;
  const auto parsed = decode_worker_line(encode_worker_summary(summary));
  ASSERT_EQ(parsed.kind, WorkerLine::Kind::kSummary);
  EXPECT_EQ(parsed.summary.jobs, 11u);
  EXPECT_EQ(parsed.summary.plans_compiled, 4u);
  EXPECT_EQ(parsed.summary.plan_hits, 7u);
  EXPECT_EQ(encode_worker_summary(summary),
            "{\"schema\":2,\"worker_summary\":{\"jobs\":11,"
            "\"plans_compiled\":4,\"plan_hits\":7}}");

  // The framed protocol's lines are foreign now: a batch-stamped summary
  // with lifetime totals, and a batch frame where a job line belongs.
  EXPECT_THROW((void)decode_worker_line(
                   "{\"schema\":2,\"worker_summary\":{\"batch\":1,"
                   "\"jobs\":1,\"plans_compiled\":1,\"plan_hits\":0,"
                   "\"total_jobs\":1,\"total_compiled\":1,"
                   "\"total_hits\":0}}"),
               InvalidArgument);
  EXPECT_THROW(
      (void)decode_wire_job("{\"schema\":2,\"batch_begin\":{\"batch\":1}}"),
      InvalidArgument);
}

TEST(WireCodec, RejectsForeignSchemaAndMalformedLines) {
  WireJob job;
  job.algorithm = "port-one";
  // Schema 2 is the only version spoken: a well-formed line at any other
  // version, older or newer, is rejected.
  for (const auto& line : {encode_wire_job(job), encode_wire_graph("ports 0\n")}) {
    const auto pos = line.find("\"schema\":2");
    ASSERT_NE(pos, std::string::npos);
    for (const char* foreign : {"\"schema\":1", "\"schema\":9"}) {
      auto foreign_line = line;
      foreign_line.replace(pos, 10, foreign);
      EXPECT_THROW((void)decode_parent_line(foreign_line), InvalidArgument)
          << foreign;
    }
  }

  EXPECT_THROW((void)decode_wire_job("not json"), InvalidArgument);
  EXPECT_THROW((void)decode_wire_job("{\"schema\":1,\"job\":{}}"),
               InvalidArgument);
  EXPECT_THROW((void)decode_worker_line("{\"schema\":1,\"what\":{}}"),
               InvalidArgument);
  EXPECT_THROW(
      (void)decode_worker_line(encode_wire_result(0, {}) + "trailing"),
      InvalidArgument);
}

/// `decode(line)` throws InvalidArgument naming `field`.
template <typename Decode>
void expect_field_rejected(const Decode& decode, const std::string& line,
                           const std::string& field) {
  try {
    (void)decode(line);
    ADD_FAILURE() << "accepted " << line;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + field + "'"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodec, RejectsNumbersTheirFieldsCannotHold) {
  // Each narrow field refuses a value past its maximum instead of keeping
  // its low bits ("param":4294967299 would otherwise decode to 3).
  WireJob job;
  job.index = 1;
  job.algorithm = "bounded-degree";
  job.param = 7;
  job.threads = 2;
  job.max_rounds = 9;
  job.async = AsyncOptions{};
  job.async->faults.crashes = {CrashEvent{5, 3}};
  const auto line = encode_wire_job(job);
  const auto decode_job = [](const std::string& l) {
    return decode_wire_job(l);
  };
  expect_field_rejected(decode_job,
                        replaced(line, "\"param\":7", "\"param\":4294967299"),
                        "param");
  expect_field_rejected(
      decode_job, replaced(line, "\"threads\":2", "\"threads\":4294967298"),
      "threads");
  expect_field_rejected(
      decode_job,
      replaced(line, "\"max_rounds\":9", "\"max_rounds\":4294967305"),
      "max_rounds");
  // The async string holds the replay codec's records, escaped.
  expect_field_rejected(
      decode_job, replaced(line, "crash 5 3", "crash 4294967301 3"), "crash");
  // The largest value a field holds still decodes.
  EXPECT_EQ(decode_wire_job(replaced(line, "\"param\":7",
                                     "\"param\":4294967295"))
                .param,
            4294967295u);

  RunResult result;
  result.outputs = {{1, 2}};
  result.stats.rounds = 7;
  const auto answer = encode_wire_result(0, result);
  const auto decode_line = [](const std::string& l) {
    return decode_worker_line(l);
  };
  expect_field_rejected(
      decode_line, replaced(answer, "\"rounds\":7", "\"rounds\":4294967303"),
      "rounds");
  expect_field_rejected(decode_line,
                        replaced(answer, "[[1,2]]", "[[4294967297,2]]"),
                        "outputs");
}

// ---------------------------------------------------------------------------
// The in-process backend behind the Executor interface.

TEST(InProcessExecutor, MatchesBatchRunnerThroughTheInterface) {
  auto rng = test::make_rng(0xE8EC);
  const auto a = test::random_ported_regular(12, 3, rng);
  const auto b = port::with_canonical_ports(graph::cycle(9));
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs{
      shippable_job(a.ports(), *bounded, "bounded-degree", 3),
      shippable_job(b.ports(), *port_one, "port-one", 0),
      shippable_job(a.ports(), *bounded, "bounded-degree", 3),
  };

  const InProcessExecutor executor(3);
  const Executor& backend = executor;  // the polymorphic surface
  const auto direct = backend.run(jobs);
  const auto via_runner = BatchRunner(&executor).run(jobs);
  ASSERT_EQ(direct.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(direct[i] == via_runner[i]) << "job " << i;
  }

  std::vector<std::size_t> order;
  backend.run_streaming(jobs, [&](std::size_t i, RunResult&& result) {
    EXPECT_TRUE(result == direct[i]);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Process sharding: validation that needs no subprocess.

TEST(ProcessShardExecutor, RejectsUnshippableJobsUpFront) {
  const ProcessShardExecutor executor({"/bin/true"}, 2);
  const auto pg = port::with_canonical_ports(graph::cycle(4));
  const auto factory = algo::make_factory(algo::Algorithm::kPortOne);

  BatchJob no_spec;
  no_spec.graph = &pg.ports();
  no_spec.factory = factory.get();
  EXPECT_THROW(
      executor.run_streaming({no_spec}, [](std::size_t, RunResult&&) {}),
      InvalidArgument);

  auto traced = shippable_job(pg.ports(), *factory, "port-one", 0);
  traced.options.collect_trace = true;
  EXPECT_THROW(
      executor.run_streaming({traced}, [](std::size_t, RunResult&&) {}),
      InvalidArgument);

  // A sink cannot be filled across the wire.  The rejection comes before
  // any fork: this executor's worker command is /bin/true, which would
  // fail the job differently.
  RunMetrics metrics;
  auto measured = shippable_job(pg.ports(), *factory, "port-one", 0);
  measured.options.metrics = &metrics;
  EXPECT_THROW(executor.validate({measured}), InvalidArgument);
  EXPECT_THROW(
      executor.run_streaming({measured}, [](std::size_t, RunResult&&) {}),
      InvalidArgument);
  EXPECT_EQ(executor.stats().workers_spawned, 0u);
  EXPECT_TRUE(metrics == RunMetrics{});

  // An empty batch spawns nothing and succeeds.
  executor.run_streaming({}, [](std::size_t, RunResult&&) { FAIL(); });
  EXPECT_THROW(ProcessShardExecutor({}, 1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Process sharding against the real worker binary.

TEST(ProcessShardExecutor, BitIdenticalToInProcessAcrossShardCounts) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0x5A4D);
  const auto a = test::random_ported_regular(14, 4, rng);
  const auto b = port::with_canonical_ports(graph::cycle(10));
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
    std::vector<std::size_t> order;
    std::vector<RunResult> got(jobs.size());
    executor.run_streaming(jobs, [&](std::size_t i, RunResult&& result) {
      order.push_back(i);
      got[i] = std::move(result);
    });
    ASSERT_EQ(order.size(), jobs.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i) << "delivery must be in job order";
      EXPECT_TRUE(got[i] == expected[i])
          << "job " << i << " differs at shards=" << shards;
    }
  }
}

TEST(ProcessShardExecutor, GroupAffinityKeepsPlanCountersExact) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0x6A0F);
  const auto a = test::random_ported_regular(12, 3, rng);
  const auto b = test::random_ported_regular(16, 3, rng);
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);

  std::vector<BatchJob> jobs;
  for (int r = 0; r < 3; ++r) {
    jobs.push_back(shippable_job(a.ports(), *bounded, "bounded-degree", 3));
    jobs.push_back(shippable_job(b.ports(), *bounded, "bounded-degree", 3));
  }

  // More shards than graphs: routing must still send every job on one
  // graph to one worker, so exactly two plans are compiled overall — the
  // same counters a single in-process cache would report.
  const ProcessShardExecutor executor({bin, "worker"}, 4);
  (void)executor.run(jobs);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.jobs_shipped, jobs.size());
  EXPECT_EQ(stats.plans_compiled, 2u);
  EXPECT_EQ(stats.plan_hits, jobs.size() - 2);
  EXPECT_GE(stats.workers_spawned, 1u);
  EXPECT_LE(stats.workers_spawned, 2u) << "only non-empty shards are forked";
}

TEST(ProcessShardExecutor, OneShardGetsEachGraphsJobsBackToBack) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0x6A10);
  const auto a = test::random_ported_regular(12, 3, rng);
  const auto b = test::random_ported_regular(16, 3, rng);
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);

  std::vector<BatchJob> jobs;
  for (int r = 0; r < 3; ++r) {
    jobs.push_back(shippable_job(a.ports(), *bounded, "bounded-degree", 3));
    jobs.push_back(shippable_job(b.ports(), *bounded, "bounded-degree", 3));
  }

  // In process, one cache over a, b, a, b, a, b: 2 compiled, 4 hits.
  PlanCache cache;
  auto cached = jobs;
  for (auto& job : cached) job.options.exec.plan_cache = &cache;
  const auto expected = BatchRunner(1u).run(cached);
  ASSERT_EQ(cache.stats().misses, 2u);
  ASSERT_EQ(cache.stats().hits, 4u);

  // One worker: it must be sent a, a, a, b, b, b.  In index order every
  // line would carry a different graph than the last, and the worker
  // would parse and compile 6 times.
  const ProcessShardExecutor executor({bin, "worker"}, 1);
  const auto got = executor.run(jobs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == expected[i]) << "job " << i;
  }
  const auto stats = executor.stats();
  EXPECT_EQ(stats.workers_spawned, 1u);
  EXPECT_EQ(stats.plans_compiled, 2u);
  EXPECT_EQ(stats.plan_hits, 4u);
}

TEST(ProcessShardExecutor, ShipsEachGraphOncePerShard) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  auto rng = test::make_rng(0x6A11);
  const std::vector<port::PortedGraph> graphs{
      test::random_ported_regular(12, 3, rng),
      test::random_ported_regular(16, 3, rng),
      test::random_ported_regular(20, 3, rng)};
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);
  std::vector<BatchJob> jobs;
  for (int r = 0; r < 4; ++r) {
    for (const auto& g : graphs) {
      jobs.push_back(shippable_job(g.ports(), *bounded, "bounded-degree", 3));
    }
  }

  // Each worker's stdin is copied to a file of its own, named by the
  // shell's pid, before the worker reads it.
  const auto dir = ::testing::TempDir() + "ships_each_graph_once";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const ProcessShardExecutor executor(
      {"/bin/sh", "-c", "tee \"" + dir + "/$$.in\" | \"$0\" worker", bin}, 2);
  const auto got = executor.run(jobs);
  const auto expected = InProcessExecutor(2).run(jobs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == expected[i]) << "job " << i;
  }
  EXPECT_EQ(executor.stats().workers_spawned, 2u);

  std::size_t shards = 0;
  std::size_t graph_lines = 0;
  std::size_t job_lines = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++shards;
    std::ifstream in(entry.path());
    std::vector<std::string> texts;
    std::string line;
    while (std::getline(in, line)) {
      const auto parsed = decode_parent_line(line);
      if (const auto* text = std::get_if<std::string>(&parsed)) {
        texts.push_back(*text);
        continue;
      }
      ++job_lines;
      EXPECT_EQ(line.find("ports"), std::string::npos)
          << "a job line carries no graph text: " << line;
    }
    const std::size_t sent = texts.size();
    std::sort(texts.begin(), texts.end());
    texts.erase(std::unique(texts.begin(), texts.end()), texts.end());
    EXPECT_EQ(texts.size(), sent) << "a graph crossed twice to one shard";
    graph_lines += sent;
  }
  EXPECT_EQ(shards, 2u);
  EXPECT_EQ(graph_lines, graphs.size()) << "one line per (shard, graph)";
  EXPECT_EQ(job_lines, jobs.size());
  std::filesystem::remove_all(dir);
}

TEST(ProcessShardExecutor, JobErrorInsideAWorkerFollowsThePrefixRule) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(6));
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 2);

  // One shard, jobs in order; job 2's round cap is too tight and fails in
  // the worker, which reports it and keeps going.
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(shippable_job(pg.ports(), *bounded, "bounded-degree", 2,
                                 i == 2 ? 1 : 100000));
  }
  const ProcessShardExecutor executor({bin, "worker"}, 1);
  std::vector<std::size_t> delivered;
  try {
    executor.run_streaming(jobs, [&](std::size_t i, RunResult&&) {
      delivered.push_back(i);
    });
    FAIL() << "the failed job must be rethrown";
  } catch (const ExecutionError& e) {
    EXPECT_NE(std::string(e.what()).find("process shard"), std::string::npos);
  }
  EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1}));
}

TEST(ProcessShardExecutor, WorkerDeathWithoutRetriesFailsOnlyItsInFlightJob) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      5, shippable_job(pg.ports(), *port_one, "port-one", 0));

  // The worker's --chaos crash:2 hook makes it exit 7 after two results.
  // With no retries the death poisons the job it interrupted, job 2, and
  // the rethrow names the exit status; the delivered prefix is exactly
  // {0, 1}.  Jobs 3 and 4, which the dead worker never started, still run
  // on a fresh worker, which answers both and then dies the same way.
  ProcessShardExecutor::Options options;
  options.max_retries = 0;
  const ProcessShardExecutor executor({bin, "worker", "--chaos", "crash:2"}, 1,
                                      options);
  std::vector<std::size_t> delivered;
  try {
    executor.run_streaming(jobs, [&](std::size_t i, RunResult&&) {
      delivered.push_back(i);
    });
    FAIL() << "a dead worker must surface as a failure";
  } catch (const ExecutionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job 2 poisoned after 1 attempts"), std::string::npos)
        << what;
    EXPECT_NE(what.find("status 7"), std::string::npos) << what;
  }
  EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1}));
  const auto stats = executor.stats();
  EXPECT_EQ(stats.jobs_poisoned, 1u);
  EXPECT_EQ(stats.jobs_retried, 2u) << "the never-started jobs 3 and 4";
  EXPECT_EQ(stats.workers_respawned, 1u);
  EXPECT_EQ(stats.jobs_shipped, 7u);
  EXPECT_EQ(stats.summaries_lost, 2u)
      << "the second worker died after its last answer, failing nothing";
}

TEST(ProcessShardExecutor, NonsenseWorkerCommandFailsEveryJobCleanly) {
  const auto pg = port::with_canonical_ports(graph::cycle(4));
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  const std::vector<BatchJob> jobs(
      3, shippable_job(pg.ports(), *port_one, "port-one", 0));

  // /bin/false speaks no protocol and exits immediately; nothing is
  // delivered and the death is reported, with no hang and no zombie.
  // With no retries each pass poisons the one job it interrupted, so the
  // three jobs fail in three passes (the breaker path is covered in
  // resilience_test).
  ProcessShardExecutor::Options options;
  options.max_retries = 0;
  const ProcessShardExecutor executor({"/bin/false"}, 2, options);
  std::size_t delivered = 0;
  EXPECT_THROW(executor.run_streaming(
                   jobs, [&](std::size_t, RunResult&&) { ++delivered; }),
               ExecutionError);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(executor.stats().jobs_poisoned, 3u);
}

/// True when this process has no child at all, exited or running:
/// waitpid reports ECHILD only then.
bool no_children_left() {
  int status = 0;
  return ::waitpid(-1, &status, WNOHANG) < 0 && errno == ECHILD;
}

TEST(ProcessShardExecutor, NoWorkerOutlivesItsBatch) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  ASSERT_TRUE(no_children_left()) << "the test needs a childless process";
  auto rng = test::make_rng(0x0B17);
  const auto a = test::random_ported_regular(12, 3, rng);
  const auto b = port::with_canonical_ports(graph::cycle(8));
  const auto bounded = algo::make_factory(algo::Algorithm::kBoundedDegree, 3);
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  std::vector<BatchJob> jobs;
  for (int r = 0; r < 2; ++r) {
    jobs.push_back(shippable_job(a.ports(), *bounded, "bounded-degree", 3));
    jobs.push_back(shippable_job(b.ports(), *port_one, "port-one", 0));
  }
  const auto expected = InProcessExecutor(1).run(jobs);
  const auto expect_expected = [&](const std::vector<RunResult>& got,
                                   const char* what) {
    ASSERT_EQ(got.size(), expected.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i] == expected[i]) << what << ": job " << i;
    }
  };

  // A clean batch, twice on one executor: the second batch forks a fresh
  // fleet, and its results are bit-identical to the first's.
  const ProcessShardExecutor clean({bin, "worker"}, 2);
  expect_expected(clean.run(jobs), "clean batch");
  EXPECT_TRUE(no_children_left()) << "after a clean batch";
  const auto first_spawned = clean.stats().workers_spawned;
  EXPECT_GE(first_spawned, 1u);
  expect_expected(clean.run(jobs), "second batch");
  EXPECT_TRUE(no_children_left()) << "after the second batch";
  EXPECT_EQ(clean.stats().workers_spawned, 2 * first_spawned)
      << "the second batch forks its own workers";
  EXPECT_EQ(clean.stats().workers_respawned, 0u);

  // A job error: bounded-degree cannot finish within one round.
  auto failing = jobs;
  failing[2].options.max_rounds = 1;
  EXPECT_THROW((void)clean.run(failing), ExecutionError);
  EXPECT_TRUE(no_children_left()) << "after a batch with a job error";

  // A retried worker death: crash:2 kills the one worker after its second
  // answer, the retry pass forks a replacement for jobs 2 and 3, and that
  // one dies after its second answer too — once every job is delivered.
  const ProcessShardExecutor chaotic({bin, "worker", "--chaos", "crash:2"}, 1);
  expect_expected(chaotic.run(jobs), "chaos batch");
  EXPECT_TRUE(no_children_left()) << "after a batch with a retried death";
  EXPECT_EQ(chaotic.stats().jobs_retried, 2u);
  EXPECT_EQ(chaotic.stats().workers_respawned, 1u);
}

TEST(ProcessShardExecutor, JobDeadlineUnblocksAWriterStuckOnAFullPipe) {
  REQUIRE_EDSIM_OR_SKIP(bin);
  ASSERT_TRUE(no_children_left()) << "the test needs a childless process";
  // One graph per job, each graph line several times the 64 KiB pipe
  // buffer, so a worker that stops reading leaves the writer blocked in
  // write() partway through a graph line.
  std::vector<port::PortedGraph> graphs;
  for (std::size_t k = 0; k < 3; ++k) {
    graphs.push_back(port::with_canonical_ports(graph::cycle(16000 + k)));
  }
  ASSERT_GT(port::to_port_graph_string(graphs[0].ports()).size(), 4u * 65536);
  const auto port_one = algo::make_factory(algo::Algorithm::kPortOne);
  std::vector<BatchJob> jobs;
  for (const auto& g : graphs) {
    jobs.push_back(shippable_job(g.ports(), *port_one, "port-one", 0));
  }
  const auto expected = InProcessExecutor(1).run(jobs);

  // hang:2:60000 makes each worker sleep a minute before answering its
  // second job, reading nothing more meanwhile, so the first worker's
  // writer blocks on the third graph line.  Only the reader's job
  // deadline ends that: the reader kills its worker, the writer's write()
  // fails with EPIPE, and the pass joins both threads.  The respawned
  // worker reads all of its four lines and hangs on its second job, so
  // the batch costs two kills before the third worker completes it.
  ProcessShardExecutor::Options options;
  options.job_timeout_ms = 2000;
  const ProcessShardExecutor executor(
      {bin, "worker", "--chaos", "hang:2:60000"}, 1, options);
  const auto start = std::chrono::steady_clock::now();
  const auto got = executor.run(jobs);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(40))
      << "the deadline kills, not the end of the hangs, ended the passes";
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == expected[i]) << "job " << i;
  }
  const auto stats = executor.stats();
  EXPECT_EQ(stats.deadline_kills, 2u);
  EXPECT_EQ(stats.workers_respawned, 2u);
  EXPECT_EQ(stats.jobs_poisoned, 0u);
  EXPECT_TRUE(no_children_left()) << "every killed worker was reaped";
}

}  // namespace
}  // namespace eds::runtime
