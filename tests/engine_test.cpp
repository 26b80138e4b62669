// The execution engine's hard guarantee: every policy (sequential worklist,
// parallel sharded rounds, batch pool) produces bit-identical RunResults —
// outputs, stats, trace, and message-log order — and matches the seed
// semantics, reimplemented here as a policy-free oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "algo/bounded_degree.hpp"
#include "algo/double_cover.hpp"
#include "algo/driver.hpp"
#include "algo/port_one.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "invariants.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using port::Port;
using port::PortGraph;
using port::PortGraphBuilder;

using test::EchoFactory;
using test::EchoProgram;
// The policy-free seed-semantics oracle and the thread-count sweep live in
// test_util.hpp so every differential suite (this one, engine_soa_test)
// holds the engine to the same bit-identity bar.
using test::policy_thread_counts;
using test::reference_run;

class NeverHaltFactory final : public ProgramFactory {
  class P final : public NodeProgram {
   public:
    void start(Port) override {}
    void send(Round, std::span<Message>) override {}
    void receive(Round, std::span<const Message>) override {}
    [[nodiscard]] bool halted() const override { return false; }
    [[nodiscard]] std::vector<Port> output() const override { return {}; }
  };

 public:
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<P>();
  }
  [[nodiscard]] std::string name() const override { return "never-halt"; }
};

void expect_all_policies_match(const PortGraph& g,
                               const ProgramFactory& factory,
                               const char* label) {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto expected = reference_run(g, factory, options);
  // Synchronous runs must satisfy endpoint consistency (shared harness;
  // vacuous for outputs-free programs like echo and relay).
  test::check_eds_invariants(g, expected, label);
  for (const unsigned threads : policy_thread_counts()) {
    options.exec.threads = threads;
    const auto got = run_synchronous(g, factory, options);
    EXPECT_TRUE(got == expected)
        << label << ": policy with threads=" << threads
        << " diverged from the seed semantics (rounds " << got.stats.rounds
        << " vs " << expected.stats.rounds << ", messages "
        << got.stats.messages_sent << " vs " << expected.stats.messages_sent
        << ", log " << got.message_log.size() << " vs "
        << expected.message_log.size() << ")";
  }
}

TEST(Engine, DifferentialOnPaperFixtures) {
  const auto h = test::figure2_graph_h();
  const auto p4 = port::with_canonical_ports(test::p4());
  const auto m = test::figure2_multigraph_m();  // loops, parallel edges

  for (const Round rounds : {1u, 3u, 7u}) {
    const EchoFactory echo(rounds);
    expect_all_policies_match(h.ports(), echo, "figure-2 H");
    expect_all_policies_match(p4.ports(), echo, "p4");
    expect_all_policies_match(m, echo, "figure-2 M");
  }
  expect_all_policies_match(h.ports(), algo::PortOneFactory(), "figure-2 H");
  expect_all_policies_match(h.ports(), algo::DoubleCoverFactory(3),
                            "figure-2 H");
  expect_all_policies_match(h.ports(), algo::BoundedDegreeFactory(3),
                            "figure-2 H");
  expect_all_policies_match(m, algo::PortOneFactory(), "figure-2 M");
  expect_all_policies_match(m, algo::DoubleCoverFactory(4), "figure-2 M");
}

TEST(Engine, DifferentialOnRandomPortedGraphs) {
  auto rng = test::make_rng(0xE61);
  for (int trial = 0; trial < 4; ++trial) {
    const auto pg = test::random_ported_regular(20, 4, rng);
    expect_all_policies_match(pg.ports(), algo::PortOneFactory(),
                              "random 4-regular");
    expect_all_policies_match(pg.ports(), algo::BoundedDegreeFactory(4),
                              "random 4-regular");
    const auto bounded = test::random_ported_bounded(24, 5, 40, rng);
    expect_all_policies_match(bounded.ports(), algo::BoundedDegreeFactory(5),
                              "random bounded");
  }
}

TEST(Engine, DifferentialOnRandomMultigraphs) {
  // Uniform random involutions: parallel edges, undirected loops and
  // directed loops all appear — the full generality of the model.
  auto rng = test::make_rng(0xE62);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Port> degrees(12);
    for (auto& d : degrees) d = static_cast<Port>(rng.below(5));
    const auto g = port::random_port_graph(degrees, rng);
    Port max_degree = 1;
    for (const auto d : degrees) max_degree = std::max(max_degree, d);
    expect_all_policies_match(g, EchoFactory(4), "random multigraph");
    expect_all_policies_match(g, algo::DoubleCoverFactory(max_degree),
                              "random multigraph");
  }
}

// The relay fixture (see test_util.hpp) is the adversarial probe for the
// fused exchange's silence bookkeeping: a halted node's feed slots are
// silenced exactly once, at halt time, and if a stale message ever
// "ghosted" past that point the relay would re-send it, diverging message
// counts, logs and traces from the seed-semantics oracle.
using test::RelayFactory;
using test::RelayProgram;

TEST(Engine, FusedExchangeOnLoopsWithStaggeredHalts) {
  // A handcrafted multigraph covering every involution case the fused
  // exchange must deliver directly: an undirected self-loop (two ports of
  // one node), directed self-loops (fixed points, where a node receives
  // its own message), parallel edges, a degree-0 node, and ordinary edges
  // between nodes of different degrees — which, under RelayFactory, halt
  // mid-run at different rounds.
  PortGraphBuilder b(std::vector<Port>{3, 2, 4, 1, 0, 2});
  b.connect({0, 1}, {0, 2});  // undirected loop at node 0
  b.fix({0, 3});              // directed loop at node 0
  b.connect({1, 1}, {2, 1});  // parallel edges between 1 and 2
  b.connect({1, 2}, {2, 2});
  b.connect({2, 3}, {3, 1});
  b.fix({2, 4});              // directed loop at node 2
  b.connect({5, 1}, {5, 2});  // undirected loop at node 5
  const auto g = b.build();

  for (const Round base : {1u, 2u, 5u}) {
    expect_all_policies_match(g, RelayFactory(base), "loops + stagger");
  }
}

TEST(Engine, FusedExchangeOnRandomMultigraphsWithStaggeredHalts) {
  // Random involutions (loops, parallel edges, irregular degrees) under
  // the relay probe: staggered halts on the full generality of the model.
  auto rng = test::make_rng(0xE64);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Port> degrees(16);
    for (auto& d : degrees) d = static_cast<Port>(rng.below(6));
    const auto g = port::random_port_graph(degrees, rng);
    expect_all_policies_match(g, RelayFactory(2), "relay multigraph");
  }
}

TEST(Engine, MidRunHaltsWithPerNodePrograms) {
  // Per-node halt rounds decouple the stagger from node degrees: on a
  // cycle (uniform degree 2) node v halts after v % 7 + 2 + degree rounds,
  // so silence fronts sweep through the worklist while neighbours relay.
  // Policy identity is the contract here (run_synchronous_programs has no
  // factory for the oracle); the sequential run is the reference.
  const auto pg = port::with_canonical_ports(graph::cycle(48));
  const auto make_programs = [] {
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (std::size_t v = 0; v < 48; ++v) {
      programs.push_back(
          std::make_unique<RelayProgram>(static_cast<Round>(v % 7 + 2)));
    }
    return programs;
  };

  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto sequential =
      run_synchronous_programs(pg.ports(), make_programs(), options);
  for (const unsigned threads : policy_thread_counts()) {
    options.exec.threads = threads;
    const auto got =
        run_synchronous_programs(pg.ports(), make_programs(), options);
    EXPECT_TRUE(got == sequential) << "threads=" << threads;
  }
}

TEST(Engine, DoubleBufferWorkspaceFootprint) {
  // Deterministic, hardware-independent accounting for the double-buffered
  // transport: a fresh lane's pooled footprint for a P-port graph holds
  // exactly TWO P-slot Message buffers (the price of the single-barrier
  // round loop), plus small per-node wake bookkeeping, visit lists and
  // scratch arrays.  A third ports-sized buffer would bust the upper bound
  // asserted here.
  auto rng = test::make_rng(0xE65);
  const auto pg = test::random_ported_regular(1024, 4, rng);
  const std::size_t ports = pg.ports().num_ports();
  ASSERT_EQ(ports, 4096u);

  RunMetrics metrics;
  std::thread fresh_lane([&] {
    RunOptions options;
    options.metrics = &metrics;
    const auto result = run_synchronous(pg.ports(), EchoFactory(3), options);
    ASSERT_EQ(result.stats.rounds, 3u);
  });
  fresh_lane.join();
  EXPECT_EQ(metrics.workspace_growths, 1u) << "a fresh lane grows once";
  EXPECT_EQ(metrics.workspace_reuses, 0u);

  const std::size_t buffer_pair = 2 * ports * sizeof(Message);
  EXPECT_GE(metrics.workspace_bytes, buffer_pair)
      << "both outbox buffers must be accounted";
  EXPECT_LT(metrics.workspace_bytes, buffer_pair + ports * sizeof(Message))
      << "a third ports-sized message buffer is back in the workspace";
}

TEST(Engine, LaneWorkspaceShrinksAfterALargeRun) {
  // A lane keeps its workspace only while it holds at most 4x a run's
  // need, so a 1k-node run after a 100k-node run on the same thread gives
  // the large buffers back and holds about what a fresh lane holds for it.
  const auto large = port::with_canonical_ports(graph::cycle(100000));
  const auto small = port::with_canonical_ports(graph::cycle(1000));
  const auto factory = algo::make_factory(algo::Algorithm::kBoundedDegree, 2);

  RunMetrics fresh;
  RunResult fresh_result;
  std::thread([&] {
    RunOptions options;
    options.metrics = &fresh;
    fresh_result = run_synchronous(small.ports(), *factory, options);
  }).join();

  RunMetrics after_large;
  RunResult shrunk_result;
  std::thread([&] {
    (void)run_synchronous(large.ports(), *factory);
    RunOptions options;
    options.metrics = &after_large;
    shrunk_result = run_synchronous(small.ports(), *factory, options);
  }).join();

  EXPECT_EQ(after_large.workspace_growths, 1u)
      << "releasing the large buffers counts as a growth";
  EXPECT_LE(after_large.workspace_bytes, 4 * fresh.workspace_bytes);
  EXPECT_TRUE(shrunk_result == fresh_result);
}

TEST(Engine, StageProfilingCountsRoundsAndStaysOffByDefault) {
  const auto pg = port::with_canonical_ports(graph::cycle(16));
  EXPECT_EQ(RunOptions{}.metrics, nullptr) << "profiling is opt-in per run";
  const auto plain = run_synchronous(pg.ports(), EchoFactory(6));

  RunMetrics metrics;
  RunOptions options;
  options.metrics = &metrics;
  const auto profiled = run_synchronous(pg.ports(), EchoFactory(6), options);
  EXPECT_TRUE(profiled == plain) << "the sink changed the run's result";
  EXPECT_EQ(metrics.rounds, profiled.stats.rounds);
  EXPECT_EQ(metrics.workspace_reuses + metrics.workspace_growths, 1u);
  EXPECT_GT(metrics.workspace_bytes, 0u);
}

TEST(Engine, RunsAddIntoOneSink) {
  // A sink totals the runs that point at it: counters add up, and the
  // footprint is the largest one seen.
  const auto small = port::with_canonical_ports(graph::cycle(8));
  const auto large = port::with_canonical_ports(graph::cycle(64));
  RunMetrics metrics;
  RunOptions options;
  options.metrics = &metrics;
  const auto a = run_synchronous(large.ports(), EchoFactory(4), options);
  const RunMetrics first = metrics;
  const auto b = run_synchronous(small.ports(), EchoFactory(7), options);

  EXPECT_EQ(metrics.rounds, a.stats.rounds + b.stats.rounds);
  EXPECT_EQ(metrics.workspace_reuses + metrics.workspace_growths, 2u);
  EXPECT_EQ(metrics.workspace_reuses, first.workspace_reuses + 1)
      << "the smaller graph fits the lane's workspace";
  EXPECT_GE(metrics.workspace_bytes, first.workspace_bytes);
  EXPECT_GE(metrics.exchange_ns, first.exchange_ns);
  EXPECT_GE(metrics.receive_ns, first.receive_ns);
  EXPECT_GE(metrics.scan_ns, first.scan_ns);

  RunMetrics sum{.exchange_ns = 1,
                 .receive_ns = 2,
                 .scan_ns = 3,
                 .rounds = 4,
                 .workspace_reuses = 5,
                 .workspace_growths = 6,
                 .workspace_bytes = 700};
  sum += {.exchange_ns = 10,
          .receive_ns = 20,
          .scan_ns = 30,
          .rounds = 40,
          .workspace_reuses = 50,
          .workspace_growths = 60,
          .workspace_bytes = 500};
  EXPECT_TRUE(sum == (RunMetrics{.exchange_ns = 11,
                                 .receive_ns = 22,
                                 .scan_ns = 33,
                                 .rounds = 44,
                                 .workspace_reuses = 55,
                                 .workspace_growths = 66,
                                 .workspace_bytes = 700}))
      << "the footprint is a max across runs, not a sum";
}

TEST(Engine, AsyncRunsLeaveTheSinkUntouched) {
  // The event-driven engine has no round stages to time and no lane
  // workspace, so a sink passed to it stays as it was.
  auto rng = test::make_rng(0xA5C);
  const auto pg = test::random_ported_regular(16, 3, rng);
  RunMetrics metrics;
  RunOptions options;
  options.metrics = &metrics;
  options.exec.async = AsyncOptions{};
  const auto result = run_synchronous(pg.ports(), EchoFactory(4), options);
  EXPECT_EQ(result.stats.rounds, 4u);
  (void)run_asynchronous(pg.ports(), EchoFactory(4), options, AsyncOptions{});
  EXPECT_TRUE(metrics == RunMetrics{});
}

TEST(Engine, BatchJobsFillTheirOwnSinks) {
  // Jobs on four concurrent lanes, each with its own sink: every sink
  // holds exactly its own job's rounds, so concurrent runs never write
  // into each other's record.
  auto rng = test::make_rng(0x5E7);
  const auto regular = test::random_ported_regular(64, 4, rng);
  const auto cycle = port::with_canonical_ports(graph::cycle(32));
  constexpr std::size_t kJobs = 12;
  std::vector<std::unique_ptr<EchoFactory>> factories;
  std::vector<RunMetrics> sinks(kJobs);
  std::vector<BatchJob> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    factories.push_back(
        std::make_unique<EchoFactory>(static_cast<Round>(2 + i)));
    BatchJob job;
    job.graph = i % 2 == 0 ? &regular.ports() : &cycle.ports();
    job.factory = factories.back().get();
    job.options.metrics = &sinks[i];
    jobs.push_back(job);
  }

  const auto results = BatchRunner(4).run(jobs);
  ASSERT_EQ(results.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(sinks[i].rounds, results[i].stats.rounds) << "job " << i;
    EXPECT_EQ(sinks[i].workspace_reuses + sinks[i].workspace_growths, 1u)
        << "job " << i;
    EXPECT_GT(sinks[i].workspace_bytes, 0u) << "job " << i;
  }
}

TEST(Engine, WorklistSkipsHaltedNodes) {
  // 90% of nodes halt in round 1; the long tail must not be charged for
  // them.  ports_served counts only non-halted nodes:
  // 2 ports x (90 nodes x 1 round + 10 nodes x 30 rounds) = 780.
  const auto pg = port::with_canonical_ports(graph::cycle(100));
  const auto make_programs = [] {
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (std::size_t v = 0; v < 100; ++v) {
      programs.push_back(
          std::make_unique<EchoProgram>(v % 10 == 0 ? 30 : 1));
    }
    return programs;
  };

  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto sequential =
      run_synchronous_programs(pg.ports(), make_programs(), options);
  EXPECT_EQ(sequential.stats.rounds, 30u);
  EXPECT_EQ(sequential.stats.ports_served, 780u);
  ASSERT_EQ(sequential.trace.size(), 30u);
  EXPECT_EQ(sequential.trace.front().halted_nodes, 90u);
  EXPECT_EQ(sequential.trace.back().halted_nodes, 100u);

  for (const unsigned threads : policy_thread_counts()) {
    options.exec.threads = threads;
    const auto got =
        run_synchronous_programs(pg.ports(), make_programs(), options);
    EXPECT_TRUE(got == sequential) << "threads=" << threads;
  }
}

TEST(Engine, PortsServedInvariantAcrossAlgorithms) {
  // ports_served == sum over nodes of degree x (rounds the node ran),
  // which for an algorithm where every node halts in the same round r is
  // r x total ports.
  const auto pg = port::with_canonical_ports(graph::cycle(6));
  const auto result = run_synchronous(pg.ports(), EchoFactory(5));
  EXPECT_EQ(result.stats.ports_served, 5u * 12u);
}

TEST(Engine, MoreThreadsThanNodes) {
  const auto pg = port::with_canonical_ports(graph::path(3));
  RunOptions options;
  options.collect_messages = true;
  options.collect_trace = true;
  const auto expected = reference_run(pg.ports(), EchoFactory(3), options);
  options.exec.threads = 16;
  const auto got = run_synchronous(pg.ports(), EchoFactory(3), options);
  EXPECT_TRUE(got == expected);
}

TEST(Engine, HardwareThreadsOptionRuns) {
  RunOptions options;
  options.exec.threads = 0;  // one lane per hardware thread
  const auto pg = port::with_canonical_ports(graph::cycle(12));
  const auto got = run_synchronous(pg.ports(), EchoFactory(2), options);
  EXPECT_EQ(got.stats.rounds, 2u);
}

TEST(Engine, EmptyGraphAndImmediateHalt) {
  const PortGraph empty = PortGraphBuilder(std::vector<Port>{}).build();
  for (const unsigned threads : policy_thread_counts()) {
    RunOptions options;
    options.exec.threads = threads;
    const auto result = run_synchronous(empty, EchoFactory(3), options);
    EXPECT_EQ(result.stats.rounds, 0u);
    EXPECT_TRUE(result.outputs.empty());
  }
}

TEST(Engine, RoundLimitThrowsUnderEveryPolicy) {
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  for (const unsigned threads : policy_thread_counts()) {
    RunOptions options;
    options.max_rounds = 10;
    options.exec.threads = threads;
    EXPECT_THROW(
        (void)run_synchronous(pg.ports(), NeverHaltFactory(), options),
        ExecutionError);
  }
}

TEST(ExecutionPlan, MirrorsTheGraph) {
  auto rng = test::make_rng(0xE63);
  std::vector<Port> degrees{3, 0, 2, 5, 1, 4};
  const auto g = port::random_port_graph(degrees, rng);
  const ExecutionPlan plan(g);
  ASSERT_EQ(plan.num_nodes(), g.num_nodes());
  ASSERT_EQ(plan.total_ports(), g.num_ports());
  std::size_t off = 0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(plan.degree(v), g.degree(static_cast<port::NodeId>(v)));
    EXPECT_EQ(plan.offset(v), off);
    off += plan.degree(v);
    for (Port i = 1; i <= plan.degree(v); ++i) {
      const auto q = plan.offset(v) + i - 1;
      const auto dst = g.partner(static_cast<port::NodeId>(v), i);
      EXPECT_TRUE(plan.partner_ref(q) == dst);
      EXPECT_EQ(plan.partner_flat(q), plan.offset(dst.node) + dst.port - 1);
      // Involution: following the partner index twice returns home.
      EXPECT_EQ(plan.partner_flat(plan.partner_flat(q)), q);
    }
  }
}

TEST(BatchRunner, DeterministicAcrossThreadCounts) {
  auto rng = test::make_rng(0xBA7);
  const auto h = test::figure2_graph_h();
  const auto m = test::figure2_multigraph_m();
  const auto cycle = port::with_canonical_ports(graph::cycle(9));
  const auto regular = test::random_ported_regular(16, 4, rng);

  const EchoFactory echo(4);
  const algo::PortOneFactory port_one;
  const algo::BoundedDegreeFactory bounded(4);

  RunOptions traced;
  traced.collect_trace = true;
  traced.collect_messages = true;
  const std::vector<BatchJob> jobs{
      {&h.ports(), &echo, traced, {}},
      {&m, &echo, traced, {}},
      {&cycle.ports(), &port_one, {}, {}},
      {&regular.ports(), &bounded, traced, {}},
      {&regular.ports(), &port_one, {}, {}},
      {&h.ports(), &bounded, {}, {}},
  };

  // The per-job oracle: what each job yields when run on its own.
  std::vector<RunResult> expected;
  for (const auto& job : jobs) {
    expected.push_back(run_synchronous(*job.graph, *job.factory, job.options));
  }

  for (const unsigned threads : {1u, 2u, 8u}) {
    const BatchRunner runner(threads);
    const auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), jobs.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(results[i] == expected[i])
          << "threads=" << threads << " job=" << i;
    }
  }
}

TEST(BatchRunner, RejectsMalformedJobsUpFront) {
  const EchoFactory echo(1);
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  const BatchRunner runner(2);
  EXPECT_THROW((void)runner.run({{nullptr, &echo, {}, {}}}), InvalidArgument);
  EXPECT_THROW((void)runner.run({{&pg.ports(), nullptr, {}, {}}}),
               InvalidArgument);
  EXPECT_TRUE(runner.run({}).empty());
}

TEST(BatchRunner, RethrowsLowestIndexedFailure) {
  const NeverHaltFactory never;
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  RunOptions three;
  three.max_rounds = 3;
  RunOptions five;
  five.max_rounds = 5;
  const std::vector<BatchJob> jobs{
      {&pg.ports(), &never, three, {}},
      {&pg.ports(), &never, five, {}},
  };
  for (const unsigned threads : {1u, 4u}) {
    const BatchRunner runner(threads);
    try {
      (void)runner.run(jobs);
      FAIL() << "expected ExecutionError";
    } catch (const ExecutionError& e) {
      EXPECT_NE(std::string(e.what()).find("within 3 rounds"),
                std::string::npos)
          << "threads=" << threads << ": " << e.what();
    }
  }
}

TEST(BatchRunner, StreamingMatchesRunAndArrivesInOrder) {
  auto rng = test::make_rng(0x57E);
  std::vector<port::PortedGraph> graphs;
  for (int i = 0; i < 6; ++i) {
    graphs.push_back(test::random_ported_regular(12 + 2 * i, 4, rng));
  }
  const algo::BoundedDegreeFactory bounded(4);
  RunOptions traced;
  traced.collect_trace = true;
  traced.collect_messages = true;
  std::vector<BatchJob> jobs;
  for (const auto& pg : graphs) {
    jobs.push_back({&pg.ports(), &bounded, traced, {}});
  }

  for (const unsigned threads : {1u, 4u}) {
    const BatchRunner runner(threads);
    const auto expected = runner.run(jobs);
    std::vector<std::size_t> order;
    std::vector<RunResult> streamed(jobs.size());
    runner.run_streaming(jobs, [&](std::size_t i, RunResult&& result) {
      order.push_back(i);
      streamed[i] = std::move(result);
    });
    ASSERT_EQ(order.size(), jobs.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(order[i], i) << "delivery must follow job order";
      EXPECT_TRUE(streamed[i] == expected[i]) << "threads=" << threads;
    }
  }
}

TEST(BatchRunner, StreamingWithholdsResultsFromTheFailureOnward) {
  const NeverHaltFactory never;
  const EchoFactory echo(2);
  const auto pg = port::with_canonical_ports(graph::cycle(4));
  RunOptions capped;
  capped.max_rounds = 3;
  // Jobs 0 and 1 succeed, job 2 fails, job 3 would succeed but must be
  // withheld by the prefix rule.
  const std::vector<BatchJob> jobs{
      {&pg.ports(), &echo, {}, {}},
      {&pg.ports(), &echo, {}, {}},
      {&pg.ports(), &never, capped, {}},
      {&pg.ports(), &echo, {}, {}},
  };
  for (const unsigned threads : {1u, 4u}) {
    const BatchRunner runner(threads);
    std::vector<std::size_t> delivered;
    EXPECT_THROW(
        runner.run_streaming(jobs,
                             [&](std::size_t i, RunResult&&) {
                               delivered.push_back(i);
                             }),
        ExecutionError);
    EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1}))
        << "threads=" << threads;
  }
}

TEST(BatchRunner, StreamingRethrowsCallbackFailures) {
  const EchoFactory echo(1);
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  const std::vector<BatchJob> jobs{
      {&pg.ports(), &echo, {}, {}},
      {&pg.ports(), &echo, {}, {}},
  };
  const BatchRunner runner(2);
  std::size_t calls = 0;
  EXPECT_THROW(runner.run_streaming(jobs,
                                    [&](std::size_t, RunResult&&) {
                                      ++calls;
                                      throw InvalidArgument("consumer burp");
                                    }),
               InvalidArgument);
  EXPECT_EQ(calls, 1u) << "delivery stops at the first callback failure";
}

TEST(AlgoBatch, StreamingMatchesRunBatch) {
  auto rng = test::make_rng(0xA1C);
  std::vector<port::PortedGraph> graphs;
  graphs.push_back(test::random_ported_regular(14, 4, rng));
  graphs.push_back(test::random_ported_regular(12, 3, rng));
  std::vector<algo::BatchItem> items;
  items.push_back({&graphs[0], algo::Algorithm::kPortOne, 0});
  items.push_back({&graphs[1], algo::Algorithm::kOddRegular, 0});

  const ExecOptions exec{.threads = 2};
  const auto expected = algo::run_batch(items, exec);
  std::vector<algo::EdsOutcome> streamed(items.size());
  std::vector<std::size_t> order;
  algo::run_batch_streaming(items, exec,
                            [&](std::size_t i, algo::EdsOutcome&& outcome) {
                              order.push_back(i);
                              streamed[i] = std::move(outcome);
                            });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(streamed[i].solution, expected[i].solution);
    EXPECT_TRUE(streamed[i].stats == expected[i].stats);
  }
}

TEST(AlgoBatch, MatchesRunAlgorithm) {
  auto rng = test::make_rng(0xA1B);
  std::vector<port::PortedGraph> graphs;
  graphs.push_back(test::random_ported_regular(14, 4, rng));
  graphs.push_back(test::random_ported_regular(12, 3, rng));
  graphs.push_back(port::with_canonical_ports(graph::cycle(10)));

  std::vector<algo::BatchItem> items;
  items.push_back({&graphs[0], algo::Algorithm::kPortOne, 0});
  items.push_back({&graphs[1], algo::Algorithm::kOddRegular, 0});  // resolves 3
  items.push_back({&graphs[2], algo::Algorithm::kBoundedDegree, 0});

  const auto solo = {
      algo::run_algorithm(graphs[0], algo::Algorithm::kPortOne),
      algo::run_algorithm(graphs[1], algo::Algorithm::kOddRegular),
      algo::run_algorithm(graphs[2], algo::Algorithm::kBoundedDegree),
  };

  for (const unsigned threads : {1u, 3u}) {
    const auto outcomes =
        algo::run_batch(items, ExecOptions{.threads = threads});
    ASSERT_EQ(outcomes.size(), items.size());
    std::size_t i = 0;
    for (const auto& expected : solo) {
      EXPECT_EQ(outcomes[i].solution, expected.solution);
      EXPECT_TRUE(outcomes[i].stats == expected.stats);
      ++i;
    }
  }
}

}  // namespace
}  // namespace eds::runtime
