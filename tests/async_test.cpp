// The asynchronous engine's differential oracle and fault-model suite.
//
// Core guarantee under test: with the α-synchronizer, AsyncPolicy produces
// bit-identical results to the synchronous engine — outputs, stats, trace,
// and (delivery-order-normalized) message log — for *every* delay matrix,
// on the paper fixtures, the relay adversarial multigraph, and ≥1000
// randomized multigraph × delay-matrix seeds across every algorithm behind
// algo::algorithm_token.  Secondary guarantees: same seed ⇒ byte-identical
// transcript and fault log regardless of batch thread count; duplicated
// delivery is idempotent; crashed-node runs still verify on the surviving
// subgraph; inconsistent option combinations are rejected up front.
//
// Deterministic by default (test_util.hpp master seed); EDS_FUZZ_SEED
// explores new streams, EDS_ASYNC_FUZZ_RUNS scales the fuzz count (nightly
// CI runs 10k), and EDS_FUZZ_ARTIFACT_DIR collects failing seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "algo/driver.hpp"
#include "analysis/verify.hpp"
#include "graph/edge_set.hpp"
#include "graph/simple_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/batch.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"
#include "runtime/shard.hpp"
#include "util/rng.hpp"
#include "invariants.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using algo::Algorithm;
using port::Port;
using port::PortGraph;
using port::PortGraphBuilder;
using test::EchoFactory;
using test::RelayFactory;

/// Delay matrices the fixture oracles sweep: degenerate (collapses to the
/// synchronous schedule), skewed-fixed, high-variance uniform, heavy-tailed
/// geometric.
std::vector<DelayModel> oracle_delays() {
  return {
      {DelayKind::kFixed, 1, 1},
      {DelayKind::kFixed, 5, 5},
      {DelayKind::kUniform, 1, 9},
      {DelayKind::kGeometric, 3, 24},
  };
}

/// The handcrafted involution-zoo multigraph of the engine suite: an
/// undirected self-loop, directed self-loops (fixed points), parallel
/// edges, a degree-0 node, and edges between nodes of different degrees.
PortGraph loops_and_stagger_graph() {
  PortGraphBuilder b(std::vector<Port>{3, 2, 4, 1, 0, 2});
  b.connect({0, 1}, {0, 2});
  b.fix({0, 3});
  b.connect({1, 1}, {2, 1});
  b.connect({1, 2}, {2, 2});
  b.connect({2, 3}, {3, 1});
  b.fix({2, 4});
  b.connect({5, 1}, {5, 2});
  return b.build();
}

void sort_by_sender(std::vector<DeliveredMessage>& log) {
  std::sort(log.begin(), log.end(),
            [](const DeliveredMessage& x, const DeliveredMessage& y) {
              return std::tie(x.round, x.from.node, x.from.port) <
                     std::tie(y.round, y.from.node, y.from.port);
            });
}

/// The differential oracle: one synchronous run against one α-synchronized
/// asynchronous run under `async`.  The synchronous message log arrives in
/// (round, sender) order already; the async one arrives in delivery order
/// and is normalized to the same key (unique per message, so the
/// comparison is still exact).  Returns success for use in fuzz loops;
/// emits EXPECT failures either way.
[[nodiscard]] bool expect_async_matches_sync(const PortGraph& g,
                                             const ProgramFactory& factory,
                                             const AsyncOptions& async,
                                             const std::string& context,
                                             Round max_rounds = 100000) {
  RunOptions options;
  options.max_rounds = max_rounds;
  options.collect_trace = true;
  options.collect_messages = true;

  bool sync_threw = false;
  RunResult sync;
  try {
    sync = run_synchronous(g, factory, options);
  } catch (const ExecutionError&) {
    sync_threw = true;
  }
  if (sync_threw) {
    // Parity on the failure path too: an algorithm the round engine
    // rejects (round-limit, bad output) must be rejected asynchronously.
    bool async_threw = false;
    try {
      (void)run_asynchronous(g, factory, options, async);
    } catch (const ExecutionError&) {
      async_threw = true;
    }
    EXPECT_TRUE(async_threw)
        << context << ": the synchronous engine threw but the async one ran";
    return async_threw;
  }

  const AsyncResult a = run_asynchronous(g, factory, options, async);
  auto log = a.run.message_log;
  sort_by_sender(log);

  const bool ok = a.run.outputs == sync.outputs && a.run.stats == sync.stats &&
                  a.run.trace == sync.trace && log == sync.message_log &&
                  a.fault_log.empty();
  EXPECT_TRUE(ok) << context << ": async run diverged from the synchronous "
                  << "engine (rounds " << a.run.stats.rounds << " vs "
                  << sync.stats.rounds << ", messages "
                  << a.run.stats.messages_sent << " vs "
                  << sync.stats.messages_sent << ")";
  // Fault-free synchronized runs must also satisfy endpoint consistency
  // (the shared harness; vacuous for outputs-free programs like echo).
  test::check_eds_invariants(g, a.run, context);
  return ok;
}

TEST(AsyncOracle, PaperFixturesAllAlgorithms) {
  const auto h = test::figure2_graph_h();
  const auto m = test::figure2_multigraph_m();
  struct Case {
    const PortGraph* g;
    Algorithm alg;
    Port param;
    const char* label;
  };
  const PortGraph hp = h.ports();
  const std::vector<Case> cases = {
      {&hp, Algorithm::kAllEdges, 0, "H/all-edges"},
      {&hp, Algorithm::kPortOne, 0, "H/port-one"},
      {&hp, Algorithm::kBoundedDegree, 3, "H/bounded-degree"},
      {&hp, Algorithm::kDoubleCover, 3, "H/double-cover"},
      {&m, Algorithm::kAllEdges, 0, "M/all-edges"},
      {&m, Algorithm::kPortOne, 0, "M/port-one"},
      {&m, Algorithm::kBoundedDegree, 4, "M/bounded-degree"},
      {&m, Algorithm::kDoubleCover, 4, "M/double-cover"},
  };
  for (const auto& c : cases) {
    const auto factory = algo::make_factory(c.alg, c.param);
    for (const auto& delay : oracle_delays()) {
      for (const std::uint64_t seed : {1ULL, 99ULL}) {
        AsyncOptions async;
        async.delay = delay;
        async.seed = seed;
        (void)expect_async_matches_sync(
            *c.g, *factory, async,
            std::string(c.label) + " delay=" + format_delay_model(delay));
      }
    }
  }
}

TEST(AsyncOracle, RelayAdversarialMultigraph) {
  const auto g = loops_and_stagger_graph();
  for (const Round base : {1u, 2u, 5u}) {
    for (const auto& delay : oracle_delays()) {
      AsyncOptions async;
      async.delay = delay;
      async.seed = 7 * base;
      (void)expect_async_matches_sync(
          g, RelayFactory(base), async,
          "relay base=" + std::to_string(base) +
              " delay=" + format_delay_model(delay));
    }
  }
  // Echo with staggered durations: nodes outlive each other under delays.
  for (const Round rounds : {1u, 3u, 9u}) {
    AsyncOptions async;
    async.delay = {DelayKind::kUniform, 1, 7};
    async.seed = rounds;
    (void)expect_async_matches_sync(g, EchoFactory(rounds), async,
                                    "echo rounds=" + std::to_string(rounds));
  }
}

std::vector<Port> random_degrees(Rng& rng, std::size_t n, Port max_degree) {
  std::vector<Port> degrees(n);
  for (auto& d : degrees) {
    d = static_cast<Port>(rng.below(max_degree + 1));
  }
  return degrees;
}

DelayModel random_delay_model(Rng& rng) {
  switch (rng.below(3)) {
    case 0: {
      const std::uint64_t t = 1 + rng.below(5);
      return {DelayKind::kFixed, t, t};
    }
    case 1: {
      const std::uint64_t lo = 1 + rng.below(3);
      return {DelayKind::kUniform, lo, lo + rng.below(9)};
    }
    default: {
      const std::uint64_t mean = 2 + rng.below(4);
      return {DelayKind::kGeometric, mean, 8 * mean};
    }
  }
}

/// One fuzz case, a pure function of its run seed: instance, algorithm,
/// parameter, and async options all derive from Rng(run_seed), so a seed
/// recorded in a failure artifact reconstructs the *exact* case later —
/// the property the round-trip test below locks down.
struct FuzzCase {
  PortGraph graph;
  Algorithm alg;
  Port param;
  AsyncOptions async;
};

FuzzCase make_fuzz_case(std::uint64_t run_seed) {
  static const std::vector<Algorithm> algorithms = {
      Algorithm::kAllEdges, Algorithm::kPortOne, Algorithm::kOddRegular,
      Algorithm::kBoundedDegree, Algorithm::kDoubleCover};
  Rng local(run_seed);
  const Algorithm alg =
      algorithms[local.below(static_cast<std::uint64_t>(algorithms.size()))];

  std::vector<Port> degrees;
  Port param = 0;
  if (alg == Algorithm::kOddRegular) {
    const Port d = local.below(2) == 0 ? 1 : 3;
    degrees.assign(2 + local.below(10), d);
    param = d;
  } else {
    degrees = random_degrees(local, 2 + local.below(12), 4);
    if (alg == Algorithm::kBoundedDegree || alg == Algorithm::kDoubleCover) {
      param =
          std::max<Port>(1, *std::max_element(degrees.begin(), degrees.end()));
    }
  }
  auto g = port::random_port_graph(degrees, local, 0.15);

  AsyncOptions async;
  async.seed = local.next_u64();
  async.delay = random_delay_model(local);
  return {std::move(g), alg, param, async};
}

/// $EDS_FUZZ_ARTIFACT_DIR/async_failing_seeds.txt, one decimal seed per
/// line — the fuzz loop's failure artifact, uploaded by CI.
std::string artifact_file(const std::string& dir) {
  return dir + "/async_failing_seeds.txt";
}

void append_failing_seeds(const std::vector<std::uint64_t>& failing) {
  if (failing.empty()) return;
  if (const char* dir = std::getenv("EDS_FUZZ_ARTIFACT_DIR")) {
    std::ofstream out(artifact_file(dir), std::ios::app);
    for (const auto seed : failing) out << seed << '\n';
  }
}

std::vector<std::uint64_t> load_failing_seeds(const std::string& path) {
  std::vector<std::uint64_t> seeds;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    seeds.push_back(std::strtoull(line.c_str(), nullptr, 0));
  }
  return seeds;
}

/// ≥1000 seeded runs (EDS_ASYNC_FUZZ_RUNS overrides; the nightly CI job
/// raises it to 10000) of random multigraphs × random delay matrices,
/// drawing uniformly from every algorithm behind algo::algorithm_token.
/// Odd-regular draws a d-regular instance (d odd), the rest arbitrary
/// multigraphs with loops and parallel edges.  Failing run seeds are
/// appended to $EDS_FUZZ_ARTIFACT_DIR/async_failing_seeds.txt so CI can
/// upload them.
TEST(AsyncOracle, FuzzRandomMultigraphsRandomDelays) {
  std::size_t runs = 1000;
  if (const char* env = std::getenv("EDS_ASYNC_FUZZ_RUNS")) {
    runs = static_cast<std::size_t>(std::strtoull(env, nullptr, 0));
  }
  auto rng = test::make_rng(0xA51FC);
  std::vector<std::uint64_t> failing;
  for (std::size_t it = 0; it < runs; ++it) {
    const std::uint64_t run_seed = rng.next_u64();
    const auto c = make_fuzz_case(run_seed);
    const auto factory = algo::make_factory(c.alg, c.param);
    const bool ok = expect_async_matches_sync(
        c.graph, *factory, c.async,
        "fuzz it=" + std::to_string(it) +
            " alg=" + algo::algorithm_token(c.alg) +
            " seed=" + std::to_string(run_seed),
        /*max_rounds=*/1000);
    if (!ok) failing.push_back(run_seed);
  }
  append_failing_seeds(failing);
}

TEST(AsyncArtifacts, FailingSeedRoundTripReproducesTranscript) {
  // The artifact contract end to end: record a seed the way the fuzz loop
  // would, reload it from the file, rebuild the case, and verify the rerun
  // reproduces the originally recorded transcript and fault log
  // byte-for-byte.  A seed is only a faithful artifact because make_fuzz_case
  // derives *everything* (graph, algorithm, delays) from it.
  RunOptions options;
  options.max_rounds = 1000;
  options.collect_trace = true;
  options.collect_messages = true;

  // Deterministically pick a seed whose case runs to completion (sync
  // parity means a throwing case throws on both engines; skip those).
  std::uint64_t seed = 0;
  AsyncResult recorded;
  bool have = false;
  for (std::uint64_t candidate = 0xA57EFAC7; !have; ++candidate) {
    const auto c = make_fuzz_case(candidate);
    const auto factory = algo::make_factory(c.alg, c.param);
    try {
      recorded = run_asynchronous(c.graph, *factory, options, c.async);
      seed = candidate;
      have = true;
    } catch (const Error&) {
    }
  }

  const std::string dir = ::testing::TempDir();
  const std::string path = artifact_file(dir);
  std::remove(path.c_str());
  const char* old_dir = std::getenv("EDS_FUZZ_ARTIFACT_DIR");
  const std::string saved = old_dir != nullptr ? old_dir : "";
  ::setenv("EDS_FUZZ_ARTIFACT_DIR", dir.c_str(), /*overwrite=*/1);
  append_failing_seeds({seed});
  if (old_dir != nullptr) {
    ::setenv("EDS_FUZZ_ARTIFACT_DIR", saved.c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("EDS_FUZZ_ARTIFACT_DIR");
  }

  const auto seeds = load_failing_seeds(path);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0], seed);

  const auto c = make_fuzz_case(seeds[0]);
  const auto factory = algo::make_factory(c.alg, c.param);
  const auto replayed = run_asynchronous(c.graph, *factory, options, c.async);
  EXPECT_EQ(format_transcript(replayed.run), format_transcript(recorded.run));
  EXPECT_EQ(format_fault_log(replayed.fault_log),
            format_fault_log(recorded.fault_log));
  EXPECT_EQ(replayed, recorded);
  std::remove(path.c_str());
}

TEST(AsyncDeterminism, SameSeedSameTranscriptAndFaultLog) {
  // A fixed Rng (not make_rng) so the crashed-node assertions below stay
  // valid under any EDS_FUZZ_SEED.
  Rng rng(0xDE7E121);
  const auto pg = test::random_ported_bounded(24, 4, 40, rng);

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kUniform, 1, 6};
  async.seed = 0xC0FFEE;
  async.round_timeout = 8;
  async.faults.loss = 0.1;
  async.faults.duplicate = 0.05;
  async.faults.crashes = {{3, 5}, {11, 9}};

  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;

  // Relay tolerates arbitrary fault-induced silence (it just forwards);
  // the paper's protocol algorithms would detect the violation and throw.
  const test::RelayFactory factory(3);
  const AsyncResult a = run_asynchronous(pg.ports(), factory, options, async);
  const AsyncResult b = run_asynchronous(pg.ports(), factory, options, async);
  EXPECT_EQ(a, b);  // full value equality: outputs, stats, fault log, ...
  EXPECT_EQ(format_transcript(a.run), format_transcript(b.run));
  EXPECT_EQ(format_fault_log(a.fault_log), format_fault_log(b.fault_log));
  EXPECT_FALSE(a.fault_log.empty());
  EXPECT_EQ(a.crashed[3], 1);
  EXPECT_EQ(a.crashed[11], 1);
}

TEST(AsyncDeterminism, ByteIdenticalAcrossBatchThreadCounts) {
  // The event loop is sequential; ExecOptions::threads parallelizes only
  // across jobs.  A faulty async batch must therefore be byte-identical
  // between --threads 1 and --threads 8.
  auto rng = test::make_rng(0xBA7C);
  std::vector<port::PortGraph> graphs;
  for (int i = 0; i < 6; ++i) {
    graphs.push_back(
        port::random_port_graph(random_degrees(rng, 14, 4), rng, 0.1));
  }
  const EchoFactory factory(4);

  std::vector<BatchJob> jobs;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    BatchJob job;
    job.graph = &graphs[i];
    job.factory = &factory;
    job.options.collect_messages = true;
    AsyncOptions async;
    async.synchronizer = false;
    async.delay = {DelayKind::kUniform, 1, 5};
    async.seed = 1000 + i;
    async.faults.loss = 0.05;
    async.faults.duplicate = 0.02;
    job.options.exec.async = async;
    jobs.push_back(std::move(job));
  }

  const auto one = BatchRunner(1).run(jobs);
  const auto eight = BatchRunner(8).run(jobs);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], eight[i]) << "job " << i;
    EXPECT_EQ(format_transcript(one[i]), format_transcript(eight[i]));
  }
}

TEST(AsyncFaults, CrashedRunsVerifyOnSurvivingSubgraph) {
  // Fixed Rng: the per-node crash assertions are about this exact
  // deterministic scenario, so the instance must not follow EDS_FUZZ_SEED.
  Rng rng(0xC4A5F1E1);
  const auto pg = test::random_ported_bounded(20, 4, 30, rng);
  const auto& sg = pg.graph();
  const std::size_t n = sg.num_nodes();

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kFixed, 2, 2};
  async.seed = 0x5EED;
  // kPortOne runs exactly one communication round (its receive fires at
  // virtual time 2), so the victims crash at time 1 to be caught still
  // running.  Their round-1 messages are already in flight at that point
  // and still deliver; deliveries *to* them are dropped, so they never
  // halt and announce nothing.
  async.faults.crashes = {{0, 1}, {1, 1}, {7, 1}};

  const auto factory = algo::make_factory(Algorithm::kPortOne);
  const AsyncResult a = run_asynchronous(pg.ports(), *factory, {}, async);

  // Every time-1 victim died running (empty output), nobody else crashed.
  std::vector<char> alive(n, 1);
  for (const auto& c : async.faults.crashes) alive[c.node] = 0;
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(a.crashed[v] != 0, alive[v] == 0) << "node " << v;
    if (!alive[v]) {
      EXPECT_TRUE(a.run.outputs[v].empty()) << "node " << v;
    }
  }

  // Selected edges: claimed consistently from both (surviving) sides.
  const auto claims = [&](port::NodeId v, Port p) {
    return std::binary_search(a.run.outputs[v].begin(),
                              a.run.outputs[v].end(), p);
  };
  graph::EdgeSet selected(sg.num_edges());
  for (port::NodeId v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    for (const Port i : a.run.outputs[v]) {
      const auto there = pg.ports().partner(v, i);
      if (alive[there.node] && claims(there.node, there.port)) {
        selected.insert(pg.edge_at(v, i));
      }
    }
  }

  // The surviving subgraph: same nodes, only edges between survivors.
  std::vector<graph::Edge> kept;
  std::vector<graph::EdgeId> kept_ids;
  for (graph::EdgeId e = 0; e < sg.num_edges(); ++e) {
    const auto& ed = sg.edge(e);
    if (alive[ed.u] && alive[ed.v]) {
      kept.push_back(ed);
      kept_ids.push_back(e);
    }
  }
  const auto sub = graph::SimpleGraph::from_edges(n, kept);
  graph::EdgeSet sub_selected(sub.num_edges());
  for (std::size_t idx = 0; idx < kept_ids.size(); ++idx) {
    if (selected.contains(kept_ids[idx])) {
      sub_selected.insert(static_cast<graph::EdgeId>(idx));
    }
  }
  // A fixed-seed regression, not a theorem: port-one's guarantee is for
  // fault-free runs, but on this deterministic scenario the survivors'
  // selection still dominates the surviving subgraph.
  EXPECT_TRUE(analysis::is_edge_dominating_set(sub, sub_selected));
}

TEST(AsyncFaults, ProtocolAlgorithmsDetectFaultInducedSilence) {
  // The paper's handshake protocols assume lock-step delivery; a crashed
  // neighbour feeds them silence where a structured message is expected.
  // Their internal invariant checks fire, and the detecting node stops
  // like a crashed one: it emits no selection rather than a garbage one,
  // and the run completes with the damage in its outputs.
  Rng rng(0xC4A5F1E1);
  const auto pg = test::random_ported_bounded(20, 4, 30, rng);

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kFixed, 2, 2};
  async.seed = 0x5EED;
  async.round_timeout = 6;
  async.faults.crashes = {{1, 9}, {7, 17}, {13, 3}};

  const auto factory = algo::make_factory(Algorithm::kBoundedDegree, 4);
  const auto run = run_asynchronous(pg.ports(), *factory, {}, async);
  std::size_t stopped = 0;
  for (std::size_t v = 0; v < run.crashed.size(); ++v) {
    if (run.crashed[v] == 0) continue;
    ++stopped;
    EXPECT_TRUE(run.run.outputs[v].empty()) << "node " << v;
  }
  // More nodes stopped than the three the plan crashed, and each stop is
  // logged as a crash.
  EXPECT_GT(stopped, async.faults.crashes.size());
  const auto crash_entries = std::count_if(
      run.fault_log.begin(), run.fault_log.end(),
      [](const FaultEvent& f) { return f.kind == FaultKind::kCrash; });
  EXPECT_EQ(static_cast<std::size_t>(crash_entries), stopped);
}

/// Sends a hello on every port in round 1, and in receive(1) throws on a
/// port that brought none (on every port, if `always`); then halts,
/// selecting every port.
class HelloFactory final : public ProgramFactory {
  class P final : public NodeProgram {
   public:
    explicit P(bool always) : always_(always) {}
    void start(Port degree) override { degree_ = degree; }
    void send(Round, std::span<Message> out) override {
      for (auto& m : out) m = msg(1);
    }
    void receive(Round, std::span<const Message> in) override {
      for (const Message& m : in) {
        if (always_ || m.is_silence()) throw InvalidArgument("no hello");
      }
      halted_ = true;
    }
    [[nodiscard]] bool halted() const override { return halted_; }
    [[nodiscard]] std::vector<Port> output() const override {
      std::vector<Port> out;
      for (Port i = 1; i <= degree_; ++i) out.push_back(i);
      return out;
    }

   private:
    bool always_;
    Port degree_ = 0;
    bool halted_ = false;
  };

 public:
  explicit HelloFactory(bool always) : always_(always) {}
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<P>(always_);
  }
  [[nodiscard]] std::string name() const override { return "hello"; }

 private:
  bool always_;
};

TEST(AsyncFaults, ProgramThrowsStopTheNodeOnlyUnderFaults) {
  PortGraphBuilder b({2, 2, 2, 2});
  for (port::NodeId v = 0; v < 4; ++v) b.connect({v, 2}, {(v + 1) % 4, 1});
  const auto g = std::move(b).build();

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kFixed, 2, 2};
  async.seed = 3;

  // Fault-free, a throw is a bug, and it ends the run.
  EXPECT_THROW((void)run_asynchronous(g, HelloFactory(true), {}, async),
               InvalidArgument);
  const auto clean = run_asynchronous(g, HelloFactory(false), {}, async);
  EXPECT_EQ(clean.run.outputs[0], (std::vector<Port>{1, 2}));

  // Every transmission lost: each node meets silence, throws, and stops.
  async.faults.loss = 1.0;
  const auto lossy = run_asynchronous(g, HelloFactory(false), {}, async);
  EXPECT_EQ(lossy.crashed, (std::vector<std::uint8_t>(4, 1)));
  for (const auto& ports : lossy.run.outputs) EXPECT_TRUE(ports.empty());
  EXPECT_EQ(lossy.async.lost, 8u);
  EXPECT_EQ(std::count_if(lossy.fault_log.begin(), lossy.fault_log.end(),
                          [](const FaultEvent& f) {
                            return f.kind == FaultKind::kCrash;
                          }),
            4);
}

TEST(AsyncFaults, DuplicatedDeliveryIsIdempotent) {
  // duplicate = 1.0 doubles every transmission; suppression must keep the
  // execution identical to the synchronous run (no loss, no crashes).
  // Fixed Rng: duplicated > 0 needs an instance with real traffic.
  Rng rng(0xD0B71E);
  std::vector<Port> degrees = random_degrees(rng, 12, 4);
  degrees[0] = std::max<Port>(degrees[0], 1);
  const auto g = port::random_port_graph(degrees, rng);

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kUniform, 1, 4};
  async.seed = 77;
  async.faults.duplicate = 1.0;

  const EchoFactory factory(5);
  const RunResult sync = run_synchronous(g, factory, {});
  const AsyncResult a = run_asynchronous(g, factory, {}, async);
  EXPECT_EQ(a.run.outputs, sync.outputs);
  EXPECT_EQ(a.run.stats, sync.stats);
  EXPECT_GT(a.async.duplicated, 0u);
  EXPECT_GT(a.async.stale, 0u);  // every duplicate was suppressed
}

TEST(AsyncFaults, LossIsInjectedAndLogged) {
  // Fixed Rng: lost > 0 is a property of this exact seeded scenario.
  Rng rng(0x1055E5);
  std::vector<Port> degrees = random_degrees(rng, 10, 3);
  degrees[0] = std::max<Port>(degrees[0], 1);
  const auto g = port::random_port_graph(degrees, rng);

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kFixed, 1, 1};
  async.seed = 5;
  async.faults.loss = 0.5;
  async.round_timeout = 4;

  const AsyncResult a = run_asynchronous(g, EchoFactory(6), {}, async);
  EXPECT_GT(a.async.lost, 0u);
  EXPECT_GT(a.async.timeouts, 0u);
  std::size_t logged_losses = 0;
  for (const auto& e : a.fault_log) {
    logged_losses += e.kind == FaultKind::kLoss;
  }
  EXPECT_EQ(logged_losses, a.async.lost);
}

TEST(AsyncValidation, OptionCombinationsAreRejected) {
  const auto g = test::figure2_multigraph_m();
  const EchoFactory factory(2);

  AsyncOptions lossy;
  lossy.faults.loss = 0.1;  // synchronizer (default on) + loss
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, lossy),
               InvalidArgument);

  AsyncOptions crashy;
  crashy.faults.crashes = {{0, 5}};
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, crashy),
               InvalidArgument);

  AsyncOptions out_of_range;
  out_of_range.synchronizer = false;
  out_of_range.faults.crashes = {{9, 5}};  // M has two nodes
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, out_of_range),
               InvalidArgument);

  AsyncOptions bad_probability;
  bad_probability.synchronizer = false;
  bad_probability.faults.loss = 1.5;
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, bad_probability),
               InvalidArgument);

  RunOptions zero_rounds;
  zero_rounds.max_rounds = 0;
  EXPECT_THROW((void)run_asynchronous(g, factory, zero_rounds, {}),
               InvalidArgument);

  const AsyncOptions defaults;
  RunOptions tight;
  tight.max_rounds = 3;
  EXPECT_THROW((void)run_asynchronous(g, EchoFactory(10), tight, defaults),
               ExecutionError);  // round limit, mirroring the sync engine
}

TEST(AsyncValidation, DelaySpecsParseAndRoundTrip) {
  EXPECT_EQ(parse_delay_model("fixed:3"),
            (DelayModel{DelayKind::kFixed, 3, 3}));
  EXPECT_EQ(parse_delay_model("uniform:1:8"),
            (DelayModel{DelayKind::kUniform, 1, 8}));
  EXPECT_EQ(parse_delay_model("geometric:4"),
            (DelayModel{DelayKind::kGeometric, 4, 32}));
  EXPECT_EQ(parse_delay_model("geometric:4:10"),
            (DelayModel{DelayKind::kGeometric, 4, 10}));
  for (const auto& spec : oracle_delays()) {
    EXPECT_EQ(parse_delay_model(format_delay_model(spec)), spec);
  }
  for (const char* bad : {"", "fixed", "fixed:0", "uniform:5:2", "uniform:1",
                          "exponential:3", "fixed:abc", "fixed:1:2"}) {
    EXPECT_THROW((void)parse_delay_model(bad), InvalidArgument) << bad;
  }
}

TEST(AsyncValidation, MakeFaultPlanIsSeededAndClamped) {
  const auto a = make_fault_plan(0.1, 0.2, 3, 10, 50, 42);
  const auto b = make_fault_plan(0.1, 0.2, 3, 10, 50, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.crashes.size(), 3u);
  for (const auto& c : a.crashes) {
    EXPECT_LT(c.node, 10u);
    EXPECT_GE(c.time, 1u);
    EXPECT_LE(c.time, 50u);
  }
  const auto c = make_fault_plan(0.1, 0.2, 3, 10, 50, 43);
  EXPECT_NE(a, c);  // a different seed draws a different schedule
  EXPECT_EQ(make_fault_plan(0, 0, 99, 4, 10, 1).crashes.size(), 4u);
  EXPECT_TRUE(make_fault_plan(0, 0, 0, 10, 50, 1).empty());
}

TEST(AsyncDispatch, ExecOptionsRouteThroughRunSynchronous) {
  const auto pg = test::figure2_graph_h();
  const auto factory = algo::make_factory(Algorithm::kBoundedDegree, 3);

  RunOptions options;
  options.collect_trace = true;
  const RunResult plain = run_synchronous(pg.ports(), *factory, options);

  AsyncOptions async;
  async.delay = {DelayKind::kUniform, 1, 6};
  async.seed = 11;
  options.exec.async = async;
  const RunResult routed = run_synchronous(pg.ports(), *factory, options);
  EXPECT_EQ(routed, plain);

  // The driver layer inherits the dispatch via ExecOptions.
  ExecOptions exec;
  exec.async = async;
  const auto outcome =
      algo::run_algorithm(pg, Algorithm::kBoundedDegree, 3, exec);
  const auto baseline = algo::run_algorithm(pg, Algorithm::kBoundedDegree, 3);
  EXPECT_EQ(outcome.solution.to_vector(), baseline.solution.to_vector());
  EXPECT_EQ(outcome.stats, baseline.stats);
}

TEST(AsyncDispatch, ProcessShardExecutorAcceptsAsyncButNotSchedules) {
  const auto g = test::figure2_multigraph_m();
  const EchoFactory factory(2);
  BatchJob job;
  job.graph = &g;
  job.factory = &factory;
  JobSpec spec;
  spec.algorithm = "echo";
  job.spec = spec;
  job.options.exec.async = AsyncOptions{};

  // Since schema 2 plain async jobs cross the wire...
  const ProcessShardExecutor executor({"/nonexistent/edsim", "worker"}, 2);
  EXPECT_NO_THROW(executor.validate({job}));

  // ...but adversarial schedules are an in-process search artifact and
  // never do.
  BatchJob scheduled = job;
  scheduled.options.exec.async->schedule.prio_seed = 7;
  EXPECT_THROW(executor.validate({scheduled}), InvalidArgument);
}

TEST(AsyncStatsCounters, SynchronizerAccountsAcksAndVirtualTime) {
  const auto g = loops_and_stagger_graph();
  AsyncOptions async;
  async.delay = {DelayKind::kFixed, 2, 2};
  const AsyncResult a = run_asynchronous(g, EchoFactory(3), {}, async);
  EXPECT_GT(a.async.virtual_time, 0u);
  EXPECT_GT(a.async.delivered, 0u);
  EXPECT_GT(a.async.acks, 0u);
  EXPECT_EQ(a.async.lost, 0u);
  EXPECT_EQ(a.async.timeouts, 0u);
  EXPECT_TRUE(a.fault_log.empty());

  // Free-running mode with no faults uses no acks at all.
  async.synchronizer = false;
  const AsyncResult b = run_asynchronous(g, EchoFactory(3), {}, async);
  EXPECT_EQ(b.async.acks, 0u);
  EXPECT_EQ(b.run.outputs, a.run.outputs);
}

}  // namespace
}  // namespace eds::runtime
