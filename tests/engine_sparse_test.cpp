// The activity-proportional round engine against the dense seed oracle.
//
// Nodes that declare a later next_wake sleep: the engine skips their send
// and receive calls, wakes them on non-silence arrivals, and skips rounds
// with nothing due and nothing in flight.  None of that may be visible in
// results: (a) every algorithm, on every graph family and lane count, must
// equal reference_run bit for bit — outputs, stats, trace and message log;
// (b) the SleepChecked decorator runs each program densely and asserts
// that every send in a round the program declared as sleep is silent, and
// every send before a promised next_send horizon too; and (c) handcrafted
// scripts pin the engine's wake mechanics one at a time, and random
// scripts mixing kinds of send promise check that none of them stalls the
// synchronizer.  The asynchronous engine's α-synchronizer runs the same
// sparse schedule behind horizon notices, so every case also runs under
// AsyncPolicy on four delay matrices and must equal the oracle — and, for
// the scripts, make exactly the round engine's calls.  The random
// instances follow EDS_FUZZ_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/all_edges.hpp"
#include "algo/bounded_degree.hpp"
#include "algo/double_cover.hpp"
#include "algo/odd_regular.hpp"
#include "algo/port_one.hpp"
#include "graph/generators.hpp"
#include "idmodel/forest_matching.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/runner.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using port::Port;
using port::PortGraph;
using port::PortGraphBuilder;
using test::policy_thread_counts;
using test::reference_run;

Port max_degree(const PortGraph& g) {
  Port delta = 0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    delta = std::max(delta, g.degree(static_cast<port::NodeId>(v)));
  }
  return delta;
}

/// The ID-model forest matching with ids 0, 1, ..., n - 1 in node order:
/// both the oracle and the engine create one program per node in
/// ascending order, so a counter modulo n hands every run the same ids.
class ForestMatchingFactory final : public ProgramFactory {
 public:
  ForestMatchingFactory(std::size_t n, Port max_degree)
      : n_(n),
        bits_(std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(std::bit_width(n - 1)))),
        delta_(std::max<Port>(max_degree, 1)) {}
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    const auto id = static_cast<std::uint32_t>(next_++ % n_);
    return idmodel::make_forest_matching_program(id, bits_, delta_);
  }
  [[nodiscard]] std::string name() const override {
    return "id-forest-matching";
  }

 private:
  std::size_t n_;
  std::uint32_t bits_;
  Port delta_;
  mutable std::size_t next_ = 0;
};

/// The delay matrices the async oracle sweeps: the degenerate one, a
/// high-variance uniform, a heavy-tailed geometric, and a uniform draw
/// with every third link forced slow by a per-link override.
std::vector<AsyncOptions> async_matrices(const PortGraph& g) {
  std::vector<AsyncOptions> out;
  for (const char* spec : {"fixed:1", "uniform:1:9", "geometric:5"}) {
    AsyncOptions async;
    async.delay = parse_delay_model(spec);
    async.seed = 0xA5;
    out.push_back(async);
  }
  AsyncOptions async;
  async.delay = parse_delay_model("uniform:1:4");
  async.seed = 0xA6;
  std::uint32_t ports = 0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    ports += g.degree(static_cast<port::NodeId>(v));
  }
  for (std::uint32_t q = 0; q < ports; q += 3) {
    async.schedule.delay_overrides.push_back({q, 13 + q % 7});
  }
  out.push_back(async);
  return out;
}

std::string describe(const AsyncOptions& async) {
  return format_delay_model(async.delay) +
         (async.schedule.delay_overrides.empty() ? "" : "+overrides");
}

/// The synchronizer's run with its message log in the oracle's (round,
/// sender) order; the async log arrives in delivery order.
RunResult run_synchronized(const PortGraph& g, const ProgramFactory& factory,
                           const RunOptions& options,
                           const AsyncOptions& async) {
  RunResult got = run_asynchronous(g, factory, options, async).run;
  std::sort(got.message_log.begin(), got.message_log.end(),
            [](const DeliveredMessage& x, const DeliveredMessage& y) {
              return std::tie(x.round, x.from.node, x.from.port) <
                     std::tie(y.round, y.from.node, y.from.port);
            });
  return got;
}

/// What the SleepChecked decorator checked on one program.
struct Checked {
  std::uint64_t sleep_sends = 0;
  std::uint64_t horizon_sends = 0;

  Checked& operator+=(const Checked& other) {
    sleep_sends += other.sleep_sends;
    horizon_sends += other.horizon_sends;
    return *this;
  }
};

/// (a) and (b) for one program on one graph: the engine at every lane
/// count, the α-synchronizer on every delay matrix, and the SleepChecked
/// decorator must all reproduce the oracle.  Returns what the decorator
/// checked.
Checked expect_matches_oracle(const PortGraph& g, const ProgramFactory& factory,
                              const std::string& label) {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto expected = reference_run(g, factory, options);
  for (const unsigned threads : policy_thread_counts()) {
    options.exec.threads = threads;
    const auto got = run_synchronous(g, factory, options);
    EXPECT_TRUE(got == expected)
        << label << ": threads=" << threads << " diverged from the dense "
        << "oracle (rounds " << got.stats.rounds << " vs "
        << expected.stats.rounds << ", messages " << got.stats.messages_sent
        << " vs " << expected.stats.messages_sent << ", ports served "
        << got.stats.ports_served << " vs " << expected.stats.ports_served
        << ", log " << got.message_log.size() << " vs "
        << expected.message_log.size() << ")";
  }
  options.exec.threads = 1;
  for (const AsyncOptions& async : async_matrices(g)) {
    RunResult got;
    EXPECT_NO_THROW(got = run_synchronized(g, factory, options, async))
        << label << ": async " << describe(async);
    EXPECT_TRUE(got == expected)
        << label << ": async " << describe(async) << " diverged from the "
        << "dense oracle (rounds " << got.stats.rounds << ", messages "
        << got.stats.messages_sent << ", ports served "
        << got.stats.ports_served << ")";
  }
  const test::SleepCheckedFactory checked(factory);
  RunResult dense;
  EXPECT_NO_THROW(dense = run_synchronous(g, checked, options)) << label;
  EXPECT_TRUE(dense == expected)
      << label << ": the sleep-checked dense run diverged from the oracle";
  return {checked.sleep_sends(), checked.horizon_sends()};
}

/// Every algorithm that runs on arbitrary graphs of maximum degree ∆.
/// Returns what the decorator checked on bounded-degree (the one program
/// here with a non-trivial next_wake and next_send).
Checked expect_all_programs_match(const PortGraph& g, bool simple,
                                  const std::string& label) {
  const Port delta = max_degree(g);
  const auto sleeps = expect_matches_oracle(
      g, algo::BoundedDegreeFactory(std::max<Port>(delta, 2)),
      label + " bounded-degree");
  expect_matches_oracle(g, algo::DoubleCoverFactory(std::max<Port>(delta, 1)),
                        label + " double-cover");
  expect_matches_oracle(g, algo::PortOneFactory(), label + " port-one");
  expect_matches_oracle(g, algo::AllEdgesFactory(), label + " all-edges");
  if (simple) {
    // Unique ids need distinct endpoints: no loops.
    expect_matches_oracle(g, ForestMatchingFactory(g.num_nodes(), delta),
                          label + " forest-matching");
  }
  return sleeps;
}

TEST(EngineSparse, PowerLawGraphs) {
  auto rng = test::make_rng(0x5A01);
  Checked checked;
  for (int trial = 0; trial < 3; ++trial) {
    const auto pg =
        port::with_random_ports(graph::random_power_law(150, 2.1, rng), rng);
    checked += expect_all_programs_match(pg.ports(), true, "power-law");
  }
  EXPECT_GT(checked.sleep_sends, 0u)
      << "bounded-degree never declared a sleep round";
  EXPECT_GT(checked.horizon_sends, 0u)
      << "bounded-degree never promised a send horizon";
}

TEST(EngineSparse, StarGraphs) {
  // The hub is active in every phase I step its leaves are; the leaves
  // sleep through almost all of the ∆'² steps.
  auto rng = test::make_rng(0x5A02);
  for (const std::size_t leaves : {1u, 2u, 9u, 24u}) {
    const auto pg = port::with_random_ports(graph::star(leaves), rng);
    expect_all_programs_match(pg.ports(), true,
                              "star(" + std::to_string(leaves) + ")");
  }
}

TEST(EngineSparse, RandomBoundedDegreeGraphs) {
  auto rng = test::make_rng(0x5A03);
  for (int trial = 0; trial < 4; ++trial) {
    const auto pg = test::random_ported_bounded(40, 6, 70, rng);
    expect_all_programs_match(pg.ports(), true, "random bounded");
  }
}

TEST(EngineSparse, RandomMultigraphs) {
  // Uniform random involutions: parallel edges, undirected loops, directed
  // loops and isolated nodes — the full generality of the model.
  auto rng = test::make_rng(0x5A04);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Port> degrees(14);
    for (auto& d : degrees) d = static_cast<Port>(rng.below(6));
    const auto g = port::random_port_graph(degrees, rng);
    expect_all_programs_match(g, false, "random multigraph");
  }
}

TEST(EngineSparse, OddRegularOnRegularGraphs) {
  // Odd-regular needs every degree equal to its odd parameter, so it runs
  // on random regular graphs, under every pair order (each one maps the
  // active pairs to different rounds).
  auto rng = test::make_rng(0x5A05);
  Checked checked;
  for (const Port d : {1u, 3u, 5u}) {
    const auto pg = test::random_ported_regular(24, d, rng);
    for (const auto order : {algo::PairOrder::kLexicographic,
                             algo::PairOrder::kDiagonal,
                             algo::PairOrder::kReverse}) {
      checked += expect_matches_oracle(
          pg.ports(), algo::OddRegularFactory(d, order),
          "odd-regular d=" + std::to_string(d));
    }
    expect_all_programs_match(pg.ports(), true,
                              "regular d=" + std::to_string(d));
  }
  EXPECT_GT(checked.sleep_sends, 0u)
      << "odd-regular never declared a sleep round";
  EXPECT_GT(checked.horizon_sends, 0u)
      << "odd-regular never promised a send horizon";
}

TEST(EngineSparse, PairPositionInvertsEverySchedule) {
  for (const Port d : {1u, 2u, 3u, 4u, 7u}) {
    for (const auto order : {algo::PairOrder::kLexicographic,
                             algo::PairOrder::kDiagonal,
                             algo::PairOrder::kReverse}) {
      const auto schedule = algo::pair_schedule(d, order);
      for (std::size_t k = 0; k < schedule.size(); ++k) {
        const auto [i, j] = schedule[k];
        EXPECT_EQ(algo::pair_position(d, order, i, j), k)
            << "d=" << d << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

// ---- (c) handcrafted wake mechanics -------------------------------------

/// What a script declares as its next_send: its next run round (kWake),
/// the next round it sends in (kSend, reaching past runs it spends
/// silent), or the next round (kNone, no promise).
enum class Promise { kWake, kSend, kNone };

/// One scripted node: the rounds after round 1 in which it runs (its halt
/// round last), and the (round, port) pairs it sends a message on — always
/// in a round it runs; tag 9 carrying the round, or, for a negative port,
/// a tag-0 "silence" that still carries the round as an argument.  It
/// declares its next run round as its wake, and outputs the ports on which
/// it received anything but kSilence.
struct Script {
  std::vector<Round> runs;
  std::vector<std::pair<Round, int>> sends;
  Promise promise = Promise::kWake;
};

/// The calls the engine made on each node, in order: "s<r>" for send(r),
/// "r<r>" for receive(r), followed by ":<i>" for every port i on which
/// something other than kSilence arrived.
using CallLog = std::vector<std::vector<std::string>>;

class ScriptedProgram final : public NodeProgram {
 public:
  ScriptedProgram(const Script& script, std::vector<std::string>* calls)
      : script_(script), calls_(calls) {}
  void start(Port) override {}
  void send(Round round, std::span<Message> out) override {
    if (calls_) calls_->push_back("s" + std::to_string(round));
    for (const auto& [at, port] : script_.sends) {
      if (at != round) continue;
      const auto arg = static_cast<std::int32_t>(at);
      if (port > 0) out[port - 1] = msg(9, arg);
      if (port < 0) out[-port - 1] = msg(0, arg);
    }
  }
  void receive(Round round, std::span<const Message> in) override {
    std::string call = "r" + std::to_string(round);
    for (Port i = 1; i <= in.size(); ++i) {
      if (in[i - 1] == kSilence) continue;
      heard_.push_back(i);
      call += ":" + std::to_string(i);
    }
    if (calls_) calls_->push_back(call);
    halted_ = round >= script_.runs.back();
  }
  [[nodiscard]] Round next_wake(Round round) const override {
    return *std::upper_bound(script_.runs.begin(), script_.runs.end(), round);
  }
  /// A script sends only in rounds it runs, and an arrival never changes
  /// which rounds those are: the wake, and the next send round, are
  /// binding send horizons.
  [[nodiscard]] Round next_send(Round round) const override {
    switch (script_.promise) {
      case Promise::kWake:
        return next_wake(round);
      case Promise::kSend: {
        Round next = script_.runs.back() + 1;
        for (const auto& [at, port] : script_.sends) {
          if (at > round) next = std::min(next, at);
        }
        return next;
      }
      case Promise::kNone:
        break;
    }
    return round + 1;
  }
  [[nodiscard]] bool halted() const override { return halted_; }
  [[nodiscard]] std::vector<Port> output() const override {
    auto ports = heard_;
    std::sort(ports.begin(), ports.end());
    ports.erase(std::unique(ports.begin(), ports.end()), ports.end());
    return ports;
  }

 private:
  const Script& script_;
  std::vector<std::string>* calls_;
  std::vector<Port> heard_;
  bool halted_ = false;
};

/// Hands node v (the v-th create() of a run) scripts[v]; with a log, also
/// records the calls of node v into (*log)[v].
class ScriptedFactory final : public ProgramFactory {
 public:
  explicit ScriptedFactory(std::vector<Script> scripts,
                           CallLog* log = nullptr)
      : scripts_(std::move(scripts)), log_(log) {
    if (log_) log_->assign(scripts_.size(), {});
  }
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    const std::size_t v = next_++ % scripts_.size();
    return std::make_unique<ScriptedProgram>(
        scripts_[v], log_ ? &(*log_)[v] : nullptr);
  }
  [[nodiscard]] std::string name() const override { return "scripted"; }

 private:
  std::vector<Script> scripts_;
  CallLog* log_;
  mutable std::size_t next_ = 0;
};

/// Runs `scripts` on `g` densely (the oracle), on the engine at every lane
/// count and on the α-synchronizer under every delay matrix; demands
/// identical results, and identical calls from both engines, and returns
/// the engine's calls.
CallLog run_scripts(const PortGraph& g, const std::vector<Script>& scripts) {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto expected = reference_run(g, ScriptedFactory(scripts), options);
  CallLog calls;
  for (const unsigned threads : policy_thread_counts()) {
    options.exec.threads = threads;
    const auto got =
        run_synchronous(g, ScriptedFactory(scripts, &calls), options);
    EXPECT_TRUE(got == expected) << "threads=" << threads;
  }
  options.exec.threads = 1;
  for (const AsyncOptions& async : async_matrices(g)) {
    CallLog async_calls;
    const auto got = run_synchronized(
        g, ScriptedFactory(scripts, &async_calls), options, async);
    EXPECT_TRUE(got == expected) << "async " << describe(async);
    EXPECT_EQ(async_calls, calls) << "async " << describe(async);
  }
  return calls;
}

using Calls = std::vector<std::string>;

TEST(EngineSparse, ArrivalWakesASleeperEarly) {
  // Node 0 declares sleep until round 10; node 1 messages it in round 4.
  // The arrival wakes node 0 for receive(4) — without send(4) — and it
  // then declares round 10 again.
  PortGraphBuilder b(std::vector<Port>{1, 1});
  b.connect({0, 1}, {1, 1});
  const auto calls =
      run_scripts(b.build(), {{{10}, {}}, {{4}, {{4, 1}}}});
  EXPECT_EQ(calls[0], (Calls{"s1", "r1", "r4:1", "s10", "r10"}));
  EXPECT_EQ(calls[1], (Calls{"s1", "r1", "s4", "r4"}));
}

TEST(EngineSparse, SleeperOnADirectedSelfLoop) {
  // Node 0's port 1 is a directed self-loop.  It messages itself in round
  // 3, then sleeps until round 9.  Its round 3 segment shares a buffer
  // with rounds 5 and 7: had it not been re-silenced after delivery, the
  // stale message would wake node 0 in round 5.  Node 1's round 6 message
  // on port 2 is the only arrival.
  PortGraphBuilder b(std::vector<Port>{2, 1});
  b.fix({0, 1});
  b.connect({0, 2}, {1, 1});
  const auto calls =
      run_scripts(b.build(), {{{3, 9}, {{3, 1}}}, {{6}, {{6, 1}}}});
  EXPECT_EQ(calls[0],
            (Calls{"s1", "r1", "s3", "r3:1", "r6:2", "s9", "r9"}));
  EXPECT_EQ(calls[1], (Calls{"s1", "r1", "s6", "r6"}));
}

TEST(EngineSparse, ArrivalInTheRoundAfterFallingAsleep) {
  // Node 0 runs round 3 and then declares sleep until round 10; node 1,
  // due in round 4, sends to it in the same stage, before node 0's choice
  // is known.  Node 0 still receives round 4.
  PortGraphBuilder b(std::vector<Port>{1, 1});
  b.connect({0, 1}, {1, 1});
  const auto calls =
      run_scripts(b.build(), {{{3, 10}, {}}, {{4}, {{4, 1}}}});
  EXPECT_EQ(calls[0],
            (Calls{"s1", "r1", "s3", "r3", "r4:1", "s10", "r10"}));
  EXPECT_EQ(calls[1], (Calls{"s1", "r1", "s4", "r4"}));
}

TEST(EngineSparse, SilenceWithArgumentsIsReSilencedToo) {
  // A tag-0 message still counts as silence — it wakes nobody and is not
  // counted — but its arguments are delivered in its round, and must not
  // linger: node 1's round 2 send shares a buffer with round 4, in which
  // node 0 must see kSilence again.
  PortGraphBuilder b(std::vector<Port>{1, 1});
  b.connect({0, 1}, {1, 1});
  const auto calls =
      run_scripts(b.build(), {{{2, 4}, {}}, {{2, 6}, {{2, -1}}}});
  EXPECT_EQ(calls[0], (Calls{"s1", "r1", "s2", "r2:1", "s4", "r4"}));
}

TEST(EngineSparse, IdleGapIsSkippedButTraced) {
  // After round 2 nodes 0 and 1 sleep until round 40, and isolated node 2
  // until it halts in round 5.  Rounds 3 and 6..38 have nothing due and
  // nothing in flight: they are skipped without a program call, yet they
  // count toward `rounds` and carry {r, 0, halted} trace entries.
  PortGraphBuilder b(std::vector<Port>{1, 1, 0});
  b.connect({0, 1}, {1, 1});
  const std::vector<Script> scripts{
      {{2, 40}, {{2, 1}}}, {{2, 40}, {{40, 1}}}, {{5}, {}}};
  const auto calls = run_scripts(b.build(), scripts);
  EXPECT_EQ(calls[0], (Calls{"s1", "r1", "s2", "r2", "s40", "r40:1"}));
  EXPECT_EQ(calls[2], (Calls{"s1", "r1", "s5", "r5"}));

  RunOptions options;
  options.collect_trace = true;
  const auto result =
      run_synchronous(b.build(), ScriptedFactory(scripts), options);
  EXPECT_EQ(result.stats.rounds, 40u);
  ASSERT_EQ(result.trace.size(), 40u);
  for (Round r = 3; r < 40; ++r) {
    const auto& entry = result.trace[r - 1];
    EXPECT_EQ(entry.round, r);
    EXPECT_EQ(entry.messages, 0u);
    EXPECT_EQ(entry.halted_nodes, r >= 5 ? 1u : 0u) << "round " << r;
  }
  EXPECT_EQ(result.trace.back().messages, 1u);
  EXPECT_EQ(result.stats.ports_served, 40u + 40u);
}

TEST(EngineSparse, RandomScriptsWithMixedPromises) {
  // Random multigraphs whose nodes run random scripts and mix the three
  // kinds of send promise, so that horizons of very different reach meet
  // on one link and the synchronizer leaves many notices out.  Every run
  // must finish, equal the oracle and make the round engine's calls.
  auto rng = test::make_rng(0x5A07);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Port> degrees(3 + rng.below(10));
    for (auto& d : degrees) d = static_cast<Port>(rng.below(5));
    const auto g = port::random_port_graph(degrees, rng);
    std::vector<Script> scripts(degrees.size());
    for (Script& script : scripts) {
      for (Round r = 2; r <= 30; ++r) {
        if (rng.below(4) == 0) script.runs.push_back(r);
      }
      script.runs.push_back(31 + rng.below(10));
      script.promise = static_cast<Promise>(rng.below(3));
    }
    // A tag-0 message wakes no sleeper, so it only goes to a partner that
    // runs in its round.
    const auto runs_in = [&](port::NodeId u, Round r) {
      return std::binary_search(scripts[u].runs.begin(),
                                scripts[u].runs.end(), r);
    };
    for (port::NodeId v = 0; v < scripts.size(); ++v) {
      for (const Round r : scripts[v].runs) {
        for (Port i = 1; i <= degrees[v]; ++i) {
          if (rng.below(3) != 0) continue;
          const int port = static_cast<int>(i);
          const bool tag0 =
              rng.below(4) == 0 && runs_in(g.partner(v, i).node, r);
          scripts[v].sends.emplace_back(r, tag0 ? -port : port);
        }
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    (void)run_scripts(g, scripts);
  }
}

TEST(EngineSparse, WakePastTheRoundCapFailsLikeTheDenseEngine) {
  // Node 0 sleeps until round 500, past max_rounds = 100, while node 1
  // halts in round 3: the run must fail exactly as the dense engine does
  // once round 100 passes with node 0 still running.
  PortGraphBuilder b(std::vector<Port>{1, 1});
  b.connect({0, 1}, {1, 1});
  const auto g = b.build();
  RunOptions options;
  options.max_rounds = 100;
  for (const Round wake : {101u, 102u, 500u}) {
    for (const unsigned threads : policy_thread_counts()) {
      options.exec.threads = threads;
      try {
        (void)run_synchronous(g, ScriptedFactory({{{wake}, {}}, {{3}, {}}}),
                              options);
        ADD_FAILURE() << "wake " << wake << ": the round cap did not fire";
      } catch (const ExecutionError& e) {
        EXPECT_STREQ(e.what(),
                     "run_synchronous: algorithm 'scripted' did not halt "
                     "within 100 rounds (1 of 2 nodes still running)")
            << "wake " << wake << ", threads " << threads;
      }
    }
  }
  // A wake exactly on the cap is still within it.
  options.exec.threads = 1;
  const auto result =
      run_synchronous(g, ScriptedFactory({{{100}, {}}, {{3}, {}}}), options);
  EXPECT_EQ(result.stats.rounds, 100u);
}

TEST(EngineSparse, WakeNotAfterTheCurrentRoundIsRejected) {
  class Stuck final : public NodeProgram {
   public:
    void start(Port) override {}
    void send(Round, std::span<Message>) override {}
    void receive(Round, std::span<const Message>) override {}
    [[nodiscard]] Round next_wake(Round round) const override {
      return round;
    }
    [[nodiscard]] bool halted() const override { return false; }
    [[nodiscard]] std::vector<Port> output() const override { return {}; }
  };
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<Stuck>());
  const auto g = PortGraphBuilder(std::vector<Port>{0}).build();
  EXPECT_THROW((void)run_synchronous_programs(g, std::move(programs)),
               ExecutionError);
}

TEST(EngineSparse, BrokenSendPromiseFailsLoudly) {
  // Both nodes wake in round 5 and message each other, after promising
  // silence through round 9.  The synchronizer announced that promise to
  // the partner, which may already have read round 5 as silent, so the
  // send must fail; the SleepChecked decorator flags it on the round
  // engine too.
  class Liar final : public NodeProgram {
   public:
    void start(Port) override {}
    void send(Round round, std::span<Message> out) override {
      if (round == 5) out[0] = msg(9);
    }
    void receive(Round round, std::span<const Message>) override {
      halted_ = round >= 5;
    }
    [[nodiscard]] Round next_wake(Round) const override { return 5; }
    [[nodiscard]] Round next_send(Round) const override { return 10; }
    [[nodiscard]] bool halted() const override { return halted_; }
    [[nodiscard]] std::vector<Port> output() const override { return {}; }

   private:
    bool halted_ = false;
  };
  class LiarFactory final : public ProgramFactory {
   public:
    [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
      return std::make_unique<Liar>();
    }
    [[nodiscard]] std::string name() const override { return "liar"; }
  };
  PortGraphBuilder b(std::vector<Port>{1, 1});
  b.connect({0, 1}, {1, 1});
  const auto g = b.build();
  const LiarFactory liar;
  EXPECT_NO_THROW((void)run_synchronous(g, liar));
  EXPECT_THROW((void)run_asynchronous(g, liar, {}, AsyncOptions{}),
               ExecutionError);
  EXPECT_THROW((void)run_synchronous(g, test::SleepCheckedFactory(liar)),
               ExecutionError);
}

}  // namespace
}  // namespace eds::runtime
