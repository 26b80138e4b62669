// Adversarial schedule search: the PCT-style scheduler, the search driver,
// the delta-debugging shrinker, and the versioned replay codec.
//
// The load-bearing guarantees:
//  * every strategy's report is a deterministic pure function of
//    (instance, base options, seed, budget) — thread counts are irrelevant;
//  * probe 0 is the unperturbed base, so each adversary's worst witness is
//    >= anything seed-random sampling finds at ANY budget on a fault-free
//    fixed-delay base (where random has nothing left to randomize) — the
//    acceptance bar checks a 10x random budget explicitly;
//  * a shrunk witness still exhibits the recorded worst metric, and its
//    serialized form replays bit-identically (result, transcript, fault
//    log) after an encode/decode round trip.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/driver.hpp"
#include "port/io.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/outputs.hpp"
#include "runtime/sched.hpp"
#include "util/rng.hpp"
#include "invariants.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using algo::Algorithm;
using port::Port;
using port::PortGraph;
using port::PortGraphBuilder;

/// The environment under attack in the comparison tests: free-running,
/// fixed unit delays, a tight-but-clean round timeout (messages arrive at
/// +1, the deadline is +2), no faults.  Seed-random probes only re-draw the
/// delay matrix, which is degenerate here — so randomness is *exhausted*
/// and only genuine schedule perturbations can move a metric.
AsyncOptions attack_base() {
  AsyncOptions base;
  base.synchronizer = false;
  base.delay = {DelayKind::kFixed, 1, 1};
  base.round_timeout = 2;
  base.seed = 99;
  return base;
}

/// A fixed random multigraph (3-regular involution on 8 nodes, loops and
/// parallel edges possible) — the second committed fixture of the
/// acceptance table.  Fixed Rng: the comparisons are about this exact
/// instance, so it must not follow EDS_FUZZ_SEED.
PortGraph random_multigraph_fixture() {
  Rng rng(0xADF1C7ULL);
  return port::random_port_graph(std::vector<Port>(8, 3), rng, 0.1);
}

TEST(AdversaryTokens, StrategyTokensRoundTrip) {
  for (const auto s :
       {AdversaryStrategy::kRandom, AdversaryStrategy::kPct,
        AdversaryStrategy::kDelay, AdversaryStrategy::kClimb}) {
    EXPECT_EQ(adversary_from_token(adversary_token(s)), s);
  }
  EXPECT_FALSE(adversary_from_token("chaos").has_value());
  EXPECT_FALSE(adversary_from_token("").has_value());
}

TEST(AdversaryTokens, MetricTokensRoundTrip) {
  for (const auto m :
       {AdversaryMetric::kRounds, AdversaryMetric::kVirtualTime,
        AdversaryMetric::kSelected, AdversaryMetric::kInconsistent}) {
    EXPECT_EQ(metric_from_token(metric_token(m)), m);
  }
  EXPECT_FALSE(metric_from_token("latency").has_value());
  ScheduleMetrics metrics{3, 40, 5, 2};
  EXPECT_EQ(metric_value(metrics, AdversaryMetric::kRounds), 3u);
  EXPECT_EQ(metric_value(metrics, AdversaryMetric::kVirtualTime), 40u);
  EXPECT_EQ(metric_value(metrics, AdversaryMetric::kSelected), 5u);
  EXPECT_EQ(metric_value(metrics, AdversaryMetric::kInconsistent), 2u);
}

TEST(MeasureSchedule, CountsTwoSidedOneSidedAndLoops) {
  // Two connected degree-1 nodes plus a directed loop on a third.
  PortGraphBuilder b(std::vector<Port>{1, 1, 1});
  b.connect({0, 1}, {1, 1});
  b.fix({2, 1});
  const auto g = b.build();

  AsyncResult result;
  result.run.outputs = {{1}, {1}, {1}};
  auto m = measure_schedule(g, result);
  EXPECT_EQ(m.selected, 2u);  // the edge (counted once) + the loop
  EXPECT_EQ(m.inconsistent, 0u);

  result.run.outputs = {{1}, {}, {}};
  m = measure_schedule(g, result);
  EXPECT_EQ(m.selected, 0u);
  EXPECT_EQ(m.inconsistent, 1u);  // node 0's claim is unreciprocated
}

TEST(MeasureSchedule, RejectsNodeCountMismatch) {
  PortGraphBuilder b(std::vector<Port>{1, 1});
  b.connect({0, 1}, {1, 1});
  const auto g = b.build();
  AsyncResult result;
  result.run.outputs = {{1}};
  EXPECT_THROW((void)measure_schedule(g, result), InvalidArgument);
}

TEST(ReplayCodec, RoundTripsAllFields) {
  ReplayFile file;
  file.strategy = "pct";
  file.algorithm = "bounded";
  file.param = 3;
  file.options.synchronizer = false;
  file.options.delay = {DelayKind::kUniform, 1, 7};
  file.options.faults.loss = 0.125;
  file.options.faults.duplicate = 0.0625;
  file.options.faults.crashes = {{2, 9}, {5, 17}};
  file.options.round_timeout = 11;
  file.options.seed = 0xFEEDC0DEULL;
  file.options.schedule.prio_seed = 0x1234567'89ULL;
  file.options.schedule.demote_ticks = 4;
  file.options.schedule.change_points = {7, 31, 99};
  file.options.schedule.delay_overrides = {{3, 5}, {12, 2}};
  file.metrics = {{"rounds", 12}, {"inconsistent", 3}};
  file.graph_text = port::to_port_graph_string(random_multigraph_fixture());

  const auto decoded = decode_replay(encode_replay(file));
  EXPECT_EQ(decoded, file);
}

// Golden pin: the bytes encode_replay writes for a file with every record
// kind, so a change to the AsyncOptions records it shares with the shard
// wire cannot alter a replay file unnoticed.
TEST(ReplayCodec, EncodingIsByteStable) {
  ReplayFile file;
  file.strategy = "climb";
  file.algorithm = "odd-regular";
  file.param = 3;
  file.options.synchronizer = false;
  file.options.delay = {DelayKind::kGeometric, 3, 24};
  file.options.faults.loss = 0.1;
  file.options.faults.duplicate = 1e-5;
  file.options.faults.crashes = {{4, 6}, {0, 13}};
  file.options.round_timeout = 0;
  file.options.seed = 18446744073709551615ull;
  file.options.schedule.prio_seed = 77;
  file.options.schedule.demote_ticks = 9;
  file.options.schedule.change_points = {5, 40};
  file.options.schedule.delay_overrides = {{1, 3}};
  file.metrics = {{"selected", 4}};
  file.graph_text = "ports 2\ndeg 1 1\nconn 0 1 1 1\n";
  const auto text = encode_replay(file);
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0x68a61985cf20d80eULL) << text;
  EXPECT_EQ(decode_replay(text), file);
}

TEST(ReplayCodec, RejectsGarbageAndWrongSchema) {
  EXPECT_THROW((void)decode_replay(""), InvalidArgument);
  EXPECT_THROW((void)decode_replay("not a replay\n"), InvalidArgument);
  EXPECT_THROW(
      (void)decode_replay("edsched 99\nalgorithm x\ngraph\nports 0\n"),
      InvalidArgument);
  // Header fine, but no algorithm record.
  EXPECT_THROW((void)decode_replay("edsched 1\ngraph\nports 0\n"),
               InvalidArgument);
  // Unknown record key.
  EXPECT_THROW(
      (void)decode_replay(
          "edsched 1\nalgorithm x\nwibble 3\ngraph\nports 0\n"),
      InvalidArgument);
}

TEST(ReplayCodec, RejectsNumbersTheirFieldsCannotHold) {
  // Numbers are unsigned decimal digits, and a value too large for its
  // field is an error, never truncated into it.
  const auto with = [](const std::string& record) {
    return "edsched 1\nalgorithm odd-regular\n" + record + "\ngraph\n";
  };
  EXPECT_EQ(decode_replay(with("param 4294967295")).param, 4294967295u);
  EXPECT_THROW((void)decode_replay(with("param 4294967296")), InvalidArgument);
  EXPECT_THROW((void)decode_replay(with("param 4294967299")), InvalidArgument);
  EXPECT_THROW((void)decode_replay(with("param -1")), InvalidArgument);
  EXPECT_THROW((void)decode_replay(with("param +3")), InvalidArgument);
  EXPECT_THROW((void)decode_replay(with("param 0x3")), InvalidArgument);
  EXPECT_THROW((void)decode_replay(with("param 3x")), InvalidArgument);

  EXPECT_EQ(decode_replay(with("crash 4294967295 5")).options.faults.crashes,
            (std::vector<CrashEvent>{{4294967295u, 5}}));
  EXPECT_THROW((void)decode_replay(with("crash 4294967296 5")),
               InvalidArgument);
  EXPECT_THROW((void)decode_replay(with("crash 1 -5")), InvalidArgument);
  EXPECT_THROW((void)decode_replay(with("override 4294967296 2")),
               InvalidArgument);

  // 64-bit fields take the full range and no more.
  EXPECT_EQ(decode_replay(with("seed 18446744073709551615")).options.seed,
            18446744073709551615ull);
  EXPECT_THROW((void)decode_replay(with("seed 18446744073709551616")),
               InvalidArgument);
  EXPECT_THROW((void)decode_replay(with("delay fixed:-1")), InvalidArgument);
  EXPECT_THROW((void)decode_replay(with("loss nan")), InvalidArgument);
}

TEST(EngineSchedule, ValidationRejectsMalformedSchedules) {
  const auto g = random_multigraph_fixture();
  const test::EchoFactory factory(2);

  AsyncOptions orphan_change_points = attack_base();
  orphan_change_points.schedule.change_points = {5};  // no prio_seed
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, orphan_change_points),
               InvalidArgument);

  AsyncOptions bad_port = attack_base();
  bad_port.schedule.delay_overrides = {
      {static_cast<std::uint32_t>(g.num_ports()), 2}};
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, bad_port),
               InvalidArgument);

  AsyncOptions zero_ticks = attack_base();
  zero_ticks.schedule.delay_overrides = {{0, 0}};
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, zero_ticks),
               InvalidArgument);
}

TEST(EngineSchedule, ScheduledRunsAreDeterministic) {
  const auto g = random_multigraph_fixture();
  const test::RelayFactory factory(3);

  AsyncOptions options = attack_base();
  options.schedule.prio_seed = 0xABCDEF12ULL;
  options.schedule.demote_ticks = 2;
  options.schedule.change_points = {3, 17};
  options.schedule.delay_overrides = {{1, 3}, {6, 2}};

  RunOptions run;
  run.collect_trace = true;
  run.collect_messages = true;
  const auto a = run_asynchronous(g, factory, run, options);
  const auto b = run_asynchronous(g, factory, run, options);
  EXPECT_EQ(a, b);
  EXPECT_EQ(format_transcript(a.run), format_transcript(b.run));
  EXPECT_EQ(format_fault_log(a.fault_log), format_fault_log(b.fault_log));
}

TEST(EngineSchedule, SynchronizerAbsorbsSchedules) {
  // The α-synchronizer's guarantee is delay-universal, and a schedule only
  // reorders and delays — so even an aggressive schedule must leave a
  // synchronized run bit-identical to the synchronous engine.  (This is
  // why adversary_search refuses synchronized bases: there is nothing to
  // find.)
  const auto h = test::figure2_graph_h();
  const auto factory = algo::make_factory(Algorithm::kBoundedDegree, 3);
  const auto sync = run_synchronous(h.ports(), *factory, {});

  AsyncOptions options;  // synchronizer on (default)
  options.delay = {DelayKind::kUniform, 1, 5};
  options.seed = 21;
  options.schedule.prio_seed = 0x5C4EDULL;
  options.schedule.demote_ticks = 9;
  options.schedule.change_points = {1, 2, 30};
  options.schedule.delay_overrides = {{0, 9}, {3, 7}, {8, 4}};
  const auto a = run_asynchronous(h.ports(), *factory, {}, options);
  EXPECT_EQ(a.run.outputs, sync.outputs);
  EXPECT_EQ(a.run.stats, sync.stats);
}

TEST(AdversarySearch, RejectsSynchronizedBaseAndZeroBudget) {
  const auto g = random_multigraph_fixture();
  const auto factory = algo::make_factory(Algorithm::kPortOne);
  AsyncOptions synchronized;  // default: synchronizer on
  EXPECT_THROW((void)adversary_search(g, *factory, AdversaryStrategy::kPct,
                                      synchronized, 4, 1),
               InvalidArgument);
  EXPECT_THROW((void)adversary_search(g, *factory, AdversaryStrategy::kPct,
                                      attack_base(), 0, 1),
               InvalidArgument);
}

TEST(AdversarySearch, DeterministicAndThreadIndependent) {
  const auto g = random_multigraph_fixture();
  const auto factory = algo::make_factory(Algorithm::kPortOne);
  RunOptions one;
  one.exec.threads = 1;
  RunOptions eight;
  eight.exec.threads = 8;
  for (const auto strategy :
       {AdversaryStrategy::kRandom, AdversaryStrategy::kPct,
        AdversaryStrategy::kDelay, AdversaryStrategy::kClimb}) {
    const auto a = adversary_search(g, *factory, strategy, attack_base(), 12,
                                    0xBEEF, one);
    const auto b = adversary_search(g, *factory, strategy, attack_base(), 12,
                                    0xBEEF, eight);
    EXPECT_EQ(a.evaluated, b.evaluated) << adversary_token(strategy);
    EXPECT_EQ(a.failures, b.failures) << adversary_token(strategy);
    EXPECT_EQ(a.primary().options, b.primary().options)
        << adversary_token(strategy);
    EXPECT_EQ(a.primary().metrics, b.primary().metrics)
        << adversary_token(strategy);
    EXPECT_EQ(a.primary().result, b.primary().result)
        << adversary_token(strategy);
  }
}

/// The acceptance bar on one instance: every adversary strategy's worst
/// witness dominates the best that seed-random sampling finds with 10x the
/// budget, on the primary badness axes.  (Probe 0 of every strategy is the
/// unperturbed base, and the base is randomness-free here, so >= is
/// guaranteed by construction; the EXPECT_GT assertions below pin the
/// strict wins the committed benchmark tables report.)
///
/// Strict inconsistency wins are asserted only for the strategies that can
/// reach round 1: kDelay forces per-link delays past the timeout and kClimb
/// carries delay-override moves.  kPct cannot touch port-one — round-1
/// sends leave at engine initialisation, before the first event pop, so a
/// change-point demotion lands only on round-2+ sends and on the horizon-∞
/// notices of halting nodes; a 1-round algorithm sends nothing after round
/// 1, and a notice settles only the rounds after its sender's last send.
void expect_strategies_dominate_tenfold_random(const PortGraph& g,
                                               const ProgramFactory& factory,
                                               const std::string& label,
                                               bool expect_strict) {
  constexpr std::size_t kBudget = 24;
  const auto random = adversary_search(g, factory, AdversaryStrategy::kRandom,
                                       attack_base(), 10 * kBudget, 0xD1CE);
  for (const auto strategy :
       {AdversaryStrategy::kPct, AdversaryStrategy::kDelay,
        AdversaryStrategy::kClimb}) {
    const auto report = adversary_search(g, factory, strategy, attack_base(),
                                         kBudget, 0xD1CE);
    const auto context = label + "/" + adversary_token(strategy);
    EXPECT_GE(report.worst_rounds.metrics.rounds,
              random.worst_rounds.metrics.rounds)
        << context;
    EXPECT_GE(report.worst_time.metrics.virtual_time,
              random.worst_time.metrics.virtual_time)
        << context;
    EXPECT_GE(report.worst_inconsistent.metrics.inconsistent,
              random.worst_inconsistent.metrics.inconsistent)
        << context;
    if (expect_strict && strategy != AdversaryStrategy::kPct) {
      // Seed-random cannot produce a single endpoint inconsistency here
      // (no faults, degenerate delay matrix); the link-delay adversaries
      // must — a forced delay past the round timeout substitutes silence
      // for one endpoint's hello and yields a one-sided claim.
      EXPECT_EQ(random.worst_inconsistent.metrics.inconsistent, 0u) << context;
      EXPECT_GT(report.worst_inconsistent.metrics.inconsistent, 0u) << context;
    }
  }
}

TEST(AdversarySearch, BeatsTenfoldRandomOnFigure2H) {
  const auto h = test::figure2_graph_h();
  const auto factory = algo::make_factory(Algorithm::kPortOne);
  expect_strategies_dominate_tenfold_random(h.ports(), *factory, "figure2-H",
                                            /*expect_strict=*/true);
}

TEST(AdversarySearch, BeatsTenfoldRandomOnRandomMultigraph) {
  const auto g = random_multigraph_fixture();
  const auto factory = algo::make_factory(Algorithm::kPortOne);
  expect_strategies_dominate_tenfold_random(g, *factory, "multigraph",
                                            /*expect_strict=*/true);
}

TEST(AdversaryShrink, PreservesMetricAndReplaysBitIdentically) {
  const auto h = test::figure2_graph_h();
  const PortGraph& g = h.ports();
  const auto factory = algo::make_factory(Algorithm::kPortOne);

  // kDelay: the only strategy whose worst witness on a 1-round algorithm
  // carries endpoint inconsistency (see the dominance helper's note on why
  // kPct cannot reach round 1).
  const auto report = adversary_search(g, *factory, AdversaryStrategy::kDelay,
                                       attack_base(), 24, 0xD1CE);
  const auto metric = report.primary_metric();
  ASSERT_EQ(metric, AdversaryMetric::kInconsistent);
  const auto& worst = report.primary();
  const auto target = metric_value(worst.metrics, metric);
  ASSERT_GT(target, 0u);

  // Shrinking keeps the witness at or above the recorded metric with a
  // schedule no larger on any lane.
  const auto shrunk = shrink_witness(g, *factory, worst, metric);
  EXPECT_GE(metric_value(shrunk.metrics, metric), target);
  EXPECT_LE(shrunk.options.schedule.change_points.size(),
            worst.options.schedule.change_points.size());
  EXPECT_LE(shrunk.options.schedule.delay_overrides.size(),
            worst.options.schedule.delay_overrides.size());

  // Serialize -> decode -> re-execute: the replay file must reproduce the
  // shrunk witness bit-identically (the differential replay guarantee).
  ReplayFile file;
  file.strategy = "delay";
  file.algorithm = algo::algorithm_token(Algorithm::kPortOne);
  file.param = 0;
  file.options = shrunk.options;
  file.metrics = {{metric_token(metric), metric_value(shrunk.metrics, metric)}};
  file.graph_text = port::to_port_graph_string(g);

  const auto decoded = decode_replay(encode_replay(file));
  EXPECT_EQ(decoded.options, shrunk.options);
  const auto replayed_graph = port::from_port_graph_string(decoded.graph_text);
  const auto replayed =
      run_asynchronous(replayed_graph, *factory, {}, decoded.options);
  EXPECT_EQ(replayed, shrunk.result);
  EXPECT_EQ(format_transcript(replayed.run),
            format_transcript(shrunk.result.run));
  EXPECT_EQ(format_fault_log(replayed.fault_log),
            format_fault_log(shrunk.result.fault_log));
  EXPECT_EQ(measure_schedule(replayed_graph, replayed).inconsistent, target);
}

TEST(AdversaryInvariants, BaseRunsSatisfySharedHarness) {
  // The unperturbed base of the attack environment is fault-free and
  // timeout-clean, so the shared invariant harness must hold on it —
  // consistency on the raw multigraph run, the full suite on a driver
  // outcome of the same fixture.
  const auto h = test::figure2_graph_h();
  const auto factory = algo::make_factory(Algorithm::kPortOne);
  const auto base = run_asynchronous(h.ports(), *factory, {}, attack_base());
  test::check_eds_invariants(h.ports(), base.run, "figure2-H base");

  const auto outcome = algo::run_algorithm(h, Algorithm::kBoundedDegree, 3);
  test::check_eds_invariants(h, outcome, Algorithm::kBoundedDegree, 3,
                             "figure2-H driver");
}

}  // namespace
}  // namespace eds::runtime
