// google-benchmark: asynchronous-engine cost model — what the α-synchronizer
// charges over the round loop, how virtual completion time stretches with
// delay variance, and what loss does to a free-running execution.
//
// Three questions, one benchmark each:
//
//  * BM_AsyncSynchronizer vs BM_AsyncSyncBaseline — the oracle's price.
//    Same instance, same algorithm; the async run adds the timeline, the
//    per-edge delay matrix and one ack per payload.  The wall-time ratio is
//    the synchronizer overhead; `acks` and `virtual_time` counters expose
//    the extra traffic and the virtual-clock stretch.
//
//  * BM_AsyncTailLatency — delay variance, not mean, dominates completion
//    time.  fixed:5, uniform:1:9 and geometric:5 share a 5-tick mean but
//    export very different `virtual_time` (the synchronizer waits for the
//    slowest link of every round: a per-round max, which grows with the
//    distribution's tail).
//
//  * BM_AsyncLossDegradation — free-running mode under loss ∈ {0, 1%, 10%}
//    (the BENCHMARKS.md degradation table).  port-one is the one paper
//    algorithm that tolerates fault-induced silence, so it is the workload;
//    `lost`, `timeouts` and `delivered` counters quantify the damage and
//    `virtual_time` the timeout-driven slowdown.
//
// Counters follow the micro_runtime idiom: every benchmark exports `n` and
// `rounds`, async ones add their AsyncStats deltas, so
//   bench_micro_async --benchmark_format=json | tools/bench_json.py
// yields comparable {name, n, rounds, ns_per_op, counters} records.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "algo/driver.hpp"
#include "graph/generators.hpp"
#include "port/random_port_graph.hpp"
#include "port/ported_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/fault.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/runner.hpp"
#include "runtime/sched.hpp"
#include "util/rng.hpp"

namespace {

// One shared workload for the baseline/synchronizer pair: double-cover on a
// torus runs 2∆ transport-heavy rounds of near-trivial node logic, so the
// measured delta is engine cost, not algorithm cost.
constexpr std::size_t kSide = 16;  // 256 nodes, 4-regular
constexpr eds::port::Port kDegree = 4;

eds::port::PortedGraph bench_instance() {
  eds::Rng rng(11);
  return eds::port::with_random_ports(eds::graph::torus(kSide, kSide), rng);
}

void export_async(benchmark::State& state,
                  const eds::runtime::AsyncStats& async) {
  state.counters["virtual_time"] = static_cast<double>(async.virtual_time);
  state.counters["delivered"] = static_cast<double>(async.delivered);
  state.counters["acks"] = static_cast<double>(async.acks);
  state.counters["events"] = static_cast<double>(async.events);
  state.counters["lost"] = static_cast<double>(async.lost);
  state.counters["timeouts"] = static_cast<double>(async.timeouts);
}

void BM_AsyncSyncBaseline(benchmark::State& state) {
  const auto pg = bench_instance();
  eds::runtime::PlanCache cache;
  const eds::runtime::ExecOptions cached{.plan_cache = &cache};
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(
        pg, eds::algo::Algorithm::kDoubleCover, kDegree, cached);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.stats.messages_sent);
  }
  state.counters["n"] = static_cast<double>(pg.graph().num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_AsyncSyncBaseline);

// Delay models with the same 5-tick mean but increasing variance; Arg(i)
// indexes this table (benchmark names show the index, `delay_max` the cap).
const eds::runtime::DelayModel kDelayTable[] = {
    {eds::runtime::DelayKind::kFixed, 1, 1},
    {eds::runtime::DelayKind::kFixed, 5, 5},
    {eds::runtime::DelayKind::kUniform, 1, 9},
    {eds::runtime::DelayKind::kGeometric, 5, 40},
};

void BM_AsyncSynchronizer(benchmark::State& state) {
  const auto& delay = kDelayTable[static_cast<std::size_t>(state.range(0))];
  const auto pg = bench_instance();
  const auto factory =
      eds::algo::make_factory(eds::algo::Algorithm::kDoubleCover, kDegree);
  eds::runtime::AsyncOptions async;
  async.delay = delay;
  async.seed = 0xA5BE7C;
  std::uint64_t rounds = 0;
  eds::runtime::AsyncStats last;
  for (auto _ : state) {
    auto result = eds::runtime::run_asynchronous(pg.ports(), *factory,
                                                 eds::runtime::RunOptions{},
                                                 async);
    rounds = result.run.stats.rounds;
    last = result.async;
    benchmark::DoNotOptimize(result.run.stats.messages_sent);
  }
  export_async(state, last);
  state.counters["n"] = static_cast<double>(pg.graph().num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["delay_max"] = static_cast<double>(delay.max_delay());
}
BENCHMARK(BM_AsyncSynchronizer)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// The sparse schedules the synchronizer's horizon notices are for:
// Arg(0) is odd-regular on a random 3-regular graph, n = 8192, under
// uniform:1:9 (nodes awake in about a third of the 20 rounds); Arg(1) is
// A(∆) on an `edsim sweep powerlaw` shaped graph, n = 4096, under fixed:1
// (thousands of rounds, almost every node asleep).  `events` against the
// dense 2·Σd(v)·rounds shows what silence no longer costs.
void BM_AsyncSynchronizerSparse(benchmark::State& state) {
  eds::Rng rng(1);
  const bool odd_regular = state.range(0) == 0;
  const auto pg = eds::port::with_random_ports(
      odd_regular ? eds::graph::random_regular(8192, 3, rng)
                  : eds::graph::random_power_law(4096, 2.5, rng),
      rng);
  const auto param =
      eds::algo::resolved_param(pg, odd_regular
                                        ? eds::algo::Algorithm::kOddRegular
                                        : eds::algo::Algorithm::kBoundedDegree);
  const auto factory = eds::algo::make_factory(
      odd_regular ? eds::algo::Algorithm::kOddRegular
                  : eds::algo::Algorithm::kBoundedDegree,
      param);
  eds::runtime::AsyncOptions async;
  if (odd_regular) async.delay = {eds::runtime::DelayKind::kUniform, 1, 9};
  async.seed = 0xA5BE7C;
  std::uint64_t rounds = 0;
  eds::runtime::AsyncStats last;
  for (auto _ : state) {
    auto result = eds::runtime::run_asynchronous(
        pg.ports(), *factory, eds::runtime::RunOptions{}, async);
    rounds = result.run.stats.rounds;
    last = result.async;
    benchmark::DoNotOptimize(result.run.stats.messages_sent);
  }
  export_async(state, last);
  state.counters["n"] = static_cast<double>(pg.graph().num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["dense_events"] =
      2.0 * 2.0 * static_cast<double>(pg.graph().num_edges()) *
      static_cast<double>(rounds);
}
BENCHMARK(BM_AsyncSynchronizerSparse)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_AsyncFreeRunning(benchmark::State& state) {
  // Synchronizer off, no faults: the event loop and delay matrix without
  // the ack traffic.  The gap to BM_AsyncSynchronizer->Arg(0) is the pure
  // ack cost; the gap to BM_AsyncSyncBaseline is the timeline itself.
  const auto pg = bench_instance();
  const auto factory =
      eds::algo::make_factory(eds::algo::Algorithm::kDoubleCover, kDegree);
  eds::runtime::AsyncOptions async;
  async.synchronizer = false;
  async.delay = {eds::runtime::DelayKind::kFixed, 1, 1};
  async.seed = 0xF3EE;
  std::uint64_t rounds = 0;
  eds::runtime::AsyncStats last;
  for (auto _ : state) {
    auto result = eds::runtime::run_asynchronous(pg.ports(), *factory,
                                                 eds::runtime::RunOptions{},
                                                 async);
    rounds = result.run.stats.rounds;
    last = result.async;
    benchmark::DoNotOptimize(result.run.stats.messages_sent);
  }
  export_async(state, last);
  state.counters["n"] = static_cast<double>(pg.graph().num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_AsyncFreeRunning);

void BM_AsyncTailLatency(benchmark::State& state) {
  // Mean-5 delay models, increasing variance; `virtual_time` is the story.
  // Relay-free single-shot workload: port-one's one communication round
  // makes virtual_time ≈ the per-round max link delay, isolating the tail
  // effect from round-count amplification.
  const auto& delay = kDelayTable[static_cast<std::size_t>(state.range(0))];
  eds::Rng rng(12);
  const auto pg = eds::port::with_random_ports(
      eds::graph::random_regular(1024, 4, rng), rng);
  const auto factory = eds::algo::make_factory(eds::algo::Algorithm::kPortOne);
  eds::runtime::AsyncOptions async;
  async.delay = delay;
  async.seed = 0x7A11;
  eds::runtime::AsyncStats last;
  for (auto _ : state) {
    auto result = eds::runtime::run_asynchronous(pg.ports(), *factory,
                                                 eds::runtime::RunOptions{},
                                                 async);
    last = result.async;
    benchmark::DoNotOptimize(result.run.stats.messages_sent);
  }
  export_async(state, last);
  state.counters["n"] = static_cast<double>(pg.graph().num_nodes());
  state.counters["delay_max"] = static_cast<double>(delay.max_delay());
}
BENCHMARK(BM_AsyncTailLatency)->Arg(1)->Arg(2)->Arg(3);

void BM_AsyncLossDegradation(benchmark::State& state) {
  // Arg is loss in per-mille: 0, 10 (1%), 100 (10%).  Free-running mode,
  // uniform:1:6 delays, default timeout.  port-one reads fault-induced
  // silence as "partner selected nothing" — outputs degrade (the run may
  // no longer be a valid dominating set) but the execution completes, which
  // is exactly the degradation BENCHMARKS.md tabulates.
  const double loss = static_cast<double>(state.range(0)) / 1000.0;
  eds::Rng rng(13);
  const auto pg = eds::port::with_random_ports(
      eds::graph::random_regular(256, 4, rng), rng);
  const auto factory = eds::algo::make_factory(eds::algo::Algorithm::kPortOne);
  eds::runtime::AsyncOptions async;
  async.synchronizer = false;
  async.delay = {eds::runtime::DelayKind::kUniform, 1, 6};
  async.seed = 0x1055;
  async.faults.loss = loss;
  std::uint64_t rounds = 0;
  eds::runtime::AsyncStats last;
  for (auto _ : state) {
    auto result = eds::runtime::run_asynchronous(pg.ports(), *factory,
                                                 eds::runtime::RunOptions{},
                                                 async);
    rounds = result.run.stats.rounds;
    last = result.async;
    benchmark::DoNotOptimize(result.run.stats.messages_sent);
  }
  export_async(state, last);
  state.counters["n"] = static_cast<double>(pg.graph().num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["loss_permille"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AsyncLossDegradation)->Arg(0)->Arg(10)->Arg(100);

void BM_AdversaryOverhead(benchmark::State& state) {
  // Arg indexes the strategy (random, pct, delay, climb).  One iteration =
  // one budgeted adversary_search (probes + re-measures + bookkeeping) on
  // the BENCHMARKS.md attack fixture: an 8-node 3-regular multigraph under
  // free-running port-one with unit delays and a 2-tick round timeout.
  // `schedules_per_sec` is the search throughput (budget schedules per
  // search, iteration-invariant rate); the worst_* counters pin the found
  // worst case so a perf change that silently weakens the search shows up
  // in --compare as a counter delta, not just a wall-time delta.
  constexpr eds::runtime::AdversaryStrategy kStrategies[] = {
      eds::runtime::AdversaryStrategy::kRandom,
      eds::runtime::AdversaryStrategy::kPct,
      eds::runtime::AdversaryStrategy::kDelay,
      eds::runtime::AdversaryStrategy::kClimb,
  };
  constexpr std::size_t kBudget = 32;
  const auto strategy = kStrategies[static_cast<std::size_t>(state.range(0))];
  eds::Rng rng(0xADF1C7ULL);
  const auto g = eds::port::random_port_graph(
      std::vector<eds::port::Port>(8, 3), rng, 0.1);
  const auto factory = eds::algo::make_factory(eds::algo::Algorithm::kPortOne);
  eds::runtime::AsyncOptions base;
  base.synchronizer = false;
  base.delay = {eds::runtime::DelayKind::kFixed, 1, 1};
  base.round_timeout = 2;
  base.seed = 99;
  eds::runtime::AdversaryReport last;
  for (auto _ : state) {
    last = eds::runtime::adversary_search(g, *factory, strategy, base, kBudget,
                                          0xD1CE);
    benchmark::DoNotOptimize(last.evaluated);
  }
  state.counters["schedules_per_sec"] = benchmark::Counter(
      static_cast<double>(kBudget),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["worst_time"] =
      static_cast<double>(last.worst_time.metrics.virtual_time);
  state.counters["worst_selected"] =
      static_cast<double>(last.worst_selected.metrics.selected);
  state.counters["worst_inconsistent"] =
      static_cast<double>(last.worst_inconsistent.metrics.inconsistent);
  state.counters["n"] = static_cast<double>(g.num_nodes());
}
BENCHMARK(BM_AdversaryOverhead)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

BENCHMARK_MAIN();
