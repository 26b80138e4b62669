// google-benchmark: simulator throughput — rounds/sec and full-algorithm
// wall time across n and d, plus the engine's lane-count and batch
// scaling points, plan-cache effectiveness and allocation pressure.
//
// Machine-readable output (the BENCH_runtime.json perf trajectory): every
// benchmark exports `n` and `rounds` counters (plus cache/allocation
// counters where relevant), so
//   bench_micro_runtime --benchmark_format=json
// piped through tools/bench_json.py yields records of
// {name, n, rounds, ns_per_op, counters}.  CI runs this once per push in
// Release, uploads the JSON as an artifact, and posts the delta against the
// committed snapshot via `tools/bench_json.py --compare`.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "algo/driver.hpp"
#include "graph/generators.hpp"
#include "port/io.hpp"
#include "port/ported_graph.hpp"
#include "runtime/batch.hpp"
#include "runtime/outputs.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/runner.hpp"
#include "runtime/shard.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"  // test::edsim_binary (gtest-free)

namespace {

/// Exports the workspace counters of the runs that added into `metrics`:
/// runs that reused or grew their lane's pooled workspace (healthy
/// plateaus show reuses >> growths) and the largest lane footprint after
/// a run.
void export_alloc(benchmark::State& state,
                  const eds::runtime::RunMetrics& metrics) {
  state.counters["ws_reuses"] =
      static_cast<double>(metrics.workspace_reuses);
  state.counters["ws_growths"] =
      static_cast<double>(metrics.workspace_growths);
  state.counters["ws_bytes"] = static_cast<double>(metrics.workspace_bytes);
}

/// Exports the engine's per-round stage split of those runs — exchange
/// (send sweep) vs receive (involution gather + merge), with the
/// between-stage wake scan (`scan_ns`) broken out — as per-iteration
/// nanosecond counters.
void export_split(benchmark::State& state,
                  const eds::runtime::RunMetrics& metrics) {
  const auto per_iteration = [](std::uint64_t ns) {
    return benchmark::Counter(static_cast<double>(ns),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["exchange_ns"] = per_iteration(metrics.exchange_ns);
  state.counters["receive_ns"] = per_iteration(metrics.receive_ns);
  state.counters["scan_ns"] = per_iteration(metrics.scan_ns);
}

/// algo::run_algorithm's work (factory, plan from `cache`, validated
/// solution) with the run adding into `metrics`.  A run with a sink times
/// its stages, so it drives the split-sweep round loop.
eds::algo::EdsOutcome run_measured(const eds::port::PortedGraph& pg,
                                   eds::algo::Algorithm algorithm,
                                   eds::port::Port param,
                                   eds::runtime::RunMetrics& metrics,
                                   eds::runtime::PlanCache& cache,
                                   unsigned threads = 1) {
  auto job = eds::algo::make_job(pg.ports(), algorithm, param, &cache);
  auto& options = job.batch.options;
  options.exec.threads = threads;
  options.metrics = &metrics;
  const auto result =
      eds::runtime::run_synchronous(pg.ports(), *job.factory, options);
  return {eds::runtime::validated_edge_set(pg, result), result.stats};
}

/// The workspace counters of one more batch of `items` on `threads` lanes,
/// run after a batch benchmark's timed loop: each BatchJob gets its own
/// sink, summed once the batch is done.  The timed loop runs
/// algo::run_batch_streaming without sinks, since a sink also times the
/// stages and the timestamps would cost that loop about a tenth of its
/// time.
eds::runtime::RunMetrics measure_batch(
    const std::vector<eds::algo::BatchItem>& items, unsigned threads,
    eds::runtime::PlanCache& cache) {
  std::vector<eds::algo::Job> built;
  std::vector<eds::runtime::RunMetrics> sinks(items.size());
  std::vector<eds::runtime::BatchJob> jobs;
  for (std::size_t i = 0; i < items.size(); ++i) {
    built.push_back(eds::algo::make_job(items[i].graph->ports(),
                                        items[i].algorithm, items[i].param,
                                        &cache));
    jobs.push_back(built.back().batch);
    jobs.back().options.metrics = &sinks[i];
  }
  (void)eds::runtime::BatchRunner(threads).run(jobs);
  eds::runtime::RunMetrics total;
  for (const auto& sink : sinks) total += sink;
  return total;
}

void BM_PortOne(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(1);
  const auto g = eds::graph::random_regular(n, 4, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  // One cache across the timed runs: the first compiles the plan and every
  // later run hits it.
  eds::runtime::PlanCache cache;
  const eds::runtime::ExecOptions cached{.plan_cache = &cache};
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(
        pg, eds::algo::Algorithm::kPortOne, 0, cached);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.solution.size());
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["rounds"] = static_cast<double>(rounds);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_PortOne)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_OddRegular(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<eds::port::Port>(state.range(1));
  eds::Rng rng(2);
  const auto g = eds::graph::random_regular(n, d, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  eds::runtime::PlanCache cache;
  const eds::runtime::ExecOptions cached{.plan_cache = &cache};
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(
        pg, eds::algo::Algorithm::kOddRegular, d, cached);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.stats.rounds);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_OddRegular)
    ->Args({64, 3})
    ->Args({256, 3})
    ->Args({1024, 3})
    ->Args({64, 5})
    ->Args({64, 7});

void BM_BoundedDegree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(3);
  const auto g = eds::graph::random_bounded_degree(n, 5, 2 * n, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  const auto delta = static_cast<eds::port::Port>(
      std::max<std::size_t>(g.max_degree(), 2));
  eds::runtime::PlanCache cache;
  const eds::runtime::ExecOptions cached{.plan_cache = &cache};
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(
        pg, eds::algo::Algorithm::kBoundedDegree, delta, cached);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.stats.rounds);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_BoundedDegree)->Arg(64)->Arg(256)->Arg(1024);

void BM_RunnerRoundOverhead(benchmark::State& state) {
  // Pure routing cost: double-cover (2∆ rounds, light logic) on a big torus.
  const auto side = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(4);
  const auto g = eds::graph::torus(side, side);
  const auto pg = eds::port::with_random_ports(g, rng);
  eds::runtime::PlanCache cache;
  const eds::runtime::ExecOptions cached{.plan_cache = &cache};
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(
        pg, eds::algo::Algorithm::kDoubleCover, 4, cached);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.stats.messages_sent);
  }
  state.counters["n"] = static_cast<double>(g.num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()) * 8);
}
BENCHMARK(BM_RunnerRoundOverhead)->Arg(8)->Arg(16)->Arg(32);

void BM_Engine100k(benchmark::State& state) {
  // The acceptance point for the engine: one 100k-node instance, A(4)
  // (51 rounds of real per-node logic), sequential vs sharded rounds.
  // threads == 1 runs one inline lane; > 1 spreads rounds over a pool.
  const auto threads = static_cast<unsigned>(state.range(0));
  eds::Rng rng(5);
  const auto g = eds::graph::torus(320, 320);  // 102400 nodes, 4-regular
  const auto pg = eds::port::with_random_ports(g, rng);
  std::uint64_t rounds = 0;
  eds::runtime::RunMetrics metrics;
  eds::runtime::PlanCache cache;
  for (auto _ : state) {
    auto outcome = run_measured(pg, eds::algo::Algorithm::kBoundedDegree, 4,
                                metrics, cache, threads);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.solution.size());
  }
  export_split(state, metrics);
  export_alloc(state, metrics);
  state.counters["n"] = static_cast<double>(g.num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["lanes"] = static_cast<double>(threads);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_nodes()) *
                          static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_Engine100k)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

void BM_EngineDense(benchmark::State& state) {
  // High-degree regular graph: at d = 64 a node's whole round is message
  // traffic, the case where the retired route stage's extra
  // total_ports-sized Message copy per round cost the most.  DoubleCover
  // runs 2d rounds of near-trivial per-node logic, so the measurement is
  // almost pure transport; the exchange/receive split shows where the
  // remaining time goes.
  const auto d = static_cast<eds::port::Port>(state.range(0));
  eds::Rng rng(9);
  const auto g = eds::graph::random_regular(512, d, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  std::uint64_t rounds = 0;
  eds::runtime::RunMetrics metrics;
  eds::runtime::PlanCache cache;
  for (auto _ : state) {
    auto outcome = run_measured(pg, eds::algo::Algorithm::kDoubleCover, d,
                                metrics, cache);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.stats.messages_sent);
  }
  export_split(state, metrics);
  export_alloc(state, metrics);
  state.counters["n"] = static_cast<double>(g.num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["degree"] = static_cast<double>(d);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges() * 2) *
                          static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_EngineDense)->Arg(16)->Arg(64);

void BM_EngineSparse(benchmark::State& state) {
  // The activity-proportional case: A(∆) on a heavy-tailed graph (the
  // sweep's powerlaw family, exponent 2.5), where ∆ is far above the
  // average degree.  The schedule runs 3∆'²+3 rounds, but a node takes
  // part in O(degree) of them and sleeps through the rest, so the time
  // tracks messages rather than nodes × rounds.
  const auto n = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(10);
  const auto g = eds::graph::random_power_law(n, 2.5, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  const auto delta = static_cast<eds::port::Port>(
      std::max<std::size_t>(g.max_degree(), 2));
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  eds::runtime::PlanCache cache;
  const eds::runtime::ExecOptions cached{.plan_cache = &cache};
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(
        pg, eds::algo::Algorithm::kBoundedDegree, delta, cached);
    rounds = outcome.stats.rounds;
    messages = outcome.stats.messages_sent;
    benchmark::DoNotOptimize(outcome.solution.size());
  }
  // The workspace counters come from one more run after the timed loop:
  // a sink would time the stages, and on this mostly idle schedule the
  // timestamps cost about a tenth of the round loop's time.
  eds::runtime::RunMetrics metrics;
  (void)run_measured(pg, eds::algo::Algorithm::kBoundedDegree, delta,
                     metrics, cache);
  export_alloc(state, metrics);
  state.counters["n"] = static_cast<double>(n);
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["messages"] = static_cast<double>(messages);
  state.counters["delta"] = static_cast<double>(delta);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(messages));
}
BENCHMARK(BM_EngineSparse)->Arg(4096)->Arg(16384);

void BM_RandomRegular(benchmark::State& state) {
  // Graph construction, generation half: random_regular(n, 5), i.e. the
  // circulant seed, 12m double-edge swaps over the flat edge-key set and
  // the CSR build in SimpleGraph::from_edges.  Every iteration draws a new
  // graph from one continuing stream, as a sweep does.
  const auto n = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(8);
  std::size_t edges = 0;
  for (auto _ : state) {
    const auto g = eds::graph::random_regular(n, 5, rng);
    edges = g.num_edges();
    benchmark::DoNotOptimize(g.max_degree());
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["edges"] = static_cast<double>(edges);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_RandomRegular)->Arg(8192);

void BM_WithRandomPorts(benchmark::State& state) {
  // Graph construction, port half: with_random_ports on a 512 x 512 torus
  // (262,144 nodes, 524,288 edges) -- per-node shuffles, the one-pass
  // permutation check and the PortGraph build.  The graph copy each
  // iteration hands over is made outside the timed region.
  const auto g = eds::graph::torus(512, 512);
  eds::Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    auto copy = g;
    state.ResumeTiming();
    const auto pg = eds::port::with_random_ports(std::move(copy), rng);
    benchmark::DoNotOptimize(pg.ports().num_ports());
  }
  state.counters["n"] = static_cast<double>(g.num_nodes());
  state.counters["ports"] = static_cast<double>(2 * g.num_edges());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * g.num_edges()));
}
BENCHMARK(BM_WithRandomPorts);

void BM_PortGraphText(benchmark::State& state) {
  // The port-graph text codec, the graph segment of every --shards job
  // line: Arg 0 writes a randomly numbered 512 x 512 torus (262,144 nodes,
  // 1,048,576 ports) with to_port_graph_string, Arg 1 parses that text
  // back with from_port_graph_string.
  const bool read = state.range(0) != 0;
  eds::Rng rng(10);
  const auto pg =
      eds::port::with_random_ports(eds::graph::torus(512, 512), rng);
  const auto text = eds::port::to_port_graph_string(pg.ports());
  for (auto _ : state) {
    if (read) {
      const auto g = eds::port::from_port_graph_string(text);
      benchmark::DoNotOptimize(g.num_ports());
    } else {
      const auto written = eds::port::to_port_graph_string(pg.ports());
      benchmark::DoNotOptimize(written.data());
      benchmark::ClobberMemory();
    }
  }
  state.counters["n"] = static_cast<double>(pg.ports().num_nodes());
  state.counters["bytes"] = static_cast<double>(text.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_PortGraphText)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_BatchSweep(benchmark::State& state) {
  // Batch throughput: 32 independent jobs (random 4-regular, n = 512)
  // fanned across the BatchRunner pool.
  const auto threads = static_cast<unsigned>(state.range(0));
  eds::Rng rng(6);
  std::vector<eds::port::PortedGraph> instances;
  instances.reserve(32);
  for (int i = 0; i < 32; ++i) {
    instances.push_back(eds::port::with_random_ports(
        eds::graph::random_regular(512, 4, rng), rng));
  }
  std::vector<eds::algo::BatchItem> items;
  for (const auto& pg : instances) {
    items.push_back({&pg, eds::algo::Algorithm::kBoundedDegree, 4});
  }
  // The plans are compiled by the first batch and hit by every later one.
  eds::runtime::PlanCache cache;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    eds::algo::run_batch_streaming(
        items, {.threads = threads},
        [&](std::size_t, eds::algo::EdsOutcome&& outcome) {
          rounds = outcome.stats.rounds;
          benchmark::DoNotOptimize(outcome.solution.size());
        },
        &cache);
  }
  export_alloc(state, measure_batch(items, threads, cache));
  state.counters["n"] = 512.0 * 32.0;
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["lanes"] = static_cast<double>(threads);
}
BENCHMARK(BM_BatchSweep)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

void BM_PlanCacheSweep(benchmark::State& state) {
  // The --repeat workload: `jobs` batch runs on ONE 4-regular instance
  // (n = 1024).  With the shared cache the plan is compiled once per
  // process lifetime and every subsequent job is a hit — plan_misses stays
  // at 1 however many iterations the timer takes.
  const auto jobs = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(7);
  const auto pg = eds::port::with_random_ports(
      eds::graph::random_regular(1024, 4, rng), rng);
  std::vector<eds::algo::BatchItem> items(
      jobs, {&pg, eds::algo::Algorithm::kBoundedDegree, 4});
  eds::runtime::PlanCache cache;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    eds::algo::run_batch_streaming(
        items, {.threads = 1},
        [&](std::size_t, eds::algo::EdsOutcome&& outcome) {
          rounds = outcome.stats.rounds;
          benchmark::DoNotOptimize(outcome.solution.size());
        },
        &cache);
  }
  const auto stats = cache.stats();
  export_alloc(state, measure_batch(items, 1, cache));
  state.counters["n"] = 1024.0;
  state.counters["rounds"] = static_cast<double>(rounds);
  // plan_misses is timer-independent (the one compile, however many
  // iterations ran); hits are normalized per iteration (~jobs) so the
  // exported counters are comparable across machines and --benchmark_min_time.
  state.counters["plan_hits"] = benchmark::Counter(
      static_cast<double>(stats.hits), benchmark::Counter::kAvgIterations);
  state.counters["plan_misses"] = static_cast<double>(stats.misses);
}
BENCHMARK(BM_PlanCacheSweep)->Arg(64)->Arg(256);

void BM_ShardedSweep(benchmark::State& state) {
  // The process-sharded batch point: 16 jobs over 4 instances (random
  // 4-regular, n = 256) shipped to `edsim worker` subprocesses over the
  // NDJSON pipes.  Each batch forks, warms and reaps its own fleet inside
  // run(), so the timed loop holds the whole spawn/exec/plan-compile and
  // teardown cost a sweep pays.  EDSIM_BIN overrides the compiled-in
  // binary path.
  const auto shards = static_cast<unsigned>(state.range(0));
  const std::string bin = eds::test::edsim_binary();
  if (bin.empty()) {
    state.SkipWithError("edsim binary not found (set EDSIM_BIN)");
    return;
  }

  eds::Rng rng(8);
  std::vector<eds::port::PortedGraph> instances;
  instances.reserve(4);
  for (int i = 0; i < 4; ++i) {
    instances.push_back(eds::port::with_random_ports(
        eds::graph::random_regular(256, 4, rng), rng));
  }
  const auto factory =
      eds::algo::make_factory(eds::algo::Algorithm::kBoundedDegree, 4);
  std::vector<eds::runtime::BatchJob> jobs;
  for (const auto& pg : instances) {
    eds::runtime::BatchJob job;
    job.graph = &pg.ports();
    job.factory = factory.get();
    eds::runtime::JobSpec spec;
    spec.algorithm = "bounded-degree";
    spec.param = 4;
    job.spec = spec;
    for (int r = 0; r < 4; ++r) jobs.push_back(job);
  }

  const eds::runtime::ProcessShardExecutor executor({bin, "worker"}, shards);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto results = executor.run(jobs);
    rounds = results.back().stats.rounds;
    benchmark::DoNotOptimize(results.size());
  }
  const auto stats = executor.stats();
  state.counters["n"] = 256.0 * static_cast<double>(jobs.size());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["shards"] = static_cast<double>(shards);
  // Timer-independent shape counters, normalized per iteration so they are
  // comparable across machines and --benchmark_min_time.
  state.counters["jobs_shipped"] = benchmark::Counter(
      static_cast<double>(stats.jobs_shipped),
      benchmark::Counter::kAvgIterations);
  state.counters["workers_spawned"] = benchmark::Counter(
      static_cast<double>(stats.workers_spawned),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ShardedSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

// Custom main so the benchmark context records whether this binary was
// built portable or with -march=native (EDS_NATIVE): tools/bench_json.py
// carries the flag into artifacts and demotes any native-vs-portable
// comparison to informational.
int main(int argc, char** argv) {
#ifdef EDS_NATIVE_BUILD
  benchmark::AddCustomContext("eds_native", "ON");
#else
  benchmark::AddCustomContext("eds_native", "OFF");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
