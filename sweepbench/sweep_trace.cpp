// sweep_trace: replays one `edsim sweep` workload in-process, with a span
// around every call into a layer's public function, and reports per-layer
// time and work counts.
//
//   sweep_trace --family regular --d 5 --min 2048 --max 8192 --repeat 3
//               --lanes 4 [--shards 4 --edsim PATH] [--model async
//               --delay uniform:1:9] --seed 7 [--trace-out trace.json]
//               [--traced-first 0|1]
//   sweep_trace --provenance
//
// The instances are generated exactly as `edsim sweep … --seed S` does
// (one Rng stream, generation then port numbering per size), so the
// work counts must equal the fingerprint of the CLI's own rows.  Each
// replay runs the sweep's jobs three ways:
//   * decomposed, one job after another: PlanCache::get, the engine
//     (run_plan, or AsyncPolicy::run for --model async), decode and
//     verify are each their own span, so every layer gets clean self time;
//   * as a batch over `lanes` in-process lanes, the way the CLI runs it
//     (algo::run_batch_streaming, or BatchRunner for async jobs);
//   * with --shards, through a ProcessShardExecutor of `edsim worker`
//     processes, with wire traffic measured at the process boundary.
// One invocation replays the sweep twice, with tracing off and on, and
// reports the traced replay's metrics plus both wall times, whose ratio
// is the tracing overhead.  The last line of stdout is one JSON object;
// the lines before it are the traced replay's self-time table.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algo/driver.hpp"
#include "analysis/verify.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/outputs.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/shard.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"

namespace {

using namespace eds;
using sweepbench::Span;
using sweepbench::Tracer;

struct Params {
  std::string family;
  std::size_t d = 3;
  std::size_t min_n = 8;
  std::size_t max_n = 128;
  std::size_t repeat = 1;
  unsigned lanes = 4;
  unsigned shards = 0;
  bool async_model = false;
  std::string delay = "fixed:1";
  std::uint64_t seed = 1;
  bool traced_first = false;
  std::string edsim;
  std::string trace_out;
};

/// Per-job results that the three runs of a replay must agree on.
struct JobRecord {
  std::uint64_t edges = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t solution = 0;
};

struct Replay {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<sweepbench::SpanRecord> spans;
};

struct ProcIo {
  std::uint64_t rchar = 0;
  std::uint64_t wchar = 0;
};

ProcIo read_proc_io() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") io.rchar = value;
    if (key == "wchar:") io.wchar = value;
  }
  return io;
}

std::vector<std::size_t> sweep_sizes(const Params& p) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = p.min_n;;) {
    sizes.push_back(n);
    if (n * 2 <= n || n * 2 > p.max_n) break;
    n *= 2;
  }
  return sizes;
}

graph::SimpleGraph generate(const Params& p, std::size_t n, Rng& rng) {
  if (p.family == "regular") return graph::random_regular(n, p.d, rng);
  if (p.family == "powerlaw") return graph::random_power_law(n, 2.5, rng);
  if (p.family == "torus") {
    const auto side = std::max<std::size_t>(
        3, static_cast<std::size_t>(
               std::lround(std::sqrt(static_cast<double>(n)))));
    return graph::torus(side, side);
  }
  throw InvalidArgument("sweep_trace: unsupported family '" + p.family + "'");
}

/// The async options `edsim sweep --model async` gives job `job_index`.
runtime::AsyncOptions async_for_job(const Params& p, std::size_t job_index) {
  runtime::AsyncOptions a;
  a.delay = runtime::parse_delay_model(p.delay);
  std::uint64_t state = p.seed ^ (0xA51DC0DEULL + job_index);
  a.seed = splitmix64(state);
  return a;
}

bool same_job(const JobRecord& a, const JobRecord& b) {
  return a.rounds == b.rounds && a.messages == b.messages &&
         a.solution == b.solution;
}

Replay replay(const Params& p, bool traced) {
  Tracer tracer(traced);
  Replay out;
  auto& m = out.metrics;
  // Counters of layers a workload never enters still report 0.
  for (const char* name :
       {"engine.rounds", "engine.messages", "engine.ports_served",
        "async.events", "async.delivered", "async.acks", "wire.bytes_out",
        "wire.bytes_in", "pool.workers_spawned", "pool.jobs_shipped",
        "pool.jobs_retried", "batch.first_result_s"}) {
    m[name] = 0.0;
  }
  const auto t0 = std::chrono::steady_clock::now();
  {
    Span sweep(tracer, "sweep");

    // Generation: one shared RNG stream, sizes in order (the CLI's
    // determinism contract), then the Table 1 algorithm per instance.
    Rng rng(p.seed);
    std::vector<port::PortedGraph> instances;
    for (const auto n : sweep_sizes(p)) {
      graph::SimpleGraph g;
      {
        Span s(tracer, "graph.gen");
        g = generate(p, n, rng);
      }
      m["graph.edges"] += static_cast<double>(g.num_edges());
      Span s(tracer, "port.number");
      instances.push_back(port::with_random_ports(std::move(g), rng));
      m["port.ports"] +=
          static_cast<double>(instances.back().ports().num_ports());
    }
    std::vector<algo::BatchItem> items;
    std::vector<std::unique_ptr<runtime::ProgramFactory>> factories;
    for (const auto& pg : instances) {
      const auto rec = algo::recommended_for(pg.graph());
      const auto param = algo::resolved_param(pg, rec.algorithm, rec.param);
      factories.push_back(algo::make_factory(rec.algorithm, param));
      for (std::size_t r = 0; r < p.repeat; ++r) {
        items.push_back({&pg, rec.algorithm, rec.param});
      }
    }
    const std::size_t jobs = items.size();
    const auto instance_of = [&](std::size_t i) { return i / p.repeat; };

    // Decomposed run: every layer call of every job in its own span.
    std::vector<JobRecord> records(jobs);
    runtime::PlanCache decomposed_cache;
    for (std::size_t i = 0; i < jobs; ++i) {
      const auto& pg = instances[instance_of(i)];
      const auto& factory = *factories[instance_of(i)];
      Span job(tracer, "job", static_cast<std::int64_t>(i));
      ++out.attempted;
      std::shared_ptr<const runtime::ExecutionPlan> plan;
      {
        Span s(tracer, "plan.hit", static_cast<std::int64_t>(i));
        const auto misses = decomposed_cache.stats().misses;
        plan = decomposed_cache.get(pg.ports());
        if (decomposed_cache.stats().misses != misses) s.rename("plan.compile");
      }
      std::vector<std::unique_ptr<runtime::NodeProgram>> programs;
      runtime::RunResult result;
      if (p.async_model) {
        Span s(tracer, "async.run", static_cast<std::int64_t>(i));
        for (std::size_t v = 0; v < pg.ports().num_nodes(); ++v) {
          programs.push_back(factory.create());
        }
        const runtime::AsyncPolicy policy(async_for_job(p, i));
        auto async = policy.run(*plan, programs, {}, factory.name());
        m["async.events"] += static_cast<double>(async.async.events);
        m["async.delivered"] += static_cast<double>(async.async.delivered);
        m["async.acks"] += static_cast<double>(async.async.acks);
        result = std::move(async.run);
      } else {
        Span s(tracer, "engine.run", static_cast<std::int64_t>(i));
        for (std::size_t v = 0; v < pg.ports().num_nodes(); ++v) {
          programs.push_back(factory.create());
        }
        const auto policy = runtime::make_policy({});
        result =
            runtime::run_plan(*plan, programs, {}, factory.name(), *policy);
        const auto& stats = result.stats;
        m["engine.rounds"] += static_cast<double>(stats.rounds);
        m["engine.messages"] += static_cast<double>(stats.messages_sent);
        m["engine.ports_served"] += static_cast<double>(stats.ports_served);
      }
      auto& rec = records[i];
      rec.edges = pg.graph().num_edges();
      rec.rounds = result.stats.rounds;
      rec.messages = result.stats.messages_sent;
      if (p.async_model &&
          !runtime::consistent_selection_size(pg.ports(), result)) {
        ++out.failed;
        continue;
      }
      graph::EdgeSet solution;
      {
        Span s(tracer, "decode", static_cast<std::int64_t>(i));
        solution = runtime::validated_edge_set(pg, result);
      }
      rec.solution = solution.size();
      Span s(tracer, "verify", static_cast<std::int64_t>(i));
      if (!analysis::is_edge_dominating_set(pg.graph(), solution)) ++out.failed;
    }
    const auto plan_stats = decomposed_cache.stats();
    m["plan.misses"] = static_cast<double>(plan_stats.misses);
    m["plan.hits"] = static_cast<double>(plan_stats.hits);
    for (const auto& r : records) {
      m["fingerprint.edges"] += static_cast<double>(r.edges);
      m["fingerprint.rounds"] += static_cast<double>(r.rounds);
      m["fingerprint.messages"] += static_cast<double>(r.messages);
      m["fingerprint.solution"] += static_cast<double>(r.solution);
    }
    m["fingerprint.jobs"] = static_cast<double>(jobs);
    m["fingerprint.plans_compiled"] = m["plan.misses"];
    m["fingerprint.plan_hits"] = m["plan.hits"];

    // A batch run must reproduce the decomposed run job for job; its
    // rows are verified as the CLI verifies them.
    const auto check_row = [&](std::size_t i, const graph::EdgeSet& solution,
                               const runtime::RunStats& stats) {
      ++out.attempted;
      const auto& pg = instances[instance_of(i)];
      const JobRecord got{pg.graph().num_edges(), stats.rounds,
                          stats.messages_sent, solution.size()};
      if (!same_job(got, records[i]) ||
          !analysis::is_edge_dominating_set(pg.graph(), solution)) {
        ++out.failed;
      }
    };

    std::optional<std::int64_t> first_result_ns;
    std::int64_t batch_start_ns = 0;
    {
      Span batch(tracer, "batch");
      batch_start_ns = tracer.now_ns();
      runtime::PlanCache cache;
      if (p.async_model) {
        std::vector<runtime::BatchJob> batch_jobs;
        for (std::size_t i = 0; i < jobs; ++i) {
          runtime::RunOptions options;
          options.exec.plan_cache = &cache;
          options.exec.async = async_for_job(p, i);
          batch_jobs.push_back({&instances[instance_of(i)].ports(),
                                factories[instance_of(i)].get(), options,
                                std::nullopt});
        }
        const runtime::BatchRunner runner(p.lanes);
        runner.run_streaming(batch_jobs, [&](std::size_t i,
                                             runtime::RunResult&& result) {
          if (!first_result_ns) first_result_ns = tracer.now_ns();
          Span s(tracer, "batch.verify", static_cast<std::int64_t>(i),
                 batch.id());
          const auto& pg = instances[instance_of(i)];
          if (!runtime::consistent_selection_size(pg.ports(), result)) {
            ++out.attempted;
            ++out.failed;
            return;
          }
          check_row(i, runtime::validated_edge_set(pg, result), result.stats);
        });
      } else {
        algo::run_batch_streaming(
            items, runtime::ExecOptions{.threads = p.lanes},
            [&](std::size_t i, algo::EdsOutcome&& outcome) {
              if (!first_result_ns) first_result_ns = tracer.now_ns();
              Span s(tracer, "batch.verify", static_cast<std::int64_t>(i),
                     batch.id());
              check_row(i, outcome.solution, outcome.stats);
            },
            &cache);
      }
    }
    if (first_result_ns) {
      m["batch.first_result_s"] =
          static_cast<double>(*first_result_ns - batch_start_ns) * 1e-9;
    }

    if (p.shards > 0) {
      Span shard(tracer, "shard.batch");
      const auto before = read_proc_io();
      runtime::ProcessShardExecutor::Stats stats;
      {
        const runtime::ProcessShardExecutor executor({p.edsim, "worker"},
                                                     p.shards);
        runtime::PlanCache cache;
        algo::run_batch_streaming(
            items, runtime::ExecOptions{.executor = &executor},
            [&](std::size_t i, algo::EdsOutcome&& outcome) {
              Span s(tracer, "shard.verify", static_cast<std::int64_t>(i),
                     shard.id());
              check_row(i, outcome.solution, outcome.stats);
            },
            &cache);
        stats = executor.stats();
      }
      const auto after = read_proc_io();
      m["wire.bytes_out"] = static_cast<double>(after.wchar - before.wchar);
      m["wire.bytes_in"] = static_cast<double>(after.rchar - before.rchar);
      m["pool.workers_spawned"] = static_cast<double>(stats.workers_spawned);
      m["pool.jobs_shipped"] = static_cast<double>(stats.jobs_shipped);
      m["pool.jobs_retried"] = static_cast<double>(stats.jobs_retried);
    }
  }
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  if (!traced) return out;

  out.spans = tracer.spans();
  const auto layers = sweepbench::layer_times(out.spans);
  const auto total = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_s;
  };
  m["graph.gen_s"] = total("graph.gen");
  m["port.number_s"] = total("port.number");
  m["plan.compile_s"] = total("plan.compile");
  const double plan_calls = m["plan.hits"] + m["plan.misses"];
  m["plan.hit_ratio"] = plan_calls > 0 ? m["plan.hits"] / plan_calls : 0.0;
  m["engine.run_s"] = total("engine.run");
  m["engine.useful_ratio"] =
      m["engine.ports_served"] > 0
          ? m["engine.messages"] / m["engine.ports_served"]
          : 0.0;
  m["async.run_s"] = total("async.run");
  const double async_traffic = m["async.delivered"] + m["async.acks"];
  m["async.payload_ratio"] =
      async_traffic > 0 ? m["async.delivered"] / async_traffic : 0.0;
  m["decode.s"] = total("decode");
  m["verify.s"] = total("verify");
  m["batch.wall_s"] = total("batch");
  m["batch.lane_util"] =
      m["batch.wall_s"] > 0
          ? total("job") / (p.lanes * m["batch.wall_s"])
          : 0.0;
  m["shard.batch_s"] = total("shard.batch");
  m["shard.overhead_s"] =
      p.shards > 0 ? m["shard.batch_s"] - m["batch.wall_s"] : 0.0;
  // What the CLI itself waits on: generation, port numbering, and the
  // batch on the backend it was asked for.
  m["trace.layer_total_s"] =
      m["graph.gen_s"] + m["port.number_s"] +
      (p.shards > 0 ? m["shard.batch_s"] : m["batch.wall_s"]);
  return out;
}

void print_layer_table(std::ostream& out,
                       const std::vector<sweepbench::SpanRecord>& spans) {
  const auto layers = sweepbench::layer_times(spans);
  double root = 0.0;
  if (const auto it = layers.find("sweep"); it != layers.end()) {
    root = it->second.total_s;
  }
  out << std::left << std::setw(16) << "layer" << std::right << std::setw(8)
      << "spans" << std::setw(12) << "total_s" << std::setw(12) << "self_s"
      << std::setw(8) << "self%" << '\n';
  for (const auto& [name, row] : layers) {
    out << std::left << std::setw(16) << name << std::right << std::setw(8)
        << row.count << std::setw(12) << std::fixed << std::setprecision(4)
        << row.total_s << std::setw(12) << row.self_s << std::setw(8)
        << std::setprecision(1) << (root > 0 ? 100.0 * row.self_s / root : 0.0)
        << '\n';
  }
  out.unsetf(std::ios::floatfield);
}

std::string json_number(double x) {
  std::ostringstream s;
  s << std::setprecision(17) << x;
  return s.str();
}

int run(const Params& p) {
  // One untraced and one traced replay; the caller alternates which runs
  // first, so that neither always runs cold.
  Replay first = replay(p, p.traced_first);
  Replay second = replay(p, !p.traced_first);
  auto& traced = p.traced_first ? first : second;
  const auto& untraced = p.traced_first ? second : first;
  const std::uint64_t attempted = first.attempted + second.attempted;
  const std::uint64_t failed = first.failed + second.failed;
  auto& metrics = traced.metrics;
  metrics["trace.traced_wall_s"] = traced.wall_s;
  metrics["trace.untraced_wall_s"] = untraced.wall_s;

  if (!p.trace_out.empty()) {
    std::ofstream trace(p.trace_out);
    sweepbench::write_chrome_trace(trace, traced.spans,
                                   "sweep_trace " + p.family);
    if (!trace) {
      std::cerr << "sweep_trace: cannot write " << p.trace_out << '\n';
      return 2;
    }
  }
  print_layer_table(std::cout, traced.spans);
  std::cout << "{\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"spans\":" << traced.spans.size() << ",\"metrics\":{";
  bool first_metric = true;
  for (const auto& [name, value] : metrics) {
    std::cout << (first_metric ? "" : ",") << '"' << name
              << "\":" << json_number(value);
    first_metric = false;
  }
  std::cout << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}

void print_provenance() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::cout << "{\"build_type\":\"" << SWEEPBENCH_BUILD_TYPE
            << "\",\"eds_native\":\"" << SWEEPBENCH_NATIVE
            << "\",\"compiler\":\"" << SWEEPBENCH_COMPILER
            << "\",\"ndebug\":" << (ndebug ? "true" : "false") << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--provenance") {
        print_provenance();
        return 0;
      }
      if (i + 1 >= argc) throw eds::InvalidArgument(flag + " needs a value");
      const std::string value = argv[++i];
      const auto number = [&] { return std::stoull(value); };
      if (flag == "--family") p.family = value;
      else if (flag == "--d") p.d = number();
      else if (flag == "--min") p.min_n = number();
      else if (flag == "--max") p.max_n = number();
      else if (flag == "--repeat") p.repeat = number();
      else if (flag == "--lanes") p.lanes = static_cast<unsigned>(number());
      else if (flag == "--shards") p.shards = static_cast<unsigned>(number());
      else if (flag == "--model") p.async_model = value == "async";
      else if (flag == "--delay") p.delay = value;
      else if (flag == "--seed") p.seed = number();
      else if (flag == "--edsim") p.edsim = value;
      else if (flag == "--trace-out") p.trace_out = value;
      else if (flag == "--traced-first") p.traced_first = value == "1";
      else throw eds::InvalidArgument("unknown flag " + flag);
    }
    if (p.min_n == 0 || p.max_n < p.min_n || p.repeat == 0 || p.lanes == 0) {
      throw eds::InvalidArgument("need 0 < --min <= --max, --repeat and "
                                 "--lanes >= 1");
    }
    if (p.shards > 0 && p.edsim.empty()) {
      throw eds::InvalidArgument("--shards needs --edsim PATH");
    }
    return run(p);
  } catch (const std::exception& e) {
    std::cerr << "sweep_trace: " << e.what() << '\n';
    return 2;
  }
}
