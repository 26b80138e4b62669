#include "cli/cli.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <variant>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "algo/driver.hpp"
#include "analysis/ratio.hpp"
#include "analysis/verify.hpp"
#include "exact/exact_eds.hpp"
#include "factor/two_factor.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "lb/lower_bounds.hpp"
#include "port/io.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "port/views.hpp"
#include "runtime/batch.hpp"
#include "runtime/fault.hpp"
#include "runtime/outputs.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/sched.hpp"
#include "runtime/shard.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace eds::cli {

namespace {

/// A malformed command line: an unknown flag, a flag missing its value, a
/// number that does not parse, or a flag given without the flag it needs
/// (FlagRule).  run_cli reports it and exits 2.  Not an
/// eds::Error on purpose, so no command's own error handling swallows it.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses `text` as a base-10 integer in [0, max of T]; anything else
/// (a sign, a fraction, trailing bytes, overflow) is a UsageError naming
/// `what`.
template <class T>
[[nodiscard]] T parse_number(const std::string& text, const std::string& what) {
  T value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw UsageError(what + " must be an integer in [0, " +
                     std::to_string(std::numeric_limits<T>::max()) +
                     "], got '" + text + "'");
  }
  return value;
}

/// A cross-flag rule: each of `flags` only makes sense together with
/// `--needs`, or with `--needs value` when `value` is set.
struct FlagRule {
  std::vector<std::string> flags;
  std::string needs;
  std::string value = {};
};

/// The flags one command accepts: `options` take a value, `switches` none.
struct FlagSpec {
  std::vector<std::string> options;
  std::vector<std::string> switches;
  std::vector<FlagRule> rules = {};
};

/// Positional args plus the --key [value] flags of one FlagSpec.
class Args {
 public:
  /// Throws UsageError on a flag outside `spec`, an option missing its
  /// value, or a flag whose rule is not met (the first one on the command
  /// line, naming both flags).
  Args(const std::vector<std::string>& raw, const FlagSpec& spec) {
    const auto accepts = [](const std::vector<std::string>& keys,
                            const std::string& key) {
      return std::find(keys.begin(), keys.end(), key) != keys.end();
    };
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i].rfind("--", 0) != 0) {
        positional_.push_back(raw[i]);
        continue;
      }
      const auto key = raw[i].substr(2);
      if (accepts(spec.switches, key)) {
        options_[key] = "";
      } else if (!accepts(spec.options, key)) {
        throw UsageError("unknown flag " + raw[i]);
      } else if (i + 1 < raw.size() && raw[i + 1].rfind("--", 0) != 0) {
        options_[key] = raw[++i];
      } else {
        throw UsageError(raw[i] + " needs a value");
      }
    }
    for (const auto& flag : raw) {
      if (flag.rfind("--", 0) != 0) continue;
      for (const auto& rule : spec.rules) {
        if (!accepts(rule.flags, flag.substr(2))) continue;
        const bool met =
            has(rule.needs) &&
            (rule.value.empty() || get(rule.needs) == rule.value);
        if (!met) {
          throw UsageError(flag + " needs --" + rule.needs +
                           (rule.value.empty() ? "" : " " + rule.value));
        }
      }
    }
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return options_.count(key) > 0;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }
  template <class T>
  [[nodiscard]] T number(const std::string& key, T fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    return parse_number<T>(it->second, "--" + key);
  }

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
};

void usage(std::ostream& out) {
  out << "edsim — distributed edge dominating sets (Suomela, PODC 2010)\n"
         "\n"
         "usage: edsim <command> [options]\n"
         "(an unknown flag, a malformed number or a flag without the one\n"
         " it needs exits 2)\n"
         "\n"
         "commands:\n"
         "  generate <family> [args] [--seed S]\n"
         "      families: cycle N | path N | complete N | regular N D |\n"
         "                grid R C | torus R C | hypercube DIM | petersen |\n"
         "                tree N | bounded N DELTA M\n"
         "      emits an edge list ('N M' header, one edge per line)\n"
         "  solve [--algorithm auto|all-edges|port-one|odd-regular|\n"
         "         bounded-degree|double-cover] [--param P]\n"
         "        [--ports random|canonical|factor] [--seed S]\n"
         "        [--threads N] [--exact] [--dot]\n"
         "      reads an edge list from stdin, runs the algorithm, prints\n"
         "      the solution, round/message counts, and (with --exact) the\n"
         "      approximation ratio; --dot appends Graphviz output;\n"
         "      --threads N runs each round on N lanes (same result)\n"
         "  sweep <family> [--min N] [--max N] [--step S] [--d D]\n"
         "        [--algorithm A] [--param P] [--seed S] [--threads N]\n"
         "        [--shards N] [--repeat R] [--ndjson]\n"
         "        [--retries K] [--job-timeout-ms T] [--batch-timeout-ms T]\n"
         "        [--breaker-deaths D]\n"
         "        [--fallback-inprocess] [--chaos SPEC]\n"
         "        [--model sync|async] [--delay SPEC] [--loss P] [--dup P]\n"
         "        [--crash K] [--timeout T] [--synchronizer on|off]\n"
         "        [--adversary random|pct|delay|climb] [--budget N]\n"
         "        [--replay-out DIR] | [--replay FILE]\n"
         "      families: path | cycle | regular | grid | torus |\n"
         "                caterpillar | powerlaw | portgraph\n"
         "      fans one instance per size across the batch engine's thread\n"
         "      pool (--threads N workers, 0 = all hardware threads) and\n"
         "      prints one row per instance, in order, independent of N;\n"
         "      sizes run --min..--max doubling, or by +S with --step S;\n"
         "      regular/portgraph use degree --d (portgraph instances are\n"
         "      random port-numbered multigraphs: loops, parallel edges);\n"
         "      grid/torus round n to a square side, caterpillar grows a\n"
         "      2-leg spine, powerlaw samples P(deg) ~ deg^-2.5;\n"
         "      --repeat R runs each instance R times (the shared plan is\n"
         "      compiled once per instance and reused via the plan cache);\n"
         "      --ndjson streams one JSON object per job as results arrive\n"
         "      (in job order, no full-batch barrier) plus a summary line\n"
         "      with the plan-cache counters; every object carries\n"
         "      \"schema\":2;\n"
         "      --shards N fans the jobs across N `edsim worker`\n"
         "      subprocesses instead of threads (0 = one per hardware\n"
         "      thread; output is byte-identical either way; each batch\n"
         "      forks its own workers, whose per-shard plan caches are\n"
         "      summed in the summary); sharded sweeps are\n"
         "      resilient: the job a worker death interrupts is retried up\n"
         "      to --retries K times (default 2; 0 = it fails at its first\n"
         "      death) and the worker's unstarted jobs go to a fresh worker\n"
         "      after a backoff of 10 ms, doubling per pass;\n"
         "      --job-timeout-ms T kills a worker stuck on one job and\n"
         "      --batch-timeout-ms T bounds the whole batch (0 = off),\n"
         "      --breaker-deaths D stops retrying after D worker deaths\n"
         "      in one batch (default 8, 0 = off) and\n"
         "      --fallback-inprocess then runs the remaining jobs\n"
         "      in-process instead of failing them; retry/deadline/\n"
         "      quarantine counters appear in the summary when non-zero;\n"
         "      --chaos crash:N|hang:N:MS|garbage:N|slow:N:MS|exit-mid:N|\n"
         "      poison:I|rand:SEED:PERMILLE injects deterministic worker\n"
         "      misbehaviour (test hook; also via EDS_WORKER_CHAOS);\n"
         "      --model async runs the event-driven asynchronous engine\n"
         "      (the flags from --delay to --adversary need it):\n"
         "      --delay fixed:T|uniform:LO:HI|geometric:MEAN[:CAP] is the\n"
         "      per-link delay model, the α-synchronizer (--synchronizer,\n"
         "      default on) makes results bit-identical to --model sync,\n"
         "      and with --synchronizer off (the default once any fault is\n"
         "      requested) --loss P / --dup P / --crash K inject message\n"
         "      loss, duplication and K crashed nodes per instance while\n"
         "      --timeout T bounds how long a round waits (0 = auto);\n"
         "      rows gain \"model\"/\"consistent\" fields, degradation is\n"
         "      reported, not fatal; async runs cross the --shards wire\n"
         "      (schema 2 carries the async options) but --adversary does\n"
         "      not — schedules are an in-process search artifact;\n"
         "      --adversary STRATEGY searches --budget N schedules per\n"
         "      instance for worst-case behaviour (random = seed-random\n"
         "      baseline, pct = random-priority change points, delay =\n"
         "      bounded delay-matrix perturbation, climb = greedy\n"
         "      hill-climb), requires --model async with the synchronizer\n"
         "      off, shrinks each instance's worst schedule to a minimal\n"
         "      reproducer, and with --replay-out DIR serializes it as a\n"
         "      versioned replay file; `sweep --replay FILE` re-executes a\n"
         "      replay file bit-identically (transcript, fault log and\n"
         "      outputs) and verifies its recorded metrics\n"
         "  lower-bound <d>\n"
         "      emits the Theorem 1 (even d) / Theorem 2 (odd d) adversarial\n"
         "      instance in port-graph format, with its optimum\n"
         "  run-portgraph --algorithm A [--param P] [--threads N]\n"
         "      reads a port graph (multigraphs allowed) from stdin and\n"
         "      prints each node's output port set\n"
         "  views [--radius T]\n"
         "      reads a port graph and prints view equivalence classes\n"
         "  table1\n"
         "      prints Table 1 measured: the d-regular rows and the\n"
         "      bounded-degree rows, d, Delta = 1..10, each on its lower-bound\n"
         "      instance and on random instances with exact optima; exits 1\n"
         "      unless every row meets its bound exactly (random worst <=\n"
         "      bound), every solution is feasible and every run takes its\n"
         "      schedule's rounds\n"
         "  help\n";
}

/// The binary to fork as `<bin> worker` for --shards: an explicit
/// --worker-bin wins, then the EDSIM_BIN environment variable (how tests
/// point an in-process run_cli at the real edsim), then this executable
/// itself.  Empty when nothing resolves — the caller must fail loudly
/// rather than guess from PATH, because a different-version `edsim`
/// would silently break the byte-identical contract between backends.
std::string worker_binary(const Args& args) {
  if (args.has("worker-bin")) return args.get("worker-bin");
  if (const char* env = std::getenv("EDSIM_BIN")) {
    if (*env != '\0') return env;
  }
#if defined(__linux__)
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (n > 0) return std::string(self, static_cast<std::size_t>(n));
#endif
  return "";
}

int cmd_generate(const Args& args, std::ostream& out, std::ostream& err) {
  const auto& pos = args.positional();
  if (pos.size() < 2) {
    err << "generate: missing family\n";
    return 2;
  }
  Rng rng(args.number<std::uint64_t>("seed", 1));
  const auto& family = pos[1];
  auto num = [&pos, &err](std::size_t index) -> std::optional<std::size_t> {
    if (index >= pos.size()) {
      err << "generate: missing numeric argument\n";
      return std::nullopt;
    }
    return parse_number<std::size_t>(pos[index],
                                     "argument " + std::to_string(index));
  };

  graph::SimpleGraph g;
  try {
    if (family == "cycle") {
      const auto n = num(2);
      if (!n) return 2;
      g = graph::cycle(*n);
    } else if (family == "path") {
      const auto n = num(2);
      if (!n) return 2;
      g = graph::path(*n);
    } else if (family == "complete") {
      const auto n = num(2);
      if (!n) return 2;
      g = graph::complete(*n);
    } else if (family == "regular") {
      const auto n = num(2);
      const auto d = num(3);
      if (!n || !d) return 2;
      g = graph::random_regular(*n, *d, rng);
    } else if (family == "grid") {
      const auto r = num(2);
      const auto c = num(3);
      if (!r || !c) return 2;
      g = graph::grid(*r, *c);
    } else if (family == "torus") {
      const auto r = num(2);
      const auto c = num(3);
      if (!r || !c) return 2;
      g = graph::torus(*r, *c);
    } else if (family == "hypercube") {
      const auto dim = num(2);
      if (!dim) return 2;
      g = graph::hypercube(*dim);
    } else if (family == "petersen") {
      g = graph::petersen();
    } else if (family == "tree") {
      const auto n = num(2);
      if (!n) return 2;
      g = graph::random_tree(*n, rng);
    } else if (family == "bounded") {
      const auto n = num(2);
      const auto delta = num(3);
      const auto m = num(4);
      if (!n || !delta || !m) return 2;
      g = graph::random_bounded_degree(*n, *delta, *m, rng);
    } else {
      err << "generate: unknown family '" << family << "'\n";
      return 2;
    }
  } catch (const Error& e) {
    err << "generate: " << e.what() << '\n';
    return 1;
  }
  graph::write_edge_list(out, g);
  return 0;
}

int cmd_solve(const Args& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  graph::SimpleGraph g;
  try {
    g = graph::read_edge_list(in);
  } catch (const Error& e) {
    err << "solve: cannot read graph: " << e.what() << '\n';
    return 1;
  }

  Rng rng(args.number<std::uint64_t>("seed", 1));
  const auto ports_kind = args.get("ports", "random");
  std::optional<port::PortedGraph> pg;
  try {
    if (ports_kind == "random") {
      pg.emplace(port::with_random_ports(g, rng));
    } else if (ports_kind == "canonical") {
      pg.emplace(port::with_canonical_ports(g));
    } else if (ports_kind == "factor") {
      pg.emplace(factor::with_factor_ports(g));
    } else {
      err << "solve: unknown port strategy '" << ports_kind << "'\n";
      return 2;
    }
  } catch (const Error& e) {
    err << "solve: cannot number ports: " << e.what() << '\n';
    return 1;
  }

  algo::Algorithm algorithm;
  port::Port param = 0;
  const auto algo_name = args.get("algorithm", "auto");
  if (algo_name == "auto") {
    const auto rec = algo::recommended_for(g);
    algorithm = rec.algorithm;
    param = rec.param;
  } else {
    const auto parsed = algo::algorithm_from_token(algo_name);
    if (!parsed) {
      err << "solve: unknown algorithm '" << algo_name << "'\n";
      return 2;
    }
    algorithm = *parsed;
    param = args.number<port::Port>("param", 0);
  }

  runtime::ExecOptions exec;
  exec.threads = args.number<unsigned>("threads", 1);

  try {
    const auto outcome = algo::run_algorithm(*pg, algorithm, param, exec);
    out << "graph: " << g.summary() << '\n';
    out << "algorithm: " << algo::algorithm_name(algorithm) << '\n';
    out << "rounds: " << outcome.stats.rounds
        << "  messages: " << outcome.stats.messages_sent << '\n';
    out << "solution: " << outcome.solution.size() << " edges\n";
    for (const auto e : outcome.solution.to_vector()) {
      out << "  " << g.edge(e).u << ' ' << g.edge(e).v << '\n';
    }
    const bool feasible = analysis::is_edge_dominating_set(g, outcome.solution);
    out << "edge-dominating: " << (feasible ? "yes" : "NO") << '\n';
    if (args.has("exact")) {
      const auto optimum = exact::minimum_eds_size(g);
      out << "optimum: " << optimum << '\n';
      if (optimum > 0) {
        out << "ratio: "
            << analysis::approximation_ratio(outcome.solution.size(), optimum)
            << '\n';
      }
    }
    if (args.has("dot")) {
      graph::write_dot(out, g, &outcome.solution, "solution");
    }
    return feasible ? 0 : 1;
  } catch (const Error& e) {
    err << "solve: " << e.what() << '\n';
    return 1;
  }
}

int cmd_lower_bound(const Args& args, std::ostream& out, std::ostream& err) {
  const auto& pos = args.positional();
  if (pos.size() < 2) {
    err << "lower-bound: missing degree\n";
    return 2;
  }
  const auto d = parse_number<port::Port>(pos[1], "degree");
  if (d < 2) {
    err << "lower-bound: need degree >= 2 (Theorems 1 and 2), got " << d
        << '\n';
    return 2;
  }
  try {
    const auto inst =
        d % 2 == 0 ? lb::even_lower_bound(d) : lb::odd_lower_bound(d);
    out << "# Theorem " << (d % 2 == 0 ? 1 : 2) << " construction, d = " << d
        << '\n';
    out << "# optimum " << inst.optimal.size() << ", forced ratio "
        << inst.forced_ratio << '\n';
    port::write_port_graph(out, inst.ported.ports());
    return 0;
  } catch (const Error& e) {
    err << "lower-bound: " << e.what() << '\n';
    return 1;
  }
}

int cmd_run_portgraph(const Args& args, std::istream& in, std::ostream& out,
                      std::ostream& err) {
  const auto algorithm = algo::algorithm_from_token(args.get("algorithm", ""));
  if (!algorithm) {
    err << "run-portgraph: --algorithm required (see 'edsim help')\n";
    return 2;
  }
  try {
    const auto g = port::read_port_graph(in);
    auto job = algo::make_job(
        g, *algorithm, args.number<port::Port>("param", 0), nullptr);
    auto& options = job.batch.options;
    options.collect_messages = args.has("trace");
    options.exec.threads = args.number<unsigned>("threads", 1);
    const auto result = runtime::run_synchronous(g, *job.factory, options);
    const auto selected = runtime::validated_selection_size(g, result);
    if (args.has("trace")) out << runtime::format_transcript(result);
    out << "nodes: " << g.num_nodes() << "  rounds: " << result.stats.rounds
        << "  selected edges: " << selected << '\n';
    for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
      out << v << ':';
      for (const auto p : result.outputs[v]) out << ' ' << p;
      out << '\n';
    }
    return 0;
  } catch (const Error& e) {
    err << "run-portgraph: " << e.what() << '\n';
    return 1;
  }
}

/// `sweep --replay FILE`: re-executes a serialized adversarial schedule
/// bit-identically and verifies the recorded metrics.  Everything printed
/// is a pure function of the file contents — independent of --threads and
/// of the sweep flags, which are ignored on purpose (the file *is* the
/// configuration).  Exit 2 on a bad file (unreadable, schema mismatch,
/// malformed records, unknown algorithm), exit 1 when the rerun drifts
/// from the recorded metrics — the determinism alarm.
int cmd_sweep_replay(const Args& args, std::ostream& out, std::ostream& err) {
  const auto path = args.get("replay");
  if (path.empty()) {
    err << "sweep: --replay needs a file path\n";
    return 2;
  }
  std::ifstream file(path);
  if (!file) {
    err << "sweep: cannot open replay file '" << path << "'\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  runtime::ReplayFile replay;
  try {
    replay = runtime::decode_replay(buffer.str());
  } catch (const Error& e) {
    err << "sweep: " << e.what() << '\n';
    return 2;
  }
  const auto algorithm = algo::algorithm_from_token(replay.algorithm);
  if (!algorithm) {
    err << "sweep: replay file names unknown algorithm '" << replay.algorithm
        << "'\n";
    return 2;
  }
  port::PortGraph g;
  try {
    g = port::from_port_graph_string(replay.graph_text);
  } catch (const Error& e) {
    err << "sweep: replay graph: " << e.what() << '\n';
    return 2;
  }
  // The recorded run's recipe, so its round budget too.
  auto job = algo::make_job(g, *algorithm,
                            static_cast<port::Port>(replay.param), nullptr);
  job.batch.options.collect_messages = true;
  runtime::AsyncResult result;
  try {
    result = runtime::run_asynchronous(g, *job.factory, job.batch.options,
                                       replay.options);
  } catch (const Error& e) {
    err << "sweep: replay run failed: " << e.what() << '\n';
    return 1;
  }
  const auto metrics = runtime::measure_schedule(g, result);
  out << "replay: schema=" << runtime::kReplaySchemaVersion
      << " strategy=" << replay.strategy << " algorithm=" << replay.algorithm
      << " param=" << replay.param << " nodes=" << g.num_nodes()
      << " synchronizer=" << (replay.options.synchronizer ? "on" : "off")
      << '\n';
  out << "metrics: rounds=" << metrics.rounds
      << " time=" << metrics.virtual_time << " selected=" << metrics.selected
      << " inconsistent=" << metrics.inconsistent << '\n';
  bool drift = false;
  for (const auto& [name, value] : replay.metrics) {
    const auto metric = runtime::metric_from_token(name);
    if (!metric) {
      err << "sweep: replay file records unknown metric '" << name << "'\n";
      return 2;
    }
    const auto measured = runtime::metric_value(metrics, *metric);
    const bool match = measured == value;
    drift = drift || !match;
    out << "recorded: " << name << '=' << value
        << (match ? " reproduced" : " DRIFT") << '\n';
  }
  out << "--- transcript ---\n" << runtime::format_transcript(result.run);
  out << "--- fault log ---\n"
      << runtime::format_fault_log(result.fault_log);
  out << "outputs:\n";
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    out << v << ':';
    for (const auto p : result.run.outputs[v]) out << ' ' << p;
    out << '\n';
  }
  if (drift) {
    err << "sweep: replay drifted from its recorded metrics (determinism "
           "regression or a hand-edited file)\n";
    return 1;
  }
  return 0;
}

/// The simple graph of `family` at requested size `n`; nullopt for a family
/// `sweep` does not know.  Seeded families draw from `rng`.
std::optional<graph::SimpleGraph> family_graph(const std::string& family,
                                               std::size_t n, std::size_t d,
                                               Rng& rng) {
  // grid/torus round n to a square side; n stays the *requested* size.
  const auto side = [n](std::size_t at_least) {
    return std::max<std::size_t>(
        at_least, static_cast<std::size_t>(
                      std::lround(std::sqrt(static_cast<double>(n)))));
  };
  if (family == "path") return graph::path(n);
  if (family == "cycle") return graph::cycle(n);
  if (family == "regular") return graph::random_regular(n, d, rng);
  if (family == "grid") return graph::grid(side(2), side(2));
  if (family == "torus") return graph::torus(side(3), side(3));
  // A 2-leg caterpillar: spine of n/3 nodes, ~n nodes total — the
  // worklist's favourite long-tail shape (leaves halt early).
  if (family == "caterpillar") {
    return graph::caterpillar(std::max<std::size_t>(1, n / 3), 2);
  }
  if (family == "powerlaw") return graph::random_power_law(n, 2.5, rng);
  return std::nullopt;
}

/// One sweep instance and the job its --repeat runs copy.
struct SweepInstance {
  /// `portgraph` instances are multigraphs (loops, parallel edges) with no
  /// simple graph; every other family is a simple graph with random ports.
  std::variant<port::PortGraph, port::PortedGraph> graph;
  std::size_t n = 0;  ///< the requested size, the row's label
  algo::Algorithm algorithm = algo::Algorithm::kBoundedDegree;
  algo::Job job = {};

  /// Null for a `portgraph` instance.
  [[nodiscard]] const port::PortedGraph* simple() const {
    return std::get_if<port::PortedGraph>(&graph);
  }
  [[nodiscard]] const port::PortGraph& ports() const {
    const auto* pg = simple();
    return pg != nullptr ? pg->ports() : std::get<port::PortGraph>(graph);
  }
};

int cmd_sweep(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.has("replay")) return cmd_sweep_replay(args, out, err);
  const auto& pos = args.positional();
  if (pos.size() < 2) {
    err << "sweep: missing family (path|cycle|regular|grid|torus|"
           "caterpillar|powerlaw|portgraph)\n";
    return 2;
  }
  const auto& family = pos[1];
  const bool portgraph = family == "portgraph";
  const auto min_n = args.number<std::size_t>("min", 8);
  const auto max_n = args.number<std::size_t>("max", 128);
  const auto step = args.number<std::size_t>("step", 0);
  const auto d = args.number<std::size_t>("d", 3);
  const auto threads = args.number<unsigned>("threads", 0);
  const auto repeat = args.number<std::size_t>("repeat", 1);
  const auto seed = args.number<std::uint64_t>("seed", 1);
  const auto param = args.number<port::Port>("param", 0);
  const bool ndjson = args.has("ndjson");
  if (min_n == 0 || max_n < min_n) {
    err << "sweep: need 0 < --min <= --max\n";
    return 2;
  }
  if (repeat == 0) {
    err << "sweep: need --repeat >= 1\n";
    return 2;
  }

  // --model async swaps the round engine for the event-driven asynchronous
  // engine (runtime/async.hpp).  All validation happens here so misuse is
  // a clean exit 2, not a mid-sweep throw; run_cli's flag rules already
  // rejected the async-only flags under --model sync.
  const auto model = args.get("model", "sync");
  if (model != "sync" && model != "async") {
    err << "sweep: unknown --model '" << model << "' (sync|async)\n";
    return 2;
  }
  const bool async_model = model == "async";
  runtime::AsyncOptions async_base;
  double loss = 0.0;
  double dup = 0.0;
  std::size_t crash_k = 0;
  std::optional<runtime::AdversaryStrategy> adversary;
  std::size_t budget = 0;
  const auto replay_out = args.get("replay-out", "");
  if (async_model) {
    try {
      async_base.delay =
          runtime::parse_delay_model(args.get("delay", "fixed:1"));
    } catch (const Error& e) {
      err << "sweep: " << e.what() << '\n';
      return 2;
    }
    const auto parsed_loss = runtime::parse_probability(args.get("loss", "0"));
    const auto parsed_dup = runtime::parse_probability(args.get("dup", "0"));
    if (!parsed_loss || !parsed_dup) {
      err << "sweep: --loss/--dup must be numbers in [0, 1]\n";
      return 2;
    }
    loss = *parsed_loss;
    dup = *parsed_dup;
    crash_k = args.number<std::size_t>("crash", 0);
    async_base.round_timeout = args.number<std::uint64_t>("timeout", 0);
    if (args.has("adversary")) {
      adversary = runtime::adversary_from_token(args.get("adversary"));
      if (!adversary) {
        err << "sweep: unknown --adversary '" << args.get("adversary")
            << "' (random|pct|delay|climb)\n";
        return 2;
      }
      budget = args.number<std::size_t>("budget", 32);
      if (budget == 0) {
        err << "sweep: need --budget >= 1\n";
        return 2;
      }
    }
    const bool have_faults = loss > 0.0 || dup > 0.0 || crash_k > 0;
    // An adversary search implies free-running mode: the α-synchronizer is
    // schedule-oblivious by construction, so defaulting it off is the only
    // sensible reading, and asking for it explicitly is a user error.
    const auto sync_flag = args.get(
        "synchronizer", (have_faults || adversary) ? "off" : "on");
    if (sync_flag != "on" && sync_flag != "off") {
      err << "sweep: --synchronizer takes on|off\n";
      return 2;
    }
    async_base.synchronizer = sync_flag == "on";
    if (async_base.synchronizer && adversary) {
      err << "sweep: --adversary cannot attack the α-synchronizer (its "
             "outputs are schedule-independent by construction); drop "
             "--synchronizer on\n";
      return 2;
    }
    if (async_base.synchronizer && have_faults) {
      err << "sweep: the α-synchronizer requires a fault-free network; "
             "drop --loss/--dup/--crash or pass --synchronizer off\n";
      return 2;
    }
  }

  // --shards N swaps the in-process pool for `edsim worker` subprocesses;
  // everything downstream (row printing, summary, exit code) is backend
  // agnostic, which is what makes the outputs byte-identical.  Since
  // schema 2 async jobs cross the wire too; adversarial searches stay
  // in-process (their schedules are a search artifact, not wire payload).
  std::unique_ptr<runtime::ProcessShardExecutor> shard_exec;
  if (args.has("shards")) {
    if (adversary) {
      err << "sweep: --adversary cannot run under --shards (adversarial "
             "schedules do not cross the wire); drop one of the two\n";
      return 2;
    }
    const auto bin = worker_binary(args);
    if (bin.empty()) {
      err << "sweep: cannot resolve the edsim binary for --shards "
             "(pass --worker-bin PATH or set EDSIM_BIN)\n";
      return 2;
    }
    runtime::ProcessShardExecutor::Options pool_options;
    pool_options.max_retries = args.number<unsigned>("retries", 2);
    pool_options.job_timeout_ms =
        args.number<std::uint64_t>("job-timeout-ms", 0);
    pool_options.batch_timeout_ms =
        args.number<std::uint64_t>("batch-timeout-ms", 0);
    pool_options.breaker_deaths =
        args.number<std::uint64_t>("breaker-deaths", 8);
    pool_options.fallback_inprocess = args.has("fallback-inprocess");
    std::vector<std::string> worker_command{bin, "worker"};
    if (args.has("chaos")) {
      const auto spec = args.get("chaos");
      try {
        (void)runtime::parse_chaos_spec(spec);  // reject bad specs up front
      } catch (const Error& e) {
        err << "sweep: " << e.what() << '\n';
        return 2;
      }
      worker_command.push_back("--chaos");
      worker_command.push_back(spec);
    }
    try {
      shard_exec = std::make_unique<runtime::ProcessShardExecutor>(
          std::move(worker_command), args.number<unsigned>("shards", 0),
          pool_options);
    } catch (const Error& e) {
      err << "sweep: " << e.what() << '\n';
      return 2;
    }
  }

  // Sizes: doubling from --min by default, arithmetic with --step S.
  std::vector<std::size_t> sizes;
  for (std::size_t n = min_n;;) {
    sizes.push_back(n);
    const std::size_t next = step == 0 ? n * 2 : n + step;
    if (next <= n || next > max_n) break;
    n = next;
  }

  const auto algo_name = args.get("algorithm", "auto");
  std::optional<algo::Algorithm> fixed;
  if (algo_name != "auto") {
    fixed = algo::algorithm_from_token(algo_name);
    if (!fixed) {
      err << "sweep: unknown algorithm '" << algo_name << "'\n";
      return 2;
    }
  }
  Rng rng(seed);

  // Every job in the sweep shares one plan cache, so --repeat compiles one
  // ExecutionPlan per instance regardless of R; the summary counters below
  // make the reuse visible (and assertable from tests).
  // `all_feasible` is only emitted when the sweep actually verifies edge
  // domination (sync runs on simple graphs); multigraph rows check output
  // well-formedness and async rows report degradation as data, so they
  // omit the field rather than hardcode a claim nobody computed.
  // Under --shards the parent-side cache is idle; the workers' per-shard
  // caches report their counters through the wire summaries instead, and
  // routing each graph's jobs to one worker keeps the aggregated numbers
  // identical to the single-cache run.
  runtime::PlanCache plan_cache;
  const auto summarize = [&](std::size_t jobs,
                             std::optional<bool> all_feasible) {
    std::uint64_t compiled = 0;
    std::uint64_t hits = 0;
    runtime::ProcessShardExecutor::Stats shard_stats;
    if (shard_exec != nullptr) {
      shard_stats = shard_exec->stats();
      // Jobs the resilience layer rerouted in-process compiled against the
      // parent-side cache; add its counters so degraded runs still account
      // for every plan.  A clean sharded run adds zeros.
      const auto parent = plan_cache.stats();
      compiled = shard_stats.plans_compiled + parent.misses;
      hits = shard_stats.plan_hits + parent.hits;
    } else {
      const auto stats = plan_cache.stats();
      compiled = stats.misses;
      hits = stats.hits;
    }
    // Emitted only when something degraded, so a clean run's summary stays
    // byte-identical across backends.
    const bool degraded =
        shard_stats.jobs_retried != 0 || shard_stats.jobs_poisoned != 0 ||
        shard_stats.deadline_kills != 0 || shard_stats.batch_timeouts != 0 ||
        shard_stats.workers_respawned != 0 ||
        shard_stats.pool_quarantines != 0 ||
        shard_stats.fallback_jobs != 0 || shard_stats.summaries_lost != 0;
    if (ndjson) {
      out << "{\"schema\":" << runtime::kWireSchemaVersion
          << ",\"summary\":{\"jobs\":" << jobs
          << ",\"plans_compiled\":" << compiled
          << ",\"plan_hits\":" << hits;
      if (degraded) {
        out << ",\"jobs_retried\":" << shard_stats.jobs_retried
            << ",\"jobs_poisoned\":" << shard_stats.jobs_poisoned
            << ",\"deadline_kills\":" << shard_stats.deadline_kills
            << ",\"batch_timeouts\":" << shard_stats.batch_timeouts
            << ",\"workers_respawned\":" << shard_stats.workers_respawned
            << ",\"pool_quarantines\":" << shard_stats.pool_quarantines
            << ",\"fallback_jobs\":" << shard_stats.fallback_jobs
            << ",\"summaries_lost\":" << shard_stats.summaries_lost;
      }
      if (all_feasible.has_value()) {
        out << ",\"all_feasible\":" << (*all_feasible ? "true" : "false");
      }
      if (async_model) {
        out << ",\"model\":\"async\",\"delay\":\""
            << runtime::format_delay_model(async_base.delay)
            << "\",\"loss\":" << loss << ",\"dup\":" << dup
            << ",\"crash\":" << crash_k << ",\"synchronizer\":"
            << (async_base.synchronizer ? "true" : "false")
            << ",\"timeout\":" << async_base.round_timeout;
        if (adversary) {
          out << ",\"adversary\":\"" << runtime::adversary_token(*adversary)
              << "\",\"budget\":" << budget;
        }
      }
      out << "}}\n";
    } else {
      if (async_model) {
        out << "model: async delay="
            << runtime::format_delay_model(async_base.delay)
            << " loss=" << loss << " dup=" << dup << " crash=" << crash_k
            << " synchronizer=" << (async_base.synchronizer ? "on" : "off")
            << " timeout=" << async_base.round_timeout << '\n';
        if (adversary) {
          out << "adversary: strategy="
              << runtime::adversary_token(*adversary) << " budget=" << budget
              << '\n';
        }
      }
      out << "plan-cache: compiled=" << compiled
          << " hits=" << hits << '\n';
      if (degraded) {
        out << "resilience: retried=" << shard_stats.jobs_retried
            << " poisoned=" << shard_stats.jobs_poisoned
            << " deadline-kills=" << shard_stats.deadline_kills
            << " batch-timeouts=" << shard_stats.batch_timeouts
            << " respawned=" << shard_stats.workers_respawned
            << " quarantines=" << shard_stats.pool_quarantines
            << " fallback-jobs=" << shard_stats.fallback_jobs
            << " summaries-lost=" << shard_stats.summaries_lost << '\n';
        // A lost summary is a worker that died before reporting its
        // counters: the plan-cache line above under-counts that worker's
        // compiles/hits (the wire only carries counters in the summary a
        // worker writes at exit), which this counter makes attributable.
      }
    }
  };

  // Per-job async configuration, derived at job-construction time so the
  // result is independent of scheduling: every (instance, repeat) pair gets
  // its own delay-matrix/fault seed, and the crash schedule is drawn for
  // the instance's node count over a horizon scaled to the delay bound.
  const auto async_for_job = [&](std::size_t job_index,
                                 std::size_t num_nodes) {
    runtime::AsyncOptions a = async_base;
    std::uint64_t state = seed ^ (0xA51DC0DEULL + job_index);
    a.seed = splitmix64(state);
    a.faults.loss = loss;
    a.faults.duplicate = dup;
    if (crash_k > 0) {
      const std::uint64_t horizon = 32 * a.delay.max_delay();
      a.faults.crashes = runtime::make_fault_plan(0, 0, crash_k, num_nodes,
                                                  horizon, splitmix64(state))
                             .crashes;
    }
    return a;
  };

  // One adversary search per (instance, repeat): run the strategy for
  // --budget probes, shrink the headline witness to a minimal reproducer,
  // optionally serialize it under --replay-out, and print one row.  The
  // loop is sequential on purpose — the report is a pure function of
  // (instance, seed, budget), so --threads cannot change a single byte.
  std::size_t adversary_jobs = 0;
  const auto adversary_row = [&](const SweepInstance& inst,
                                 std::optional<std::size_t> optimum,
                                 TextTable& table) -> int {
    const auto& ports = inst.ports();
    const auto& spec = *inst.job.batch.spec;
    const auto& algo_token = spec.algorithm;
    const std::size_t job_index = adversary_jobs++;
    const auto base = async_for_job(job_index, ports.num_nodes());
    std::uint64_t state = seed ^ (0xBADC0FFEULL + job_index);
    const auto search_seed = splitmix64(state);
    const auto& run_opts = inst.job.batch.options;
    const auto report = runtime::adversary_search(
        ports, *inst.job.factory, *adversary, base, budget, search_seed,
        run_opts);
    const auto metric = report.primary_metric();
    const auto shrunk = runtime::shrink_witness(
        ports, *inst.job.factory, report.primary(), metric, run_opts);
    std::optional<Fraction> ratio;
    if (optimum.has_value() && *optimum > 0) {
      ratio = analysis::approximation_ratio(
          static_cast<std::size_t>(report.worst_selected.metrics.selected),
          *optimum);
    }
    std::string replay_path;
    if (!replay_out.empty()) {
      runtime::ReplayFile file;
      file.strategy = runtime::adversary_token(*adversary);
      file.algorithm = algo_token;
      file.param = spec.param;
      file.options = shrunk.options;
      file.metrics = {
          {"rounds", shrunk.metrics.rounds},
          {"time", shrunk.metrics.virtual_time},
          {"selected", shrunk.metrics.selected},
          {"inconsistent", shrunk.metrics.inconsistent},
      };
      file.graph_text = port::to_port_graph_string(ports);
      replay_path = replay_out + "/worst-" + family + "-" +
                    std::to_string(job_index) + ".edsched";
      std::ofstream sink(replay_path);
      sink << runtime::encode_replay(file);
      if (!sink) {
        err << "sweep: cannot write replay file '" << replay_path << "'\n";
        return 2;
      }
    }
    if (ndjson) {
      out << "{\"schema\":" << runtime::kWireSchemaVersion
          << ",\"index\":" << job_index << ",\"family\":\"" << family << '"'
          << ",\"n\":" << inst.n << ",\"algorithm\":\"" << algo_token << '"'
          << ",\"adversary\":\"" << runtime::adversary_token(*adversary)
          << "\",\"budget\":" << budget
          << ",\"evaluated\":" << report.evaluated
          << ",\"failures\":" << report.failures
          << ",\"worst_rounds\":" << report.worst_rounds.metrics.rounds
          << ",\"worst_time\":" << report.worst_time.metrics.virtual_time
          << ",\"worst_selected\":" << report.worst_selected.metrics.selected
          << ",\"worst_inconsistent\":"
          << report.worst_inconsistent.metrics.inconsistent
          << ",\"primary\":\"" << runtime::metric_token(metric)
          << "\",\"shrunk_changes\":"
          << shrunk.options.schedule.change_points.size()
          << ",\"shrunk_overrides\":"
          << shrunk.options.schedule.delay_overrides.size();
      if (optimum.has_value()) out << ",\"optimum\":" << *optimum;
      if (ratio.has_value()) out << ",\"worst_ratio\":\"" << *ratio << '"';
      if (!replay_path.empty()) out << ",\"replay\":\"" << replay_path << '"';
      out << "}\n";
      out.flush();
    } else {
      std::ostringstream ratio_text;
      if (ratio.has_value()) ratio_text << *ratio;
      table.row({std::to_string(inst.n), std::to_string(report.evaluated),
                 std::to_string(report.failures),
                 std::to_string(report.worst_rounds.metrics.rounds),
                 std::to_string(report.worst_time.metrics.virtual_time),
                 std::to_string(report.worst_selected.metrics.selected),
                 std::to_string(report.worst_inconsistent.metrics.inconsistent),
                 ratio.has_value() ? ratio_text.str() : "-"});
    }
    return 0;
  };

  try {
    // Generate: sequentially, in size order — the shared RNG stream is the
    // determinism contract.
    std::vector<SweepInstance> instances;
    instances.reserve(sizes.size());
    for (const auto n : sizes) {
      if (portgraph) {
        const std::vector<port::Port> degrees(n, static_cast<port::Port>(d));
        instances.push_back({port::random_port_graph(degrees, rng), n});
        continue;
      }
      auto g = family_graph(family, n, d, rng);
      if (!g) {
        err << "sweep: unknown family '" << family << "'\n";
        return 2;
      }
      instances.push_back({port::with_random_ports(std::move(*g), rng), n});
    }

    const auto print_header = [&] {
      if (ndjson) return;
      out << "sweep: family=" << family;
      if (portgraph) {
        out << " d=" << d << " algorithm="
            << algo::algorithm_name(
                   fixed.value_or(algo::Algorithm::kBoundedDegree));
      } else {
        out << " algorithm=" << algo_name;
      }
      if (adversary) {
        out << " adversary=" << runtime::adversary_token(*adversary)
            << " budget=" << budget;
      } else {
        out << " jobs=" << instances.size() * repeat;
      }
      out << '\n';
    };

    // Resolve.  A sync sweep prints its header first, so a graph the
    // fixed algorithm rejects still leaves it on stdout.
    if (!async_model) print_header();
    for (auto& inst : instances) {
      port::Port wanted = param;
      if (const auto* pg = inst.simple(); pg != nullptr && !fixed) {
        const auto rec = algo::recommended_for(pg->graph());
        inst.algorithm = rec.algorithm;
        wanted = rec.param;
      } else {
        // Multigraphs have no Table 1 row: `auto` means A(∆).
        inst.algorithm = fixed.value_or(algo::Algorithm::kBoundedDegree);
      }
      // One job per instance, copied for its --repeat jobs: they share the
      // instance's graph, so its plan, and under --shards its worker.
      inst.job =
          algo::make_job(inst.ports(), inst.algorithm, wanted, &plan_cache);
    }
    if (async_model) print_header();

    if (adversary) {
      TextTable table("");
      table.header({"n", "evaluated", "failures", "rounds", "time",
                    "selected", "inconsistent", "ratio"});
      for (const auto& inst : instances) {
        // The exact solver is exponential in m and needs a simple graph;
        // only small instances get the optimum/ratio columns.
        std::optional<std::size_t> optimum;
        if (const auto* pg = inst.simple();
            pg != nullptr && pg->graph().num_edges() <= 24) {
          optimum = exact::minimum_eds_size(pg->graph());
        }
        for (std::size_t r = 0; r < repeat; ++r) {
          if (const int rc = adversary_row(inst, optimum, table); rc != 0) {
            return rc;
          }
        }
      }
      if (!ndjson) table.print(out);
      summarize(adversary_jobs, std::nullopt);
      return 0;
    }

    std::vector<runtime::BatchJob> jobs;
    jobs.reserve(instances.size() * repeat);
    for (const auto& inst : instances) {
      for (std::size_t r = 0; r < repeat; ++r) {
        auto job = inst.job.batch;
        if (async_model) {
          job.options.exec.async =
              async_for_job(jobs.size(), inst.ports().num_nodes());
        }
        jobs.push_back(std::move(job));
      }
    }
    const runtime::BatchRunner runner =
        shard_exec != nullptr ? runtime::BatchRunner(shard_exec.get())
                              : runtime::BatchRunner(threads);

    TextTable table("");
    if (portgraph) {
      table.header({"n", "ports", "rounds", "messages", "selected"});
    } else {
      table.header({"n", "edges", "algorithm", "rounds", "messages", "|D|",
                    async_model ? "ok" : "feasible"});
    }
    // Only sync runs on simple graphs verify edge domination and fail the
    // sweep on an infeasible row; async degradation is data, not failure.
    const bool verifies = !async_model && !portgraph;
    bool all_feasible = true;
    // Rows arrive in job order as their prefix completes; NDJSON mode
    // prints (and flushes) each immediately.
    runner.run_streaming(jobs, [&](std::size_t i,
                                   runtime::RunResult&& result) {
      const auto& inst = instances[i / repeat];
      const auto* pg = inst.simple();
      // Under faults a one-sided selection is a measured outcome, so the
      // async model tolerates it; a sync one throws here.
      std::optional<std::size_t> selected;
      std::optional<bool> feasible;
      if (async_model) {
        selected = runtime::consistent_selection_size(inst.ports(), result);
      } else if (pg == nullptr) {
        selected = runtime::validated_selection_size(inst.ports(), result);
      }
      if (pg != nullptr && (selected || !async_model)) {
        const auto solution = runtime::validated_edge_set(*pg, result);
        selected = solution.size();
        feasible = analysis::is_edge_dominating_set(pg->graph(), solution);
        if (verifies) all_feasible = all_feasible && *feasible;
      }
      if (ndjson) {
        out << "{\"schema\":" << runtime::kWireSchemaVersion
            << ",\"index\":" << i << ",\"family\":\"" << family << '"'
            << ",\"n\":" << inst.n;
        if (pg == nullptr) {
          out << ",\"ports\":" << inst.ports().num_ports();
        } else {
          out << ",\"nodes\":" << pg->graph().num_nodes()
              << ",\"edges\":" << pg->graph().num_edges()
              << ",\"algorithm\":\"" << algo::algorithm_name(inst.algorithm)
              << '"';
        }
        if (async_model) {
          out << ",\"model\":\"async\",\"consistent\":"
              << (selected.has_value() ? "true" : "false");
        }
        out << ",\"rounds\":" << result.stats.rounds
            << ",\"messages\":" << result.stats.messages_sent;
        if (feasible.has_value()) {
          out << ",\"solution\":" << *selected
              << ",\"feasible\":" << (*feasible ? "true" : "false");
        } else if (selected.has_value()) {
          out << ",\"selected\":" << *selected;
        }
        out << "}\n";
        out.flush();
        return;
      }
      const auto size_text = selected.has_value() ? std::to_string(*selected)
                             : pg == nullptr      ? "inconsistent"
                                                  : "-";
      if (pg == nullptr) {
        table.row({std::to_string(inst.n),
                   std::to_string(inst.ports().num_ports()),
                   std::to_string(result.stats.rounds),
                   std::to_string(result.stats.messages_sent), size_text});
      } else {
        table.row({std::to_string(inst.n),
                   std::to_string(pg->graph().num_edges()),
                   algo::algorithm_name(inst.algorithm),
                   std::to_string(result.stats.rounds),
                   std::to_string(result.stats.messages_sent), size_text,
                   !feasible.has_value() ? "inconsistent"
                   : *feasible           ? "yes"
                                         : "NO"});
      }
    });
    if (!ndjson) table.print(out);
    summarize(jobs.size(),
              verifies ? std::optional<bool>(all_feasible) : std::nullopt);
    return all_feasible ? 0 : 1;
  } catch (const Error& e) {
    err << "sweep: " << e.what() << '\n';
    return 1;
  }
}

/// Hidden subcommand behind `edsim sweep --shards`: one shard of one
/// ProcessShardExecutor pass.  Speaks the schema-2 NDJSON protocol of
/// runtime/shard.hpp on stdin/stdout: each job line answers with one
/// result (or error) line, flushed per job so the parent can stream, all
/// under one PlanCache (the per-shard cache of the design).  Each job runs
/// on the graph of the last graph line, so every job on one graph shares
/// its PortGraph::id() and plan; a graph line swaps the graph and clears
/// the cache, whose plans no later job can hit.  At stdin EOF the worker
/// writes one worker_summary with its job and cache counters and exits 0.
///
/// A job that fails its run produces an error line and the worker carries
/// on: draining the batch is the parent's prefix-rule contract.  So does
/// every job on a graph that failed to parse, with the parse message.  A
/// job line before any graph line, and any line that is neither kind, is a
/// protocol failure: exit 2, loudly.
///
/// Chaos hooks (the deterministic misbehaviour injectors behind the
/// resilience layer's tests): `--chaos SPEC` wins, then the
/// EDS_WORKER_CHAOS environment variable — the route a test or the
/// chaos-soak CI job uses to garble a whole fleet without touching the
/// parent's command line.
int cmd_worker(const Args& args, std::istream& in, std::ostream& out,
               std::ostream& err) {
  runtime::ChaosSpec chaos;
  try {
    if (args.has("chaos")) {
      chaos = runtime::parse_chaos_spec(args.get("chaos"));
    } else if (const char* env = std::getenv("EDS_WORKER_CHAOS")) {
      chaos = runtime::parse_chaos_spec(env);
    }
  } catch (const Error& e) {
    err << "worker: " << e.what() << '\n';
    return 2;
  }

  runtime::PlanCache cache;
  std::uint64_t jobs = 0;
  // What the last graph line left: its graph, or the message its parse
  // failed with.  Both are empty before the first graph line.
  std::optional<port::PortGraph> graph;
  std::optional<std::string> graph_error;

  // Runs one job under the shared cache.  Returns 0 to keep serving, or
  // the exit code a chaos action demands.
  // Chaos actions *return* instead of _exit so the in-process run_cli
  // tests observe them exactly like a forked worker's exit status.
  const auto run_job = [&](const runtime::WireJob& job) -> int {
    const auto action = runtime::chaos_action(chaos, jobs + 1, job.index);
    if (action.mode == runtime::ChaosSpec::Mode::kPoison) {
      return 13;  // die on sight: no answer, no summary, every time
    }
    if (action.mode == runtime::ChaosSpec::Mode::kHang) {
      std::this_thread::sleep_for(std::chrono::milliseconds(action.ms));
    }
    std::string answer;
    try {
      if (!graph) throw InvalidArgument(*graph_error);
      const auto algorithm = algo::algorithm_from_token(job.algorithm);
      if (!algorithm) {
        throw InvalidArgument("worker: unknown algorithm token '" +
                              job.algorithm + "'");
      }
      const auto factory = algo::make_factory(*algorithm, job.param);
      runtime::RunOptions options;
      options.max_rounds = job.max_rounds;
      options.exec.threads = job.threads;
      options.exec.plan_cache = &cache;
      options.exec.async = job.async;
      const auto result = runtime::run_synchronous(*graph, *factory, options);
      answer = runtime::encode_wire_result(job.index, result);
    } catch (const std::exception& e) {
      // Any job failure — eds::Error or std::bad_alloc alike — becomes an
      // error line for exactly that job, matching the in-process backend's
      // catch-everything per-job semantics.
      answer = runtime::encode_wire_error(job.index, e.what());
    }
    ++jobs;
    switch (action.mode) {
      case runtime::ChaosSpec::Mode::kGarbage:
        // The real answer is swallowed; the parent reads a non-protocol
        // line, kills this worker, and retries the job elsewhere.
        out << "!! chaos garbage in place of job " << job.index << '\n';
        out.flush();
        break;
      case runtime::ChaosSpec::Mode::kSlow: {
        // One answer, two flushes: exercises the parent's partial-line
        // buffering without breaking protocol.
        const std::size_t half = answer.size() / 2;
        out << answer.substr(0, half);
        out.flush();
        std::this_thread::sleep_for(std::chrono::milliseconds(action.ms));
        out << answer.substr(half) << '\n';
        out.flush();
        break;
      }
      case runtime::ChaosSpec::Mode::kExitMid:
        // Half a frame, then death: the parent sees a truncated trailing
        // line at EOF and reports it in the retry diagnostics.
        out << answer.substr(0, answer.size() / 2);
        out.flush();
        return 11;
      default:
        out << answer << '\n';
        out.flush();
        break;
    }
    if (action.mode == runtime::ChaosSpec::Mode::kCrash) {
      return 7;  // die without a summary
    }
    return 0;
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    runtime::ParentLine parsed;
    try {
      parsed = runtime::decode_parent_line(line);
      if (std::holds_alternative<runtime::WireJob>(parsed) && !graph &&
          !graph_error) {
        throw InvalidArgument("wire: job line before any graph line");
      }
    } catch (const Error& e) {
      // A malformed line is a protocol failure, not a job failure: die
      // loudly — naming the line and a snippet of what arrived — and let
      // the parent handle this shard's unfinished jobs.
      err << "worker: malformed parent "
          << runtime::detail::describe_wire_line(line_no, line) << ": "
          << e.what() << '\n';
      return 2;
    }
    if (auto* text = std::get_if<std::string>(&parsed)) {
      // No later job can hit the old graph's plan: its id dies with it.
      graph.reset();
      cache.clear();
      graph_error.reset();
      try {
        graph = port::from_port_graph_string(*text);
      } catch (const std::exception& e) {
        graph_error = e.what();
      }
      continue;
    }
    if (const int rc = run_job(std::get<runtime::WireJob>(parsed)); rc != 0) {
      return rc;  // a chaos action fired: die as instructed
    }
  }
  const auto stats = cache.stats();
  runtime::WorkerSummary summary;
  summary.jobs = jobs;
  summary.plans_compiled = stats.misses;
  summary.plan_hits = stats.hits;
  out << runtime::encode_worker_summary(summary) << '\n';
  out.flush();
  return 0;
}

int cmd_views(const Args& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  try {
    const auto g = port::read_port_graph(in);
    const auto classes =
        args.has("radius")
            ? port::view_classes(g, args.number<std::size_t>("radius", 0))
            : port::stable_view_classes(g);
    out << "classes: " << port::num_classes(classes) << '\n';
    for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
      out << v << ": " << classes[v] << '\n';
    }
    return 0;
  } catch (const Error& e) {
    err << "views: " << e.what() << '\n';
    return 1;
  }
}

/// One row of `edsim table1`: the paper's bound, the algorithm the row
/// runs, the rounds its schedule takes, and what its runs measured.
struct Table1Row {
  bool regular = true;  // a d-regular row, else a bounded-degree one
  port::Port degree = 0;
  Fraction bound;
  algo::Algorithm algorithm = algo::Algorithm::kPortOne;
  port::Port param = 0;
  runtime::Round schedule = 0;
  Fraction lb_ratio = 0;      // on the row's lower-bound instance
  Fraction random_worst = 0;  // the worst over its random instances
  runtime::Round rounds = 0;  // of the lower-bound run
  bool feasible = true;
  bool rounds_hold = true;  // every run took exactly `schedule` rounds
};

/// One run of `edsim table1`: an instance, its optimum and its row.
struct Table1Run {
  port::PortedGraph instance;
  std::size_t optimum = 0;
  std::size_t row = 0;
  bool lower_bound = false;
};

/// The worst case of the d = 1 and ∆ = 1 rows: a perfect matching, whose
/// only edge dominating set is itself.
Table1Run matching_run(std::size_t row) {
  auto g = graph::circulant(8, {4});
  const auto optimum = exact::minimum_eds_size(g);
  return {port::with_canonical_ports(std::move(g)), optimum, row, true};
}

Table1Run lower_bound_run(lb::LowerBoundInstance inst, std::size_t row) {
  return {std::move(inst.ported), inst.optimal.size(), row, true};
}

/// Table 1 in full: the d-regular rows (Theorems 1-4) and the
/// bounded-degree rows (Corollary 1, Theorem 5), d, ∆ = 1..10.  Each row
/// runs its worst-case instance and random instances with exact optima;
/// the instances are generated in order from fixed seeds and every run
/// goes through one batch, so the output is the same for every lane count.
/// Exits 1 when a row misses its bound, is infeasible or takes other than
/// its schedule's rounds.
int cmd_table1(std::ostream& out, std::ostream& err) {
  std::vector<Table1Row> rows;
  std::vector<Table1Run> runs;
  const auto add_row = [&](bool regular, port::Port degree, Fraction bound,
                           algo::Algorithm algorithm, port::Port param) {
    rows.push_back({.regular = regular,
                    .degree = degree,
                    .bound = bound,
                    .algorithm = algorithm,
                    .param = param,
                    .schedule = algo::schedule_length(algorithm, param)});
    return rows.size() - 1;
  };

  // d-regular rows: port-one for even d, odd-regular for odd d, on the
  // Theorem 1 / 2 constructions and on 4 random graphs x 3 numberings
  // (m <= 60 edges keeps the exact solver fast).
  Rng regular_rng(20100725);  // PODC 2010's opening day
  for (port::Port d = 1; d <= 10; ++d) {
    const bool odd = d % 2 == 1;
    const auto row = add_row(
        true, d, analysis::paper_bound_regular(d),
        odd ? algo::Algorithm::kOddRegular : algo::Algorithm::kPortOne,
        odd ? d : 0);
    runs.push_back(d == 1 ? matching_run(row)
                          : lower_bound_run(odd ? lb::odd_lower_bound(d)
                                                : lb::even_lower_bound(d),
                                            row));
    for (int instance = 0; instance < 4; ++instance) {
      const auto g =
          graph::random_regular(d >= 7 ? 12 : 2 * d + 6, d, regular_rng);
      const auto optimum = exact::minimum_eds_size(g);
      for (int numbering = 0; numbering < 3; ++numbering) {
        runs.push_back(
            {port::with_random_ports(g, regular_rng), optimum, row, false});
      }
    }
  }

  // Bounded-degree rows: A(∆) on the even-regular construction at
  // d = 2⌊∆/2⌋ (Corollary 1: α(2k) = α(2k+1)) and on up to 5 random
  // graphs of 14 nodes and max degree ∆.
  Rng bounded_rng(183);
  for (port::Port delta = 1; delta <= 10; ++delta) {
    const auto row = add_row(
        false, delta, analysis::paper_bound_bounded(delta),
        delta == 1 ? algo::Algorithm::kAllEdges
                   : algo::Algorithm::kBoundedDegree,
        delta);
    runs.push_back(delta == 1 ? matching_run(row)
                              : lower_bound_run(
                                    lb::even_lower_bound(delta - delta % 2),
                                    row));
    for (int instance = 0; instance < 5; ++instance) {
      auto g = graph::random_bounded_degree(14, delta, 24, bounded_rng);
      if (g.num_edges() == 0 || g.max_degree() > delta) continue;
      const auto optimum = exact::minimum_eds_size(g);
      if (optimum == 0) continue;
      runs.push_back({port::with_random_ports(std::move(g), bounded_rng),
                      optimum, row, false});
    }
  }

  std::vector<algo::Job> built;
  std::vector<runtime::BatchJob> jobs;
  built.reserve(runs.size());
  jobs.reserve(runs.size());
  for (const auto& run : runs) {
    const auto& row = rows[run.row];
    built.push_back(algo::make_job(run.instance.ports(), row.algorithm,
                                   row.param, nullptr));
    jobs.push_back(built.back().batch);
  }
  const auto results = runtime::BatchRunner(0U).run(jobs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    auto& row = rows[run.row];
    const auto solution = runtime::validated_edge_set(run.instance, results[i]);
    const auto ratio =
        analysis::approximation_ratio(solution.size(), run.optimum);
    row.feasible = row.feasible && analysis::is_edge_dominating_set(
                                       run.instance.graph(), solution);
    row.rounds_hold =
        row.rounds_hold && results[i].stats.rounds == row.schedule;
    if (run.lower_bound) {
      row.lb_ratio = ratio;
      row.rounds = results[i].stats.rounds;
    } else {
      row.random_worst = std::max(row.random_worst, ratio);
    }
  }

  TextTable regular(
      "Table 1 (d-regular rows): paper bound vs measured, all tight");
  regular.header({"d", "parity", "paper ratio", "worst-case measured",
                  "tight?", "random worst", "<= bound?", "rounds",
                  "feasible"});
  TextTable bounded("Table 1 (bounded-degree rows): A(Delta) vs paper");
  bounded.header({"Delta", "paper alpha", "LB-graph measured", "tight?",
                  "random worst", "<= bound?", "rounds", "feasible"});
  bool all_hold = true;
  for (const auto& row : rows) {
    const bool tight = row.lb_ratio == row.bound;
    std::vector<std::string> cells{std::to_string(row.degree)};
    if (row.regular) cells.emplace_back(row.degree % 2 ? "odd" : "even");
    cells.insert(cells.end(),
                 {row.bound.str(), row.lb_ratio.str(),
                  !tight ? "no"
                  : !row.regular && row.degree == 1 ? "trivial"
                                                    : "EQUAL",
                  row.random_worst.str(),
                  row.random_worst <= row.bound ? "yes" : "VIOLATED",
                  std::to_string(row.rounds), row.feasible ? "yes" : "NO"});
    (row.regular ? regular : bounded).row(std::move(cells));
    if (!tight || row.random_worst > row.bound || !row.feasible ||
        !row.rounds_hold) {
      err << "table1: row " << (row.regular ? "d = " : "Delta = ")
          << row.degree << " fails";
      if (!row.rounds_hold) {
        err << " (a run took other than " << row.schedule << " rounds)";
      }
      err << '\n';
      all_hold = false;
    }
  }
  regular.print(out);
  out << '\n';
  bounded.print(out);
  return all_hold ? 0 : 1;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    usage(out);
    return args.empty() ? 2 : 0;
  }
  // Every command and the flags it accepts, in one place.  `worker` is the
  // hidden shard entry point: ProcessShardExecutor passes it --chaos.
  struct Command {
    FlagSpec flags;
    std::function<int(const Args&)> run;
  };
  const std::map<std::string, Command> commands{
      {"generate",
       {{{"seed"}, {}},
        [&](const Args& a) { return cmd_generate(a, out, err); }}},
      {"solve",
       {{{"algorithm", "param", "ports", "seed", "threads"}, {"exact", "dot"}},
        [&](const Args& a) { return cmd_solve(a, in, out, err); }}},
      {"lower-bound",
       {{}, [&](const Args& a) { return cmd_lower_bound(a, out, err); }}},
      {"run-portgraph",
       {{{"algorithm", "param", "threads"}, {"trace"}},
        [&](const Args& a) { return cmd_run_portgraph(a, in, out, err); }}},
      {"sweep",
       {{{"min", "max", "step", "d", "algorithm", "param", "seed", "threads",
          "shards", "worker-bin", "repeat", "retries", "job-timeout-ms",
          "batch-timeout-ms", "breaker-deaths", "chaos", "model", "delay",
          "loss", "dup", "crash", "timeout", "synchronizer", "adversary",
          "budget", "replay-out", "replay"},
         {"ndjson", "fallback-inprocess"},
         // Flags that would otherwise be accepted and silently ignored.
         {{{"retries", "job-timeout-ms", "batch-timeout-ms",
            "breaker-deaths", "fallback-inprocess", "chaos"},
           "shards"},
          {{"budget", "replay-out"}, "adversary"},
          {{"adversary", "delay", "loss", "dup", "crash", "timeout",
            "synchronizer"},
           "model",
           "async"}}},
        [&](const Args& a) { return cmd_sweep(a, out, err); }}},
      {"worker",
       {{{"chaos"}, {}},
        [&](const Args& a) { return cmd_worker(a, in, out, err); }}},
      {"views",
       {{{"radius"}, {}},
        [&](const Args& a) { return cmd_views(a, in, out, err); }}},
      {"table1", {{}, [&](const Args&) { return cmd_table1(out, err); }}},
  };
  const auto& command = args[0];
  const auto it = commands.find(command);
  if (it == commands.end()) {
    err << "unknown command '" << command << "' (try 'edsim help')\n";
    return 2;
  }
  try {
    return it->second.run(Args(args, it->second.flags));
  } catch (const UsageError& e) {
    err << command << ": " << e.what() << " (try 'edsim help')\n";
    return 2;
  } catch (const std::exception& e) {
    err << command << ": " << e.what() << '\n';
    return 1;
  }
}

}  // namespace eds::cli
