// The synchronous executor for the port-numbering model.
//
// run_synchronous implements Section 2.2 of the paper exactly: in each round
// every non-halted node performs local computation, sends one message to each
// of its ports, and receives one message from each of its ports; the
// involution p routes traffic (including directed loops, where a node
// receives its own message).  Halted nodes emit silence and ignore input.
// Nodes that declared sleep (NodeProgram::next_wake) are not called in
// their idle rounds, which by contract changes nothing observable.
// The execution ends when every node has halted, or fails with
// ExecutionError when the round limit is exceeded (deterministic algorithms
// that do not halt would otherwise loop forever).
//
// The actual round loop lives in the engine layer (runtime/engine.hpp):
// run_synchronous compiles the graph into an ExecutionPlan and executes it
// across the ThreadPool lanes selected by RunOptions::exec — one lane, inline
// on the caller, by default.  Every lane count produces bit-identical
// RunResults (outputs, stats, trace, message log order); the choice only
// affects wall-clock time.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/fault.hpp"
#include "runtime/program.hpp"

namespace eds::runtime {

class PlanCache;
class Executor;
class ExecutionPlan;

/// Execution-engine selection (scheduling, plan reuse, batch backend, and
/// the execution *model*).  Everything except `async` never affects
/// results — every scheduling combination is bit-identical by differential
/// test.  `async` selects a different semantics on purpose: with the
/// α-synchronizer it is bit-identical too (that equivalence is itself a
/// differential oracle), without it results may legitimately differ.
struct ExecOptions {
  /// Lanes to shard each round's gather/receive/send pass over
  /// (contiguous visit-list ranges balanced by port count, one barrier
  /// per round): 1 = one lane, inline on the caller (default), >1 = a
  /// ThreadPool with that many lanes, 0 = one lane per hardware thread.
  /// Passed to `algo::run_batch_streaming`, it is instead the number of
  /// concurrent jobs of the in-process backend, and each job runs on one
  /// lane.
  unsigned threads = 1;

  /// When set, the ExecutionPlan is fetched from (and shared through) this
  /// cache instead of being compiled per run; null compiles a fresh plan
  /// (`algo::run_batch_streaming` gives a batch without one a cache of its
  /// own).  Plans are immutable, so sharing is invisible except in
  /// wall-clock time and the cache's statistics.
  PlanCache* plan_cache = nullptr;

  /// Batch-level backend override (non-owning): when set,
  /// `algo::run_batch_streaming` routes its jobs through this executor —
  /// e.g. a ProcessShardExecutor — instead of an in-process BatchRunner
  /// pool of `threads` lanes.  Ignored by
  /// run_synchronous: a single run has no batch to shard.
  const Executor* executor = nullptr;

  /// When set, run_synchronous routes the run through the event-driven
  /// asynchronous engine (runtime/async.hpp) configured by these options
  /// instead of the round loop; the returned RunResult is the async run's
  /// `AsyncResult::run` (call run_asynchronous directly for the fault log
  /// and async counters).  The event loop is sequential, so `threads` only
  /// parallelizes across batch jobs, never within a run.  Async runs cross
  /// the process-shard wire like any other job; only a non-empty
  /// adversarial `schedule` does not, and ProcessShardExecutor rejects it.
  std::optional<AsyncOptions> async = std::nullopt;

  [[nodiscard]] bool operator==(const ExecOptions&) const = default;
};

/// The round engine's measurements of the runs whose RunOptions::metrics
/// points here: run_plan adds each finished run in (a run that throws adds
/// nothing), so one sink can total several runs.  Never share a sink
/// between concurrent runs.  The asynchronous engine leaves it untouched.
/// Every run drives each shard as a receive sweep then a send sweep; a
/// sink only adds the timestamps around them, which cost little on dense
/// graphs and up to about a tenth of a mostly idle schedule's time.
struct RunMetrics {
  std::uint64_t exchange_ns = 0;  ///< send sweep, arrival detection
  std::uint64_t receive_ns = 0;   ///< gather + receive sweep, barrier, merge
  std::uint64_t scan_ns = 0;      ///< between-stage wake scan
  std::uint64_t rounds = 0;       ///< RunStats::rounds of the runs, summed
  std::uint64_t workspace_reuses = 0;   ///< runs on a big enough workspace
  std::uint64_t workspace_growths = 0;  ///< runs that had to grow it
  std::uint64_t workspace_bytes = 0;    ///< lane footprint after a run, max

  /// Sums every field but workspace_bytes, which takes the max.
  RunMetrics& operator+=(const RunMetrics& other) noexcept;

  [[nodiscard]] bool operator==(const RunMetrics&) const = default;
};

struct RunOptions {
  /// Hard cap on rounds; exceeding it throws ExecutionError.  Must be
  /// positive — a zero cap is rejected up front with InvalidArgument.
  Round max_rounds = 100000;

  /// Record a per-round trace (message counts, halts) in RunResult::trace.
  bool collect_trace = false;

  /// Record every delivered non-silence message in RunResult::message_log
  /// (for transcripts and debugging; memory grows with traffic).
  bool collect_messages = false;

  /// When set, the round engine times this run into the sink (see
  /// RunMetrics); null takes no timestamps.
  /// ProcessShardExecutor rejects jobs that carry a sink.
  RunMetrics* metrics = nullptr;

  /// Engine selection (lanes, plan cache, backend, model); see ExecOptions.
  ExecOptions exec;
};

/// One delivered message, as recorded by RunOptions::collect_messages.
struct DeliveredMessage {
  Round round = 0;
  port::PortRef from;  ///< sender's (node, port)
  port::PortRef to;    ///< receiver's (node, port)
  Message payload;

  [[nodiscard]] bool operator==(const DeliveredMessage&) const = default;
};

/// Aggregate execution statistics.
struct RunStats {
  Round rounds = 0;                 ///< rounds until the last node halted
  std::uint64_t messages_sent = 0;  ///< non-silence messages over all rounds

  /// A model cost, not the engine's work: Σ_v d(v) · halt_round(v), i.e.
  /// every round charges the degree of every node still running (halted
  /// nodes neither send nor receive; a node that halts at start costs 0).
  /// The engine credits d(v) · halt_round(v) when v halts.  Nodes asleep
  /// between their scheduled steps (NodeProgram::next_wake) are charged
  /// here but cost the engine nothing, so on sparse schedules the engine
  /// does far less work than this count.
  std::uint64_t ports_served = 0;

  [[nodiscard]] bool operator==(const RunStats&) const = default;
};

/// Per-round trace entry (only with RunOptions::collect_trace).
struct RoundTrace {
  Round round = 0;
  std::uint64_t messages = 0;   ///< non-silence messages this round
  std::size_t halted_nodes = 0; ///< cumulative halted count after the round

  [[nodiscard]] bool operator==(const RoundTrace&) const = default;
};

/// Execution outcome: every node's announced output plus statistics.
struct RunResult {
  std::vector<std::vector<Port>> outputs;  ///< X(v), sorted, per node
  RunStats stats;
  std::vector<RoundTrace> trace;
  std::vector<DeliveredMessage> message_log;

  /// Whether RunOptions::collect_messages was on — distinguishes "no
  /// messages were recorded" from "recording was disabled".
  bool messages_collected = false;

  [[nodiscard]] bool operator==(const RunResult&) const = default;
};

/// Renders a recorded message log as a human-readable round-by-round
/// transcript ("r3  (5,2) -> (7,1)  tag=3 [1 0 0]").  When the run was
/// executed without RunOptions::collect_messages, says so explicitly
/// instead of printing an empty transcript.
[[nodiscard]] std::string format_transcript(const RunResult& result);

/// Runs `factory`'s program on every node of `g` until all halt.
[[nodiscard]] RunResult run_synchronous(const port::PortGraph& g,
                                        const ProgramFactory& factory,
                                        const RunOptions& options = {});

/// Runs caller-provided per-node programs (programs[v] runs on node v).
/// This is the entry point for *non-anonymous* models — e.g. the ID-model
/// baselines of Section 1.3, where each node's program is seeded with a
/// unique identifier.  The synchronous semantics are identical.
[[nodiscard]] RunResult run_synchronous_programs(
    const port::PortGraph& g,
    std::vector<std::unique_ptr<NodeProgram>> programs,
    const RunOptions& options = {}, const std::string& name = "custom");

namespace detail {
/// One program per node of an n-node graph from `factory`; a null program
/// is an ExecutionError naming `caller`.  Shared by the sync and async
/// entry points.
[[nodiscard]] std::vector<std::unique_ptr<NodeProgram>> create_programs(
    const ProgramFactory& factory, std::size_t n, const char* caller);

/// The plan for one run on `g`: shared through exec.plan_cache when one is
/// configured, otherwise compiled for this run alone.
[[nodiscard]] std::shared_ptr<const ExecutionPlan> resolve_plan(
    const port::PortGraph& g, const ExecOptions& exec);
}  // namespace detail

}  // namespace eds::runtime
