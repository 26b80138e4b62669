// BatchRunner: many independent synchronous executions behind a pluggable
// Executor backend.
//
// Sweeps, tables and benchmarks all share the same shape — run dozens to
// thousands of (graph, program-factory, options) jobs and fold the results.
// BatchRunner is the one entry point for that shape.  *How* the jobs run is
// the backend's business (runtime/executor.hpp): the default backend fans
// them across an in-process thread pool; a ProcessShardExecutor
// (runtime/shard.hpp) ships them to worker subprocesses instead.  Either
// way results come back in job order, so output is deterministic regardless
// of thread count, shard count, or backend choice.
//
// Two consumption styles, with identical per-job results:
//  * run()            — barrier on the whole batch, vector of results;
//  * run_streaming()  — a callback receives each result as soon as it *and
//    every earlier job* has finished (an in-order reorder buffer), so
//    long sweeps emit output incrementally instead of all at the end.
//
// Factories are shared across jobs and threads; ProgramFactory::create()
// is const and every factory in this library is stateless, so concurrent
// create() calls are safe.  If a job throws, the batch completes the
// remaining jobs and then rethrows the failure of the *lowest-indexed*
// failed job — again independent of scheduling.  Streaming delivers the
// result prefix before that failure and nothing at or after it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/executor.hpp"
#include "runtime/program.hpp"
#include "runtime/runner.hpp"

namespace eds::runtime {

/// A serializable description of a job, for backends that execute outside
/// this process.  In-process backends ignore it entirely; the
/// ProcessShardExecutor *requires* it (the graph/factory pointers cannot
/// cross a process boundary, so a worker rebuilds the factory from the
/// algorithm token and the graph from its text form).
struct JobSpec {
  /// Opaque algorithm token a worker maps back to a factory (the runtime
  /// layer never interprets it; `edsim worker` resolves it through
  /// `algo::algorithm_from_token`).
  std::string algorithm;

  /// Fully resolved factory parameter (d or ∆; 0 only where the factory
  /// takes no parameter).  Defaults are resolved *before* serialization so
  /// every process computes from the same inputs.
  Port param = 0;

  /// Shard-affinity key: jobs with equal `group` are routed to the same
  /// worker process.  Callers set it to the graph's structural hash so
  /// repeated runs on one structure share a single per-worker plan cache
  /// entry, keeping aggregate plan counters identical to a one-process run.
  std::uint64_t group = 0;
};

/// One unit of batch work.  `graph` and `factory` are non-owning and must
/// outlive the run()/run_streaming() call.  `spec` is optional
/// and only consulted by out-of-process backends.
struct BatchJob {
  const port::PortGraph* graph = nullptr;
  const ProgramFactory* factory = nullptr;
  RunOptions options;
  std::optional<JobSpec> spec;
};

class BatchRunner {
 public:
  using ResultCallback = Executor::ResultCallback;

  /// `threads` as in ExecOptions: number of concurrent jobs, 0 = one per
  /// hardware thread.  Creates (and owns) an InProcessExecutor whose pool
  /// is reused by every run() call.
  explicit BatchRunner(unsigned threads = 0);

  /// Runs every batch through `executor` instead (non-owning; must outlive
  /// the runner).  This is how a sweep swaps thread-pool fan-out for
  /// process sharding without touching any consumption code.
  explicit BatchRunner(const Executor* executor);

  ~BatchRunner();

  /// Executes every job and returns their results in job order.  Throws
  /// InvalidArgument on a malformed job (null graph/factory) before any
  /// job starts; rethrows the lowest-indexed job failure after the batch
  /// drains.  Not safe for concurrent run() calls on one BatchRunner.
  [[nodiscard]] std::vector<RunResult> run(
      const std::vector<BatchJob>& jobs) const;

  /// Executes every job, delivering each result through `on_result` as
  /// soon as its whole prefix has completed — deterministic job order with
  /// no full-batch barrier.  Error handling as in run(): the batch drains,
  /// results from the lowest failure onward are withheld, and the failure
  /// (or the first exception thrown by `on_result` itself) is rethrown.
  void run_streaming(const std::vector<BatchJob>& jobs,
                     const ResultCallback& on_result) const;

  /// The backend batches execute on.
  [[nodiscard]] const Executor& executor() const noexcept {
    return *executor_;
  }

 private:
  std::unique_ptr<InProcessExecutor> owned_;  // null when borrowing
  const Executor* executor_;                  // owned_.get() or the borrow
};

}  // namespace eds::runtime
