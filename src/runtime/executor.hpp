// Executor: the pluggable backend that actually runs a batch of jobs.
//
// BatchRunner (runtime/batch.hpp) is the *surface* of the batch layer — it
// owns the consumption styles (run / run_streaming) and the determinism
// contract.  An Executor is the *backend* behind that surface:
// it takes a job list and delivers RunResults through a callback, in strict
// job order, regardless of how or where the jobs physically execute.
//
//  * InProcessExecutor (this header) fans jobs across a ThreadPool inside
//    the current process — the engine's original behaviour, now extracted
//    so other backends can slot in behind the same contract.
//  * ProcessShardExecutor (runtime/shard.hpp) forks worker subprocesses and
//    streams jobs and results over NDJSON pipes.
//
// The backend contract, shared by every implementation:
//
//  1. Results are delivered through the callback in strictly increasing job
//     index order, each as soon as it *and every earlier job* has finished
//     (callbacks are serialized, never concurrent).
//  2. A failing job follows the prefix rule: results before the
//     lowest-indexed failure are delivered, nothing at or after it, the
//     whole batch drains, and the failure is rethrown afterwards.  An
//     exception thrown by the callback itself stops delivery the same way
//     and wins the rethrow.
//  3. The job list's graphs and factories are non-owning borrows; they must
//     stay alive for the duration of the call.
//
// Together with the engine's own guarantee (every lane count is
// bit-identical), this makes the choice of executor invisible in results —
// only wall-clock time and process topology change.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "runtime/runner.hpp"
#include "util/parallel.hpp"

namespace eds::runtime {

struct BatchJob;

/// Abstract batch backend.  Implementations are safe to share across
/// batches but not for concurrent run_streaming calls on one instance.
class Executor {
 public:
  /// Receives result `index` once jobs 0..index have all completed.  Calls
  /// are serialized and arrive in strictly increasing index order, but may
  /// come from any backend thread.
  using ResultCallback =
      std::function<void(std::size_t index, RunResult&& result)>;

  virtual ~Executor();

  /// Rejects (InvalidArgument) jobs this backend cannot run.  The base
  /// check — non-null graph and factory — applies to every backend;
  /// overrides add their own preconditions (e.g. the process-shard
  /// backend requires a JobSpec and no trace collection).  run_streaming
  /// calls this first, so misconfiguration always surfaces before any job
  /// starts.
  virtual void validate(const std::vector<BatchJob>& jobs) const;

  /// Executes every job, delivering results per the backend contract above.
  /// Throws InvalidArgument (via validate) before any job starts.
  virtual void run_streaming(const std::vector<BatchJob>& jobs,
                             const ResultCallback& on_result) const = 0;

  /// Barrier convenience on top of run_streaming: every job's result, in
  /// job order.
  [[nodiscard]] std::vector<RunResult> run(
      const std::vector<BatchJob>& jobs) const;
};

/// The original thread-pool fan-out: each job runs run_synchronous under
/// its own RunOptions on one of `threads` concurrent lanes (0 = one per
/// hardware thread).  The pool is created once and reused by every call.
class InProcessExecutor final : public Executor {
 public:
  explicit InProcessExecutor(unsigned threads = 0);
  ~InProcessExecutor() override;

  void run_streaming(const std::vector<BatchJob>& jobs,
                     const ResultCallback& on_result) const override;

 private:
  mutable ThreadPool pool_;
};

}  // namespace eds::runtime
