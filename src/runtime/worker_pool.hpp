// WorkerPool: a long-lived fleet of `edsim worker` processes.
//
// Forking a fresh fleet per batch would make every `sweep --shards N` pay
// fork/exec, allocator warmup and plan-cache compilation from zero.  The
// pool keeps the fleet alive between batches instead: ProcessShardExecutor
// checks workers out per batch over the framed wire (shard.hpp) and
// returns them warm, so a worker's PlanCache and engine workspaces survive
// across batches and repeated structures become cache hits after the
// first batch that carried them.  drain() is the one way back to a cold
// fleet: it retires every worker, and the next batch forks afresh.
//
// Lifecycle, per slot (one slot per shard):
//
//     empty --spawn (first batch that routes a job here)--> warm
//     warm  --batch checkout--> serving --summary--> warm
//     serving --EOF / protocol violation--> dead   (orphaned jobs retried
//                                                   on the next pass — or,
//                                                   with max_retries 0, the
//                                                   strict prefix rule; a
//                                                   respawn is counted in
//                                                   workers_respawned)
//     warm  --idle past the timeout / drain()--> empty  (clean EOF + reap,
//                                                   counted in
//                                                   workers_reaped)
//
// Health is checked at every checkout (waitpid WNOHANG): a worker that
// died while idle is respawned transparently before any job is written.
// Destruction drains every live worker with the PR-4 teardown guarantees —
// stdin closed first (EOF ends an idle worker), stdout closed (a worker
// somehow still writing dies on EPIPE instead of blocking), then a
// blocking reap: no zombies, no leaked descriptors, exception or not.
//
// Batches are serialized: run_batch holds the pool lock for the duration,
// so concurrent executors sharing one pool queue instead of interleaving
// frames on one pipe.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/batch.hpp"
#include "runtime/executor.hpp"
#include "runtime/reorder.hpp"
#include "runtime/shard.hpp"

namespace eds::runtime {

/// The warm fleet behind ProcessShardExecutor.  Usable on its own (tests
/// drive it directly); POSIX-only, like the executor.
class WorkerPool {
 public:
  /// The executor's counters and knobs: the executor is a thin shell
  /// over one pool (see shard.hpp for the semantics of each field).
  using Stats = ProcessShardExecutor::Stats;
  using Options = ProcessShardExecutor::Options;

  /// `worker_command` and `shards` as in ProcessShardExecutor (0 = one
  /// shard per hardware thread).
  WorkerPool(std::vector<std::string> worker_command, unsigned shards,
             Options options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs one batch with full Executor semantics: jobs routed by
  /// JobSpec::group, results delivered to `on_result` in strictly
  /// increasing index order.  Worker deaths trigger bounded retries of
  /// the orphaned jobs (Options::max_retries; 0 restores the strict
  /// prefix rule + residual failures).  Jobs must already be validated
  /// (ProcessShardExecutor::validate).  Expired idle workers are reaped
  /// and dead slots respawned before any job is written.
  void run_batch(const std::vector<BatchJob>& jobs,
                 const Executor::ResultCallback& on_result);

  /// Retires every worker idle past the timeout (no-op when the timeout
  /// is zero).  run_batch does this implicitly; exposed so a long-idle
  /// owner can release the processes without waiting for the next batch.
  void reap_idle();

  /// Retires every live worker now (clean EOF + reap) and lifts any
  /// quarantine.  The pool stays usable: the next batch respawns lazily.
  void drain();

  /// True after the crash-loop breaker tripped; run_batch then fails fast
  /// (or degrades to in-process execution when Options::fallback_inprocess
  /// is set) until drain() resets the pool.
  [[nodiscard]] bool quarantined() const;

  [[nodiscard]] unsigned shards() const noexcept { return shards_; }

  /// Worker processes currently alive and warm.
  [[nodiscard]] std::size_t live_workers() const;

  /// Monotone even across worker deaths: a worker's cumulative cache
  /// counters are credited from its last-seen per-batch summary, folded
  /// into the aggregates when the worker retires or is found dead, so a
  /// death before the final worker_summary loses at most one batch's
  /// delta (counted in summaries_lost), never the lifetime totals.
  [[nodiscard]] Stats stats() const;

 private:
  struct Slot {
    long pid = -1;    ///< pid_t, widened so the header stays POSIX-free
    int in_fd = -1;   ///< parent writes frames here (worker stdin)
    int out_fd = -1;  ///< parent reads result lines here (worker stdout)
    /// The previous occupant died in service (mid-batch death, protocol
    /// violation, or found dead at checkout) — the next spawn here is a
    /// *respawn*.  A clean idle reap does not set this.
    bool died_dirty = false;
    std::chrono::steady_clock::time_point last_used{};
    /// Last worker_summary seen from the current occupant, carrying its
    /// cumulative total_* counters (stats_mutex_; see stats()).
    WorkerSummary last_summary{};
    bool has_summary = false;  ///< stats_mutex_
  };

  /// Per-checkout state of one slot's service of one pass (worker_pool.cpp).
  struct PassTask;
  struct PassOutcome;

  void reap_idle_locked(std::chrono::steady_clock::time_point now);
  /// Clean EOF + blocking reap; `count_reaped` separates idle/drain
  /// retirements (visible in stats) from destructor teardown.
  void retire_locked(Slot& slot, bool count_reaped);
  void ensure_worker_locked(Slot& slot);
  /// Folds the slot's credited cumulative counters into stats_ and clears
  /// them; called whenever a worker process ends (retire, found dead at
  /// checkout, died in service).  batch_mutex_ must be held.
  void fold_slot_summary_locked(Slot& slot);
  /// Ships `runnable` (ascending job indices) as one framed wire batch
  /// per participating shard; results deposit into `buffer`.
  PassOutcome run_pass(const std::vector<BatchJob>& jobs,
                       const std::vector<std::size_t>& runnable,
                       detail::ReorderBuffer& buffer,
                       const Executor::ResultCallback& on_result,
                       std::chrono::steady_clock::time_point batch_start);
  /// Graceful degradation: runs `indices` in-process (same
  /// run_synchronous the workers call) and deposits into `buffer`.
  void run_fallback(const std::vector<BatchJob>& jobs,
                    const std::vector<std::size_t>& indices,
                    detail::ReorderBuffer& buffer,
                    const Executor::ResultCallback& on_result);

  std::vector<std::string> worker_command_;
  unsigned shards_;
  Options options_;
  mutable std::mutex batch_mutex_;  ///< serializes batches + lifecycle
  mutable std::mutex stats_mutex_;
  Stats stats_;
  std::vector<Slot> slots_;
  std::uint64_t next_batch_id_ = 0;
  bool quarantined_ = false;         ///< batch_mutex_
  std::string quarantine_reason_;    ///< batch_mutex_
};

}  // namespace eds::runtime
