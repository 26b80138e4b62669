// The worker fleet behind ProcessShardExecutor::run_streaming.
//
// A batch runs as a sequence of passes.  Each pass forks one worker per
// shard that has jobs, streams that shard's job lines to the worker's
// stdin and closes it, and reads the worker's stdout to EOF: one result or
// error line per job, then the worker's summary.  The worker exits after
// its summary and is reaped before the pass ends, so no process outlives
// the batch that forked it.  Jobs that a failed worker left unfinished are
// re-queued to the next pass.  Group routing sends them back to the same
// slot, where a fresh worker is forked (counted in workers_respawned).
//
// Teardown holds on every path, exception or not.  A worker whose reader
// never started has its stdout closed first, so a worker blocked writing
// dies on SIGPIPE instead of stalling the joins.  Its stdin is closed by
// the writer, or here if the writer never started.  Then every worker is
// reaped with a blocking waitpid: no zombies, no leaked descriptors.
#include "runtime/shard.hpp"

#include "util/error.hpp"

#if defined(_WIN32)

namespace eds::runtime {

void ProcessShardExecutor::run_streaming(const std::vector<BatchJob>&,
                                         const ResultCallback&) const {
  throw InvalidArgument(
      "ProcessShardExecutor: process sharding requires a POSIX platform");
}

}  // namespace eds::runtime

#else  // POSIX

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "port/io.hpp"
#include "runtime/reorder.hpp"
#include "runtime/runner.hpp"

namespace eds::runtime {

namespace {

using Stats = ProcessShardExecutor::Stats;
using Options = ProcessShardExecutor::Options;

/// Runs a cleanup action when the scope unwinds, exception or not.
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  Fn fn_;
};

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// A blocked SIGPIPE turns a write to a dead worker into EPIPE instead of
/// killing the parent; the pending signal dies with the writer thread.
void block_sigpipe_on_this_thread() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

[[nodiscard]] bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE et al.: the reader reports the death
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

[[nodiscard]] std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "worker exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "worker killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "worker ended abnormally";
}

[[nodiscard]] bool exited_cleanly(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

[[nodiscard]] std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One worker's service of one pass, from fork to reap.
struct Task {
  std::vector<std::size_t> assigned;  ///< global job indices, ascending
  pid_t pid = -1;
  int in_fd = -1;   ///< worker stdin; the writer closes it after the jobs
  int out_fd = -1;  ///< worker stdout; the reader closes it at EOF
  std::size_t completed = 0;  ///< result/error lines accepted so far
  std::string violation;      ///< protocol-violation description, if any
  std::string trailing;       ///< truncated partial line left at EOF
  int wait_status = 0;        ///< raw waitpid status, valid once reaped
  WorkerSummary summary;
  bool summary_seen = false;

  /// The kill protocol between reader and monitor: `reaped` is set before
  /// the waitpid, and a reaped task is never signalled, so a kill can
  /// never hit a recycled pid.
  std::mutex kill_mutex;
  bool reaped = false;           ///< kill_mutex
  bool kill_sent = false;        ///< kill_mutex
  bool deadline_killed = false;  ///< kill_mutex; read after the joins
  /// steady_clock ns of the last completed worker line — the monitor's
  /// definition of "stuck on one job".
  std::atomic<std::int64_t> last_progress_ns{0};

  std::thread writer;
  std::thread reader;

  /// SIGKILLs the worker unless it is already reaped or killed.
  void kill(bool deadline) {
    const std::lock_guard<std::mutex> lk(kill_mutex);
    if (reaped || kill_sent || pid < 0) return;
    ::kill(pid, SIGKILL);
    kill_sent = true;
    deadline_killed = deadline;
  }

  void reap() {
    {
      const std::lock_guard<std::mutex> lk(kill_mutex);
      reaped = true;
    }
    if (pid >= 0) ::waitpid(pid, &wait_status, 0);
  }

  /// Answered every job, summarized, and exited 0.
  [[nodiscard]] bool clean() const {
    return summary_seen && violation.empty() && exited_cleanly(wait_status);
  }

  /// Strict mode (max_retries == 0) only.  A shard that answered all its
  /// jobs can still break protocol afterwards: extra output, a nonzero
  /// exit, a missing summary.  The delivered results are trustworthy
  /// (each was verified in arrival order), but the batch must not report
  /// success: the summary counters are incomplete and the worker is not
  /// behaving as specified.  Returns the failure description, or "" for a
  /// clean shard.
  [[nodiscard]] std::string residual_failure() const {
    if (completed < assigned.size()) return "";  // job errors cover it
    if (!violation.empty()) {
      return "process shard: " + violation + " after its last job";
    }
    if (!exited_cleanly(wait_status)) {
      return "process shard: " + describe_exit(wait_status) +
             " after completing its jobs";
    }
    if (!summary_seen) {
      return "process shard: worker exited without a summary";
    }
    return "";
  }
};

/// What one pass leaves behind: the per-shard tasks, every one reaped, and
/// whether the batch deadline fired during the pass.
struct PassOutcome {
  std::vector<std::unique_ptr<Task>> tasks;
  bool batch_expired = false;
};

/// One batch through the fleet: the retry loop over passes, and the
/// executor's counters, bumped as the batch goes.
class BatchRun {
 public:
  BatchRun(const std::vector<std::string>& command, unsigned shards,
           const Options& options, const std::vector<BatchJob>& jobs,
           const Executor::ResultCallback& on_result, std::mutex& stats_mutex,
           Stats& stats)
      : command_(command),
        shards_(shards),
        options_(options),
        jobs_(jobs),
        on_result_(on_result),
        stats_mutex_(stats_mutex),
        stats_(stats),
        buffer_(jobs.size()) {}

  void run();

 private:
  void count(std::uint64_t Stats::*field, std::uint64_t n = 1) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.*field += n;
  }

  /// Fails job `idx` with `message` and delivers what became ready.
  void fail(std::size_t idx, const std::string& message) {
    buffer_.errors[idx] = std::make_exception_ptr(ExecutionError(message));
    buffer_.deposit_and_flush(idx, on_result_);
  }

  void spawn(Task& t) const;
  void write_jobs(Task& t) const;
  void read_results(Task& t);
  /// Ships `runnable` (ascending job indices) to one fresh worker per
  /// shard with jobs; a retry pass's forks count as respawns.
  PassOutcome run_pass(const std::vector<std::size_t>& runnable, bool retry);
  /// Graceful degradation: runs `indices` in-process (same
  /// run_synchronous the workers call).
  void run_fallback(const std::vector<std::size_t>& indices);

  const std::vector<std::string>& command_;
  unsigned shards_;
  const Options& options_;
  const std::vector<BatchJob>& jobs_;
  const Executor::ResultCallback& on_result_;
  std::mutex& stats_mutex_;
  Stats& stats_;
  detail::ReorderBuffer buffer_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

void BatchRun::spawn(Task& t) const {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    for (int& fd : to_child) close_fd(fd);
    throw ExecutionError("process shard: pipe() failed");
  }
  // Parent-side ends never leak into later workers' exec; the child's ends
  // are re-homed onto fds 0/1 (dup2 clears FD_CLOEXEC on the duplicate).
  for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
    set_cloexec(fd);
  }

  std::vector<char*> argv;
  argv.reserve(command_.size() + 1);
  for (const auto& arg : command_) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int* pair : {to_child, from_child}) {
      close_fd(pair[0]);
      close_fd(pair[1]);
    }
    throw ExecutionError("process shard: fork() failed");
  }
  if (pid == 0) {
    // Child: wire stdin/stdout to the pipes and become the worker.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::execvp(argv[0], argv.data());
    _exit(127);  // exec failed; the parent reports it via the exit status
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  t.pid = pid;
  t.in_fd = to_child[1];
  t.out_fd = from_child[0];
}

void BatchRun::write_jobs(Task& t) const {
  // Serialize-and-escape each distinct graph lazily, once, right here:
  // group routing sends every repeat of a structure to one shard, so
  // per-writer caching never duplicates work across shards — and it
  // parallelizes the text encoding and frees it when this writer exits,
  // instead of a serial up-front pass whose escaped copies would live
  // until the whole batch drained.
  std::unordered_map<const port::PortGraph*, std::string> escaped;
  for (const std::size_t idx : t.assigned) {
    const auto& job = jobs_[idx];
    auto it = escaped.find(job.graph);
    if (it == escaped.end()) {
      const auto text = port::to_port_graph_string(*job.graph);
      std::string esc;
      esc.reserve(text.size() + text.size() / 16);
      detail::wire_escape(esc, text);
      it = escaped.emplace(job.graph, std::move(esc)).first;
    }
    WireJob wire;
    wire.index = idx;
    wire.algorithm = job.spec->algorithm;
    wire.param = job.spec->param;
    wire.threads = job.options.exec.threads;
    wire.max_rounds = job.options.max_rounds;
    wire.async = job.options.exec.async;
    std::string line = detail::encode_wire_job_preescaped(wire, it->second);
    line += '\n';
    if (!write_all(t.in_fd, line)) return;
  }
}

void BatchRun::read_results(Task& t) {
  std::size_t line_no = 0;
  const auto violate = [&t](std::string why) {
    // A worker that broke protocol is killed; the reader keeps draining
    // to EOF (never leaving it blocked on a full stdout pipe), and the
    // pass classifies the unfinished jobs afterwards.
    t.violation = std::move(why);
    t.kill(/*deadline=*/false);
  };
  std::string pending;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(t.out_fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    pending.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      ++line_no;
      if (!t.violation.empty()) continue;  // draining to EOF
      try {
        WorkerLine parsed = decode_worker_line(line);
        t.last_progress_ns.store(steady_now_ns(), std::memory_order_relaxed);
        if (t.summary_seen) {
          violate("worker wrote past its summary");
          continue;
        }
        if (parsed.kind == WorkerLine::Kind::kSummary) {
          if (t.completed < t.assigned.size()) {
            violate("worker summarized before answering its jobs");
            continue;
          }
          t.summary = parsed.summary;
          t.summary_seen = true;
          continue;
        }
        // Workers execute their jobs strictly in arrival order; any other
        // index is a protocol violation.
        if (t.completed >= t.assigned.size() ||
            parsed.index != t.assigned[t.completed]) {
          violate("worker answered for job index " +
                  std::to_string(parsed.index) +
                  (t.completed < t.assigned.size()
                       ? " while job " +
                             std::to_string(t.assigned[t.completed]) +
                             " was expected"
                       : " after finishing its jobs"));
          continue;
        }
        const std::size_t idx = parsed.index;
        if (parsed.kind == WorkerLine::Kind::kResult) {
          buffer_.results[idx] = std::move(parsed.result);
        } else {
          buffer_.errors[idx] = std::make_exception_ptr(
              ExecutionError("process shard: " + parsed.message));
        }
        ++t.completed;
        buffer_.deposit_and_flush(idx, on_result_);
      } catch (const Error& e) {
        violate("malformed worker " + detail::describe_wire_line(line_no, line) +
                ": " + e.what());
      }
    }
  }
  // EOF: the worker is gone — its clean exit after the summary, its own
  // death, or our SIGKILL.  Record what it left behind and reap it.
  close_fd(t.out_fd);
  if (!pending.empty()) {
    t.trailing = detail::describe_wire_line(line_no + 1, pending);
    if (t.summary_seen && t.violation.empty()) {
      t.violation = "worker wrote past its summary";
    }
  }
  t.reap();
}

PassOutcome BatchRun::run_pass(const std::vector<std::size_t>& runnable,
                               bool retry) {
  // Group-affinity routing: equal groups share a worker (and therefore a
  // plan-cache entry); within a shard, jobs keep ascending index order —
  // `runnable` is sorted, so retries preserve the deterministic order too.
  std::vector<std::vector<std::size_t>> assigned(shards_);
  for (const std::size_t i : runnable) {
    assigned[jobs_[i].spec->group % shards_].push_back(i);
  }

  PassOutcome outcome;
  auto& tasks = outcome.tasks;

  std::atomic<bool> expired{false};
  std::thread monitor;
  std::mutex monitor_mutex;
  std::condition_variable monitor_cv;
  bool monitor_stop = false;
  const auto stop_monitor_now = [&] {
    if (!monitor.joinable()) return;
    {
      const std::lock_guard<std::mutex> lk(monitor_mutex);
      monitor_stop = true;
    }
    monitor_cv.notify_one();
    monitor.join();
  };
  // On the exception path the monitor must outlive the teardown below (a
  // reader blocked on a hung worker needs it) but die before the locals
  // it captures; declared here, it unwinds right after the inner block.
  const ScopeExit stop_monitor(stop_monitor_now);

  {
    // Joins and reaps every forked worker at scope exit — even when a
    // later spawn or std::thread constructor throws mid-loop.  On the
    // normal path both threads exist and this is a plain join/join.
    const ScopeExit teardown([&tasks] {
      for (const auto& t : tasks) {
        const bool reader_started = t->reader.joinable();
        if (!reader_started) close_fd(t->out_fd);
        if (!t->writer.joinable()) close_fd(t->in_fd);
        if (t->writer.joinable()) t->writer.join();
        if (reader_started) {
          t->reader.join();
        } else {
          t->reap();
        }
      }
    });

    const std::int64_t start_ns = steady_now_ns();
    for (unsigned s = 0; s < shards_; ++s) {
      if (assigned[s].empty()) continue;  // never fork an idle shard
      tasks.push_back(std::make_unique<Task>());  // visible to teardown
      Task& t = *tasks.back();
      t.assigned = std::move(assigned[s]);
      t.last_progress_ns.store(start_ns, std::memory_order_relaxed);
      spawn(t);
      count(&Stats::workers_spawned);
      if (retry) count(&Stats::workers_respawned);
    }

    for (const auto& t_ptr : tasks) {
      Task* t = t_ptr.get();
      t->writer = std::thread([this, t] {
        block_sigpipe_on_this_thread();
        write_jobs(*t);
        close_fd(t->in_fd);  // EOF: the worker summarizes and exits
      });
      t->reader = std::thread([this, t] { read_results(*t); });
    }

    const std::chrono::milliseconds job_timeout(options_.job_timeout_ms);
    const std::chrono::milliseconds batch_timeout(options_.batch_timeout_ms);
    if (job_timeout.count() > 0 || batch_timeout.count() > 0) {
      monitor = std::thread([this, &tasks, &expired, &monitor_mutex,
                             &monitor_cv, &monitor_stop, job_timeout,
                             batch_timeout] {
        std::unique_lock<std::mutex> lk(monitor_mutex);
        for (;;) {
          auto tick = std::chrono::milliseconds(20);
          if (job_timeout.count() > 0) {
            tick = std::min(tick, std::chrono::milliseconds(std::max<
                                      std::int64_t>(
                                      1, job_timeout.count() / 4)));
          }
          if (monitor_cv.wait_for(lk, tick, [&] { return monitor_stop; })) {
            return;
          }
          const auto now = std::chrono::steady_clock::now();
          if (batch_timeout.count() > 0 && now - start_ >= batch_timeout) {
            expired.store(true);
            for (const auto& t : tasks) t->kill(/*deadline=*/false);
            return;
          }
          if (job_timeout.count() > 0) {
            const std::int64_t now_ns = steady_now_ns();
            for (const auto& t : tasks) {
              const std::int64_t last =
                  t->last_progress_ns.load(std::memory_order_relaxed);
              if (now_ns - last >= job_timeout.count() * 1'000'000) {
                t->kill(/*deadline=*/true);
              }
            }
          }
        }
      });
    }
  }  // teardown: every thread joined, every worker reaped

  // Stop the monitor before reading `expired` so the verdict is final
  // (the ScopeExit covers the throw paths and no-ops after this).
  stop_monitor_now();
  outcome.batch_expired = expired.load();

  count(&Stats::jobs_shipped, runnable.size());
  for (const auto& t : tasks) {
    if (t->deadline_killed) count(&Stats::deadline_kills);
    if (!t->summary_seen) {
      count(&Stats::summaries_lost);
      continue;
    }
    count(&Stats::plans_compiled, t->summary.plans_compiled);
    count(&Stats::plan_hits, t->summary.plan_hits);
  }
  return outcome;
}

void BatchRun::run_fallback(const std::vector<std::size_t>& indices) {
  // Graceful degradation runs the exact run_synchronous the workers call,
  // so a rerouted job's result is bit-identical to its sharded twin.
  // Validate (base Executor) guarantees graph and factory are non-null.
  for (const std::size_t idx : indices) {
    const auto& job = jobs_[idx];
    try {
      buffer_.results[idx] =
          run_synchronous(*job.graph, *job.factory, job.options);
    } catch (...) {
      buffer_.errors[idx] = std::current_exception();
    }
    buffer_.deposit_and_flush(idx, on_result_);
  }
  count(&Stats::fallback_jobs, indices.size());
}

void BatchRun::run() {
  // Per-job attempt bookkeeping for the retry loop.  `attempts` is the
  // number of the try currently (or last) in flight, 1-based; `history`
  // collects one clause per failed attempt for the poison diagnostic.
  struct JobTracker {
    unsigned attempts = 1;
    std::string history;
  };
  std::vector<JobTracker> trackers(jobs_.size());

  std::vector<std::size_t> runnable(jobs_.size());
  for (std::size_t i = 0; i < runnable.size(); ++i) runnable[i] = i;

  const bool strict = options_.max_retries == 0;
  std::vector<std::string> residuals;  // strict-mode post-completion failures
  std::uint64_t deaths = 0;
  unsigned retry_pass = 0;

  while (!runnable.empty()) {
    const PassOutcome outcome = run_pass(runnable, retry_pass > 0);
    std::vector<std::size_t> requeue;

    for (const auto& tp : outcome.tasks) {
      const Task& t = *tp;
      if (t.clean()) continue;
      ++deaths;

      std::string why = describe_exit(t.wait_status);
      if (t.deadline_killed) {
        why = "job deadline of " + std::to_string(options_.job_timeout_ms) +
              " ms exceeded; " + why;
      }
      if (!t.violation.empty()) why += " (" + t.violation + ")";
      if (!t.trailing.empty()) {
        why += "; truncated trailing output at " + t.trailing;
      }

      const auto& asg = t.assigned;
      if (t.completed >= asg.size()) {
        // Post-completion deviation: every job was delivered.  Strict
        // mode still fails the batch (the historical contract); resilient
        // mode moves on — the deviation is visible in summaries_lost, not
        // in results.
        if (strict) {
          const auto residual = t.residual_failure();
          if (!residual.empty()) residuals.push_back(residual);
        }
        continue;
      }

      if (outcome.batch_expired) {
        for (std::size_t k = t.completed; k < asg.size(); ++k) {
          fail(asg[k], "process shard: batch deadline of " +
                           std::to_string(options_.batch_timeout_ms) +
                           " ms exceeded before job " +
                           std::to_string(asg[k]) + " completed (" + why +
                           ")");
        }
        continue;
      }

      if (strict) {
        for (std::size_t k = t.completed; k < asg.size(); ++k) {
          fail(asg[k], "process shard: " + why + " before job " +
                           std::to_string(asg[k]) + " completed");
        }
        continue;
      }

      // Charge the in-flight job one attempt; its shard siblings were
      // never started and are re-queued uncharged — that asymmetry is
      // what lets a poison job exhaust its own budget without dragging
      // the innocent jobs behind it down with it.
      const std::size_t inflight = asg[t.completed];
      auto& tracker = trackers[inflight];
      if (!tracker.history.empty()) tracker.history += "; ";
      tracker.history +=
          "attempt " + std::to_string(tracker.attempts) + ": " + why;
      if (tracker.attempts > options_.max_retries) {
        fail(inflight, "process shard: job " + std::to_string(inflight) +
                           " poisoned after " +
                           std::to_string(tracker.attempts) + " attempts (" +
                           tracker.history + ")");
        count(&Stats::jobs_poisoned);
      } else {
        ++tracker.attempts;
        requeue.push_back(inflight);
      }
      for (std::size_t k = t.completed + 1; k < asg.size(); ++k) {
        requeue.push_back(asg[k]);
      }
    }

    if (outcome.batch_expired) {
      count(&Stats::batch_timeouts);
      break;
    }
    if (requeue.empty()) break;
    std::sort(requeue.begin(), requeue.end());

    if (options_.breaker_deaths != 0 && deaths > options_.breaker_deaths) {
      // Crash-loop breaker: the fleet is dying faster than retrying is
      // worth.  Give up on it for the rest of this batch and either
      // degrade to in-process execution or fail the remaining jobs.
      count(&Stats::pool_quarantines);
      if (options_.fallback_inprocess) {
        run_fallback(requeue);
      } else {
        for (const std::size_t idx : requeue) {
          fail(idx, "process shard: pool quarantined (" +
                        std::to_string(deaths) +
                        " worker deaths in one batch) before job " +
                        std::to_string(idx) + " completed");
        }
      }
      break;
    }

    count(&Stats::jobs_retried, requeue.size());
    auto backoff = std::chrono::milliseconds(options_.retry_backoff_ms) *
                   (1u << std::min(retry_pass, 6u));
    backoff = std::min(backoff, std::chrono::milliseconds(1000));
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    ++retry_pass;
    runnable = std::move(requeue);
  }

  // Job-level failures win (lowest index, as documented); in strict mode
  // a shard that finished its jobs but then broke protocol or died still
  // fails the batch — after full delivery, so the prefix rule holds.
  buffer_.rethrow_failures();
  for (const auto& r : residuals) throw ExecutionError(r);
}

}  // namespace

void ProcessShardExecutor::run_streaming(const std::vector<BatchJob>& jobs,
                                         const ResultCallback& on_result) const {
  validate(jobs);
  if (jobs.empty()) return;
  const std::lock_guard<std::mutex> lock(batch_mutex_);
  BatchRun(worker_command_, shards_, options_, jobs, on_result, stats_mutex_,
           stats_)
      .run();
}

}  // namespace eds::runtime

#endif  // defined(_WIN32)
