// The worker fleet behind ProcessShardExecutor::run_streaming.
//
// A batch runs as a sequence of passes.  Each pass forks one worker per
// shard that has jobs, streams that shard's job lines to the worker's
// stdin and closes it, and reads the worker's stdout to EOF: one result or
// error line per job, then the worker's summary.  The worker exits after
// its summary and is reaped before the pass ends, so no process outlives
// the batch that forked it.  Jobs that a failed worker left unfinished are
// re-queued to the next pass.  Graph routing (shard.hpp) sends them back
// to the same slot, where a fresh worker is forked (counted in
// workers_respawned).
//
// Each worker belongs to its reader thread: the reader enforces the
// deadlines, kills the worker on a deadline or a protocol violation, and
// reaps it at EOF.  No other thread signals a worker, so a kill can never
// hit a reaped, recycled pid.
//
// Teardown holds on every path, exception or not.  A worker whose reader
// never started has its stdout closed first, so a worker blocked writing
// dies on SIGPIPE instead of stalling the joins.  Its stdin is closed by
// the writer, or here if the writer never started.  Then that worker is
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
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include <fcntl.h>
#include <poll.h>
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

using Clock = std::chrono::steady_clock;

/// No deadline: what ms_left returns for a timeout of 0.
constexpr std::uint64_t kNoDeadline = UINT64_MAX;

/// Milliseconds left of `timeout_ms` counted from `since`: 0 once it has
/// elapsed, kNoDeadline when `timeout_ms` is 0.
[[nodiscard]] std::uint64_t ms_left(std::uint64_t timeout_ms,
                                    Clock::time_point since,
                                    Clock::time_point now) {
  if (timeout_ms == 0) return kNoDeadline;
  const auto elapsed = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - since)
          .count());
  return elapsed >= timeout_ms ? 0 : timeout_ms - elapsed;
}

/// Delay before retry pass `pass` (0-based): 10 ms, doubling per pass for
/// six passes, so never more than 640 ms.
[[nodiscard]] std::chrono::milliseconds retry_backoff(unsigned pass) {
  return std::chrono::milliseconds(10) * (1u << std::min(pass, 6u));
}

/// One worker's service of one pass, from fork to reap.  Once its threads
/// start, the writer owns `in_fd` and the reader owns the pid, `out_fd`
/// and every field after it; the pass reads them after the joins.
struct Task {
  std::vector<std::size_t> assigned;  ///< job indices, grouped by graph
  pid_t pid = -1;
  int in_fd = -1;   ///< worker stdin; the writer closes it after the jobs
  int out_fd = -1;  ///< worker stdout; the reader closes it at EOF
  std::size_t completed = 0;  ///< result/error lines accepted so far
  std::string violation;      ///< protocol-violation description, if any
  std::string trailing;       ///< truncated partial line left at EOF
  int wait_status = 0;        ///< raw waitpid status, valid once reaped
  WorkerSummary summary;
  bool summary_seen = false;
  bool killed = false;           ///< SIGKILL sent
  bool deadline_killed = false;  ///< the job deadline passed
  bool batch_expired = false;    ///< the batch deadline passed

  std::thread writer;
  std::thread reader;

  /// SIGKILLs the worker unless it was already killed.  Until reap() the
  /// pid stays a zombie at worst, so it cannot have been recycled.
  void kill() {
    if (killed || pid < 0) return;
    ::kill(pid, SIGKILL);
    killed = true;
  }

  void reap() {
    if (pid >= 0) ::waitpid(pid, &wait_status, 0);
  }

  /// Answered every job, summarized, and exited 0.
  [[nodiscard]] bool clean() const {
    return summary_seen && violation.empty() && exited_cleanly(wait_status);
  }
};

/// What one pass leaves behind: the per-shard tasks, every one reaped, and
/// whether the batch deadline killed any of their workers.
struct PassOutcome {
  std::vector<std::unique_ptr<Task>> tasks;
  bool batch_expired = false;
};

/// The rank of each job's graph: distinct PortGraph::id()s numbered 0, 1,
/// ... in order of first appearance in the batch.
[[nodiscard]] std::vector<std::size_t> rank_graphs(
    const std::vector<BatchJob>& jobs) {
  std::unordered_map<std::uint64_t, std::size_t> ranks;
  std::vector<std::size_t> out(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out[i] = ranks.try_emplace(jobs[i].graph->id(), ranks.size()).first->second;
  }
  return out;
}

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
        buffer_(jobs.size()),
        graph_rank_(rank_graphs(jobs)) {}

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
  /// Reads `t`'s worker to EOF, kills it when a deadline passes or it
  /// breaks protocol, and reaps it.
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
  std::vector<std::size_t> graph_rank_;  ///< per job, from rank_graphs
  Clock::time_point start_ = Clock::now();
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
  // Routing hands this shard each graph's jobs back to back, so a graph
  // line goes out whenever the graph changes: each graph crosses once.
  // The writers serialize their graphs in parallel, one at a time each.
  std::optional<std::uint64_t> sent_id;
  for (const std::size_t idx : t.assigned) {
    const auto& job = jobs_[idx];
    if (sent_id != job.graph->id()) {
      std::string line =
          encode_wire_graph(port::to_port_graph_string(*job.graph));
      line += '\n';
      if (!write_all(t.in_fd, line)) return;
      sent_id = job.graph->id();
    }
    WireJob wire;
    wire.index = idx;
    wire.algorithm = job.spec->algorithm;
    wire.param = job.spec->param;
    wire.threads = job.options.exec.threads;
    wire.max_rounds = job.options.max_rounds;
    wire.async = job.options.exec.async;
    std::string line = encode_wire_job(wire);
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
    t.kill();
  };
  Clock::time_point last_line = Clock::now();
  std::string pending;
  char chunk[1 << 16];
  for (;;) {
    // Wait for output no longer than the nearer deadline.  Once one has
    // passed, the worker is killed and the reader drains to EOF.
    int wait_ms = -1;
    if (!t.killed) {
      const auto now = Clock::now();
      const std::uint64_t batch_left =
          ms_left(options_.batch_timeout_ms, start_, now);
      const std::uint64_t job_left =
          ms_left(options_.job_timeout_ms, last_line, now);
      if (batch_left == 0 || job_left == 0) {
        (batch_left == 0 ? t.batch_expired : t.deadline_killed) = true;
        t.kill();
        continue;
      }
      const std::uint64_t left = std::min(batch_left, job_left);
      if (left != kNoDeadline) {
        wait_ms = static_cast<int>(std::min<std::uint64_t>(left, INT_MAX));
      }
    }
    pollfd ready{t.out_fd, POLLIN, 0};
    const int polled = ::poll(&ready, 1, wait_ms);
    if (polled == 0 || (polled < 0 && errno == EINTR)) continue;
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
        last_line = Clock::now();
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
  // Graph routing (shard.hpp): `runnable` is ascending, so a stable sort
  // by rank groups each shard's jobs by graph, ascending within one.
  std::vector<std::vector<std::size_t>> assigned(shards_);
  for (const std::size_t i : runnable) {
    assigned[graph_rank_[i] % shards_].push_back(i);
  }
  for (auto& shard : assigned) {
    std::stable_sort(shard.begin(), shard.end(),
                     [this](std::size_t a, std::size_t b) {
                       return graph_rank_[a] < graph_rank_[b];
                     });
  }

  PassOutcome outcome;
  auto& tasks = outcome.tasks;
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

    for (unsigned s = 0; s < shards_; ++s) {
      if (assigned[s].empty()) continue;  // never fork an idle shard
      tasks.push_back(std::make_unique<Task>());  // visible to teardown
      Task& t = *tasks.back();
      t.assigned = std::move(assigned[s]);
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
  }  // teardown: every thread joined, every worker reaped

  count(&Stats::jobs_shipped, runnable.size());
  for (const auto& t : tasks) {
    if (t->batch_expired) outcome.batch_expired = true;
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

  std::uint64_t deaths = 0;
  unsigned retry_pass = 0;

  while (!runnable.empty()) {
    const PassOutcome outcome = run_pass(runnable, retry_pass > 0);
    std::vector<std::size_t> requeue;

    for (const auto& tp : outcome.tasks) {
      const Task& t = *tp;
      if (t.clean()) continue;
      ++deaths;
      // A deviation after every job was answered costs nothing but the
      // summary: it shows in summaries_lost, not in results.
      const auto& asg = t.assigned;
      if (t.completed >= asg.size()) continue;

      std::string why = describe_exit(t.wait_status);
      if (t.deadline_killed) {
        why = "job deadline of " + std::to_string(options_.job_timeout_ms) +
              " ms exceeded; " + why;
      }
      if (!t.violation.empty()) why += " (" + t.violation + ")";
      if (!t.trailing.empty()) {
        why += "; truncated trailing output at " + t.trailing;
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
    std::this_thread::sleep_for(retry_backoff(retry_pass++));
    runnable = std::move(requeue);
  }

  buffer_.rethrow_failures();  // the lowest-indexed job failure
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
