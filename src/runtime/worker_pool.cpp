#include "runtime/worker_pool.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"

#if defined(_WIN32)

namespace eds::runtime {

WorkerPool::WorkerPool(std::vector<std::string>, unsigned, Options) {
  throw InvalidArgument(
      "WorkerPool: process sharding requires a POSIX platform");
}

WorkerPool::~WorkerPool() = default;

void WorkerPool::run_batch(const std::vector<BatchJob>&,
                           const Executor::ResultCallback&) {
  throw InvalidArgument(
      "WorkerPool: process sharding requires a POSIX platform");
}

void WorkerPool::reap_idle() {}
void WorkerPool::drain() {}
bool WorkerPool::quarantined() const { return false; }
std::size_t WorkerPool::live_workers() const { return 0; }
WorkerPool::Stats WorkerPool::stats() const { return {}; }

}  // namespace eds::runtime

#else  // POSIX

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <memory>
#include <thread>
#include <unordered_map>

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

}  // namespace

/// Parent-side bookkeeping for one slot's service of one retry pass.  The
/// process itself (pid + pipes) lives in the Slot and survives the pass;
/// this is only the per-checkout state.
struct WorkerPool::PassTask {
  Slot* slot = nullptr;
  std::vector<std::size_t> assigned;  ///< global job indices (owned: the
                                      ///< task outlives the pass locals)
  long pid = -1;               ///< pid snapshot: stable for kill decisions
  std::size_t completed = 0;   ///< result/error lines accepted so far
  std::string violation;       ///< protocol-violation description, if any
  std::string trailing;        ///< truncated partial line left at EOF
  bool dead = false;           ///< EOF observed (worker exited in service)
  int wait_status = 0;         ///< raw waitpid status (valid when dead)
  WorkerSummary summary;
  bool summary_seen = false;

  /// The kill protocol between reader and monitor.  The reader marks
  /// `reaped` *before* its waitpid and `settled` once the summary lands;
  /// the monitor SIGKILLs only a task that is neither — so a deadline
  /// kill can never hit a recycled pid or a worker that already finished
  /// its batch.
  std::mutex kill_mutex;
  bool reaped = false;          ///< kill_mutex
  bool settled = false;         ///< kill_mutex: summary seen, worker warm
  bool kill_sent = false;       ///< kill_mutex
  bool deadline_killed = false; ///< kill_mutex; read after the joins
  /// steady_clock ns of the last completed worker line — the monitor's
  /// definition of "stuck on one job".
  std::atomic<std::int64_t> last_progress_ns{0};

  std::thread writer;
  std::thread reader;

  /// Strict mode (max_retries == 0) only.  A shard that answered all its
  /// batch jobs can still have broken protocol afterwards — extra output,
  /// an unexpected exit, a missing summary.  The delivered results are
  /// trustworthy (each was verified in arrival order), but the batch must
  /// not report success: the summary counters are incomplete and the
  /// worker is not behaving as specified.  Returns the failure
  /// description, or "" for a fully clean shard.
  [[nodiscard]] std::string residual_failure() const {
    if (completed < assigned.size()) return "";  // job errors cover it
    if (!violation.empty()) {
      return "process shard: " + violation + " after its last job";
    }
    if (dead) {
      if (!exited_cleanly(wait_status)) {
        return "process shard: " + describe_exit(wait_status) +
               " after completing its jobs";
      }
      return "process shard: worker exited without a batch summary";
    }
    if (!summary_seen) {
      return "process shard: worker went silent without a batch summary";
    }
    return "";
  }
};

/// What one retry pass leaves behind: the per-shard tasks (for failure
/// classification) and whether the batch deadline fired during the pass.
struct WorkerPool::PassOutcome {
  std::vector<std::unique_ptr<PassTask>> tasks;
  bool batch_expired = false;
};

WorkerPool::WorkerPool(std::vector<std::string> worker_command,
                       unsigned shards, Options options)
    : worker_command_(std::move(worker_command)),
      shards_(resolve_threads(shards)),
      options_(options),
      slots_(shards_) {
  if (worker_command_.empty()) {
    throw InvalidArgument("WorkerPool: worker command must not be empty");
  }
}

WorkerPool::~WorkerPool() {
  const std::lock_guard<std::mutex> lock(batch_mutex_);
  for (auto& slot : slots_) {
    if (slot.pid >= 0) retire_locked(slot, /*count_reaped=*/false);
  }
}

void WorkerPool::retire_locked(Slot& slot, bool count_reaped) {
  // Clean shutdown with the PR-4 no-hang ordering: stdin EOF first (an
  // idle worker exits 0 on it), then stdout — a worker somehow blocked
  // writing results dies on EPIPE instead of stalling the reap — then a
  // blocking reap so no zombie outlives the pool.
  if (slot.in_fd >= 0) {
    ::close(slot.in_fd);
    slot.in_fd = -1;
  }
  if (slot.out_fd >= 0) {
    ::close(slot.out_fd);
    slot.out_fd = -1;
  }
  if (slot.pid >= 0) {
    int status = 0;
    ::waitpid(static_cast<pid_t>(slot.pid), &status, 0);
    slot.pid = -1;
  }
  slot.died_dirty = false;  // a deliberate retirement is not a death
  // The credited summary (last_summary) deliberately survives retirement:
  // stats() keeps counting it until the slot respawns and folds it.
  if (count_reaped) {
    const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.workers_reaped;
  }
}

void WorkerPool::fold_slot_summary_locked(Slot& slot) {
  const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  if (!slot.has_summary) return;
  stats_.plans_compiled += slot.last_summary.total_compiled;
  stats_.plan_hits += slot.last_summary.total_hits;
  slot.has_summary = false;
  slot.last_summary = {};
}

void WorkerPool::reap_idle_locked(std::chrono::steady_clock::time_point now) {
  if (options_.idle_timeout_ms == 0) return;
  const std::chrono::milliseconds idle_timeout(options_.idle_timeout_ms);
  for (auto& slot : slots_) {
    if (slot.pid >= 0 && now - slot.last_used >= idle_timeout) {
      retire_locked(slot, /*count_reaped=*/true);
    }
  }
}

void WorkerPool::reap_idle() {
  const std::lock_guard<std::mutex> lock(batch_mutex_);
  reap_idle_locked(std::chrono::steady_clock::now());
}

void WorkerPool::drain() {
  const std::lock_guard<std::mutex> lock(batch_mutex_);
  for (auto& slot : slots_) {
    if (slot.pid >= 0) retire_locked(slot, /*count_reaped=*/true);
  }
  quarantined_ = false;
  quarantine_reason_.clear();
}

bool WorkerPool::quarantined() const {
  const std::lock_guard<std::mutex> lock(batch_mutex_);
  return quarantined_;
}

std::size_t WorkerPool::live_workers() const {
  const std::lock_guard<std::mutex> lock(batch_mutex_);
  std::size_t live = 0;
  for (const auto& slot : slots_) {
    if (slot.pid >= 0) ++live;
  }
  return live;
}

WorkerPool::Stats WorkerPool::stats() const {
  // Aggregates = folded totals of every ended worker + the credited
  // cumulative totals of the current occupants.  A worker that dies
  // before its final worker_summary still contributes its last-seen
  // snapshot, so the counters are monotone across deaths (satellite:
  // nothing is lost but the final batch's delta, which summaries_lost
  // makes visible).
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  Stats merged = stats_;
  for (const auto& slot : slots_) {
    if (slot.has_summary) {
      merged.plans_compiled += slot.last_summary.total_compiled;
      merged.plan_hits += slot.last_summary.total_hits;
    }
  }
  return merged;
}

void WorkerPool::ensure_worker_locked(Slot& slot) {
  // Health check: a worker that died while idle (crash, OOM kill, …) is
  // detected here, before any frame is written, and replaced silently.
  if (slot.pid >= 0) {
    int status = 0;
    const pid_t reaped =
        ::waitpid(static_cast<pid_t>(slot.pid), &status, WNOHANG);
    if (reaped != 0) {
      if (slot.in_fd >= 0) ::close(slot.in_fd);
      if (slot.out_fd >= 0) ::close(slot.out_fd);
      slot.in_fd = slot.out_fd = -1;
      slot.pid = -1;
      slot.died_dirty = true;
    }
  }
  if (slot.pid >= 0) return;

  // The previous occupant (if any) is gone for good: move its credited
  // cumulative counters into the folded aggregates before the fresh
  // worker starts counting from zero.
  fold_slot_summary_locked(slot);

  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    if (to_child[0] >= 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
    }
    throw ExecutionError("WorkerPool: pipe() failed");
  }
  // Parent-side ends never leak into later workers' exec; the child's ends
  // are re-homed onto fds 0/1 (dup2 clears FD_CLOEXEC on the duplicate).
  for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
    set_cloexec(fd);
  }

  std::vector<char*> argv;
  argv.reserve(worker_command_.size() + 1);
  for (const auto& arg : worker_command_) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    throw ExecutionError("WorkerPool: fork() failed");
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
  slot.pid = pid;
  slot.in_fd = to_child[1];
  slot.out_fd = from_child[0];
  slot.last_used = std::chrono::steady_clock::now();

  {
    const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.workers_spawned;
    if (slot.died_dirty) ++stats_.workers_respawned;
  }
  slot.died_dirty = false;
}

WorkerPool::PassOutcome WorkerPool::run_pass(
    const std::vector<BatchJob>& jobs,
    const std::vector<std::size_t>& runnable,
    detail::ReorderBuffer& buffer, const Executor::ResultCallback& on_result,
    std::chrono::steady_clock::time_point batch_start) {
  // Each pass is its own wire batch frame: a retried job reaches its
  // (possibly respawned) worker inside a fresh batch_begin/batch_end
  // envelope, so the worker-side protocol never sees a partial batch.
  const std::uint64_t batch_id = ++next_batch_id_;

  // Group-affinity routing: equal groups share a worker (and therefore a
  // plan-cache entry); within a shard, jobs keep ascending index order —
  // `runnable` is sorted, so retries preserve the deterministic order too.
  std::vector<std::vector<std::size_t>> assigned(shards_);
  for (const std::size_t i : runnable) {
    assigned[jobs[i].spec->group % shards_].push_back(i);
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
  // On the exception path the monitor must outlive return_workers (a
  // reader blocked on a hung worker needs it) but die before the locals
  // it captures; declared here, it unwinds right after the inner block.
  const ScopeExit stop_monitor(stop_monitor_now);

  {
    // Returns every checked-out worker at scope exit — even when a later
    // spawn or std::thread constructor throws mid-loop.  Order matters on
    // the partial-start paths: a task whose reader never started gets its
    // worker's stdout closed *first*, so a worker blocked writing results
    // dies on SIGPIPE and can neither stall the writer join nor the final
    // reap; a worker touched by such a path is retired as dead (the next
    // pass respawns the slot).  On the normal path both threads exist
    // and this is a plain join/join; healthy workers stay warm.
    const ScopeExit return_workers([&tasks] {
      for (const auto& t : tasks) {
        Slot* slot = t->slot;
        const bool reader_started = t->reader.joinable();
        if (!reader_started && slot->out_fd >= 0) {
          ::close(slot->out_fd);
          slot->out_fd = -1;
        }
        if (t->writer.joinable()) t->writer.join();
        if (reader_started) t->reader.join();
        if (t->dead || !reader_started) {
          // The reader already reaped a dead worker; a never-read worker
          // is reaped here.  Either way the slot is empty and dirty.
          if (slot->in_fd >= 0) {
            ::close(slot->in_fd);
            slot->in_fd = -1;
          }
          if (slot->out_fd >= 0) {
            ::close(slot->out_fd);
            slot->out_fd = -1;
          }
          if (slot->pid >= 0) {
            if (!t->dead) {
              int status = 0;
              ::waitpid(static_cast<pid_t>(slot->pid), &status, 0);
            }
            slot->pid = -1;
          }
          slot->died_dirty = true;
        } else {
          slot->last_used = std::chrono::steady_clock::now();
        }
      }
    });

    const std::int64_t start_ns = steady_now_ns();
    for (unsigned s = 0; s < shards_; ++s) {
      if (assigned[s].empty()) continue;  // never fork an idle shard
      ensure_worker_locked(slots_[s]);
      auto t = std::make_unique<PassTask>();
      t->slot = &slots_[s];
      t->assigned = std::move(assigned[s]);
      t->pid = slots_[s].pid;
      t->last_progress_ns.store(start_ns, std::memory_order_relaxed);
      tasks.push_back(std::move(t));  // visible to return_workers pre-start
    }

    for (const auto& t_ptr : tasks) {
      PassTask* t = t_ptr.get();

      t->writer = std::thread([t, &jobs, batch_id] {
        block_sigpipe_on_this_thread();
        const int fd = t->slot->in_fd;
        if (!write_all(fd, encode_batch_begin(batch_id) + "\n")) return;
        // Serialize-and-escape each distinct graph lazily, once, right
        // here: group routing sends every repeat of a structure to one
        // shard, so per-writer caching never duplicates work across
        // shards — and it parallelizes the text encoding and frees it
        // when this writer exits, instead of a serial up-front pass whose
        // escaped copies would live until the whole batch drained.
        std::unordered_map<const port::PortGraph*, std::string> escaped;
        for (const std::size_t idx : t->assigned) {
          const auto& job = jobs[idx];
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
          std::string line =
              detail::encode_wire_job_preescaped(wire, it->second);
          line += '\n';
          if (!write_all(fd, line)) return;
        }
        // The frame stays open: no stdin close.  The worker answers the
        // batch_end with its summary and waits for the next batch.
        (void)write_all(fd, encode_batch_end(batch_id) + "\n");
      });

      t->reader = std::thread([t, &buffer, &on_result, batch_id] {
        const int fd = t->slot->out_fd;
        std::size_t line_no = 0;
        const auto violate = [t](std::string why) {
          t->violation = std::move(why);
          // A live worker that broke protocol will never send the summary
          // this reader is waiting for — kill it and drain to EOF (never
          // block it on a full stdout pipe); the pass classifies the
          // unfinished jobs after EOF and the next pass respawns the slot.
          const std::lock_guard<std::mutex> lk(t->kill_mutex);
          if (!t->reaped && !t->kill_sent && t->pid >= 0) {
            ::kill(static_cast<pid_t>(t->pid), SIGKILL);
            t->kill_sent = true;
          }
        };
        std::string pending;
        char chunk[1 << 16];
        bool at_eof = false;
        while (!t->summary_seen && !at_eof) {
          const ssize_t n = ::read(fd, chunk, sizeof chunk);
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) {
            at_eof = true;
            break;
          }
          pending.append(chunk, static_cast<std::size_t>(n));
          std::size_t nl;
          while ((nl = pending.find('\n')) != std::string::npos) {
            const std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            ++line_no;
            if (!t->violation.empty()) continue;  // draining to EOF
            try {
              WorkerLine parsed = decode_worker_line(line);
              t->last_progress_ns.store(steady_now_ns(),
                                        std::memory_order_relaxed);
              if (parsed.kind == WorkerLine::Kind::kSummary) {
                if (parsed.summary.batch_id != batch_id) {
                  violate("worker summarized the wrong batch");
                  continue;
                }
                if (t->completed < t->assigned.size()) {
                  violate("worker summarized before answering its jobs");
                  continue;
                }
                if (!pending.empty()) {
                  violate("worker wrote past its batch summary");
                  continue;
                }
                t->summary = parsed.summary;
                {
                  // From here the worker is warm and off-batch: the
                  // deadline monitor must never touch it again.
                  const std::lock_guard<std::mutex> lk(t->kill_mutex);
                  t->settled = true;
                }
                t->summary_seen = true;
                break;  // batch served; the worker stays warm
              }
              // Workers execute their jobs strictly in arrival order; any
              // other index is a protocol violation.
              if (t->completed >= t->assigned.size() ||
                  parsed.index != t->assigned[t->completed]) {
                violate("worker answered for job index " +
                        std::to_string(parsed.index) +
                        (t->completed < t->assigned.size()
                             ? " while job " +
                                   std::to_string(t->assigned[t->completed]) +
                                   " was expected"
                             : " after finishing its batch"));
                continue;
              }
              const std::size_t idx = parsed.index;
              if (parsed.kind == WorkerLine::Kind::kResult) {
                buffer.results[idx] = std::move(parsed.result);
              } else {
                buffer.errors[idx] = std::make_exception_ptr(
                    ExecutionError("process shard: " + parsed.message));
              }
              ++t->completed;
              buffer.deposit_and_flush(idx, on_result);
            } catch (const Error& e) {
              violate("malformed worker " +
                      detail::describe_wire_line(line_no, line) + ": " +
                      e.what());
            }
          }
        }
        if (!at_eof) return;  // healthy: summary received, worker warm

        // EOF: the worker is gone (its own death, our SIGKILL after a
        // violation, or a deadline kill).  Record what it left behind and
        // reap it; the pass classifies the unfinished jobs afterwards.
        t->dead = true;
        if (!pending.empty()) {
          t->trailing = detail::describe_wire_line(line_no + 1, pending);
        }
        {
          // reaped-before-waitpid: once set, the monitor never SIGKILLs
          // this task, so the kill can never land on a recycled pid.
          const std::lock_guard<std::mutex> lk(t->kill_mutex);
          t->reaped = true;
        }
        ::waitpid(static_cast<pid_t>(t->pid), &t->wait_status, 0);
      });
    }

    const std::chrono::milliseconds job_timeout(options_.job_timeout_ms);
    const std::chrono::milliseconds batch_timeout(options_.batch_timeout_ms);
    if (job_timeout.count() > 0 || batch_timeout.count() > 0) {
      monitor = std::thread([this, &tasks, &expired, &monitor_mutex,
                             &monitor_cv, &monitor_stop, batch_start,
                             job_timeout, batch_timeout] {
        const auto kill_task = [this](PassTask& t, bool deadline) {
          const std::lock_guard<std::mutex> lk(t.kill_mutex);
          if (t.reaped || t.settled || t.kill_sent || t.pid < 0) return;
          ::kill(static_cast<pid_t>(t.pid), SIGKILL);
          t.kill_sent = true;
          if (deadline) {
            t.deadline_killed = true;
            const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++stats_.deadline_kills;
          }
        };
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
          if (batch_timeout.count() > 0 &&
              now - batch_start >= batch_timeout) {
            expired.store(true);
            for (const auto& t : tasks) kill_task(*t, /*deadline=*/false);
            return;
          }
          if (job_timeout.count() > 0) {
            const std::int64_t now_ns = steady_now_ns();
            for (const auto& t : tasks) {
              const std::int64_t last =
                  t->last_progress_ns.load(std::memory_order_relaxed);
              if (now_ns - last >=
                  job_timeout.count() * 1'000'000) {
                kill_task(*t, /*deadline=*/true);
              }
            }
          }
        }
      });
    }
  }  // return_workers: every thread joined, every dead worker reaped

  // Stop the monitor before reading `expired` so the verdict is final
  // (the ScopeExit covers the throw paths and no-ops after this).
  stop_monitor_now();
  outcome.batch_expired = expired.load();

  {
    const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.jobs_shipped += runnable.size();
    for (const auto& t : tasks) {
      if (t->summary_seen) {
        // Credit, don't fold: the worker is alive and its cumulative
        // totals keep superseding this snapshot batch after batch.
        t->slot->last_summary = t->summary;
        t->slot->has_summary = true;
      }
    }
  }
  return outcome;
}

void WorkerPool::run_fallback(const std::vector<BatchJob>& jobs,
                              const std::vector<std::size_t>& indices,
                              detail::ReorderBuffer& buffer,
                              const Executor::ResultCallback& on_result) {
  // Graceful degradation runs the exact run_synchronous the workers call,
  // so a rerouted job's result is bit-identical to its sharded twin.
  // Validate (base Executor) guarantees graph and factory are non-null.
  for (const std::size_t idx : indices) {
    const auto& job = jobs[idx];
    try {
      buffer.results[idx] =
          run_synchronous(*job.graph, *job.factory, job.options);
    } catch (...) {
      buffer.errors[idx] = std::current_exception();
    }
    buffer.deposit_and_flush(idx, on_result);
  }
  const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  stats_.fallback_jobs += indices.size();
}

void WorkerPool::run_batch(const std::vector<BatchJob>& jobs,
                           const Executor::ResultCallback& on_result) {
  if (jobs.empty()) return;
  const std::lock_guard<std::mutex> lock(batch_mutex_);

  const auto batch_start = std::chrono::steady_clock::now();
  reap_idle_locked(batch_start);
  {
    const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.batches_run;
  }

  detail::ReorderBuffer buffer(jobs.size());

  if (quarantined_) {
    if (options_.fallback_inprocess) {
      std::vector<std::size_t> all(jobs.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      run_fallback(jobs, all, buffer, on_result);
      buffer.rethrow_failures();
      return;
    }
    throw ExecutionError("process shard: pool quarantined (" +
                         quarantine_reason_ +
                         "); drain() resets it, or enable the in-process "
                         "fallback to degrade gracefully");
  }

  // Per-job attempt bookkeeping for the retry loop.  `attempts` is the
  // number of the try currently (or last) in flight, 1-based; `history`
  // collects one clause per failed attempt for the poison diagnostic.
  struct JobTracker {
    unsigned attempts = 1;
    std::string history;
  };
  std::vector<JobTracker> trackers(jobs.size());

  std::vector<std::size_t> runnable(jobs.size());
  for (std::size_t i = 0; i < runnable.size(); ++i) runnable[i] = i;

  const bool strict = options_.max_retries == 0;
  std::vector<std::string> residuals;  // strict-mode post-completion failures
  std::uint64_t deaths_this_batch = 0;
  unsigned retry_pass = 0;

  while (!runnable.empty()) {
    const PassOutcome outcome =
        run_pass(jobs, runnable, buffer, on_result, batch_start);
    std::vector<std::size_t> requeue;

    for (const auto& tp : outcome.tasks) {
      PassTask& t = *tp;
      if (!t.summary_seen) {
        // This pass's per-batch delta died with the worker; the credited
        // cumulative totals from earlier batches are safe in the slot.
        const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.summaries_lost;
      }
      if (t.summary_seen && !t.dead && t.violation.empty()) continue;
      if (t.dead) ++deaths_this_batch;

      std::string why;
      if (t.dead) {
        why = describe_exit(t.wait_status);
        if (t.deadline_killed) {
          why = "job deadline of " +
                std::to_string(options_.job_timeout_ms) +
                " ms exceeded; " + why;
        }
        if (!t.violation.empty()) why += " (" + t.violation + ")";
      } else {
        why = "protocol violation: " + (t.violation.empty()
                                            ? std::string("worker went silent")
                                            : t.violation);
      }
      if (!t.trailing.empty()) {
        why += "; truncated trailing output at " + t.trailing;
      }

      const auto& asg = t.assigned;
      if (t.completed >= asg.size()) {
        // Post-completion deviation: every job was delivered.  Strict
        // mode still fails the batch (the historical contract); resilient
        // mode retires the worker dirty and moves on — the deviation is
        // visible in summaries_lost / workers_respawned, not in results.
        if (strict) {
          const auto residual = t.residual_failure();
          if (!residual.empty()) residuals.push_back(residual);
        }
        continue;
      }

      if (outcome.batch_expired) {
        for (std::size_t k = t.completed; k < asg.size(); ++k) {
          const std::size_t idx = asg[k];
          buffer.errors[idx] = std::make_exception_ptr(ExecutionError(
              "process shard: batch deadline of " +
              std::to_string(options_.batch_timeout_ms) +
              " ms exceeded before job " + std::to_string(idx) +
              " completed (" + why + ")"));
          buffer.deposit_and_flush(idx, on_result);
        }
        continue;
      }

      if (strict) {
        for (std::size_t k = t.completed; k < asg.size(); ++k) {
          const std::size_t idx = asg[k];
          buffer.errors[idx] = std::make_exception_ptr(ExecutionError(
              "process shard: " + why + " before job " + std::to_string(idx) +
              " completed"));
          buffer.deposit_and_flush(idx, on_result);
        }
        continue;
      }

      // Charge the in-flight job one attempt; its shard siblings were
      // never started and are re-queued uncharged — that asymmetry is
      // what lets a poison job exhaust its own budget without dragging
      // the innocent jobs behind it into the quarantine.
      const std::size_t inflight = asg[t.completed];
      auto& tracker = trackers[inflight];
      if (!tracker.history.empty()) tracker.history += "; ";
      tracker.history +=
          "attempt " + std::to_string(tracker.attempts) + ": " + why;
      if (tracker.attempts > options_.max_retries) {
        buffer.errors[inflight] = std::make_exception_ptr(ExecutionError(
            "process shard: job " + std::to_string(inflight) +
            " poisoned after " + std::to_string(tracker.attempts) +
            " attempts (" + tracker.history + ")"));
        buffer.deposit_and_flush(inflight, on_result);
        const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.jobs_poisoned;
      } else {
        ++tracker.attempts;
        requeue.push_back(inflight);
      }
      for (std::size_t k = t.completed + 1; k < asg.size(); ++k) {
        requeue.push_back(asg[k]);
      }
    }

    if (outcome.batch_expired) {
      const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.batch_timeouts;
      break;
    }
    if (requeue.empty()) break;
    std::sort(requeue.begin(), requeue.end());

    if (options_.breaker_deaths != 0 &&
        deaths_this_batch > options_.breaker_deaths) {
      // Crash-loop breaker: the fleet is dying faster than retrying is
      // worth.  Quarantine (sticky until drain()) and either degrade to
      // in-process execution or fail the remaining jobs cleanly.
      quarantined_ = true;
      quarantine_reason_ =
          std::to_string(deaths_this_batch) + " worker deaths in one batch";
      {
        const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.pool_quarantines;
      }
      for (auto& slot : slots_) {
        if (slot.pid >= 0) retire_locked(slot, /*count_reaped=*/false);
      }
      if (options_.fallback_inprocess) {
        run_fallback(jobs, requeue, buffer, on_result);
      } else {
        for (const std::size_t idx : requeue) {
          buffer.errors[idx] = std::make_exception_ptr(ExecutionError(
              "process shard: pool quarantined (" + quarantine_reason_ +
              ") before job " + std::to_string(idx) + " completed"));
          buffer.deposit_and_flush(idx, on_result);
        }
      }
      break;
    }

    {
      const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      stats_.jobs_retried += requeue.size();
    }
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
  buffer.rethrow_failures();
  for (const auto& r : residuals) throw ExecutionError(r);
}

}  // namespace eds::runtime

#endif  // defined(_WIN32)
