// ProcessShardExecutor: batch execution sharded across worker subprocesses.
//
// A thread pool stops scaling at one machine's cores and shares one address
// space; process shards are the next rung.  This backend streams each job to
// a worker process (normally `edsim worker`) as one NDJSON line on stdin,
// after one line with the job's graph unless that worker has it already,
// and reads one NDJSON result line per job from its stdout.  Each batch brings
// its own fleet: run_streaming forks one worker per shard that has jobs,
// closes the worker's stdin after its last job line, and reaps it at EOF,
// so no worker outlives the call that forked it.  The Executor contract is
// preserved exactly:
//
//  * Deterministic job-order merge — every result line carries its job
//    index and lands in the shared reorder buffer, so delivery is the
//    strictly increasing prefix regardless of shard scheduling.
//  * One failure policy — a worker that exits (or breaks protocol)
//    mid-batch charges its in-flight job one attempt and its never-started
//    jobs are re-queued to a fresh worker after a backoff (10 ms, doubling
//    per pass), so the batch completes byte-identical to an in-process run
//    (retries are visible in stats(), not in results).  The algorithms are
//    deterministic, so a retried job returns the same bytes.  A job that
//    keeps killing workers is *poisoned* once its attempt budget
//    (Options::max_retries) runs out and fails alone, carrying every
//    attempt's exit status; results before the lowest failure are
//    delivered.  A worker that dies after answering every job fails
//    nothing: it only loses its summary (summaries_lost).  Each worker's
//    reader thread enforces the optional job and batch deadlines and kills
//    its own worker when one passes; a crash-loop breaker gives up on the
//    fleet for the rest of the batch, optionally degrading to in-process
//    execution.
//  * Per-shard plan caches — each worker keeps its own PlanCache and
//    reports compiled/hit counters in its closing summary line.  Jobs are
//    routed by graph: the batch's distinct graphs (PortGraph::id()) go to
//    shards in order of first appearance (rank mod shards), and each shard
//    gets its jobs grouped by graph, ascending within one.  A writer sends
//    a graph line before the first job on each graph, so one graph crosses
//    to, and is parsed and compiled by, exactly one worker, once per pass,
//    and the summed counters match a single-process sweep (absent cache
//    eviction).
//
// The wire format (`schema` 2) is NDJSON with a fixed field order — a
// private protocol between same-version binaries (the parent always forks
// its own `edsim`), versioned so a foreign schema is rejected loudly
// instead of misparsed.  Two parent line kinds and three worker line
// kinds:
//
//   parent -> worker:  {"schema":2,"graph":"…"}
//                      {"schema":2,"job":{"index":I,"algorithm":"T",
//                       "param":P,"threads":N,"max_rounds":R[,"async":"…"]}}
//   worker -> parent:  {"schema":2,"result":{"index":I,"rounds":R,
//                       "messages":M,"ports_served":S,"outputs":[[…],…]}}
//                      {"schema":2,"error":{"index":I,"message":"…"}}
//                      {"schema":2,"worker_summary":{"jobs":J,
//                       "plans_compiled":C,"plan_hits":H}}
//
// A graph line carries the port/io.hpp text of the graph that every job
// line after it runs on, until the next graph line.  The optional `async`
// string holds AsyncOptions in the replay codec's records
// (encode_async_options in runtime/fault.hpp: delay spec, seed,
// loss/duplication probabilities at max_digits10 so they round-trip
// bit-exactly, round timeout, scripted crashes), which is what lets
// `--model async` jobs cross the wire.  Adversarial Schedules do NOT
// cross: they are an in-process search artifact (validate rejects them,
// and so does decode_wire_job).
//
// Workers process jobs sequentially in arrival order and flush after every
// line, so the parent can interleave writing and reading without deadlock.
// `edsim` runs its standard streams unsynced from C stdio
// (std::ios::sync_with_stdio(false) in main), so a worker's std::getline
// copies a line out of its stream buffer in blocks instead of taking it
// from C stdio a character at a time.  The graph text is escaped and
// unescaped a run of plain bytes at a time, so every stage of the path
// costs time in proportion to the line's bytes.  At stdin EOF a worker
// writes one `worker_summary` with its cache counters and exits 0.  A job
// line before any graph line, or any other schema or line kind, is a
// protocol failure (exit 2), which is also how a parent and worker of
// different versions fail loudly on each other's first line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "runtime/batch.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault.hpp"

namespace eds::runtime {

/// The NDJSON protocol version spoken by ProcessShardExecutor and
/// `edsim worker` (and stamped on `edsim sweep --ndjson` output).  It is
/// the only version either side accepts.
inline constexpr int kWireSchemaVersion = 2;

/// One job as it crosses the process boundary.
struct WireJob {
  std::size_t index = 0;     ///< global batch index, echoed in the result
  std::string algorithm;     ///< opaque token (algo::algorithm_from_token)
  Port param = 0;            ///< resolved factory parameter
  unsigned threads = 1;      ///< ExecOptions::threads inside the worker
  Round max_rounds = 0;      ///< RunOptions::max_rounds
  /// Asynchronous execution model, if any.  The embedded Schedule must be
  /// empty: adversarial schedules never cross.
  std::optional<AsyncOptions> async;
};

/// One decoded parent line: the port::write_port_graph text of a graph
/// line, or the job of a job line.
using ParentLine = std::variant<std::string, WireJob>;

/// Worker-side counters reported in the summary line a worker writes at
/// stdin EOF, just before it exits.
struct WorkerSummary {
  std::uint64_t jobs = 0;            ///< result/error lines written
  std::uint64_t plans_compiled = 0;  ///< PlanCache misses
  std::uint64_t plan_hits = 0;       ///< PlanCache hits
};

/// One parsed line of worker output.
struct WorkerLine {
  enum class Kind { kResult, kError, kSummary };
  Kind kind = Kind::kResult;
  std::size_t index = 0;   ///< kResult / kError
  RunResult result;        ///< kResult (outputs + stats; no trace/log)
  std::string message;     ///< kError
  WorkerSummary summary;   ///< kSummary
};

/// Wire codecs.  Encoders emit exactly one line (no trailing newline);
/// decoders are strict — any deviation from the fixed shape, including an
/// unknown schema version or a number larger than its field holds, throws
/// InvalidArgument.
[[nodiscard]] std::string encode_wire_graph(const std::string& graph_text);
[[nodiscard]] std::string encode_wire_job(const WireJob& job);
/// A job line only; a graph line is rejected.
[[nodiscard]] WireJob decode_wire_job(const std::string& line);
[[nodiscard]] ParentLine decode_parent_line(const std::string& line);
[[nodiscard]] std::string encode_wire_result(std::size_t index,
                                             const RunResult& result);
[[nodiscard]] std::string encode_wire_error(std::size_t index,
                                            const std::string& message);
[[nodiscard]] std::string encode_worker_summary(const WorkerSummary& summary);
[[nodiscard]] WorkerLine decode_worker_line(const std::string& line);

namespace detail {
/// Diagnostic context for a protocol failure: `line 17 ("{"schema":2,…")`
/// — 1-based line number plus a truncated, escape-sanitized snippet of the
/// raw line, so a chaos-garbled frame is debuggable from the error alone.
[[nodiscard]] std::string describe_wire_line(std::size_t line_no,
                                             const std::string& line);
}  // namespace detail

// ---------------------------------------------------------------------------
// Deterministic process-level chaos (the `edsim worker --chaos SPEC` hook,
// also routed through the EDS_WORKER_CHAOS environment variable).  Every
// retry / deadline / quarantine path in the resilience layer is exercised
// by *replayable* worker misbehaviour: the spec is a pure function of
// (spec, job ordinal, wire index), so a failing run reproduces exactly.

/// One parsed `--chaos` specification.
///
///   crash:N        exit 7 after answering the worker's Nth job
///   hang:N:MS      sleep MS ms before answering the Nth job
///   garbage:N      emit a non-protocol line instead of the Nth result and
///                  keep running (the parent kills on the violation)
///   slow:N:MS      write the Nth result line in two flushes MS ms apart
///   exit-mid:N     write half of the Nth result line and exit 11
///   poison:I       exit 13 on receiving the job with *wire index* I —
///                  the poison-job simulator: every worker that is handed
///                  job I dies, every time
///   rand:SEED:PM   seeded per-job draw: with probability PM/1000 apply one
///                  of crash / garbage / exit-mid / slow, chosen by the
///                  same draw (deterministic in SEED and the job ordinal)
struct ChaosSpec {
  enum class Mode {
    kNone,
    kCrash,
    kHang,
    kGarbage,
    kSlow,
    kExitMid,
    kPoison,
    kRandom,
  };
  Mode mode = Mode::kNone;
  std::uint64_t n = 0;         ///< job ordinal (1-based), or wire index (poison)
  std::uint64_t ms = 0;        ///< hang / slow delay
  std::uint64_t seed = 0;      ///< rand
  std::uint64_t permille = 0;  ///< rand: fault probability out of 1000
};

/// Parses a chaos spec ("" = none).  Throws InvalidArgument on anything
/// malformed — an unknown mode, a missing field, permille > 1000.
[[nodiscard]] ChaosSpec parse_chaos_spec(const std::string& spec);

/// Canonical text form; parse_chaos_spec(format_chaos_spec(s)) == s.
[[nodiscard]] std::string format_chaos_spec(const ChaosSpec& spec);

/// The action a worker applies to one job: a pure function of the spec,
/// the job's 1-based ordinal within the worker's lifetime (one pass of
/// one batch), and the job's wire index.
/// kCrash in the result means "die after answering this job"; kNone means
/// behave normally.
struct ChaosAction {
  ChaosSpec::Mode mode = ChaosSpec::Mode::kNone;
  std::uint64_t ms = 0;
};
[[nodiscard]] ChaosAction chaos_action(const ChaosSpec& spec,
                                       std::uint64_t job_ordinal,
                                       std::size_t wire_index);

/// The process-sharding backend.  POSIX-only: constructing one on a
/// platform without fork/pipe throws InvalidArgument.
class ProcessShardExecutor final : public Executor {
 public:
  /// Counters summed over every run_streaming call.  plans_compiled and
  /// plan_hits sum the worker summaries, so a sweep can report cache
  /// effectiveness exactly as an in-process run would; workers_spawned
  /// counts every fork (a respawn increments both it and
  /// workers_respawned).
  struct Stats {
    std::uint64_t jobs_shipped = 0;       ///< job shipments incl. retries
    std::uint64_t workers_spawned = 0;
    std::uint64_t workers_respawned = 0;  ///< forks that replace a dead worker
    std::uint64_t plans_compiled = 0;
    std::uint64_t plan_hits = 0;
    // Resilience counters: all zero on a clean run, whose sweep summary
    // then leaves them out.
    std::uint64_t jobs_retried = 0;     ///< orphaned jobs re-shipped
    std::uint64_t jobs_poisoned = 0;    ///< jobs whose attempt budget ran out
    std::uint64_t deadline_kills = 0;   ///< SIGKILLs for a blown job deadline
    std::uint64_t batch_timeouts = 0;   ///< batches cut off at the deadline
    std::uint64_t pool_quarantines = 0; ///< crash-loop breaker trips
    std::uint64_t fallback_jobs = 0;    ///< jobs rerouted in-process
    std::uint64_t summaries_lost = 0;   ///< worker summaries a death swallowed
  };

  /// Resilience knobs; every one applies within a single batch.
  struct Options {
    /// Attempt budget per job beyond the first try.  The job a worker
    /// death interrupted is charged an attempt and re-queued until the
    /// budget runs out, at which point it is *poisoned*: it fails alone
    /// with per-attempt diagnostics while its batch siblings complete.
    /// With 0, a death poisons the job it interrupted at once; the jobs
    /// that worker never started still run on a fresh worker.
    unsigned max_retries = 2;
    /// A worker that goes this long without completing a line is
    /// SIGKILLed by its reader (counted in deadline_kills) and its
    /// in-flight job charged an attempt.  0 = no job deadline.
    std::uint64_t job_timeout_ms = 0;
    /// Hard wall-clock bound for one batch: past it every reader kills
    /// its still-running worker and the unfinished jobs fail cleanly
    /// instead of hanging.  0 = no batch deadline.
    std::uint64_t batch_timeout_ms = 0;
    /// Crash-loop breaker: more worker deaths than this inside one batch
    /// stops the retries (0 = breaker off).  The batch's remaining jobs
    /// then fail fast — or run in-process when fallback_inprocess is set.
    /// The next batch starts afresh.
    std::uint64_t breaker_deaths = 8;
    /// When the breaker trips, reroute the remaining jobs through
    /// in-process execution instead of failing them.  Results stay
    /// bit-identical by construction: workers run the same run_synchronous
    /// the fallback calls.
    bool fallback_inprocess = false;
  };

  /// `worker_command` is the argv of one shard process (e.g.
  /// {"/path/to/edsim", "worker"}); it must speak the wire protocol above.
  /// `shards` as in ExecOptions::threads: 0 = one shard per hardware
  /// thread.  A batch forks a worker only for a shard it routes jobs to,
  /// and reaps it before run_streaming returns, so an executor holds no
  /// processes between batches.
  explicit ProcessShardExecutor(std::vector<std::string> worker_command,
                                unsigned shards = 0);
  ProcessShardExecutor(std::vector<std::string> worker_command,
                       unsigned shards, Options options);

  /// Every job must carry a JobSpec and must not request trace or message
  /// collection (those RunResult fields do not cross the wire) or carry a
  /// RunOptions::metrics sink.  Async jobs cross, but their Schedule must
  /// be empty.
  void validate(const std::vector<BatchJob>& jobs) const override;

  /// Throws InvalidArgument (via validate) before anything is spawned.
  /// Batches are serialized: concurrent callers queue.  Defined with the
  /// process machinery in worker_pool.cpp.
  void run_streaming(const std::vector<BatchJob>& jobs,
                     const ResultCallback& on_result) const override;

  /// Shard count after resolving 0 to the hardware thread count.
  [[nodiscard]] unsigned shards() const noexcept { return shards_; }

  [[nodiscard]] Stats stats() const;

 private:
  std::vector<std::string> worker_command_;
  unsigned shards_;
  Options options_;
  mutable std::mutex batch_mutex_;  ///< one batch at a time
  mutable std::mutex stats_mutex_;
  mutable Stats stats_;             ///< stats_mutex_
};

}  // namespace eds::runtime
