// Event-driven asynchronous execution of port-numbering algorithms.
//
// The synchronous engine advances every node in lock-step; AsyncPolicy
// replaces the global round with a virtual clock and a timeline: every
// transmission becomes an event that arrives after the per-link delay drawn
// from the run's delay matrix, and nodes fire their receive step when their
// local round's inputs are in.  Two modes:
//
//  * α-synchronizer (AsyncOptions::synchronizer, default).  It pays per
//    message and per awake node-round, not per port-round.  A link
//    carries payloads — non-silence messages, each for one round — and
//    horizon notices, "silent through round h"; a halted node's notice
//    has h = ∞.  Links are FIFO (the delay matrix is fixed per directed
//    link), so a receiver knows every round of a link through its latest
//    payload or notice, and reads the rounds without a payload as silence.
//    Each node replays the round engine's call sequence: send(w) and
//    receive(w) in every awake round w, receive(a) alone when a payload
//    arrives in a sleep round a (NodeProgram::next_wake).  After
//    receive(r) it announces silence through next_send(r) − 1, the
//    program's binding promise — or, when its links already settle every
//    round before its next wake w, calls send(w) straight away.  A notice
//    is left out on a port whose partner has announced as far itself (it
//    learns of the silence from the next transmission that reaches
//    further), and a halted partner is sent nothing, so a port carries
//    about one transmission per awake round.  The model: the receiving
//    transport acknowledges every transmission, payload or notice (below
//    the algorithm, so also at a halted node), and a node takes its next
//    step only once all of its transmissions are acknowledged and its
//    links settle the rounds that step needs.  Each node therefore
//    observes *exactly* the message sequence of the synchronous
//    execution — outputs, stats, trace and (order-normalized) message log
//    are bit-identical to the round engine for every delay matrix.  This
//    is the differential oracle: any divergence is an engine bug, not an
//    algorithm property.  AsyncStats count this traffic: `events` pops,
//    `acks` acknowledgements, `delivered` payloads, `virtual_time` the
//    last pop's clock.
//
//  * Free-running (synchronizer off).  Dense: every running node sends a
//    payload on every port in every round and no acknowledgements; a
//    node waits at most AsyncOptions::round_timeout ticks for a round's
//    inputs, then substitutes silence for the missing ports and fires
//    anyway.  Only a halt travels as a notice.  This mode admits the
//    FaultPlan (loss, duplication, crashes) and exists to measure how the
//    paper's algorithms degrade off the synchronous model.  Under a
//    non-empty FaultPlan a program that throws (a handshake meeting the
//    silence a fault left) stops like a crashed node; without faults the
//    throw ends the run.
//
// Determinism: the event loop is sequential and pops a strict weak order —
// (time, priority, node, port, seq) with seq a global monotone counter —
// from a timeline bucketed by tick, and every random draw is a pure
// function of the seed and structural coordinates (see runtime/fault.hpp).
// Equal inputs give byte-identical AsyncResults, including the fault log,
// regardless of ExecOptions::threads (which only parallelizes *across*
// runs at the batch layer, never within one).
//
// The ordering hook: AsyncOptions::schedule (runtime/fault.hpp) injects an
// adversarial perturbation into that order.  A non-empty Schedule stamps
// each event with a PCT-style per-node priority (splicing ahead of the
// structural node/port tie-break), demotes nodes at its change points —
// demoted nodes' sends take Schedule::demote_ticks extra latency — and
// forces entries of the delay matrix via its overrides.  With an empty
// schedule every priority is zero and the engine is bit-identical to a
// build without schedules.  Schedules are pure data, so (options, schedule)
// fully determine the run — the property runtime/sched.hpp's searcher and
// the replay file format rely on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/fault.hpp"
#include "runtime/runner.hpp"

namespace eds::runtime {

/// Counters specific to the asynchronous engine (RunStats covers the
/// model-independent ones).
struct AsyncStats {
  std::uint64_t virtual_time = 0;  ///< clock value of the last event
  std::uint64_t delivered = 0;     ///< payloads accepted into an input buffer
  std::uint64_t acks = 0;          ///< acknowledgements delivered (synchronizer,
                                   ///< one per payload or horizon notice)
  std::uint64_t lost = 0;          ///< transmissions dropped by the FaultPlan
  std::uint64_t duplicated = 0;    ///< transmissions delivered twice
  std::uint64_t stale = 0;         ///< late/duplicate arrivals discarded
  std::uint64_t timeouts = 0;      ///< rounds fired with inputs missing
  std::uint64_t events = 0;        ///< timeline pops (the change-point axis)

  [[nodiscard]] bool operator==(const AsyncStats&) const = default;
};

/// Outcome of an asynchronous run.  `run` carries exactly what the
/// synchronous engine would produce (and is what the dispatching
/// run_synchronous returns); the remaining fields are the async-only
/// observables.  Crashed nodes never halt, so their `run.outputs` entry is
/// empty and `crashed[v]` distinguishes "crashed" from "selected nothing".
struct AsyncResult {
  RunResult run;
  AsyncStats async;
  std::vector<FaultEvent> fault_log;  ///< injected faults, in event order
  std::vector<std::uint8_t> crashed;  ///< crashed[v] != 0: node v crashed

  [[nodiscard]] bool operator==(const AsyncResult&) const = default;
};

/// The event-driven execution policy.  Stateless apart from its options;
/// safe to share across threads and reuse across plans.
class AsyncPolicy {
 public:
  explicit AsyncPolicy(AsyncOptions options);

  [[nodiscard]] const AsyncOptions& options() const noexcept {
    return options_;
  }

  /// Executes `programs` (one per plan node) under the event loop.  Throws
  /// InvalidArgument for inconsistent options (synchronizer with a non-empty
  /// FaultPlan, probabilities outside [0, 1], crash of an out-of-range
  /// node, zero max_rounds) and ExecutionError when a node exceeds
  /// RunOptions::max_rounds, mirroring the synchronous engine's contract.
  [[nodiscard]] AsyncResult run(
      const ExecutionPlan& plan,
      std::vector<std::unique_ptr<NodeProgram>>& programs,
      const RunOptions& options, const std::string& name) const;

 private:
  AsyncOptions options_;
};

/// Runs `factory`'s program on every node of `g` under the asynchronous
/// engine.  The RunOptions' ExecOptions::async field is ignored here — the
/// explicit `async` argument wins (this *is* the async entry point).
[[nodiscard]] AsyncResult run_asynchronous(const port::PortGraph& g,
                                           const ProgramFactory& factory,
                                           const RunOptions& options,
                                           const AsyncOptions& async);

/// Caller-provided per-node programs, asynchronous counterpart of
/// run_synchronous_programs.
[[nodiscard]] AsyncResult run_asynchronous_programs(
    const port::PortGraph& g,
    std::vector<std::unique_ptr<NodeProgram>> programs,
    const RunOptions& options, const AsyncOptions& async,
    const std::string& name = "custom");

}  // namespace eds::runtime
