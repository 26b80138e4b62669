// Timing and fault configuration for the asynchronous execution model.
//
// The synchronous engine (runtime/engine.hpp) executes Section 2.2 of the
// paper verbatim: one global round, every message delivered instantly.
// The asynchronous engine (runtime/async.hpp) replaces that single point in
// scenario space with an adversarial scheduler, and this header holds its
// *configuration*: how long each directed port-to-port link takes
// (DelayModel), which transmissions the adversary loses, duplicates or
// crashes (FaultPlan), and the umbrella AsyncOptions that selects the
// execution mode.  Everything here is plain data with value semantics and
// no dependency on the engine, so RunOptions can embed it without pulling
// the event loop into every translation unit.
//
// Determinism contract: every stochastic choice (per-edge delays, loss and
// duplication draws, crash schedules) is a pure function of
// AsyncOptions::seed and structural coordinates (flat port index, round
// number) — never of wall-clock time, thread interleaving or event-pop
// order.  Two runs with equal options are therefore byte-identical,
// including their fault event logs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/program.hpp"

namespace eds::runtime {

/// Families of per-link delay distributions.  Delays are virtual-clock
/// ticks, always at least 1 (a zero-latency link would collapse back to the
/// synchronous model).
enum class DelayKind : std::uint8_t {
  kFixed,      ///< every link takes exactly `a` ticks
  kUniform,    ///< uniform integer in [a, b] per link
  kGeometric,  ///< 1 + Geometric(1/a) per link, truncated at `b`
};

/// A per-link delay distribution.  The asynchronous engine samples one
/// delay per *directed* port (the per-edge delay matrix) at run start, so a
/// link's latency is stable within a run but the two directions of an edge
/// are independent.
struct DelayModel {
  DelayKind kind = DelayKind::kFixed;
  std::uint64_t a = 1;  ///< fixed value / lower bound / mean, by kind
  std::uint64_t b = 1;  ///< upper bound (kUniform, kGeometric truncation)

  /// Largest delay this model can produce — the engine derives round
  /// timeouts from it.
  [[nodiscard]] std::uint64_t max_delay() const noexcept {
    return kind == DelayKind::kFixed ? a : b;
  }

  [[nodiscard]] bool operator==(const DelayModel&) const = default;
};

/// Parses a delay specification: "fixed:T", "uniform:LO:HI" or
/// "geometric:MEAN[:CAP]" (CAP defaults to 8×MEAN), each tick count an
/// unsigned decimal.  Throws InvalidArgument on malformed specs, zero
/// delays or inverted bounds.
[[nodiscard]] DelayModel parse_delay_model(const std::string& spec);

/// Renders a DelayModel back into its canonical specification string.
[[nodiscard]] std::string format_delay_model(const DelayModel& model);

/// A scheduled node crash: at virtual time `time` the node stops — it never
/// fires another round, and anything delivered to it afterwards is dropped.
struct CrashEvent {
  port::NodeId node = 0;
  std::uint64_t time = 0;

  [[nodiscard]] bool operator==(const CrashEvent&) const = default;
};

/// The adversary's fault schedule.  Loss and duplication are per-
/// transmission Bernoulli draws (deterministic in the run seed, see the
/// header comment); crashes are an explicit list so tests can script exact
/// scenarios and the CLI can derive one from a seed.
struct FaultPlan {
  double loss = 0.0;       ///< per-transmission loss probability in [0, 1]
  double duplicate = 0.0;  ///< per-transmission duplication probability
  std::vector<CrashEvent> crashes;

  /// True when the plan injects no faults at all — the only plans the
  /// α-synchronizer accepts (see AsyncOptions::synchronizer).
  [[nodiscard]] bool empty() const noexcept {
    return loss == 0.0 && duplicate == 0.0 && crashes.empty();
  }

  [[nodiscard]] bool operator==(const FaultPlan&) const = default;
};

/// Builds a seeded fault plan: the given loss/duplication rates plus
/// `crash_count` distinct nodes (clamped to `num_nodes`) crashing at
/// uniform times in [1, horizon].  Deterministic in `seed`.
[[nodiscard]] FaultPlan make_fault_plan(double loss, double duplicate,
                                        std::size_t crash_count,
                                        std::size_t num_nodes,
                                        std::uint64_t horizon,
                                        std::uint64_t seed);

/// Kinds of injected-fault events, as recorded in the fault log.
enum class FaultKind : std::uint8_t {
  kLoss,       ///< a transmission was dropped in flight
  kDuplicate,  ///< a transmission was delivered twice
  kCrash,      ///< a node stopped executing
};

/// One injected fault, recorded in AsyncResult::fault_log in deterministic
/// order.  For kLoss/kDuplicate, (node, port) identify the *sender* side of
/// the affected transmission and `round` its algorithm round; for kCrash,
/// `node` is the crashed node and port/round are zero.
struct FaultEvent {
  std::uint64_t time = 0;  ///< virtual time the fault took effect
  FaultKind kind = FaultKind::kLoss;
  port::NodeId node = 0;
  port::Port port = 0;
  Round round = 0;

  [[nodiscard]] bool operator==(const FaultEvent&) const = default;
};

/// Renders a fault log as one line per event ("t=12 loss (3,2) r4").
[[nodiscard]] std::string format_fault_log(
    const std::vector<FaultEvent>& log);

/// One forced entry of the per-link delay matrix: the directed link behind
/// flat port index `port` takes exactly `ticks` instead of its sampled
/// delay.  The adversarial scheduler (runtime/sched.hpp) perturbs runs by
/// overriding selected entries; the engine validates `port` against the
/// plan and rejects zero ticks (a zero-latency link would collapse the
/// model back to synchrony).
struct DelayOverride {
  std::uint32_t port = 0;   ///< flat directed-port index into the matrix
  std::uint64_t ticks = 1;  ///< forced latency, >= 1

  [[nodiscard]] bool operator==(const DelayOverride&) const = default;
};

/// An adversarial schedule: a deterministic perturbation of one async run.
/// Plain data with value semantics, embedded in AsyncOptions — results stay
/// a pure function of (options, schedule), which is what makes a serialized
/// schedule replay bit-identically (see ReplayFile).
///
/// Two perturbation lanes, composable:
///
///  * PCT-style priorities.  When `prio_seed` is non-zero every node gets a
///    random priority (a pure hash of prio_seed and the node id) that
///    breaks same-virtual-time ties in the timeline ahead of the structural
///    (node, port, seq) order.  `change_points` are event-pop counts: when
///    the k-th change point is crossed, the node whose event crossed it is
///    *demoted* — it drops below every initial priority and, crucially, all
///    of its subsequent transmissions take `demote_ticks` extra ticks, so a
///    demoted node's messages can slip past its partners' round deadlines.
///    This is the classic PCT scheduler mapped onto a virtual-time event
///    queue: d change points explore depth-d ordering bugs.
///
///  * Delay overrides.  `delay_overrides` force individual entries of the
///    per-link delay matrix after sampling (see DelayOverride).
struct Schedule {
  std::uint64_t prio_seed = 0;  ///< 0 = structural tie-break (no priorities)
  std::uint64_t demote_ticks = 0;  ///< extra send latency once demoted
  std::vector<std::uint64_t> change_points;  ///< event counts (PCT demotions)
  std::vector<DelayOverride> delay_overrides;

  /// True when the schedule perturbs nothing — the engine then behaves
  /// byte-identically to a build without schedules at all.
  [[nodiscard]] bool empty() const noexcept {
    return prio_seed == 0 && demote_ticks == 0 && change_points.empty() &&
           delay_overrides.empty();
  }

  [[nodiscard]] bool operator==(const Schedule&) const = default;
};

/// Configuration of one asynchronous run.  Embedded in ExecOptions::async;
/// when present there, run_synchronous routes the run through the
/// event-driven engine instead of the round loop.
struct AsyncOptions {
  /// With the α-synchronizer (default), every payload and horizon notice
  /// is acknowledged, and a node takes its next step only once its
  /// transmissions are acknowledged and the inputs of the rounds before
  /// that step are settled — which makes the execution equivalent to the
  /// synchronous one for *any* delay matrix, and is the differential
  /// oracle this subsystem exists for (see runtime/async.hpp).  Requires a
  /// fault-free FaultPlan (loss or crashes would deadlock the wait; the
  /// engine rejects the combination up front).  Without the synchronizer, nodes advance on
  /// a round timeout instead, missing inputs become silence, and faults are
  /// allowed — the degradation-measurement mode.
  bool synchronizer = true;

  /// Per-link delay distribution (the delay matrix is sampled from it once
  /// per run).
  DelayModel delay;

  /// Seed for the run's delay matrix, fault draws and crash times.
  std::uint64_t seed = 1;

  /// Injected faults; must be empty() while `synchronizer` is true.
  FaultPlan faults;

  /// Ticks a node waits for a round's inputs before declaring the missing
  /// ones silent (non-synchronizer mode only).  0 = auto: four round trips
  /// of the delay model's maximum (4 · 2 · max_delay), which no fault-free
  /// in-flight message can exceed.
  std::uint64_t round_timeout = 0;

  /// Adversarial perturbation of this run (empty = none).  Change points
  /// require a non-zero prio_seed and every delay override must name an
  /// in-range flat port with ticks >= 1; the engine rejects violations up
  /// front with InvalidArgument.
  Schedule schedule;

  [[nodiscard]] bool operator==(const AsyncOptions&) const = default;
};

/// A versioned, self-contained replay file: everything needed to re-execute
/// one adversarial async run bit-identically — the instance (embedded in
/// the portgraph text format), the algorithm, the full AsyncOptions
/// including the Schedule, and the worst metrics the search recorded so a
/// replay can verify the run still exhibits them.  The codec is line-based
/// ("edsched 1" header, `key value...` records, the graph after a `graph`
/// marker); decode_replay rejects unknown schema versions and malformed
/// records with InvalidArgument.
struct ReplayFile {
  std::string strategy = "random";  ///< adversary strategy token (bookkeeping)
  std::string algorithm;            ///< algo::algorithm_token vocabulary
  std::uint32_t param = 0;          ///< algorithm parameter (resolved)
  AsyncOptions options;             ///< full run configuration + schedule
  /// Recorded worst metrics, (name, value) in recording order — e.g.
  /// ("selected", 7).  A replay re-measures and compares exactly.
  std::vector<std::pair<std::string, std::uint64_t>> metrics;
  std::string graph_text;           ///< port::write_port_graph serialization

  [[nodiscard]] bool operator==(const ReplayFile&) const = default;
};

/// The replay-file format version encode_replay writes and decode_replay
/// accepts.  Bumped on any incompatible change; a mismatch is a clean
/// InvalidArgument, never a misparse.
inline constexpr std::uint32_t kReplaySchemaVersion = 1;

/// The AsyncOptions records of the replay codec, one `key value...` line
/// each: synchronizer, delay, loss, dup, timeout and seed, one `crash` per
/// scripted crash, then the Schedule's prioseed, demote, change and
/// override records (each only when set).  encode_replay writes exactly
/// these lines, and the shard wire (runtime/shard.hpp) embeds them in an
/// async job line, so AsyncOptions has one text form.
[[nodiscard]] std::string encode_async_options(const AsyncOptions& options);

/// Parses encode_async_options text back into the identical AsyncOptions
/// (the probabilities are written at max_digits10, so they round-trip
/// bit-exactly).  Records may come in any order; a missing one keeps its
/// default.  Throws InvalidArgument on an unknown record or a malformed
/// value, under the same rules decode_replay applies.
[[nodiscard]] AsyncOptions decode_async_options(const std::string& text);

/// A probability token as the replay codec and `edsim sweep --loss/--dup`
/// take it: the whole of `text` is one finite decimal in [0, 1].  NaN,
/// infinities, a '+' sign or trailing bytes give nothing.
[[nodiscard]] std::optional<double> parse_probability(const std::string& text);

/// Serializes `replay` into the versioned text format.
[[nodiscard]] std::string encode_replay(const ReplayFile& replay);

/// Parses a replay file; throws InvalidArgument on a missing/mismatched
/// schema header, unknown records, malformed numbers (anything but
/// unsigned decimal digits), a number above its field's maximum (param,
/// crash node and override port are 32-bit) or a missing graph section.
/// Round-trips encode_replay exactly (including the loss and duplication
/// probabilities, written with max_digits10 precision).
[[nodiscard]] ReplayFile decode_replay(const std::string& text);

}  // namespace eds::runtime
