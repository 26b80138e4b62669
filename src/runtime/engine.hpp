// The execution engine: a compiled per-graph plan plus the round loop that
// drives the synchronous rounds across the lanes of a ThreadPool.
//
// The paper's algorithms are local — O(1) or O(∆²) rounds — so essentially
// all wall-clock time in this reproduction is simulator overhead, not
// algorithm logic.  This layer attacks that overhead three ways:
//
//  * ExecutionPlan precomputes everything the round loop needs as flat
//    arrays (degrees, port offsets, the involution as flat indices), so the
//    inner loops never pay PortGraph's bounds-checked lookups.
//
//  * The round loop pays per active node, not per node-round.  A program
//    declares after each receive when it next has work
//    (NodeProgram::next_wake); the engine keeps sleeping nodes in per-round
//    *wake buckets* and visits, each round, only the nodes that receive
//    (they sent this round, or a non-silence arrival woke them) or send
//    next round.  Arrivals are found from the senders' own writes, and
//    rounds with nothing due and nothing in flight are skipped in O(1) but
//    still counted.  The default next_wake (r + 1) wakes every node every
//    round, so dense execution is the degenerate case of the same loop.
//    Each round's ascending visit list is sharded across the lanes of a
//    ThreadPool; a one-lane pool runs the shards inline on the caller.
//    Shard boundaries equalize *port* counts, not node counts
//    (balanced_shard_bounds), so power-law degree sequences cannot starve
//    all lanes but one.
//
//  * Message transport is sender-indexed and double-buffered: each buffer
//    holds one round's messages at their *senders'* flat ports (programs
//    write straight into their own contiguous segment — sequential stores,
//    no staging copy, single-writer by construction).  Each round runs ONE
//    sharded stage behind ONE barrier: a visited node gathers its round-r
//    input from the current buffer *through the involution* (delivery IS
//    the gather — the permutation is applied on the read side, where loads
//    pipeline, instead of as scattered stores), then — unless it halted or
//    sleeps — writes round r+1 into its own segment of the next buffer.
//    Messages are counted from the senders' segments at send time, and a
//    round's senders re-silence their segments one stage after delivery.
//    (A full four-lane SoA split of Message storage was measured and
//    rejected: the permutation step then touches four cache lines per
//    message instead of one, ~4x slower on dense graphs — see
//    ARCHITECTURE.md.)
//
// Hard guarantee, enforced by differential tests: every lane count produces
// bit-identical RunResults — outputs, stats, trace, and message-log order —
// equal to the dense seed semantics.  Parallel merges always combine
// per-shard results in shard (= node-range) order, which is exactly the
// sequential order; see ARCHITECTURE.md for the full determinism argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/program.hpp"
#include "runtime/runner.hpp"
#include "util/parallel.hpp"

namespace eds::runtime {

/// Immutable, flat-array view of a PortGraph, precomputed once per run (or
/// shared across many runs on the same graph).  All accessors are unchecked
/// hot-path lookups; the constructor performs no validation of its own and
/// relies on the PortGraph invariants (PortGraphBuilder::build and
/// read_port_graph both verify the involution before a graph exists).
class ExecutionPlan {
 public:
  explicit ExecutionPlan(const port::PortGraph& g);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return degrees_.size();
  }
  [[nodiscard]] std::size_t total_ports() const noexcept {
    return partner_flat_.size();
  }
  /// Degree of node v (unchecked).
  [[nodiscard]] Port degree(std::size_t v) const noexcept {
    return degrees_[v];
  }
  /// Flat index of port (v, 1); port (v, i) lives at offset(v) + i - 1.
  [[nodiscard]] std::size_t offset(std::size_t v) const noexcept {
    return offsets_[v];
  }
  /// Flat index of the involution partner of flat port q (unchecked).
  /// Stored as uint32 — the receive gather reads it for every delivered
  /// port, so halving its bytes is a straight hot-loop bandwidth win
  /// (total_ports above 2^32 is far beyond this simulator's reach).
  [[nodiscard]] std::size_t partner_flat(std::size_t q) const noexcept {
    return partner_flat_[q];
  }
  /// The involution partner of flat port q as a (node, port) pair.
  [[nodiscard]] port::PortRef partner_ref(std::size_t q) const noexcept {
    return partner_ref_[q];
  }

  /// Heap footprint of the flat arrays, for cache accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return degrees_.capacity() * sizeof(Port) +
           offsets_.capacity() * sizeof(std::size_t) +
           partner_flat_.capacity() * sizeof(std::uint32_t) +
           partner_ref_.capacity() * sizeof(port::PortRef);
  }

 private:
  std::vector<Port> degrees_;
  std::vector<std::size_t> offsets_;        // prefix sums of degrees
  std::vector<std::uint32_t> partner_flat_; // involution over flat indices
  std::vector<port::PortRef> partner_ref_;  // involution as (node, port)
};

/// The lanes ExecOptions selects for a run's round stages: a one-lane
/// pool (every stage inline on the caller, no worker thread) for
/// threads == 1, otherwise `threads` lanes as in resolve_threads().
[[nodiscard]] std::unique_ptr<ThreadPool> make_policy(const ExecOptions& exec);

/// Drives `programs` (one per node, already constructed, not yet started)
/// over the plan's graph until every node halts, sharding each round's
/// stage across the lanes of `pool`.  This is the engine core under
/// run_synchronous; call it directly to reuse a plan or a pool across runs.
///
/// The engine's state is pooled: both outbox buffers, the per-node wake
/// and silence bookkeeping, the wake buckets, the visit lists and the
/// per-shard scratch all live in a per-thread workspace that is reset (not
/// reallocated) per run and reused across runs, so repeated executions on
/// one lane perform no per-run buffer allocation once the workspace has
/// grown to the largest graph seen.  The double buffer costs a second
/// total_ports-sized slot array — the price of running each round behind
/// a single barrier.  Everything else is O(n), plus one outdated wake
/// bucket entry per arrival wake until the round it replaced comes up.
/// RunOptions::metrics, when set, receives the stage split and workspace
/// reuse, growth and footprint.
[[nodiscard]] RunResult run_plan(
    const ExecutionPlan& plan,
    std::vector<std::unique_ptr<NodeProgram>>& programs,
    const RunOptions& options, const std::string& name, ThreadPool& pool);

}  // namespace eds::runtime
