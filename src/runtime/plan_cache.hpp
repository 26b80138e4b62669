// PlanCache: one immutable ExecutionPlan shared across every run on the
// same port graph.
//
// Sweep-style workloads (Table 1, scaling benches, `edsim sweep --repeat`)
// execute hundreds to thousands of jobs on a handful of distinct graphs.
// Compiling an ExecutionPlan is O(total ports): 3.8–4.3 ms on a 512×512
// torus with random ports, 51–62 ms on a 2^20-node 3-regular graph
// (Release, gcc 12, 4 vCPU).  The cache keys plans by PortGraph::id(), the
// identity of the build that made the graph, so a hit costs one hash-map
// lookup and reads no port.  Copies of a graph share its id and its plan;
// a separately built graph of equal structure is another graph and gets
// its own plan.  (A structural key — hashing the degree sequence and
// involution and verifying candidates field by field — made a hit cost
// 11.7 ms on that torus, more than the compile it saved.)  Sharing is safe
// because PortGraph and ExecutionPlan are immutable and run_plan only
// reads the plan.
//
// Concurrency: all operations are serialized on an internal mutex —
// BatchRunner jobs race get() freely, and a plan is constructed exactly
// once per graph (construction happens under the lock; the counters make
// that assertable).  Both an entry count and a byte total are LRU-bounded,
// so long-lived processes cannot accumulate unbounded plan memory even
// when individual plans are tens of megabytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "port/port_graph.hpp"
#include "runtime/engine.hpp"

namespace eds::runtime {

/// Thread-safe, LRU-bounded cache of shared ExecutionPlans.
class PlanCache {
 public:
  /// Counters (monotonic except `size`/`bytes`): one `miss` per plan
  /// actually compiled, one `hit` per reuse, one `eviction` per LRU drop.
  struct Stats {
    std::uint64_t hits = 0;       ///< get() calls served by a cached plan
    std::uint64_t misses = 0;     ///< get() calls that compiled a new plan
    std::uint64_t evictions = 0;  ///< plans dropped by the LRU bound
    std::size_t size = 0;         ///< plans currently cached
    std::size_t bytes = 0;        ///< approximate bytes held by cached plans

    [[nodiscard]] bool operator==(const Stats&) const = default;
  };

  /// `capacity` is the maximum number of cached plans (>= 1) and
  /// `max_bytes` the maximum bytes they may hold together; after a miss,
  /// least-recently-used plans are evicted until both bounds hold (the
  /// newest plan is always kept, so a single oversized plan still caches).
  /// The byte bound is what keeps one-shot runs on huge graphs from
  /// pinning plan memory: a 100k-node plan is ~11 MB, so the default cap
  /// retains a handful of those, not `capacity` of them.
  explicit PlanCache(std::size_t capacity = kDefaultCapacity,
                     std::size_t max_bytes = kDefaultMaxBytes);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan for `g`: a cached one when a plan for `g.id()` is resident,
  /// a freshly compiled (and cached) one otherwise.  The returned plan
  /// stays valid even after eviction — eviction only drops the cache's own
  /// reference.
  [[nodiscard]] std::shared_ptr<const ExecutionPlan> get(
      const port::PortGraph& g);

  /// Snapshot of the counters.
  [[nodiscard]] Stats stats() const;

  /// Drops every cached plan (outstanding shared_ptrs stay valid) and
  /// leaves the hit/miss/eviction counters untouched.
  void clear();

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }

  static constexpr std::size_t kDefaultCapacity = 32;
  static constexpr std::size_t kDefaultMaxBytes = 64u << 20;  // 64 MiB

 private:
  struct Entry {
    std::uint64_t graph_id = 0;
    std::shared_ptr<const ExecutionPlan> plan;
  };

  // Recency list (front = most recent) plus an index into it by graph id.
  mutable std::mutex mutex_;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::size_t capacity_;
  std::size_t max_bytes_;
  Stats stats_;
};

}  // namespace eds::runtime
