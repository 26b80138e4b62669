#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iterator>
#include <sstream>
#include <type_traits>

#include "util/error.hpp"

namespace eds::runtime {

ExecutionPlan::ExecutionPlan(const port::PortGraph& g)
    : degrees_(g.degree_sequence()), partner_ref_(g.partner_table()) {
  constructed_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = degrees_.size();
  offsets_.resize(n);
  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    offsets_[v] = total;
    total += degrees_[v];
  }
  partner_flat_.resize(total);
  for (std::size_t q = 0; q < total; ++q) {
    const auto dst = partner_ref_[q];
    partner_flat_[q] =
        static_cast<std::uint32_t>(offsets_[dst.node] + dst.port - 1);
  }
}

bool ExecutionPlan::matches(const port::PortGraph& g) const {
  // Two contiguous scans: the flat degree sequence and the flat involution
  // table are exactly what the constructor consumed, in the same order.
  return degrees_ == g.degree_sequence() &&
         partner_ref_ == g.partner_table();
}

std::unique_ptr<ThreadPool> make_policy(const ExecOptions& exec) {
  return std::make_unique<ThreadPool>(exec.threads);
}

namespace {

/// One node visited by a round stage.  Stage s visits, in ascending node
/// order, the nodes that receive round s (they sent in round s, or a
/// non-silence message woke them from sleep) and the nodes that send round
/// s + 1.  The visit then sets `receives` to whether the node sent round
/// s + 1, which makes the entry its visit of stage s + 1.
struct Visit {
  std::uint32_t node = 0;
  bool receives = false;
};

/// Per-shard accumulators; merged strictly in shard order so parallel runs
/// reproduce the sequential order bit for bit.  Cache-line aligned so
/// neighboring shards' counters never share a line.
struct alignas(64) ShardScratch {
  std::uint64_t ports_served = 0;
  std::uint64_t messages = 0;  // non-silence sends of the next round
  std::size_t halted = 0;
  std::vector<DeliveredMessage> log;
  /// Receivers that chose to sleep past the next round, ascending.
  std::vector<std::uint32_t> sleepers;
  /// Receivers that stopped sending (slept or halted) with this round's
  /// send still in their segment: re-silenced after the barrier.
  std::vector<std::uint32_t> leavers;
  /// Sleeping nodes a next-round send reached (unsorted, may repeat).
  std::vector<std::uint32_t> woken;
  /// One node's inbound messages, gathered through the involution from the
  /// current outbox back into the contiguous form receive() promises.
  /// Max-degree sized and reused across nodes, rounds and runs.
  std::vector<Message> recv;
  /// Profiled runs only: per-stage wall time accumulated shard-locally and
  /// merged by the driver after the barrier.
  std::uint64_t receive_ns = 0;
  std::uint64_t exchange_ns = 0;
  std::exception_ptr error;

  void reset() noexcept {
    ports_served = 0;
    messages = 0;
    halted = 0;
    log.clear();
    sleepers.clear();
    leavers.clear();
    woken.clear();
    receive_ns = 0;
    exchange_ns = 0;
    error = nullptr;
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return log.capacity() * sizeof(DeliveredMessage) +
           (sleepers.capacity() + leavers.capacity() + woken.capacity()) *
               sizeof(std::uint32_t) +
           recv.capacity() * sizeof(Message);
  }
};

void rethrow_first(const std::vector<ShardScratch>& scratch,
                   std::size_t shards) {
  for (std::size_t s = 0; s < shards; ++s) {
    if (scratch[s].error) std::rethrow_exception(scratch[s].error);
  }
}

/// Wake-bucket key: the round a sleeping node is next due, then the node,
/// so the min-heap pops each round's bucket in ascending node order.
std::uint64_t wake_key(Round round, std::uint32_t node) noexcept {
  return (static_cast<std::uint64_t>(round) << 32) | node;
}

/// A lane keeps its workspace across runs while the workspace holds at
/// most this multiple of what a run needs, or at most kWorkspaceKeepBytes:
/// the slack absorbs runs of alternating sizes, and one large run does not
/// pin its buffers for the rest of the thread's life.
constexpr std::size_t kWorkspaceSlack = 4;
constexpr std::size_t kWorkspaceKeepBytes = 64 * 1024;

/// The pooled engine state: every buffer the round loop writes lives here
/// and is *assigned* (size + contents reset, capacity retained) at the
/// start of each run instead of being reallocated.  One workspace exists
/// per thread, so sequential runs and BatchRunner jobs (one job per pool
/// lane) each reuse their lane's arena run after run.
struct EngineWorkspace {
  /// The double-buffered transport: round r's messages live in
  /// outbox[r & 1], indexed by *sender* flat port (node v's sends occupy
  /// the contiguous segment [offset(v), offset(v) + degree(v))).  Senders
  /// write only their own segment (trivially single-writer); receivers
  /// gather through the involution, so delivery itself is free.
  std::vector<Message> outbox[2];
  /// Per node: the round it is next due in (it sends and receives that
  /// round), 0 once halted.
  std::vector<Round> wake;
  /// Per node: bit b set while its segment of outbox[b] holds a send not
  /// yet re-silenced.
  std::vector<std::uint8_t> dirty;
  /// Per node: set while it sleeps through the round being sent, so a
  /// non-silence send to it is an arrival that wakes it.  Written only
  /// between stages.
  std::vector<char> asleep;
  /// The wake buckets of sleeping nodes: a min-heap of wake_key()s.  A
  /// node has at most one live entry (key matches wake[] and asleep[]);
  /// entries outdated by an arrival wake are dropped when popped.
  std::vector<std::uint64_t> buckets;
  std::vector<Visit> visit;        // this stage's visit list, ascending
  std::vector<Visit> extra;        // the next stage's non-sender visits
  std::vector<Visit> merged;       // merge target for visit + extra
  std::vector<std::uint32_t> woken;
  std::vector<std::size_t> bounds;  // shard boundaries, shards + 1 entries
  std::vector<ShardScratch> scratch;
  bool in_use = false;  // re-entrancy guard (see acquire below)

  EngineWorkspace() = default;
  EngineWorkspace(const EngineWorkspace&) = delete;
  EngineWorkspace& operator=(const EngineWorkspace&) = delete;

  [[nodiscard]] std::size_t footprint() const noexcept {
    std::size_t scratch_bytes = 0;
    for (const auto& sc : scratch) scratch_bytes += sc.memory_bytes();
    return (outbox[0].capacity() + outbox[1].capacity()) * sizeof(Message) +
           wake.capacity() * sizeof(Round) + dirty.capacity() +
           asleep.capacity() + buckets.capacity() * sizeof(std::uint64_t) +
           (visit.capacity() + extra.capacity() + merged.capacity()) *
               sizeof(Visit) +
           woken.capacity() * sizeof(std::uint32_t) +
           bounds.capacity() * sizeof(std::size_t) +
           scratch.capacity() * sizeof(ShardScratch) + scratch_bytes;
  }

  /// The bytes prepare() sizes for a run over `n` nodes and `total_ports`
  /// ports: a lower bound on a fresh workspace's footprint after the run.
  [[nodiscard]] static std::size_t need_bytes(std::size_t n,
                                              std::size_t total_ports) {
    return 2 * total_ports * sizeof(Message) +
           n * (sizeof(Round) + sizeof(std::uint8_t) + sizeof(char) +
                sizeof(Visit));
  }

  /// Frees every buffer; the next run grows them as a fresh lane would.
  void release() {
    const auto drop = [](auto&... buffers) {
      (std::remove_reference_t<decltype(buffers)>().swap(buffers), ...);
    };
    drop(outbox[0], outbox[1], wake, dirty, asleep, buckets, visit, extra,
         merged, woken, bounds, scratch);
  }

  /// Resets the buffers for a run over `n` nodes / `total_ports` ports with
  /// `lanes` shards, and returns whether it had to allocate: because this
  /// lane has never seen a graph this large, or because it released the
  /// workspace a much larger earlier run left (kWorkspaceSlack).  Both
  /// outboxes reset to silence: the double buffer is the workspace's
  /// deliberate second total_ports-sized allocation, bought to run each
  /// round behind a single barrier.
  bool prepare(std::size_t n, std::size_t total_ports, unsigned lanes) {
    const std::size_t held = footprint();
    const bool released =
        held > kWorkspaceKeepBytes &&
        held > kWorkspaceSlack * need_bytes(n, total_ports);
    if (released) release();
    const bool grows = released || total_ports > outbox[0].capacity() ||
                       n > wake.capacity() || lanes > scratch.size();
    outbox[0].assign(total_ports, kSilence);
    outbox[1].assign(total_ports, kSilence);
    wake.assign(n, 0);
    dirty.assign(n, 0);
    asleep.assign(n, 0);
    buckets.clear();
    visit.clear();
    visit.reserve(n);
    if (scratch.size() < lanes) scratch.resize(lanes);
    return grows;
  }
};

/// The per-thread workspace, or null when the thread is already inside a
/// run (a NodeProgram that recursively calls run_synchronous must not
/// clobber its own caller's buffers — the recursive run falls back to a
/// private workspace).
EngineWorkspace* acquire_workspace() {
  thread_local EngineWorkspace workspace;
  if (workspace.in_use) return nullptr;
  workspace.in_use = true;
  return &workspace;
}

/// RAII over acquire_workspace(): releases the lane workspace or owns the
/// recursive-fallback workspace outright.
class WorkspaceLease {
 public:
  WorkspaceLease()
      : pooled_(acquire_workspace()),
        fallback_(pooled_ ? nullptr : std::make_unique<EngineWorkspace>()) {}
  ~WorkspaceLease() {
    if (pooled_) pooled_->in_use = false;
  }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  [[nodiscard]] EngineWorkspace& operator*() const noexcept {
    return pooled_ ? *pooled_ : *fallback_;
  }

 private:
  EngineWorkspace* pooled_;
  std::unique_ptr<EngineWorkspace> fallback_;
};

[[noreturn]] void throw_round_limit(const std::string& name,
                                    const RunOptions& options,
                                    std::size_t running, std::size_t n) {
  std::ostringstream os;
  os << "run_synchronous: algorithm '" << name << "' did not halt within "
     << options.max_rounds << " rounds (" << running << " of " << n
     << " nodes still running)";
  throw ExecutionError(os.str());
}

}  // namespace

RunResult run_plan(const ExecutionPlan& plan,
                   std::vector<std::unique_ptr<NodeProgram>>& programs,
                   const RunOptions& options, const std::string& name,
                   ThreadPool& pool) {
  if (options.max_rounds == 0) {
    throw InvalidArgument(
        "run_synchronous: RunOptions::max_rounds must be positive");
  }
  const std::size_t n = plan.num_nodes();
  EDS_ENSURE(programs.size() == n, "run_plan: one program per node required");
  EDS_ENSURE(n <= UINT32_MAX, "run_plan: node ids must fit in 32 bits");

  const unsigned lanes = pool.lanes();
  const WorkspaceLease lease;
  EngineWorkspace& ws = *lease;
  const bool grew = ws.prepare(n, plan.total_ports(), lanes);
  std::vector<Round>& wake = ws.wake;
  std::vector<std::uint8_t>& dirty = ws.dirty;
  std::vector<char>& asleep = ws.asleep;
  std::vector<std::uint64_t>& buckets = ws.buckets;
  std::vector<Visit>& visit = ws.visit;
  std::vector<ShardScratch>& scratch = ws.scratch;
  std::vector<std::size_t>& bounds = ws.bounds;

  // Every node that survives start() is due in round 1: stage 0 visits it
  // to send round 1.
  std::size_t running = 0;
  for (std::size_t v = 0; v < n; ++v) {
    programs[v]->start(plan.degree(v));
    // Degree-0 nodes (or trivial algorithms) may halt immediately.
    if (programs[v]->halted()) continue;
    wake[v] = 1;
    visit.push_back({static_cast<std::uint32_t>(v), false});
    ++running;
  }

  RunResult result;
  result.messages_collected = options.collect_messages;
  const bool collect = options.collect_messages;
  RunStats& stats = result.stats;

  // Stage profiling, for runs with a metrics sink only: a run without one
  // takes no timestamps at all.
  const bool profile = options.metrics != nullptr;
  using ProfileClock = std::chrono::steady_clock;
  const auto elapsed_ns = [](ProfileClock::time_point from,
                             ProfileClock::time_point to) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
  };
  std::uint64_t exchange_ns = 0;
  std::uint64_t receive_ns = 0;
  std::uint64_t scan_ns = 0;

  // Per-stage constants, read by every shard.
  Round round = 0;           // the stage: receives `round`, sends round + 1
  bool send_next = false;    // round + 1 is within max_rounds
  const Message* from = nullptr;  // outbox of `round`
  Message* to = nullptr;          // outbox of round + 1
  std::uint8_t from_bit = 0;
  std::uint8_t to_bit = 0;
  std::size_t sleepers = 0;  // nodes with asleep[] set; read-only in a stage

  // The first half of a visit.  Re-silences v's segment of the round + 1
  // outbox if it still holds v's round - 1 send (delivered one stage ago),
  // then — for a receiving node — gathers its round input through the
  // involution, fires receive() and asks next_wake().  Returns whether v
  // sends round + 1.  Delivery IS the gather: messages are never copied
  // between send and receive, the permutation is applied on the read side
  // where loads pipeline, and sleeping or halted receivers never pay.
  const auto receive_node = [&](ShardScratch& sc, Visit item) {
    const std::uint32_t v = item.node;
    const Port deg = plan.degree(v);
    const std::size_t off = plan.offset(v);
    if (dirty[v] & to_bit) {
      std::fill_n(to + off, deg, kSilence);
      dirty[v] &= static_cast<std::uint8_t>(~to_bit);
    }
    if (item.receives) {
      if (sc.recv.size() < deg) sc.recv.resize(deg);
      Message* const in = sc.recv.data();
      for (Port i = 0; i < deg; ++i) in[i] = from[plan.partner_flat(off + i)];
      NodeProgram& program = *programs[v];
      program.receive(round, std::span<const Message>(in, deg));
      if (program.halted()) {
        wake[v] = 0;
        ++sc.halted;
        sc.ports_served += static_cast<std::uint64_t>(deg) * round;
        if (dirty[v] & from_bit) sc.leavers.push_back(v);
        return false;
      }
      const Round w = program.next_wake(round);
      if (w <= round) {
        throw ExecutionError("run_synchronous: algorithm '" + name +
                             "' asked to wake in round " + std::to_string(w) +
                             " after round " + std::to_string(round));
      }
      wake[v] = w;
      if (w != round + 1) {
        sc.sleepers.push_back(v);
        if (dirty[v] & from_bit) sc.leavers.push_back(v);
        return false;
      }
    }
    return send_next;
  };

  // The second half: v writes round + 1 straight into its own (silent)
  // outbox segment — no staging buffer, all stores sequential, single
  // writer per slot.  Its non-silence messages are counted here, at send
  // time, and any that reach a sleeping node wake it.
  const auto send_node = [&](ShardScratch& sc, std::uint32_t v) {
    const Port deg = plan.degree(v);
    const std::size_t off = plan.offset(v);
    Message* const seg = to + off;
    programs[v]->send(round + 1, std::span<Message>(seg, deg));
    dirty[v] |= to_bit;  // even a tag-0 slot may carry arguments
    std::uint64_t live = 0;
    for (Port i = 0; i < deg; ++i) live += seg[i].is_silence() ? 0 : 1;
    if (live == 0) return;
    sc.messages += live;
    if (!collect && sleepers == 0) return;
    for (Port i = 0; i < deg; ++i) {
      if (seg[i].is_silence()) continue;
      const port::PortRef dst = plan.partner_ref(off + i);
      if (collect) {
        sc.log.push_back(
            {round + 1, {v, static_cast<Port>(i + 1)}, dst, seg[i]});
      }
      if (asleep[dst.node]) sc.woken.push_back(dst.node);
    }
  };

  // Pops the wake bucket of `due`: its live entries are sleepers that send
  // in round `due`, which the stage before it visits.
  const auto pop_bucket = [&](Round due) {
    while (!buckets.empty() && (buckets.front() >> 32) <= due) {
      const auto key = buckets.front();
      std::pop_heap(buckets.begin(), buckets.end(), std::greater<>());
      buckets.pop_back();
      const auto u = static_cast<std::uint32_t>(key);
      if (asleep[u] && wake[u] == due) {
        asleep[u] = 0;
        --sleepers;
        ws.extra.push_back({u, false});
      }
    }
  };

  std::uint64_t pending = 0;  // non-silence messages of `round`
  for (;;) {
    send_next = round + 1 <= options.max_rounds;
    from = ws.outbox[round & 1].data();
    to = ws.outbox[(round + 1) & 1].data();
    from_bit = static_cast<std::uint8_t>(1u << (round & 1));
    to_bit = static_cast<std::uint8_t>(1u << ((round + 1) & 1));

    // Shard boundaries: port-count balanced, so a power-law visit list
    // cannot pile most of the traffic onto one lane.  Any contiguous
    // partition of the ascending list preserves the shard-order merge,
    // hence bit-identical results.
    const std::size_t shards = std::min<std::size_t>(lanes, visit.size());
    balanced_shard_bounds(
        visit.size(), shards,
        [&](std::size_t idx) {
          return static_cast<std::uint64_t>(plan.degree(visit[idx].node));
        },
        bounds);
    for (std::size_t s = 0; s < shards; ++s) scratch[s].reset();

    // The round stage, ONE barrier: every visited node receives `round`
    // from `from` and/or sends round + 1 into its own segment of `to`.
    // `from` is read-only for the whole stage and every `to` segment has
    // exactly one writer (its owner), so shards never contend; a directed
    // self-loop reads its own `from` segment and writes `to`, never racing
    // itself.  Per-node state (wake, dirty, the visit entry) is touched
    // only by the shard that owns the node; asleep[] is read-only until
    // the barrier.
    //
    // A shard drives its visit range as a receive sweep, then a send sweep
    // over the nodes the first selected.  A receive reads only `from` and
    // writes only the node's own `to` segment, a send only that segment,
    // so the split changes no value a program sees, and logs fill in
    // ascending node order.
    pool.run(shards, [&](std::size_t s) {
      ShardScratch& sc = scratch[s];
      try {
        ProfileClock::time_point t0;
        ProfileClock::time_point t1;
        if (profile) t0 = ProfileClock::now();
        for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
          visit[idx].receives = receive_node(sc, visit[idx]);
        }
        if (profile) t1 = ProfileClock::now();
        for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
          if (visit[idx].receives) send_node(sc, visit[idx].node);
        }
        if (profile) {
          sc.receive_ns += elapsed_ns(t0, t1);
          sc.exchange_ns += elapsed_ns(t1, ProfileClock::now());
        }
      } catch (...) {
        sc.error = std::current_exception();
      }
    });
    rethrow_first(scratch, shards);

    // Merge, strictly in shard order.
    ProfileClock::time_point merge_start;
    if (profile) merge_start = ProfileClock::now();
    std::uint64_t sent_messages = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const ShardScratch& sc = scratch[s];
      stats.ports_served += sc.ports_served;
      sent_messages += sc.messages;
      running -= sc.halted;
      if (collect) {
        result.message_log.insert(result.message_log.end(), sc.log.begin(),
                                  sc.log.end());
      }
      receive_ns += sc.receive_ns;
      exchange_ns += sc.exchange_ns;
    }
    stats.messages_sent += sent_messages;
    if (round > 0 && options.collect_trace) {
      result.trace.push_back({round, pending, n - running});
    }
    if (running == 0) break;
    if (!send_next) throw_round_limit(name, options, running, n);
    pending = sent_messages;

    // Between stages: assemble round + 1's visit list.  The senders of
    // round + 1 receive it, and keep their entries.
    ProfileClock::time_point scan_start;
    if (profile) {
      scan_start = ProfileClock::now();
      receive_ns += elapsed_ns(merge_start, scan_start);
    }
    std::erase_if(visit, [](Visit item) { return !item.receives; });
    ws.extra.clear();
    ws.woken.clear();
    for (std::size_t s = 0; s < shards; ++s) {
      ws.woken.insert(ws.woken.end(), scratch[s].woken.begin(),
                      scratch[s].woken.end());
    }
    // A receiver that chose to sleep was not yet asleep while its partners
    // sent round + 1, so it checks its own inbound slots; if nothing
    // arrived it enters its wake bucket.
    for (std::size_t s = 0; s < shards; ++s) {
      for (const std::uint32_t u : scratch[s].sleepers) {
        const Port deg = plan.degree(u);
        const std::size_t off = plan.offset(u);
        bool arrived = false;
        for (Port i = 0; i < deg && !arrived; ++i) {
          arrived = !to[plan.partner_flat(off + i)].is_silence();
        }
        if (arrived) {
          ws.woken.push_back(u);
        } else {
          asleep[u] = 1;
          ++sleepers;
          buckets.push_back(wake_key(wake[u], u));
          std::push_heap(buckets.begin(), buckets.end(), std::greater<>());
        }
      }
    }
    // Arrivals: a woken sleeper receives round + 1 without sending it.
    if (!ws.woken.empty()) {
      std::sort(ws.woken.begin(), ws.woken.end());
      ws.woken.erase(std::unique(ws.woken.begin(), ws.woken.end()),
                     ws.woken.end());
      for (const std::uint32_t u : ws.woken) {
        if (asleep[u]) {
          asleep[u] = 0;
          --sleepers;
        }
        ws.extra.push_back({u, true});
      }
    }
    // This round has been delivered: its senders that stopped sending are
    // re-silenced now (those that go on re-silence in their next visit).
    Message* const delivered = ws.outbox[round & 1].data();
    for (std::size_t s = 0; s < shards; ++s) {
      for (const std::uint32_t u : scratch[s].leavers) {
        std::fill_n(delivered + plan.offset(u), plan.degree(u), kSilence);
        dirty[u] &= static_cast<std::uint8_t>(~from_bit);
      }
    }
    pop_bucket(round + 2);
    if (visit.empty() && ws.extra.empty()) {
      // Nothing in flight and nobody due: skip straight to the stage
      // before the earliest wake.  Skipped rounds still count, and still
      // get trace entries.
      while (ws.extra.empty()) {
        EDS_ENSURE(!buckets.empty(), "run_plan: a running node has no wake");
        const auto due = static_cast<Round>(buckets.front() >> 32);
        if (due - 2 >= options.max_rounds) {
          throw_round_limit(name, options, running, n);
        }
        for (Round r = round + 1; r <= due - 2; ++r) {
          if (options.collect_trace) {
            result.trace.push_back({r, 0, n - running});
          }
        }
        round = due - 2;
        pop_bucket(due);
      }
    }
    if (!ws.extra.empty()) {
      // Merge the woken and the bucket's senders in, in ascending node
      // order.  The three parts are disjoint: senders chose round + 1,
      // bucket entries a later round, and a woken node left its bucket.
      const auto by_node = [](Visit a, Visit b) { return a.node < b.node; };
      std::sort(ws.extra.begin(), ws.extra.end(), by_node);
      ws.merged.clear();
      std::merge(visit.begin(), visit.end(), ws.extra.begin(), ws.extra.end(),
                 std::back_inserter(ws.merged), by_node);
      std::swap(visit, ws.merged);
    }
    if (profile) scan_ns += elapsed_ns(scan_start, ProfileClock::now());
    ++round;
  }

  stats.rounds = round;
  result.outputs.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    auto ports = programs[v]->output();
    std::sort(ports.begin(), ports.end());
    const Port deg = plan.degree(v);
    for (const Port p : ports) {
      if (p < 1 || p > deg) {
        throw ExecutionError(
            "run_synchronous: node output contains an invalid port number");
      }
    }
    if (std::adjacent_find(ports.begin(), ports.end()) != ports.end()) {
      throw ExecutionError(
          "run_synchronous: node output contains a duplicate port");
    }
    result.outputs[v] = std::move(ports);
  }
  if (profile) {
    *options.metrics += {.exchange_ns = exchange_ns,
                         .receive_ns = receive_ns,
                         .scan_ns = scan_ns,
                         .rounds = round,
                         .workspace_reuses = grew ? 0u : 1u,
                         .workspace_growths = grew ? 1u : 0u,
                         .workspace_bytes = ws.footprint()};
  }
  return result;
}

}  // namespace eds::runtime
