#include "runtime/async.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>
#include <tuple>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace eds::runtime {

namespace {

/// The round that never comes: the halt round of a running node, and the
/// horizon of a halted sender (silent in every round from now on).
constexpr Round kForever = std::numeric_limits<Round>::max();

/// draw_bits (util/rng.hpp) as a uniform double in [0, 1).
double draw01(std::uint64_t seed, std::uint64_t x, std::uint64_t y,
              std::uint64_t salt) {
  return static_cast<double>(draw_bits(seed, x, y, salt) >> 11) * 0x1.0p-53;
}

/// One entry of the delay matrix: the latency of the directed link behind
/// flat port q.
std::uint64_t sample_delay(const DelayModel& model, std::uint64_t seed,
                           std::uint64_t q) {
  switch (model.kind) {
    case DelayKind::kFixed:
      return model.a;
    case DelayKind::kUniform:
      return model.a +
             draw_bits(seed, q, 0, /*salt=*/3) % (model.b - model.a + 1);
    case DelayKind::kGeometric: {
      if (model.a <= 1) return 1;
      const double u = draw01(seed, q, 0, /*salt=*/4);
      const double p = 1.0 / static_cast<double>(model.a);
      const double tail = std::floor(std::log1p(-u) / std::log1p(-p));
      const auto ticks = 1 + static_cast<std::uint64_t>(tail);
      return std::clamp<std::uint64_t>(ticks, 1, model.b);
    }
  }
  return 1;  // unreachable
}

enum class EventKind : std::uint8_t {
  kPayload,   ///< an algorithm message of round `round` arriving at (node, port)
  kNotice,    ///< a horizon notice arriving at (node, port): no message
  kAck,       ///< a transport acknowledgement back at the sender's port
  kCrash,     ///< scheduled node crash from the FaultPlan
  kDeadline,  ///< round timeout (free-running mode only)
};

/// One timeline entry.  A payload or notice settles the rounds (after,
/// round] of its link: a payload also carries the message of round
/// `round`, a notice says every other round of the span was silent (see
/// Link).  The sender of a payload or notice is the involution partner
/// of (node, port), so an acknowledgement needs no return address.
struct Event {
  std::uint64_t time = 0;
  std::uint64_t prio = 0;  ///< schedule priority; 0 without a Schedule
  std::uint64_t seq = 0;   ///< global monotone counter, the final tie-break
  port::NodeId node = 0;   ///< the node the event happens at
  Port port = 0;           ///< its local port; 0 for node-level events
  Round round = 0;
  Round after = 0;
  EventKind kind = EventKind::kPayload;
  Message payload = kSilence;
};

/// The pop order: the smallest (time, prio, node, port, seq) first.  The
/// tuple is a strict total order because seq is unique, which is what
/// makes every run reproducible from its seed.  `prio` is the
/// adversarial-schedule hook: stamped at push time from the node's current
/// PCT priority, always 0 without a schedule — so the empty schedule
/// reproduces the structural (time, node, port, seq) order.
bool pops_before(const Event& x, const Event& y) noexcept {
  return std::tie(x.time, x.prio, x.node, x.port, x.seq) <
         std::tie(y.time, y.prio, y.node, y.port, y.seq);
}

/// The event queue, bucketed by virtual tick.  Every push lands at least
/// one tick after the tick being drained (link delays, overrides and
/// timeouts are all >= 1), so a ring of per-tick buckets covering the
/// next `reach` ticks holds nearly everything; rarer events further out
/// (crashes, long timeouts, demoted sends) wait in a small heap.  A tick's
/// bucket is put in pop order when the tick opens, so pops come out in
/// exactly pops_before order, as from one priority queue.
class Timeline {
 public:
  explicit Timeline(std::uint64_t reach)
      : ring_(std::bit_ceil(std::clamp<std::uint64_t>(reach + 1, 2, 4096))),
        mask_(ring_.size() - 1) {}

  void push(const Event& e) {
    EDS_ENSURE(e.time > now_ || (!opened_ && e.time == now_),
               "run_asynchronous: an event was scheduled into the past");
    if (e.time - now_ < ring_.size()) {
      ring_[e.time & mask_].push_back(e);
      ++near_;
    } else {
      far_.push_back(e);
      std::push_heap(far_.begin(), far_.end(), later);
    }
    ++size_;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Removes and returns the first event (the timeline must not be empty).
  Event pop() {
    if (next_ == tick_.size()) open_next_tick();
    --size_;
    return tick_[next_++];
  }

 private:
  static bool later(const Event& x, const Event& y) noexcept {
    return pops_before(y, x);
  }

  void open_next_tick() {
    std::uint64_t t = opened_ ? now_ + 1 : now_;
    if (near_ == 0) {
      t = far_.front().time;
    } else {
      while (ring_[t & mask_].empty() &&
             (far_.empty() || far_.front().time != t)) {
        ++t;
      }
    }
    tick_.clear();
    while (!far_.empty() && far_.front().time == t) {
      std::pop_heap(far_.begin(), far_.end(), later);
      tick_.push_back(far_.back());
      far_.pop_back();
    }
    std::vector<Event>& bucket = ring_[t & mask_];
    near_ -= bucket.size();
    tick_.insert(tick_.end(), bucket.begin(), bucket.end());
    bucket.clear();
    std::sort(tick_.begin(), tick_.end(), pops_before);
    now_ = t;
    opened_ = true;
    next_ = 0;
  }

  std::vector<std::vector<Event>> ring_;  ///< ring_[t & mask_]: tick t
  std::uint64_t mask_;
  std::vector<Event> far_;   ///< min-heap of events beyond the ring
  std::vector<Event> tick_;  ///< the open tick, in pop order
  std::size_t next_ = 0;     ///< tick_[next_] pops next
  std::uint64_t now_ = 0;    ///< the open tick
  bool opened_ = false;      ///< a tick has been opened
  std::size_t near_ = 0;     ///< events in the ring
  std::size_t size_ = 0;     ///< events not yet popped
};

/// One port of a node.  Inbound, every round in (after, through] is
/// settled — its message, if it had one, is buffered, and the rest was
/// silent.  The α-synchronizer's links are reliable and FIFO, so each of
/// its transmissions settles the whole prefix (after stays 0).  A
/// free-running link may lose payloads, so there a payload settles only
/// its own round and a halt notice only the rounds after the sender's
/// last send.  Outbound, the synchronizer keeps how far it has settled
/// the partner's view of this node.
struct Link {
  Round after = 0;
  Round through = 0;
  Round told = 0;  ///< synchronizer: the latest round sent on this port

  [[nodiscard]] bool settles(Round r) const noexcept {
    return after < r && r <= through;
  }
};

/// A buffered input: the message of `round` that arrived on `port`.
struct Pending {
  Round round = 0;
  Port port = 0;
  Message message = kSilence;
};

struct NodeState {
  Round round = 0;            ///< free-running: the round being assembled
  Round halt_round = kForever;  ///< kForever while running; 0 = halted at start
  bool crashed = false;
  std::vector<Pending> inbox;  ///< buffered inputs, in arrival order
  std::vector<Link> links;     ///< per port, see Link

  // α-synchronizer only.
  Round wake = 1;       ///< the next round the node is awake in
  bool sent = false;    ///< send(wake) is done, receive(wake) is pending
  Round resolved = 0;   ///< every round up to here was received or slept
  Round promise = 0;    ///< silent through here, by next_send
  Round announced = 0;  ///< the furthest silence promised to a partner
  Round waiting = 0;    ///< the link horizon the next step waits for
  Port lagging = 0;     ///< links whose horizon is still below `waiting`
  std::uint32_t outstanding = 0;  ///< transmissions not yet acknowledged

  [[nodiscard]] bool running() const noexcept {
    return halt_round == kForever && !crashed;
  }
};

}  // namespace

AsyncPolicy::AsyncPolicy(AsyncOptions options) : options_(std::move(options)) {}

AsyncResult AsyncPolicy::run(const ExecutionPlan& plan,
                             std::vector<std::unique_ptr<NodeProgram>>& programs,
                             const RunOptions& options,
                             const std::string& name) const {
  const std::size_t n = plan.num_nodes();
  if (options.max_rounds == 0) {
    throw InvalidArgument(
        "run_asynchronous: RunOptions::max_rounds must be positive");
  }
  if (programs.size() != n) {
    throw InvalidArgument("run_asynchronous: one program per node required");
  }
  const FaultPlan& faults = options_.faults;
  if (faults.loss < 0.0 || faults.loss > 1.0 || faults.duplicate < 0.0 ||
      faults.duplicate > 1.0) {
    throw InvalidArgument(
        "run_asynchronous: fault probabilities must lie in [0, 1]");
  }
  if (options_.synchronizer && !faults.empty()) {
    throw InvalidArgument(
        "run_asynchronous: the α-synchronizer requires a fault-free "
        "FaultPlan — loss or crashes would stall its per-round "
        "acknowledgements; disable the synchronizer to inject faults");
  }
  if (options_.delay.a == 0 || options_.delay.b < options_.delay.a) {
    throw InvalidArgument("run_asynchronous: malformed DelayModel bounds");
  }
  for (const auto& crash : faults.crashes) {
    if (crash.node >= n) {
      throw InvalidArgument("run_asynchronous: crash of out-of-range node");
    }
  }
  const Schedule& sched = options_.schedule;
  if (!sched.change_points.empty() && sched.prio_seed == 0) {
    throw InvalidArgument(
        "run_asynchronous: Schedule change points require a non-zero "
        "prio_seed (there is no priority lane to demote from)");
  }
  for (const DelayOverride& o : sched.delay_overrides) {
    if (o.port >= plan.total_ports()) {
      throw InvalidArgument(
          "run_asynchronous: Schedule delay override names an out-of-range "
          "flat port");
    }
    if (o.ticks == 0) {
      throw InvalidArgument(
          "run_asynchronous: Schedule delay override of zero ticks (a "
          "zero-latency link would collapse back to the synchronous model)");
    }
  }

  const bool synchronized = options_.synchronizer;
  const std::uint64_t seed = options_.seed;
  const std::uint64_t timeout = options_.round_timeout != 0
                                    ? options_.round_timeout
                                    : 8 * options_.delay.max_delay();

  // The delay matrix: one latency per directed link, fixed for the run.
  // Schedule overrides are applied after sampling, so an override on one
  // link never shifts another link's draw.
  std::vector<std::uint64_t> delays(plan.total_ports());
  for (std::size_t q = 0; q < delays.size(); ++q) {
    delays[q] = sample_delay(options_.delay, seed, q);
  }
  for (const DelayOverride& o : sched.delay_overrides) {
    delays[o.port] = o.ticks;
  }

  // PCT priority lane: initial priorities hash off prio_seed (offset past
  // the demotion band so every demoted node sorts after every fresh one);
  // crossing change point k demotes the node whose pop crossed it.
  // Priorities are stamped on events at push time, so a demotion affects
  // what the node schedules afterwards, never events already in flight —
  // the deterministic analogue of PCT's "change the running thread's
  // priority now".
  const bool prioritized = sched.prio_seed != 0;
  constexpr std::uint64_t kDemotedBand = std::uint64_t{1} << 33;
  std::vector<std::uint64_t> prio;
  std::vector<std::uint64_t> change_points = sched.change_points;
  std::sort(change_points.begin(), change_points.end());
  std::size_t next_change = 0;
  std::vector<char> demoted;
  if (prioritized) {
    prio.resize(n);
    demoted.assign(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      prio[v] = 1 + (draw_bits(sched.prio_seed, v, 0, /*salt=*/5) >> 32);
    }
  }

  AsyncResult out;
  RunResult& result = out.run;
  result.messages_collected = options.collect_messages;
  RunStats& stats = result.stats;
  out.crashed.assign(n, 0);

  std::vector<NodeState> st(n);
  // The ring spans the usual distance of a push: a link delay (twice, for
  // a duplicate) plus a demoted sender's penalty, or a round timeout.
  std::uint64_t reach = 0;
  for (const std::uint64_t d : delays) reach = std::max(reach, d);
  reach = 2 * reach + sched.demote_ticks;
  if (!synchronized) reach = std::max(reach, timeout);
  Timeline timeline(reach);
  std::uint64_t seq = 0;
  const auto push = [&](Event e) {
    if (prioritized) e.prio = prio[e.node];
    e.seq = seq++;
    timeline.push(e);
  };

  /// Extra latency a sender's transmissions suffer: demote_ticks once the
  /// node has been demoted at a change point, zero otherwise.
  const auto send_penalty = [&](std::size_t v) -> std::uint64_t {
    return prioritized && demoted[v] ? sched.demote_ticks : 0;
  };

  std::vector<Message> stage;          // send-stage scratch
  std::vector<Message> recv;           // receive-gather scratch
  std::vector<char> have;              // free-running readiness scratch
  std::vector<std::uint64_t> round_messages(1, 0);  // [round] -> non-silence
  Round max_fired = 0;

  const auto throw_round_limit = [&]() {
    std::size_t still_running = 0;
    for (const NodeState& other : st) still_running += other.running();
    std::ostringstream os;
    os << "run_asynchronous: algorithm '" << name << "' did not halt within "
       << options.max_rounds << " rounds (" << still_running << " of " << n
       << " nodes still running)";
    throw ExecutionError(os.str());
  };

  /// Gathers round r's inputs into `recv` — silence on every port nothing
  /// arrived on — and drops the buffered inputs of rounds up to r.
  const auto take_inputs = [&](NodeState& s, Round r, Port deg) {
    if (recv.size() < deg) recv.resize(deg);
    std::fill_n(recv.begin(), deg, kSilence);
    for (const Pending& p : s.inbox) {
      if (p.round == r) recv[p.port - 1] = p.message;
    }
    std::erase_if(s.inbox, [r](const Pending& p) { return p.round <= r; });
  };

  /// Counts and logs the non-silence messages of v's round-r send in
  /// `stage`.  Logged at transmission (duplicates excluded), not
  /// acceptance: the synchronous engine records every non-silence send of
  /// a running node — including sends a halted receiver will ignore — so
  /// this is the only recording point that keeps the transcript
  /// bit-identical.
  const auto record_sends = [&](std::size_t v, Round r) {
    if (round_messages.size() <= r) round_messages.resize(r + 1, 0);
    const Port deg = plan.degree(v);
    for (Port i = 1; i <= deg; ++i) {
      const Message& m = stage[i - 1];
      if (m.is_silence()) continue;
      ++stats.messages_sent;
      ++round_messages[r];
      if (options.collect_messages) {
        result.message_log.push_back(
            {r, {static_cast<port::NodeId>(v), i},
             plan.partner_ref(plan.offset(v) + i - 1), m});
      }
    }
  };

  /// Sends one payload or notice over v's port i; the synchronizer
  /// expects its acknowledgement.
  const auto transmit = [&](std::size_t v, Port i, EventKind kind,
                            Round round, Round after, const Message& m,
                            std::uint64_t now) {
    const std::size_t q = plan.offset(v) + i - 1;
    const port::PortRef to = plan.partner_ref(q);
    push({now + delays[q] + send_penalty(v), 0, 0, to.node, to.port, round,
          after, kind, m});
    if (synchronized) {
      ++st[v].outstanding;
      st[v].links[i - 1].told = round;
    }
  };

  /// Whether "silent through round h" must go out on port i.  The
  /// synchronizer leaves it out when the partner knows it already, and
  /// when the partner has told this node as much of its own rounds: the
  /// partner then learns of the silence from this node's next
  /// transmission that reaches further.  That cannot stall a run.  Were
  /// every running node blocked, take one, u, whose horizon H (the
  /// furthest round it announced or sent) is least.  Its links settle
  /// less than H, so a running partner p has told it less than H.  p's
  /// horizon is at least H, so p left u out when it reached it, because u
  /// had told p that much before: p's horizon is H too, and reached
  /// strictly later than u's.  The same holds for p, so the blocked nodes
  /// would form a chain strictly forward in time, which a finite graph
  /// closes into a cycle.  A halted partner's horizon is ∞: it is sent
  /// nothing at all.
  const auto needs_notice = [&](const NodeState& s, Port i, Round h) {
    const Link& link = s.links[i - 1];
    return !synchronized || (link.told < h && link.through < h);
  };

  /// v halted after round r: it served its ports in rounds 1..r, and
  /// tells every partner it is silent forever.
  const auto halt = [&](std::size_t v, Round r, std::uint64_t now) {
    NodeState& s = st[v];
    const Port deg = plan.degree(v);
    s.halt_round = r;
    stats.ports_served += static_cast<std::uint64_t>(deg) * r;
    for (Port i = 1; i <= deg; ++i) {
      if (!needs_notice(s, i, kForever)) continue;
      transmit(v, i, EventKind::kNotice, kForever, synchronized ? 0 : r,
               kSilence, now);
    }
    s.announced = kForever;
  };

  /// v stops for good while assembling its round, as a scheduled crash
  /// stops it: its partners hear nothing more, and its output is empty.
  const auto stop = [&](std::size_t v, std::uint64_t now) {
    NodeState& s = st[v];
    s.crashed = true;
    out.crashed[v] = 1;
    stats.ports_served += static_cast<std::uint64_t>(plan.degree(v)) * s.round;
    out.fault_log.push_back(
        {now, FaultKind::kCrash, static_cast<port::NodeId>(v), 0, 0});
  };

  /// Makes one call into v's program; false if v crashed in it.  Lost,
  /// doubled or missing messages can hand a program inputs its protocol
  /// never produces (a round without the hello it expects), and it throws.
  /// Under a non-empty FaultPlan the node then stops like a crashed one,
  /// and the run reports the damage in its outputs.  Without faults a
  /// throw is a bug, and it ends the run.
  const auto guarded = [&](std::size_t v, std::uint64_t now, auto&& call) {
    try {
      call();
      return true;
    } catch (const Error&) {
      if (faults.empty()) throw;
      stop(v, now);
      return false;
    }
  };

  // ---- Free-running mode: dense sends, round timeouts, faults. ----------

  const auto send_round = [&](std::size_t v, Round r, std::uint64_t now) {
    const Port deg = plan.degree(v);
    const std::size_t off = plan.offset(v);
    stage.assign(deg, kSilence);
    if (!guarded(v, now, [&] {
          programs[v]->send(r, std::span<Message>(stage.data(), deg));
        })) {
      return;
    }
    record_sends(v, r);
    for (Port i = 1; i <= deg; ++i) {
      const std::size_t q = off + i - 1;
      if (faults.loss > 0.0 && draw01(seed, q, r, /*salt=*/1) < faults.loss) {
        out.fault_log.push_back({now, FaultKind::kLoss,
                                 static_cast<port::NodeId>(v), i, r});
        ++out.async.lost;
        continue;
      }
      const port::PortRef to = plan.partner_ref(q);
      const std::uint64_t arrival = now + delays[q] + send_penalty(v);
      const Event payload{arrival,  0,     0,     to.node,
                          to.port,  r,     r - 1, EventKind::kPayload,
                          stage[i - 1]};
      push(payload);
      if (faults.duplicate > 0.0 &&
          draw01(seed, q, r, /*salt=*/2) < faults.duplicate) {
        Event copy = payload;
        copy.time = arrival + delays[q];
        push(copy);
        out.fault_log.push_back({now, FaultKind::kDuplicate,
                                 static_cast<port::NodeId>(v), i, r});
        ++out.async.duplicated;
      }
    }
    push({now + timeout, 0, 0, static_cast<port::NodeId>(v), 0, r, 0,
          EventKind::kDeadline});
  };

  // Fires receive(round) with whatever is buffered (missing slots are
  // silence), then either halts the node or advances it into the next
  // round and sends.  Throws past max_rounds, mirroring the synchronous
  // engine.
  const auto fire = [&](std::size_t v, std::uint64_t now) {
    NodeState& s = st[v];
    const Port deg = plan.degree(v);
    const Round r = s.round;
    take_inputs(s, r, deg);
    if (!guarded(v, now, [&] {
          programs[v]->receive(r, std::span<const Message>(recv.data(), deg));
        })) {
      return;
    }
    max_fired = std::max(max_fired, r);
    if (programs[v]->halted()) {
      halt(v, r, now);
      return;
    }
    if (r + 1 > options.max_rounds) throw_round_limit();
    s.round = r + 1;
    send_round(v, r + 1, now);
  };

  // A round is ready when every port delivered its message or has the
  // round settled as silence by a halt notice.
  const auto inputs_ready = [&](const NodeState& s, Port deg) {
    if (have.size() < deg) have.resize(deg);
    std::fill_n(have.begin(), deg, 0);
    for (const Pending& p : s.inbox) {
      if (p.round == s.round) have[p.port - 1] = 1;
    }
    for (Port i = 0; i < deg; ++i) {
      if (!have[i] && !s.links[i].settles(s.round)) return false;
    }
    return true;
  };

  const auto try_fire = [&](std::size_t v, std::uint64_t now) {
    NodeState& s = st[v];
    const Port deg = plan.degree(v);
    while (s.running() && inputs_ready(s, deg)) fire(v, now);
  };

  // ---- α-synchronizer: sparse sends behind binding horizons. ------------
  //
  // A node runs the round engine's call sequence: send(w) and receive(w)
  // in each awake round w, receive(a) alone when a non-silence message
  // arrives in a sleep round a.  It may take its next step once every
  // link has settled the rounds before it (links are reliable and FIFO,
  // so a link is settled through its latest payload or notice) and every
  // transmission it made is acknowledged.  Silence costs one notice per
  // port, not a payload per round: after receive(r) the node tells its
  // partners it is silent through next_send(r) − 1, or, if the links
  // already settle the rounds up to its next wake, sends that round
  // straight away, which settles the gap as well.  When it sleeps through
  // rounds its links settled, it asks next_send again for the last of
  // them and announces any further silence, so nodes whose promises are
  // short still move in step with their partners.  A notice goes only to
  // partners that do not know as much already (needs_notice), so a port
  // carries about one transmission per awake round.

  const auto link_floor = [&](const NodeState& s, Port deg) {
    Round floor = kForever;
    for (Port i = 0; i < deg; ++i) floor = std::min(floor, s.links[i].through);
    return floor;
  };

  /// Tells every partner that v is silent through round h.
  const auto announce = [&](std::size_t v, Round h, std::uint64_t now) {
    NodeState& s = st[v];
    for (Port i = 1; i <= plan.degree(v); ++i) {
      if (needs_notice(s, i, h)) {
        transmit(v, i, EventKind::kNotice, h, 0, kSilence, now);
      }
    }
    s.announced = std::max(s.announced, h);
  };

  const auto send_awake = [&](std::size_t v, Round w, std::uint64_t now) {
    NodeState& s = st[v];
    const Port deg = plan.degree(v);
    stage.assign(deg, kSilence);
    programs[v]->send(w, std::span<Message>(stage.data(), deg));
    record_sends(v, w);
    for (Port i = 1; i <= deg; ++i) {
      const Message& m = stage[i - 1];
      if (m == kSilence) {
        if (needs_notice(s, i, w)) {
          transmit(v, i, EventKind::kNotice, w, 0, kSilence, now);
        }
      } else if (w <= s.announced) {
        throw ExecutionError(
            "run_asynchronous: algorithm '" + name + "' sent in round " +
            std::to_string(w) + " after promising silence through round " +
            std::to_string(s.announced) + " (NodeProgram::next_send)");
      } else if (s.links[i - 1].through != kForever) {
        transmit(v, i, EventKind::kPayload, w, 0, m, now);
      }
    }
    s.announced = std::max(s.announced, w);
    s.resolved = w - 1;
    s.sent = true;
  };

  /// Raises v's promise by next_send(r), which must lie after r.
  const auto ask_next_send = [&](std::size_t v, Round r) {
    const Round send = programs[v]->next_send(r);
    if (send <= r) {
      throw ExecutionError("run_asynchronous: algorithm '" + name +
                           "' declared round " + std::to_string(send) +
                           " as its next send after round " +
                           std::to_string(r));
    }
    st[v].promise = std::max(st[v].promise, send - 1);
  };

  const auto receive_sync = [&](std::size_t v, Round r, std::uint64_t now) {
    NodeState& s = st[v];
    const Port deg = plan.degree(v);
    take_inputs(s, r, deg);
    NodeProgram& program = *programs[v];
    program.receive(r, std::span<const Message>(recv.data(), deg));
    max_fired = std::max(max_fired, r);
    s.resolved = r;
    s.sent = false;
    if (program.halted()) {
      halt(v, r, now);
      return;
    }
    if (r >= options.max_rounds) throw_round_limit();
    const Round wake = program.next_wake(r);
    if (wake <= r) {
      throw ExecutionError("run_asynchronous: algorithm '" + name +
                           "' asked to wake in round " + std::to_string(wake) +
                           " after round " + std::to_string(r));
    }
    s.wake = wake;
    ask_next_send(v, r);
  };

  /// Takes every step v can take now, then records what it waits for.
  const auto advance = [&](std::size_t v, std::uint64_t now) {
    NodeState& s = st[v];
    const Port deg = plan.degree(v);
    s.waiting = 0;
    while (s.running() && s.outstanding == 0) {
      const Round floor = link_floor(s, deg);
      if (s.sent) {
        if (floor >= s.wake) {
          receive_sync(v, s.wake, now);
          continue;
        }
        s.waiting = s.wake;
      } else {
        // A non-silence arrival before the wake round wakes the node for
        // that round's receive alone; otherwise it sends the wake round
        // once the rounds before it are settled.
        Round arrival = kForever;
        for (const Pending& p : s.inbox) {
          if (!p.message.is_silence()) arrival = std::min(arrival, p.round);
        }
        const bool woken = arrival < s.wake;
        const Round need = woken ? arrival : s.wake - 1;
        if (floor >= need) {
          if (woken) {
            receive_sync(v, arrival, now);
          } else {
            if (need >= options.max_rounds) throw_round_limit();
            send_awake(v, s.wake, now);
          }
          continue;
        }
        // Sleep through the rounds the links settled; the round after
        // them is a sleep round too, so it is silent as well.
        if (floor > s.resolved) {
          s.resolved = floor;
          if (floor >= options.max_rounds) throw_round_limit();
          ask_next_send(v, floor);
        }
        announce(v, std::max(s.promise, s.resolved + 1), now);
        if (s.outstanding > 0) break;
        s.waiting = std::min(need, s.announced);
      }
      s.lagging = 0;
      for (Port i = 0; i < deg; ++i) s.lagging += s.links[i].through < s.waiting;
      break;
    }
  };

  // --- Initialisation: start every program, let round 1 leave the gates.
  for (std::size_t v = 0; v < n; ++v) {
    NodeState& s = st[v];
    const Port deg = plan.degree(v);
    s.links.assign(deg, {});
    programs[v]->start(deg);
    if (programs[v]->halted()) {
      halt(v, 0, 0);
      continue;
    }
    if (synchronized) {
      advance(v, 0);  // degree-0 nodes have no inputs to wait for
    } else {
      s.round = 1;
      send_round(v, 1, 0);
      try_fire(v, 0);
    }
  }
  for (const CrashEvent& crash : faults.crashes) {
    push({crash.time, 0, 0, crash.node, 0, 0, 0, EventKind::kCrash});
  }

  // --- The event loop: strictly ordered, single-threaded, deterministic.
  while (!timeline.empty()) {
    const Event e = timeline.pop();
    const std::uint64_t now = e.time;
    out.async.virtual_time = std::max(out.async.virtual_time, now);
    ++out.async.events;
    // PCT change point: demote the node whose pop crossed it.  The pop
    // count is itself deterministic, so which node a change point hits is a
    // pure function of (options, schedule) — the replay contract.
    if (prioritized && next_change < change_points.size() &&
        out.async.events >= change_points[next_change]) {
      prio[e.node] = kDemotedBand + next_change;
      demoted[e.node] = 1;
      ++next_change;
    }
    NodeState& s = st[e.node];
    switch (e.kind) {
      case EventKind::kPayload:
      case EventKind::kNotice: {
        if (s.crashed) {
          if (e.kind == EventKind::kPayload) ++out.async.stale;
          break;
        }
        if (synchronized) {
          // Transport-level acknowledgement, payload or notice: receipt
          // is confirmed whether or not the algorithm layer still
          // listens, over the reverse direction of the same link.
          const std::size_t back = plan.offset(e.node) + e.port - 1;
          const port::PortRef from = plan.partner_ref(back);
          push({now + delays[back], 0, 0, from.node, from.port, e.round, 0,
                EventKind::kAck});
        }
        if (s.halt_round != kForever) break;  // halted: nothing to settle
        Link& link = s.links[e.port - 1];
        const bool reached = link.through < s.waiting && e.round >= s.waiting;
        link.after = std::max(link.after, e.after);
        link.through = std::max(link.through, e.round);
        bool early = false;
        if (e.kind == EventKind::kPayload) {
          if (e.round < s.round) {
            ++out.async.stale;  // late after a timeout, or a duplicate
            break;
          }
          const bool duplicate = std::any_of(
              s.inbox.begin(), s.inbox.end(), [&](const Pending& p) {
                return p.round == e.round && p.port == e.port;
              });
          if (duplicate) {
            ++out.async.stale;  // duplicated delivery, suppressed
            break;
          }
          s.inbox.push_back({e.round, e.port, e.payload});
          ++out.async.delivered;
          early = !e.payload.is_silence() && e.round < s.waiting;
        }
        if (synchronized) {
          if (early || (reached && --s.lagging == 0)) advance(e.node, now);
        } else if (e.kind == EventKind::kNotice || e.round == s.round) {
          try_fire(e.node, now);
        }
        break;
      }
      case EventKind::kAck: {
        ++out.async.acks;
        if (--s.outstanding == 0) advance(e.node, now);
        break;
      }
      case EventKind::kCrash: {
        if (s.crashed || s.halt_round != kForever) break;  // no-op once done
        stop(e.node, now);
        break;
      }
      case EventKind::kDeadline: {
        if (!s.running() || s.round != e.round) break;  // superseded
        ++out.async.timeouts;
        fire(e.node, now);  // missing inputs become silence
        try_fire(e.node, now);
        break;
      }
    }
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (st[v].running()) {
      // Unreachable by construction (the synchronizer always completes its
      // waits, free-running nodes always hold a deadline); kept as a
      // defensive check so a future regression fails loudly.
      throw ExecutionError("run_asynchronous: algorithm '" + name +
                           "' stalled with the timeline empty");
    }
  }

  stats.rounds = max_fired;
  if (options.collect_trace) {
    for (Round r = 1; r <= max_fired; ++r) {
      std::size_t halted_cum = 0;
      for (const NodeState& s : st) halted_cum += s.halt_round <= r;
      result.trace.push_back(
          {r, r < round_messages.size() ? round_messages[r] : 0, halted_cum});
    }
  }

  result.outputs.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (st[v].halt_round == kForever) continue;  // crashed: empty output
    auto ports = programs[v]->output();
    std::sort(ports.begin(), ports.end());
    const Port deg = plan.degree(v);
    for (const Port p : ports) {
      if (p < 1 || p > deg) {
        throw ExecutionError(
            "run_asynchronous: node output contains an invalid port number");
      }
    }
    if (std::adjacent_find(ports.begin(), ports.end()) != ports.end()) {
      throw ExecutionError(
          "run_asynchronous: node output contains a duplicate port");
    }
    result.outputs[v] = std::move(ports);
  }
  return out;
}

AsyncResult run_asynchronous(const port::PortGraph& g,
                             const ProgramFactory& factory,
                             const RunOptions& options,
                             const AsyncOptions& async) {
  auto programs =
      detail::create_programs(factory, g.num_nodes(), "run_asynchronous");
  const auto plan = detail::resolve_plan(g, options.exec);
  const AsyncPolicy policy(async);
  return policy.run(*plan, programs, options, factory.name());
}

AsyncResult run_asynchronous_programs(
    const port::PortGraph& g,
    std::vector<std::unique_ptr<NodeProgram>> programs,
    const RunOptions& options, const AsyncOptions& async,
    const std::string& name) {
  if (programs.size() != g.num_nodes()) {
    throw InvalidArgument(
        "run_asynchronous_programs: one program per node required");
  }
  for (const auto& p : programs) {
    if (!p) throw InvalidArgument("run_asynchronous_programs: null program");
  }
  const auto plan = detail::resolve_plan(g, options.exec);
  const AsyncPolicy policy(async);
  return policy.run(*plan, programs, options, name);
}

}  // namespace eds::runtime
