#include "algo/bounded_degree.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace eds::algo {

BoundedDegreeProgram::BoundedDegreeProgram(
    port::Port max_degree, std::shared_ptr<BoundedPhaseStats> sink)
    : delta_(normalised_delta(max_degree)), sink_(std::move(sink)) {
  if (max_degree < 2) {
    throw InvalidArgument(
        "BoundedDegreeProgram: use AllEdgesProgram for max degree 1");
  }
}

void BoundedDegreeProgram::start(port::Port degree) {
  if (degree > delta_) {
    throw ExecutionError(
        "BoundedDegreeProgram: node degree exceeds the family parameter");
  }
  view_.degree = degree;
  view_.remote_port.assign(degree, 0);
  view_.remote_degree.assign(degree, 0);
  view_.dn_claimed.assign(degree, false);
}

BoundedDegreeProgram::Step BoundedDegreeProgram::step_for(
    runtime::Round round) const {
  const auto d = static_cast<runtime::Round>(delta_);
  if (round == 1) return {Step::Kind::kHello, 0, 0, false, false};
  if (round == 2) return {Step::Kind::kClaim, 0, 0, false, false};

  runtime::Round base = 2;
  if (round <= base + d * d) {
    const auto s = round - base - 1;  // 0-based
    return {Step::Kind::kPhase1, static_cast<port::Port>(s / d + 1),
            static_cast<port::Port>(s % d + 1), false, false};
  }
  base += d * d;

  if (round <= base + 2 * d * (d - 1)) {
    const auto rr = round - base - 1;  // 0-based within phase II
    const auto block = rr / (2 * d);   // degree class index: i = block + 2
    const auto within = rr % (2 * d);
    return {Step::Kind::kPhase2, static_cast<port::Port>(block + 2), 0,
            within % 2 == 1, within == 0};
  }
  base += 2 * d * (d - 1);

  if (round == base + 1) return {Step::Kind::kMStatus, 0, 0, false, false};
  base += 1;

  const auto rr = round - base - 1;  // 0-based within phase III
  return {Step::Kind::kPhase3, 0, 0, rr % 2 == 1, false};
}

void BoundedDegreeProgram::send(runtime::Round round,
                                std::span<runtime::Message> out) {
  const auto step = step_for(round);
  switch (step.kind) {
    case Step::Kind::kHello:
      for (port::Port i = 1; i <= view_.degree; ++i) {
        out[i - 1] = runtime::msg(kTagHello, static_cast<std::int32_t>(i),
                                  static_cast<std::int32_t>(view_.degree));
      }
      return;

    case Step::Kind::kClaim:
      // Even-degree nodes may legitimately have no distinguishable
      // neighbour; they simply make no claim.
      if (view_.dn_port != 0) {
        out[view_.dn_port - 1] = runtime::msg(kTagDnClaim);
      }
      return;

    case Step::Kind::kPhase1:
      active_port_ = view_.mij_active_port(step.i, step.j);
      if (active_port_ != 0) {
        out[active_port_ - 1] =
            runtime::msg(kTagStatus, m_port_ != 0 ? 1 : 0);
      }
      return;

    case Step::Kind::kPhase2:
      phase2_send(step, out);
      return;

    case Step::Kind::kMStatus:
      for (port::Port i = 1; i <= view_.degree; ++i) {
        out[i - 1] = runtime::msg(kTagMStatus, m_port_ != 0 ? 1 : 0);
      }
      return;

    case Step::Kind::kPhase3:
      if (!step.respond_half) {
        engine_.send_propose(out);
      } else {
        engine_.send_respond(out);
      }
      return;
  }
}

void BoundedDegreeProgram::phase2_send(const Step& step,
                                       std::span<runtime::Message> out) {
  if (step.block_start) {
    // I am a proposer ("black") in this block iff my degree equals the
    // block's degree class i and I am still M-free; eligible targets are the
    // neighbours of strictly smaller degree, in increasing port order.
    p2_eligible_.clear();
    p2_cursor_ = 0;
    if (view_.degree == step.i && m_port_ == 0) {
      for (port::Port p = 1; p <= view_.degree; ++p) {
        if (view_.remote_degree[p - 1] < step.i) p2_eligible_.push_back(p);
      }
    }
  }
  if (!step.respond_half) {
    // Propose half.
    p2_outstanding_ = false;
    if (m_port_ == 0 && step.i == view_.degree &&
        p2_cursor_ < p2_eligible_.size()) {
      out[p2_eligible_[p2_cursor_] - 1] = runtime::msg(kTagPropose);
      p2_outstanding_ = true;
    }
  } else {
    // Respond half ("white" side): accept the smallest-port proposal if
    // still M-free, reject everything else.
    for (const port::Port p : p2_proposals_in_) {
      out[p - 1] = runtime::msg(kTagReject);
    }
    if (m_port_ == 0 && !p2_proposals_in_.empty()) {
      const port::Port chosen = p2_proposals_in_.front();
      out[chosen - 1] = runtime::msg(kTagAccept);
      m_port_ = chosen;  // the accepted proposal joins M
    }
  }
}

void BoundedDegreeProgram::phase2_receive(
    const Step& step, std::span<const runtime::Message> in) {
  if (!step.respond_half) {
    p2_proposals_in_.clear();
    for (port::Port p = 1; p <= view_.degree; ++p) {
      if (in[p - 1].tag == kTagPropose) p2_proposals_in_.push_back(p);
    }
  } else {
    if (p2_outstanding_) {
      const port::Port target = p2_eligible_[p2_cursor_];
      const auto& reply = in[target - 1];
      EDS_ENSURE(reply.tag == kTagAccept || reply.tag == kTagReject,
                 "phase II: proposal received no response");
      if (reply.tag == kTagAccept) {
        m_port_ = target;  // my proposal was accepted: edge joins M
      } else {
        ++p2_cursor_;
      }
      p2_outstanding_ = false;
    }
    p2_proposals_in_.clear();  // answered in this round's send
  }
}

void BoundedDegreeProgram::receive(runtime::Round round,
                                   std::span<const runtime::Message> in) {
  const auto step = step_for(round);
  switch (step.kind) {
    case Step::Kind::kHello:
      for (port::Port i = 1; i <= view_.degree; ++i) {
        view_.record_hello(i, in[i - 1]);
      }
      view_.compute_dn();
      break;

    case Step::Kind::kClaim:
      for (port::Port i = 1; i <= view_.degree; ++i) {
        view_.record_claim(i, in[i - 1]);
      }
      for (const auto& [i, j] : view_.mij_active_steps()) {
        mij_rounds_.push_back(3 + (i - 1) * delta_ + (j - 1));
      }
      break;

    case Step::Kind::kPhase1:
      if (active_port_ != 0) {
        const auto& their = in[active_port_ - 1];
        EDS_ENSURE(their.tag == kTagStatus,
                   "phase I: expected a status message from the partner");
        // "If neither u nor v is covered by M, we add e to M."
        if (m_port_ == 0 && their.arg[0] == 0) {
          m_port_ = active_port_;
        }
        active_port_ = 0;
      }
      break;

    case Step::Kind::kPhase2:
      phase2_receive(step, in);
      break;

    case Step::Kind::kMStatus: {
      // Edges of H: both endpoints M-free.
      std::vector<port::Port> eligible;
      for (port::Port i = 1; i <= view_.degree; ++i) {
        EDS_ENSURE(in[i - 1].tag == kTagMStatus,
                   "expected an M-coverage broadcast");
        if (m_port_ == 0 && in[i - 1].arg[0] == 0) eligible.push_back(i);
      }
      in_h_ = !eligible.empty();
      engine_.init(view_.degree, std::move(eligible));
      break;
    }

    case Step::Kind::kPhase3:
      if (!step.respond_half) {
        engine_.receive_propose(in);
      } else {
        engine_.receive_respond(in);
      }
      break;
  }

  if (round >= schedule_length(delta_)) {
    halted_ = true;
    if (sink_) {
      sink_->m_port_claims += m_port_ != 0 ? 1 : 0;
      sink_->p_port_claims += engine_.p_ports().size();
    }
  }
}

runtime::Round BoundedDegreeProgram::next_wake(runtime::Round round) const {
  // Hello and claims involve every node.
  if (round < 2) return round + 1;
  const auto d = static_cast<runtime::Round>(delta_);
  const runtime::Round phase2 = 2 + d * d;  // the last phase I round
  const runtime::Round m_status = phase2 + 2 * d * (d - 1) + 1;
  // Phase III: the nodes of H run it; the rest sleep until the halt round.
  if (round >= m_status) return in_h_ ? round + 1 : schedule_length(delta_);

  // A proposal I sent or received is answered next round.
  if (p2_outstanding_ || !p2_proposals_in_.empty()) return round + 1;
  // Otherwise: my next M(i, j) step, or the M-coverage broadcast.
  runtime::Round wake = m_status;
  const auto step =
      std::upper_bound(mij_rounds_.begin(), mij_rounds_.end(), round);
  if (step != mij_rounds_.end()) wake = std::min(wake, *step);
  // My own phase II block, while I am M-free: open it, and keep proposing
  // while targets remain.
  if (m_port_ == 0 && view_.degree >= 2) {
    const runtime::Round block_start = phase2 + (view_.degree - 2) * 2 * d + 1;
    const runtime::Round block_end = block_start + 2 * d - 1;
    if (round < block_start) {
      wake = std::min(wake, block_start);
    } else if (round < block_end && p2_cursor_ < p2_eligible_.size()) {
      wake = std::min(wake, round + 1);
    }
  }
  return wake;
}

runtime::Round BoundedDegreeProgram::next_send(runtime::Round round) const {
  runtime::Round send = next_wake(round);
  if (round < 2) return send;
  const auto d = static_cast<runtime::Round>(delta_);
  const runtime::Round phase2 = 2 + d * d;  // the last phase I round
  for (port::Port p = 1; p <= view_.degree; ++p) {
    // The neighbour behind port p proposes only in its own degree's block,
    // only to smaller-degree targets, and in increasing port order, one
    // target per step: it reaches me (its port q) by step q - 1 or never.
    const port::Port i = view_.remote_degree[p - 1];
    if (i <= view_.degree || i < 2) continue;
    const runtime::Round first = phase2 + (i - 2) * 2 * d + 2;
    const auto steps =
        std::min<runtime::Round>(view_.remote_port[p - 1], d);
    const runtime::Round last = first + 2 * (steps - 1);
    runtime::Round respond = round < first ? first : round + 1;
    if ((respond - first) % 2 != 0) ++respond;
    if (respond <= last) send = std::min(send, respond);
  }
  return send;
}

std::vector<port::Port> BoundedDegreeProgram::output() const {
  std::vector<port::Port> out;
  if (m_port_ != 0) out.push_back(m_port_);
  for (const port::Port p : engine_.p_ports()) out.push_back(p);
  return out;
}

}  // namespace eds::algo
