#include "algo/odd_regular.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace eds::algo {

std::vector<std::pair<port::Port, port::Port>> pair_schedule(port::Port d,
                                                             PairOrder order) {
  std::vector<std::pair<port::Port, port::Port>> pairs;
  pairs.reserve(static_cast<std::size_t>(d) * d);
  for (port::Port i = 1; i <= d; ++i) {
    for (port::Port j = 1; j <= d; ++j) pairs.emplace_back(i, j);
  }
  switch (order) {
    case PairOrder::kLexicographic:
      break;
    case PairOrder::kDiagonal:
      std::sort(pairs.begin(), pairs.end(),
                [](const auto& a, const auto& b) {
                  return std::pair(a.first + a.second, a.first) <
                         std::pair(b.first + b.second, b.first);
                });
      break;
    case PairOrder::kReverse:
      std::reverse(pairs.begin(), pairs.end());
      break;
  }
  return pairs;
}

std::size_t pair_position(port::Port d, PairOrder order, port::Port i,
                          port::Port j) {
  const std::size_t side = d;
  const std::size_t lex = (i - 1) * side + (j - 1);
  switch (order) {
    case PairOrder::kLexicographic:
      return lex;
    case PairOrder::kReverse:
      return side * side - 1 - lex;
    case PairOrder::kDiagonal: {
      // Every anti-diagonal t < i + j comes first; within one, i ascends
      // from max(1, t - d).
      const std::size_t sum = i + j;
      std::size_t before = 0;
      for (std::size_t t = 2; t < sum; ++t) {
        before += t <= side + 1 ? t - 1 : 2 * side + 1 - t;
      }
      return before + i - (sum > side + 1 ? sum - side : 1);
    }
  }
  throw InvalidArgument("pair_position: unknown pair order");
}

OddRegularProgram::OddRegularProgram(port::Port d, PairOrder order)
    : d_(d), order_(order) {
  if (d_ % 2 == 0) {
    throw InvalidArgument("OddRegularProgram: d must be odd");
  }
}

void OddRegularProgram::start(port::Port degree) {
  if (degree != d_) {
    throw ExecutionError(
        "OddRegularProgram: node degree differs from the family parameter d");
  }
  view_.degree = degree;
  view_.remote_port.assign(degree, 0);
  view_.remote_degree.assign(degree, 0);
  view_.dn_claimed.assign(degree, false);
}

OddRegularProgram::Step OddRegularProgram::step_for(
    runtime::Round round) const {
  const auto sweep = static_cast<runtime::Round>(d_) * d_;
  if (round <= 2) return {Step::Phase::kSetup, 0};
  if (round > 2 + 2 * sweep) return {Step::Phase::kDone, 0};
  const auto phase =
      round <= 2 + sweep ? Step::Phase::kAdd : Step::Phase::kRemove;
  const runtime::Round position = (round - 3) % sweep;  // 0-based step
  const auto it = std::lower_bound(
      active_steps_.begin(), active_steps_.end(),
      std::pair<runtime::Round, port::Port>(position, 0));
  if (it == active_steps_.end() || it->first != position) return {phase, 0};
  return {phase, it->second};
}

void OddRegularProgram::send(runtime::Round round,
                             std::span<runtime::Message> out) {
  const auto step = step_for(round);
  active_port_ = 0;
  if (round == 1) {
    for (port::Port i = 1; i <= view_.degree; ++i) {
      out[i - 1] = runtime::msg(kTagHello, static_cast<std::int32_t>(i),
                                static_cast<std::int32_t>(view_.degree));
    }
    return;
  }
  if (round == 2) {
    // By Lemma 1 every odd-degree node has a distinguishable neighbour.
    EDS_ENSURE(view_.dn_port != 0,
               "odd-degree node without distinguishable neighbour");
    out[view_.dn_port - 1] = runtime::msg(kTagDnClaim);
    return;
  }

  if (step.phase == Step::Phase::kAdd) {
    active_port_ = step.port;
    if (active_port_ != 0) {
      out[active_port_ - 1] = runtime::msg(kTagStatus, covered_ ? 1 : 0);
    }
    return;
  }

  if (step.phase == Step::Phase::kRemove) {
    if (step.port != 0 && d_ports_.count(step.port) > 0) {
      active_port_ = step.port;
      // Covered by D \ {e} iff I have another incident D edge.
      const bool covered_without = d_ports_.size() >= 2;
      out[active_port_ - 1] = runtime::msg(kTagStatus, covered_without ? 1 : 0);
    }
    return;
  }
}

void OddRegularProgram::receive(runtime::Round round,
                                std::span<const runtime::Message> in) {
  const auto step = step_for(round);
  if (round == 1) {
    for (port::Port i = 1; i <= view_.degree; ++i) {
      view_.record_hello(i, in[i - 1]);
    }
    view_.compute_dn();
    return;
  }
  if (round == 2) {
    for (port::Port i = 1; i <= view_.degree; ++i) {
      view_.record_claim(i, in[i - 1]);
    }
    for (const auto& [i, j] : view_.mij_active_steps()) {
      active_steps_.emplace_back(
          static_cast<runtime::Round>(pair_position(d_, order_, i, j)),
          view_.mij_active_port(i, j));
    }
    std::sort(active_steps_.begin(), active_steps_.end());
    return;
  }

  if (step.phase == Step::Phase::kAdd && active_port_ != 0) {
    const auto& their = in[active_port_ - 1];
    EDS_ENSURE(their.tag == kTagStatus,
               "phase I: expected a status message from the partner");
    const bool their_covered = their.arg[0] != 0;
    // "If both endpoints of e are already covered by D, we ignore e,
    //  otherwise we add e to D."
    if (!(covered_ && their_covered)) {
      d_ports_.insert(active_port_);
      covered_ = true;
    }
  }

  if (step.phase == Step::Phase::kRemove && active_port_ != 0) {
    const auto& their = in[active_port_ - 1];
    EDS_ENSURE(their.tag == kTagStatus,
               "phase II: expected a status message from the partner");
    const bool mine = d_ports_.size() >= 2;
    const bool theirs = their.arg[0] != 0;
    // "If both endpoints of e are covered by D \ {e}, remove e from D."
    if (mine && theirs) {
      d_ports_.erase(active_port_);
    }
  }

  active_port_ = 0;
  if (round >= schedule_length(d_)) halted_ = true;
}

runtime::Round OddRegularProgram::next_wake(runtime::Round round) const {
  if (round < 2) return round + 1;
  const auto sweep = static_cast<runtime::Round>(d_) * d_;
  // My next phase I step, else my next phase II step whose edge is still
  // in D, else the halt round.
  for (const auto& [position, port] : active_steps_) {
    if (3 + position > round) return 3 + position;
  }
  for (const auto& [position, port] : active_steps_) {
    if (3 + sweep + position > round && d_ports_.count(port) > 0) {
      return 3 + sweep + position;
    }
  }
  return schedule_length(d_);
}

std::vector<port::Port> OddRegularProgram::output() const {
  return {d_ports_.begin(), d_ports_.end()};
}

}  // namespace eds::algo
