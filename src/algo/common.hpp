// Shared machinery for the distributed EDS algorithms.
//
// Message tags, and the local label bookkeeping every node performs in the
// first two rounds: learning the remote port number (and degree) behind each
// of its ports, deriving label pairs, its distinguishable neighbour
// (Section 5), and the per-step role in the M(i, j) schedule.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/program.hpp"

namespace eds::algo {

using port::Port;
using runtime::Message;
using runtime::Round;

/// Message tags shared by the algorithms (0 is reserved for silence).
enum Tag : std::int32_t {
  kTagHello = 1,    ///< arg0 = sender's port number, arg1 = sender's degree
  kTagDnClaim = 2,  ///< "you are my distinguishable neighbour"
  kTagStatus = 3,   ///< arg0 = covered bit for the current schedule step
  kTagMStatus = 4,  ///< arg0 = 1 when the sender is covered by M
  kTagPropose = 5,  ///< matching proposal
  kTagAccept = 6,   ///< proposal accepted
  kTagReject = 7,   ///< proposal rejected
};

/// Per-node label bookkeeping (the local view of Section 5).
struct LabelView {
  Port degree = 0;
  std::vector<Port> remote_port;   ///< remote_port[i-1] = l_G(u, v) for port i
  std::vector<Port> remote_degree; ///< remote_degree[i-1] = d_G(u) for port i
  Port dn_port = 0;                ///< my port to my distinguishable
                                   ///< neighbour; 0 when I have none
  std::vector<bool> dn_claimed;    ///< dn_claimed[i-1]: the neighbour behind
                                   ///< port i declared me its DN

  /// Record the hello message received from port i.
  void record_hello(Port i, const Message& m);

  /// Record the (possible) DN claim received from port i.
  void record_claim(Port i, const Message& m);

  /// Computes dn_port from the remote ports: the lowest port carrying a
  /// label pair that no other incident edge shares (0 when none exists —
  /// possible only for even degree, by Lemma 1).
  void compute_dn();

  /// My active port for schedule step (i, j) of the M(i, j) sweep, or 0 when
  /// I am not an endpoint of an M(i, j) edge.  A node is active either as
  /// the "v" side (my DN edge uses my port i and the remote port is j) or as
  /// the "u" side (the neighbour behind my port j declared me its DN and its
  /// port is i).  Lemma 2 guarantees the two cannot name different ports;
  /// violation throws InternalError.
  [[nodiscard]] Port mij_active_port(Port i, Port j) const;

  /// Every schedule step (i, j) at which mij_active_port is non-zero,
  /// sorted and without repeats: my DN edge's step plus one per claimant —
  /// at most degree + 1 of them, read off the labels without sweeping the
  /// ∆² steps.  Programs derive their next_wake from this list.
  [[nodiscard]] std::vector<std::pair<Port, Port>> mij_active_steps() const;
};

}  // namespace eds::algo
