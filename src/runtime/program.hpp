// The node-program abstraction: what one anonymous node runs.
//
// The interface enforces the port-numbering model of Section 2.2:
//  * a program is created by a factory with no node identity;
//  * at start it learns exactly one thing — its own degree;
//  * each round it emits one message per port and then consumes one message
//    per port;
//  * at any point after a receive it may halt and expose its output
//    X(v) ⊆ {1, ..., degree} (the ports of its chosen edges);
//  * after a receive it may declare when it next has something to do
//    (next_wake), so the engine can let it sleep through idle rounds, and
//    the earliest round it may send again (next_send), so the
//    asynchronous engine can tell its partners about the silence.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/message.hpp"

namespace eds::runtime {

using port::Port;

/// 1-based round counter.
using Round = std::uint32_t;

/// One anonymous node's state machine.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once, before the first round.  `degree` is the only initial
  /// knowledge a node has about the graph.
  virtual void start(Port degree) = 0;

  /// Produce the message for every port: `out[i - 1]` goes to port i.
  /// `out.size()` equals the node degree.  Called only while not halted.
  virtual void send(Round round, std::span<Message> out) = 0;

  /// Consume the received messages: `in[i - 1]` arrived from port i.
  /// May set the halted state.  Called only while not halted.
  virtual void receive(Round round, std::span<const Message> in) = 0;

  /// The next round w > r in which this node has work, asked by the
  /// synchronous engine after every receive(r) that left it running.
  ///
  /// The contract: in every round r' with r < r' < w, send(r') would
  /// write only silence, and receive(r') of an all-silence input would
  /// leave the state unchanged.  The engine therefore skips both calls in
  /// those rounds — the node sleeps.  A non-silence arrival in a sleep
  /// round r' wakes it: the engine calls receive(r') *without* send(r'),
  /// then asks next_wake(r') again.  In round w itself the node runs
  /// send(w) and receive(w) as usual.  So no program may rely on send()
  /// being called in a round it declared as sleep: state that a later
  /// round needs must be updated in receive() or in an awake send().
  ///
  /// The default, r + 1, never sleeps: the dense execution of the seed
  /// semantics.
  ///
  /// next_wake is not a promise about sends: an arrival in a sleep round
  /// may pull the node's next send earlier than w (a proposal received in
  /// round r' is answered in round r' + 1).  That is next_send's job.
  [[nodiscard]] virtual Round next_wake(Round r) const { return r + 1; }

  /// The earliest round s > r in which this node may send anything but
  /// kSilence, whatever arrives before then — asked by the asynchronous
  /// engine's α-synchronizer after the same receive(r) calls as
  /// next_wake, and for a sleep round r once its input is known to be
  /// all silence (the state is then what receive(r) of silence would
  /// leave).  The synchronous engine never asks.
  ///
  /// The contract is binding: for every round r' with r < r' < s, send(r')
  /// writes only kSilence on every port — including after an arrival
  /// wake in between, and including a tag-0 message with arguments, which
  /// a receiver would otherwise see.  The synchronizer announces "silent
  /// through s − 1" to the node's partners on the strength of it, so they
  /// may run ahead without waiting for those rounds; a violating send
  /// throws ExecutionError.  The default, r + 1, promises nothing and
  /// keeps the synchronizer dense for this node.
  [[nodiscard]] virtual Round next_send(Round r) const { return r + 1; }

  /// True once the node has stopped and announced its output.
  [[nodiscard]] virtual bool halted() const = 0;

  /// The announced output X(v): a set of 1-based port numbers.
  /// Only meaningful once halted() is true.
  [[nodiscard]] virtual std::vector<Port> output() const = 0;
};

/// Creates identical programs for every node — anonymity means the factory
/// cannot specialise per node.
class ProgramFactory {
 public:
  virtual ~ProgramFactory() = default;
  [[nodiscard]] virtual std::unique_ptr<NodeProgram> create() const = 0;

  /// Short human-readable algorithm name (for tables and traces).
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace eds::runtime
