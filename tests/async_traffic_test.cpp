// Deterministic traffic bounds for the α-synchronizer.
//
// The synchronizer pays per message and per awake node-round: silence
// travels as one horizon notice per port, not as a payload per port and
// round.  A timing test would measure that on a noisy host; these count it
// instead.  The dense count — a payload and its acknowledgement on every
// port in every round, 2 · Σ d(v) · rounds events — is what the engine
// paid before horizons.  On fixed seeds, a heavy-tailed A(∆) run must stay
// a hundredfold below it and odd-regular, whose nodes are awake in about
// a third of the rounds, below two fifths of it — each with a RunResult
// equal to the round engine's.  Two fifths needs about one transmission
// per port and awake round: a notice announcing each silent gap plus the
// payload or notice of the awake round itself pops half of the dense
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>

#include "algo/bounded_degree.hpp"
#include "algo/odd_regular.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"

namespace eds::runtime {
namespace {

using port::Port;
using port::PortGraph;

/// Runs `factory` on both engines, expects equal RunResults (the async
/// message log normalised to the round engine's order) and returns the
/// async events alongside the dense count.
std::pair<std::uint64_t, std::uint64_t> events_and_dense(
    const PortGraph& g, const ProgramFactory& factory,
    const AsyncOptions& async) {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const RunResult sync = run_synchronous(g, factory, options);
  AsyncResult a = run_asynchronous(g, factory, options, async);
  std::sort(a.run.message_log.begin(), a.run.message_log.end(),
            [](const DeliveredMessage& x, const DeliveredMessage& y) {
              return std::tie(x.round, x.from.node, x.from.port) <
                     std::tie(y.round, y.from.node, y.from.port);
            });
  EXPECT_TRUE(a.run == sync) << factory.name() << ": rounds "
                             << a.run.stats.rounds << " vs "
                             << sync.stats.rounds;
  std::uint64_t ports = 0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    ports += g.degree(static_cast<port::NodeId>(v));
  }
  return {a.async.events, 2 * ports * sync.stats.rounds};
}

TEST(AsyncTraffic, PowerLawBoundedDegreeIsAHundredfoldBelowDense) {
  // The `edsim sweep powerlaw` instance shape: n = 4096, exponent 2.5.
  Rng rng(1);
  const auto pg =
      port::with_random_ports(graph::random_power_law(4096, 2.5, rng), rng);
  Port delta = 2;
  for (std::size_t v = 0; v < pg.ports().num_nodes(); ++v) {
    delta = std::max(delta, pg.ports().degree(static_cast<port::NodeId>(v)));
  }
  AsyncOptions async;  // the CLI's default matrix, fixed:1
  const auto [events, dense] = events_and_dense(
      pg.ports(), algo::BoundedDegreeFactory(delta), async);
  EXPECT_LE(events * 100, dense)
      << "events " << events << ", dense " << dense;
}

TEST(AsyncTraffic, OddRegularStaysBelowTwoFifthsOfDense) {
  Rng rng(1);
  const auto pg =
      port::with_random_ports(graph::random_regular(8192, 3, rng), rng);
  AsyncOptions async;
  async.delay = parse_delay_model("uniform:1:9");
  const auto [events, dense] =
      events_and_dense(pg.ports(), algo::OddRegularFactory(3), async);
  EXPECT_EQ(dense, 983040u);
  EXPECT_LE(events * 5, dense * 2)
      << "events " << events << ", dense " << dense;
}

}  // namespace
}  // namespace eds::runtime
