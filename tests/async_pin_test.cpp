// Golden pins for the free-running asynchronous engine.
//
// Free-running mode (no synchronizer) is not checked against any oracle:
// loss, duplication, crashes, round timeouts and adversarial schedules
// change what the algorithms compute on purpose.  What must not change is
// the engine's own determinism contract — the same options give the same
// AsyncResult, bit for bit, across refactors of the event loop.  Each case
// below hashes the *whole* AsyncResult (outputs, stats, trace, message log
// in transmission order, fault log, AsyncStats and the crash vector) with
// FNV-1a and compares it to a recorded value.  PCT change points index the
// event count and replay files store them, so even the event count is
// part of the pin.
//
// The instances are built from fixed Rng seeds, not test::make_rng, so the
// pins hold under every EDS_FUZZ_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/driver.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/async.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace eds::runtime {
namespace {

using algo::Algorithm;
using port::Port;
using port::PortGraph;

/// FNV-1a (64-bit) over the bytes of `text`.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Every observable of an AsyncResult as text, in a fixed order.
std::string serialize(const AsyncResult& a) {
  std::ostringstream os;
  for (const auto& ports : a.run.outputs) {
    os << 'o';
    for (const Port p : ports) os << ' ' << p;
    os << '\n';
  }
  const RunStats& s = a.run.stats;
  os << "stats " << s.rounds << ' ' << s.messages_sent << ' '
     << s.ports_served << '\n';
  for (const RoundTrace& t : a.run.trace) {
    os << "t " << t.round << ' ' << t.messages << ' ' << t.halted_nodes
       << '\n';
  }
  for (const DeliveredMessage& m : a.run.message_log) {
    os << "m " << m.round << ' ' << m.from.node << ':' << m.from.port << ' '
       << m.to.node << ':' << m.to.port << ' ' << m.payload.tag << ' '
       << m.payload.arg[0] << ' ' << m.payload.arg[1] << ' '
       << m.payload.arg[2] << '\n';
  }
  os << format_fault_log(a.fault_log);
  const AsyncStats& x = a.async;
  os << "async " << x.virtual_time << ' ' << x.delivered << ' ' << x.acks
     << ' ' << x.lost << ' ' << x.duplicated << ' ' << x.stale << ' '
     << x.timeouts << ' ' << x.events << '\n';
  os << "crashed";
  for (const auto c : a.crashed) os << ' ' << static_cast<int>(c);
  os << '\n';
  return os.str();
}

PortGraph multigraph(std::uint64_t seed, std::size_t n, Port max_degree) {
  Rng rng(seed);
  std::vector<Port> degrees(n);
  for (auto& d : degrees) d = static_cast<Port>(rng.below(max_degree + 1));
  return port::random_port_graph(degrees, rng, 0.15);
}

PortGraph regular(std::uint64_t seed, std::size_t n, Port d) {
  Rng rng(seed);
  return port::with_random_ports(graph::random_regular(n, d, rng), rng)
      .ports();
}

PortGraph power_law(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  return port::with_random_ports(graph::random_power_law(n, 2.1, rng), rng)
      .ports();
}

struct Pin {
  const char* label;
  PortGraph graph;
  std::shared_ptr<const ProgramFactory> factory;
  AsyncOptions async;
  std::uint64_t hash;
};

AsyncOptions free_running(DelayModel delay, std::uint64_t seed) {
  AsyncOptions async;
  async.synchronizer = false;
  async.delay = delay;
  async.seed = seed;
  return async;
}

std::shared_ptr<const ProgramFactory> algorithm(Algorithm alg, Port param) {
  return algo::make_factory(alg, param);
}

/// The paper's protocol algorithms detect it when a fault feeds them
/// silence, and the detecting node stops
/// (AsyncFaults.ProtocolAlgorithmsDetectFaultInducedSilence), so they run
/// only where nothing is lost: fault-free, duplicated, or with timeouts
/// longer than every delay.  Lossy and crashing cases run the
/// silence-tolerant programs.
std::vector<Pin> pins() {
  std::vector<Pin> out;
  {
    auto async = free_running({DelayKind::kUniform, 1, 6}, 3);
    out.push_back({"fault-free", multigraph(11, 16, 4),
                   algorithm(Algorithm::kBoundedDegree, 4), async,
                   12485942852248926945ULL});
  }
  {
    auto async = free_running({DelayKind::kUniform, 1, 6}, 5);
    async.faults.loss = 0.15;
    out.push_back({"loss", multigraph(12, 16, 4),
                   std::make_shared<test::RelayFactory>(4), async,
                   7798374320136807553ULL});
  }
  {
    auto async = free_running({DelayKind::kGeometric, 3, 24}, 7);
    async.faults.duplicate = 0.3;
    out.push_back({"dup", multigraph(13, 14, 4),
                   algorithm(Algorithm::kDoubleCover, 4), async,
                   9158352641125372965ULL});
  }
  {
    const auto g = regular(14, 20, 3);
    auto async = free_running({DelayKind::kUniform, 2, 9}, 9);
    async.faults = make_fault_plan(0.0, 0.0, 3, g.num_nodes(), 60, 21);
    async.faults.crashes.push_back({5, 0});  // a crash before any event
    out.push_back({"crash", g, std::make_shared<test::EchoFactory>(8), async,
                   683363133829302792ULL});
  }
  {
    const auto g = power_law(15, 60);
    auto async = free_running({DelayKind::kUniform, 1, 9}, 11);
    async.faults = make_fault_plan(0.05, 0.1, 4, g.num_nodes(), 200, 23);
    out.push_back({"loss+dup+crash", g,
                   std::make_shared<test::RelayFactory>(6), async,
                   17112323588964820379ULL});
  }
  {
    auto async = free_running({DelayKind::kUniform, 1, 9}, 13);
    async.round_timeout = 5;  // shorter than most links: many timeouts
    out.push_back({"short-timeout", multigraph(16, 16, 4),
                   std::make_shared<test::EchoFactory>(7), async,
                   3767774862484786052ULL});
  }
  {
    auto async = free_running({DelayKind::kFixed, 3, 3}, 15);
    async.round_timeout = 5000;  // deadlines far beyond every link delay
    async.faults.loss = 0.2;
    out.push_back({"long-timeout", multigraph(17, 12, 3),
                   algorithm(Algorithm::kPortOne, 0), async,
                   11689903779996744906ULL});
  }
  {
    auto async = free_running({DelayKind::kUniform, 1, 5}, 17);
    async.schedule.prio_seed = 0xC0FFEE;
    async.schedule.change_points = {90, 5, 40, 400};
    async.schedule.demote_ticks = 7;
    async.faults.loss = 0.05;
    out.push_back({"pct", multigraph(18, 16, 4),
                   std::make_shared<test::RelayFactory>(5), async,
                   10945860790759478438ULL});
  }
  {
    auto async = free_running({DelayKind::kFixed, 2, 2}, 19);
    async.schedule.prio_seed = 3;
    async.schedule.change_points = {1, 2, 3, 50};
    async.schedule.demote_ticks = 300;  // demoted sends land far ahead
    async.round_timeout = 1000;
    out.push_back({"pct-demote", regular(19, 16, 3),
                   algorithm(Algorithm::kOddRegular, 3), async,
                   1284064158892308118ULL});
  }
  {
    auto async = free_running({DelayKind::kUniform, 1, 4}, 23);
    async.schedule.delay_overrides = {{0, 30}, {3, 1}, {7, 17}, {11, 900}};
    async.faults.duplicate = 0.1;
    async.round_timeout = 2000;
    out.push_back({"overrides", multigraph(20, 16, 4),
                   algorithm(Algorithm::kDoubleCover, 4), async,
                   2510049711499119565ULL});
  }
  {
    auto async = free_running({DelayKind::kUniform, 1, 7}, 29);
    async.faults.loss = 0.1;
    out.push_back({"all-edges", multigraph(21, 12, 4),
                   algorithm(Algorithm::kAllEdges, 0), async,
                   14726377804976001542ULL});
  }
  return out;
}

TEST(AsyncPins, FreeRunningResultsMatchGoldenHashes) {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  for (const Pin& pin : pins()) {
    AsyncResult a;
    ASSERT_NO_THROW(
        a = run_asynchronous(pin.graph, *pin.factory, options, pin.async))
        << pin.label;
    EXPECT_EQ(fnv1a(serialize(a)), pin.hash)
        << pin.label << ": events " << a.async.events << ", virtual time "
        << a.async.virtual_time << ", faults " << a.fault_log.size()
        << ", timeouts " << a.async.timeouts;
  }
}

TEST(AsyncPins, RelayAndEchoUnderLossDupAndCrash) {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto g = multigraph(22, 14, 4);
  auto async = free_running({DelayKind::kGeometric, 2, 16}, 31);
  async.faults.loss = 0.1;
  async.faults.duplicate = 0.1;
  const AsyncResult relay =
      run_asynchronous(g, test::RelayFactory(3), options, async);
  EXPECT_EQ(fnv1a(serialize(relay)), 6294363555035445659ULL) << "relay";
  async.faults = make_fault_plan(0.0, 0.2, 2, g.num_nodes(), 30, 5);
  const AsyncResult echo =
      run_asynchronous(g, test::EchoFactory(6), options, async);
  EXPECT_EQ(fnv1a(serialize(echo)), 4887669068515689346ULL) << "echo";
}

}  // namespace
}  // namespace eds::runtime
