// Randomised structural fuzzing: arbitrary port-numbered multigraphs
// (random involutions with loops and parallel edges) pushed through the
// runtime and the standalone algorithms.  Checks are structural — validity
// of involutions, internal consistency of outputs, graceful failure — since
// no centralised edge-set semantics exist on multigraphs.
//
// Deterministic by default: streams derive from test_util.hpp's fixed
// master seed.  Set EDS_FUZZ_SEED=<n> in the environment to explore new
// streams (e.g. `EDS_FUZZ_SEED=42 ctest -L fuzz`).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "algo/double_cover.hpp"
#include "algo/driver.hpp"
#include "algo/port_one.hpp"
#include "graph/generators.hpp"
#include "port/io.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "port/views.hpp"
#include "runtime/fault.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"
#include "runtime/shard.hpp"
#include "util/rng.hpp"
#include "invariants.hpp"
#include "test_util.hpp"

namespace eds {
namespace {

std::vector<port::Port> random_degrees(Rng& rng, std::size_t n,
                                       port::Port max_degree) {
  std::vector<port::Port> degrees(n);
  for (auto& d : degrees) {
    d = static_cast<port::Port>(rng.below(max_degree + 1));
  }
  return degrees;
}

TEST(Fuzz, RandomInvolutionsAlwaysValidate) {
  auto rng = test::make_rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto g = port::random_port_graph(random_degrees(rng, 12, 6), rng);
    EXPECT_NO_THROW(g.validate());
    // port_edges partitions the ports: every port appears exactly once.
    std::size_t accounted = 0;
    for (const auto& pe : g.port_edges()) {
      accounted += pe.directed_loop ? 1 : 2;
    }
    EXPECT_EQ(accounted, g.num_ports());
  }
}

TEST(Fuzz, DoubleCoverOnMultigraphsIsConsistent) {
  // The 2-matching algorithm runs on arbitrary port-numbered multigraphs;
  // outputs must be internally consistent at the port level.
  auto rng = test::make_rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    const auto g = port::random_port_graph(random_degrees(rng, 10, 5), rng);
    const algo::DoubleCoverFactory factory(5);
    const auto result = runtime::run_synchronous(g, factory);
    test::check_eds_invariants(g, result, "trial " + std::to_string(trial));
  }
}

TEST(Fuzz, PortOneOnRegularMultigraphsIsConsistent) {
  auto rng = test::make_rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const auto degrees = std::vector<port::Port>(8, 4);  // 4-regular
    const auto g = port::random_port_graph(degrees, rng, 0.2);
    const algo::PortOneFactory factory;
    const auto result = runtime::run_synchronous(g, factory);
    test::check_eds_invariants(g, result, "trial " + std::to_string(trial));
    const auto selected = runtime::validated_selection_size(g, result);
    EXPECT_GE(selected, 1u);  // some port 1 always selects something
  }
}

TEST(Fuzz, ViewRefinementTerminatesOnArbitraryMultigraphs) {
  auto rng = test::make_rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const auto g = port::random_port_graph(random_degrees(rng, 14, 5), rng);
    const auto stable = port::stable_view_classes(g);
    EXPECT_EQ(stable.size(), g.num_nodes());
    EXPECT_LE(port::num_classes(stable), g.num_nodes());
    // Refining further cannot split classes.
    EXPECT_EQ(port::num_classes(port::view_classes(g, g.num_nodes() + 3)),
              port::num_classes(stable));
  }
}

TEST(Fuzz, ViewEqualityImpliesOutputEqualityOnMultigraphs) {
  auto rng = test::make_rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto g = port::random_port_graph(random_degrees(rng, 10, 4), rng);
    const auto stable = port::stable_view_classes(g);
    const algo::DoubleCoverFactory factory(4);
    const auto result = runtime::run_synchronous(g, factory);
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      for (std::size_t u = v + 1; u < g.num_nodes(); ++u) {
        if (stable[v] == stable[u]) {
          EXPECT_EQ(result.outputs[v], result.outputs[u]);
        }
      }
    }
  }
}

TEST(Fuzz, DriverOutcomesSatisfyEdsInvariants) {
  // The full shared harness on driver outcomes: feasibility always, the
  // Table 1 bound wherever one applies (small instances get an exact
  // optimum).  Odd-regular instances exercise the regular-row bound,
  // bounded instances the bounded-degree row.
  auto rng = test::make_rng(6);
  for (int trial = 0; trial < 8; ++trial) {
    const auto regular = test::random_ported_regular(8, 3, rng);
    const auto odd = algo::run_algorithm(regular, algo::Algorithm::kOddRegular,
                                         3);
    test::check_eds_invariants(regular, odd, algo::Algorithm::kOddRegular, 3,
                               "odd trial " + std::to_string(trial));

    const auto bounded = test::random_ported_bounded(8, 3, 10, rng);
    for (const auto alg : {algo::Algorithm::kBoundedDegree,
                           algo::Algorithm::kDoubleCover}) {
      const auto outcome = algo::run_algorithm(bounded, alg, 3);
      test::check_eds_invariants(bounded, outcome, alg, 3,
                                 "bounded trial " + std::to_string(trial));
    }
  }
}

TEST(Fuzz, SelectionSizeDetectsInconsistentOutputs) {
  // Hand-craft an inconsistent result to prove the checker bites.
  port::PortGraphBuilder b({1, 1});
  b.connect({0, 1}, {1, 1});
  const auto g = b.build();
  runtime::RunResult result;
  result.outputs = {{1}, {}};  // node 0 claims the edge, node 1 does not
  EXPECT_THROW((void)runtime::validated_selection_size(g, result),
               ExecutionError);
}

TEST(Fuzz, DirectedLoopSelectionIsSelfConsistent) {
  port::PortGraphBuilder b({1});
  b.fix({0, 1});
  const auto g = b.build();
  runtime::RunResult result;
  result.outputs = {{1}};
  EXPECT_EQ(runtime::validated_selection_size(g, result), 1u);
}

/// The reader's verdict on `text`: the canonical text of the graph it
/// parsed to, or "!" and the type of a typed rejection.  Anything else it
/// throws escapes and fails the test.
std::string read_verdict(const std::string& text) {
  try {
    return port::to_port_graph_string(port::from_port_graph_string(text));
  } catch (const InvalidStructure&) {
    return "!InvalidStructure";
  } catch (const InvalidArgument&) {
    return "!InvalidArgument";
  }
}

/// One random edit of `text`: a byte replaced, inserted or deleted, a
/// slice duplicated, or the tail cut off.  Replacement bytes come half
/// from `alphabet`, the grammar's own bytes, half from all 256 values.
void mutate(std::string& text, Rng& rng, std::string_view alphabet) {
  const auto byte = [&rng, alphabet]() {
    if (rng.chance(0.5)) return alphabet[rng.below(alphabet.size())];
    return static_cast<char>(rng.below(256));
  };
  const std::size_t at = rng.below(text.size() + 1);
  switch (rng.below(5)) {
    case 0:
      if (at < text.size()) text[at] = byte();
      break;
    case 1:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte());
      break;
    case 2:
      if (at < text.size()) text.erase(at, 1);
      break;
    case 3: {
      const std::size_t len = rng.below(16);
      text.insert(at, text.substr(at, len));
      break;
    }
    default:
      text.resize(at);
  }
}

TEST(Fuzz, PortGraphReaderTakesMutatedTextsOrRejectsThemTyped) {
  // Valid texts to start from: multigraphs with loops, a randomly numbered
  // torus, and the grammar's optional forms (comments, CRLF, tabs, no
  // final newline).
  auto rng = test::make_rng(7);
  std::vector<std::string> seeds;
  for (int k = 0; k < 4; ++k) {
    seeds.push_back(port::to_port_graph_string(
        port::random_port_graph(random_degrees(rng, 6, 4), rng, 0.3)));
  }
  seeds.push_back(port::to_port_graph_string(
      port::with_random_ports(graph::torus(3, 4), rng).ports()));
  seeds.push_back(
      "# one edge and a loop\r\nports\t3\r\n  deg 1 1 1\r\n"
      "\t# records\nconn 0 1 1 1\nloop 2 1");

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = seeds[rng.below(seeds.size())];
    const auto edits = 1 + rng.below(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      mutate(text, rng, "0123456789 \t\r\n#+-connloopdegports");
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ", input \"" + text +
                 "\"");

    const std::string verdict = read_verdict(text);
    if (verdict.front() == '!') {
      ++rejected;
    } else {
      // An accepted text parses to a graph whose text round-trips byte
      // for byte.
      ++accepted;
      ASSERT_EQ(read_verdict(verdict), verdict);
    }
    // The stream reader is the string reader behind a read to EOF.
    std::istringstream is(text);
    std::string streamed;
    try {
      streamed = port::to_port_graph_string(port::read_port_graph(is));
    } catch (const InvalidStructure&) {
      streamed = "!InvalidStructure";
    } catch (const InvalidArgument&) {
      streamed = "!InvalidArgument";
    }
    ASSERT_EQ(streamed, verdict);
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

/// The replay decoder's verdict on `text`: the encoding of the file it
/// decoded, or "!" for a typed rejection.  Anything else it throws escapes
/// and fails the test.
std::string replay_verdict(const std::string& text) {
  try {
    return runtime::encode_replay(runtime::decode_replay(text));
  } catch (const InvalidArgument&) {
    return "!";
  }
}

TEST(Fuzz, ReplayDecoderTakesMutatedFilesOrRejectsThemTyped) {
  // Valid files to start from: every record kind, the three delay models,
  // and the smallest file the decoder takes.
  auto rng = test::make_rng(11);
  std::vector<std::string> seeds{"edsched 1\nalgorithm port-one\ngraph\n"};
  for (const char* delay : {"fixed:2", "uniform:1:9", "geometric:3:40"}) {
    runtime::ReplayFile file;
    file.strategy = "pct";
    file.algorithm = "bounded-degree";
    file.param = 4;
    file.options.synchronizer = false;
    file.options.delay = runtime::parse_delay_model(delay);
    file.options.faults.loss = 0.1;
    file.options.faults.duplicate = 0.0625;
    file.options.faults.crashes = {{2, 9}, {4294967295u, 17}};
    file.options.round_timeout = 11;
    file.options.seed = 18446744073709551615ull;
    file.options.schedule.prio_seed = 0x123456789ULL;
    file.options.schedule.demote_ticks = 4;
    file.options.schedule.change_points = {7, 31};
    file.options.schedule.delay_overrides = {{3, 5}, {12, 2}};
    file.metrics = {{"rounds", 12}, {"inconsistent", 3}};
    file.graph_text = port::to_port_graph_string(
        port::random_port_graph(random_degrees(rng, 5, 3), rng, 0.3));
    seeds.push_back(runtime::encode_replay(file));
  }

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = seeds[rng.below(seeds.size())];
    const auto edits = 1 + rng.below(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      mutate(text, rng, "0123456789 \t\r\n#:.-+eE\nparamcrashseedloss");
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ", input \"" + text +
                 "\"");

    const std::string verdict = replay_verdict(text);
    if (verdict == "!") {
      ++rejected;
    } else {
      // A decoded file re-encodes to a text that decodes to the same file.
      ++accepted;
      ASSERT_EQ(replay_verdict(verdict), verdict);
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

/// The wire codec's verdict on `line` as a job line or as a worker line:
/// the encoding of the value it decoded, or "!" for a typed rejection.
/// Anything else it throws escapes and fails the test.
std::string wire_verdict(const std::string& line, bool job_line) {
  try {
    if (job_line) {
      return runtime::encode_wire_job(runtime::decode_wire_job(line));
    }
    const auto w = runtime::decode_worker_line(line);
    switch (w.kind) {
      case runtime::WorkerLine::Kind::kResult:
        return runtime::encode_wire_result(w.index, w.result);
      case runtime::WorkerLine::Kind::kError:
        return runtime::encode_wire_error(w.index, w.message);
      case runtime::WorkerLine::Kind::kSummary:
        return runtime::encode_worker_summary(w.summary);
    }
    ADD_FAILURE() << "decode_worker_line returned an unknown kind";
    return "?";
  } catch (const InvalidArgument&) {
    return "!";
  }
}

TEST(Fuzz, WireCodecTakesMutatedLinesOrRejectsThemTyped) {
  // Valid lines to start from: sync and async job lines (every delay
  // model, faults, a multigraph's text with loops), the result of a real
  // run, an error whose message needs escapes, and a summary.
  auto rng = test::make_rng(13);
  std::vector<std::string> seeds;
  runtime::WireJob job;
  job.index = 7;
  job.algorithm = "bounded-degree";
  job.param = 4;
  job.threads = 2;
  job.max_rounds = 100000;
  const auto g = port::random_port_graph(random_degrees(rng, 5, 3), rng, 0.3);
  job.graph_text = port::to_port_graph_string(g);
  seeds.push_back(runtime::encode_wire_job(job));
  for (const char* delay : {"fixed:2", "uniform:1:9", "geometric:3:40"}) {
    runtime::AsyncOptions async;
    async.synchronizer = false;
    async.delay = runtime::parse_delay_model(delay);
    async.seed = rng.next_u64();
    async.round_timeout = 11;
    async.faults.loss = 0.1;
    async.faults.duplicate = 0.0625;
    async.faults.crashes = {{2, 9}, {4, 17}};
    job.async = async;
    seeds.push_back(runtime::encode_wire_job(job));
  }
  const auto factory = algo::make_factory(algo::Algorithm::kPortOne);
  seeds.push_back(runtime::encode_wire_result(
      3, runtime::run_synchronous(g, *factory)));
  seeds.push_back(runtime::encode_wire_error(
      5, "run failed: \"quoted\"\tand\\escaped\nacross lines"));
  seeds.push_back(runtime::encode_worker_summary({12, 4, 8}));

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string line = seeds[rng.below(seeds.size())];
    const auto edits = 1 + rng.below(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      mutate(line, rng, "0123456789 {}[]\":,.-+eE\\nschemajobresult");
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ", line \"" + line +
                 "\"");
    // Every line goes to both decoders: each either takes it or rejects
    // it typed, whatever kind of line it was made from.
    for (const bool job_line : {true, false}) {
      const std::string verdict = wire_verdict(line, job_line);
      if (verdict == "!") {
        ++rejected;
      } else {
        // A decoded value re-encodes to a line that decodes to the same
        // value.
        ++accepted;
        ASSERT_EQ(wire_verdict(verdict, job_line), verdict);
      }
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace eds
