#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.hpp"
#include "graph/io.hpp"
#include "port/io.hpp"
#include "runtime/shard.hpp"
#include "test_util.hpp"

namespace eds::cli {
namespace {

/// Points `sweep --shards` (which forks `$EDSIM_BIN worker`) at the real
/// edsim binary; run_cli executes in this test process, so /proc/self/exe
/// would resolve to cli_test itself.  test::edsim_binary() exports
/// EDSIM_BIN as a side effect, which is exactly what the sweep reads.
bool edsim_available() { return !test::edsim_binary().empty(); }

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun invoke(const std::vector<std::string>& args,
              const std::string& stdin_text = "") {
  std::istringstream in(stdin_text);
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, in, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, HelpAndUnknown) {
  EXPECT_EQ(invoke({"help"}).code, 0);
  EXPECT_NE(invoke({"help"}).out.find("usage"), std::string::npos);
  EXPECT_EQ(invoke({}).code, 2);
  EXPECT_EQ(invoke({"frobnicate"}).code, 2);
}

TEST(Cli, GenerateCycleParses) {
  const auto run = invoke({"generate", "cycle", "6"});
  ASSERT_EQ(run.code, 0) << run.err;
  const auto g = graph::from_edge_list_string(run.out);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_TRUE(g.is_regular(2));
}

TEST(Cli, GenerateRegularRespectsSeed) {
  const auto a = invoke({"generate", "regular", "12", "3", "--seed", "5"});
  const auto b = invoke({"generate", "regular", "12", "3", "--seed", "5"});
  const auto c = invoke({"generate", "regular", "12", "3", "--seed", "6"});
  EXPECT_EQ(a.out, b.out);
  EXPECT_NE(a.out, c.out);
}

TEST(Cli, GenerateErrors) {
  EXPECT_EQ(invoke({"generate"}).code, 2);
  EXPECT_EQ(invoke({"generate", "nosuch", "4"}).code, 2);
  EXPECT_EQ(invoke({"generate", "cycle", "2"}).code, 1);  // n < 3
  EXPECT_EQ(invoke({"generate", "cycle"}).code, 2);       // missing n
  // A malformed count is a usage error naming the argument, not a crash.
  const auto bad = invoke({"generate", "cycle", "abc"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("'abc'"), std::string::npos) << bad.err;
  EXPECT_EQ(invoke({"generate", "cycle", "6", "--sed", "1"}).code, 2);
}

TEST(Cli, SolvePipelineEndToEnd) {
  const auto gen = invoke({"generate", "petersen"});
  ASSERT_EQ(gen.code, 0);
  const auto solve =
      invoke({"solve", "--seed", "3", "--exact"}, gen.out);
  ASSERT_EQ(solve.code, 0) << solve.err;
  EXPECT_NE(solve.out.find("odd-regular"), std::string::npos);
  EXPECT_NE(solve.out.find("edge-dominating: yes"), std::string::npos);
  EXPECT_NE(solve.out.find("optimum: 3"), std::string::npos);
  EXPECT_NE(solve.out.find("ratio:"), std::string::npos);
}

TEST(Cli, SolveExplicitAlgorithmAndDot) {
  const auto gen = invoke({"generate", "torus", "3", "4"});
  const auto solve = invoke(
      {"solve", "--algorithm", "port-one", "--ports", "factor", "--dot"},
      gen.out);
  ASSERT_EQ(solve.code, 0) << solve.err;
  // Factor ports force a whole 2-factor: |D| = |V| = 12.
  EXPECT_NE(solve.out.find("solution: 12 edges"), std::string::npos);
  EXPECT_NE(solve.out.find("graph solution {"), std::string::npos);
}

TEST(Cli, SolveRejectsBadInput) {
  EXPECT_EQ(invoke({"solve"}, "garbage").code, 1);
  const auto gen = invoke({"generate", "cycle", "5"});
  EXPECT_EQ(invoke({"solve", "--algorithm", "nosuch"}, gen.out).code, 2);
  EXPECT_EQ(invoke({"solve", "--ports", "nosuch"}, gen.out).code, 2);
}

TEST(Cli, LowerBoundEmitsValidPortGraph) {
  const auto run = invoke({"lower-bound", "4"});
  ASSERT_EQ(run.code, 0) << run.err;
  const auto g = port::from_port_graph_string(run.out);
  EXPECT_EQ(g.num_nodes(), 7u);  // 2d - 1
  EXPECT_NE(run.out.find("forced ratio 7/2"), std::string::npos);
}

TEST(Cli, LowerBoundOddAndErrors) {
  const auto run = invoke({"lower-bound", "3"});
  ASSERT_EQ(run.code, 0);
  const auto g = port::from_port_graph_string(run.out);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_EQ(invoke({"lower-bound"}).code, 2);
  // No construction exists below d = 2: a usage error, before any work.
  for (const std::string d : {"0", "1"}) {
    const auto low = invoke({"lower-bound", d});
    EXPECT_EQ(low.code, 2) << d;
    EXPECT_TRUE(low.out.empty()) << d;
    EXPECT_NE(low.err.find("degree >= 2"), std::string::npos) << low.err;
  }
  // A negative degree is a usage error, never a wrapped-around huge one.
  const auto negative = invoke({"lower-bound", "-3"});
  EXPECT_EQ(negative.code, 2);
  EXPECT_NE(negative.err.find("'-3'"), std::string::npos) << negative.err;
}

TEST(Cli, RunPortgraphOnLowerBoundInstance) {
  const auto lb = invoke({"lower-bound", "6"});
  ASSERT_EQ(lb.code, 0);
  const auto run = invoke(
      {"run-portgraph", "--algorithm", "port-one"}, lb.out);
  ASSERT_EQ(run.code, 0) << run.err;
  // Forced to a full 2-factor: |V| = 11 selected edges.
  EXPECT_NE(run.out.find("selected edges: 11"), std::string::npos);
}

TEST(Cli, RunPortgraphRequiresAlgorithm) {
  const auto lb = invoke({"lower-bound", "4"});
  EXPECT_EQ(invoke({"run-portgraph"}, lb.out).code, 2);
}

TEST(Cli, RunPortgraphTraceShowsTranscript) {
  const auto lb = invoke({"lower-bound", "2"});
  const auto run = invoke(
      {"run-portgraph", "--algorithm", "port-one", "--trace"}, lb.out);
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("--- round 1 ---"), std::string::npos);
  EXPECT_NE(run.out.find("tag="), std::string::npos);
}

TEST(Cli, ViewsOnLowerBoundInstance) {
  const auto lb = invoke({"lower-bound", "4"});
  const auto run = invoke({"views"}, lb.out);
  ASSERT_EQ(run.code, 0) << run.err;
  // Theorem 1 instance: all nodes are view-equivalent.
  EXPECT_NE(run.out.find("classes: 1"), std::string::npos);
}

TEST(Cli, SolveThreadsDoesNotChangeTheResult) {
  const auto gen = invoke({"generate", "regular", "16", "4", "--seed", "3"});
  ASSERT_EQ(gen.code, 0);
  const auto seq = invoke(
      {"solve", "--algorithm", "port-one", "--seed", "9"}, gen.out);
  const auto par = invoke(
      {"solve", "--algorithm", "port-one", "--seed", "9", "--threads", "4"},
      gen.out);
  ASSERT_EQ(seq.code, 0) << seq.err;
  ASSERT_EQ(par.code, 0) << par.err;
  EXPECT_EQ(seq.out, par.out);
}

TEST(Cli, RunPortgraphThreadsDoesNotChangeTheResult) {
  const auto lb = invoke({"lower-bound", "6"});
  ASSERT_EQ(lb.code, 0);
  const auto seq = invoke(
      {"run-portgraph", "--algorithm", "port-one"}, lb.out);
  const auto par = invoke(
      {"run-portgraph", "--algorithm", "port-one", "--threads", "8"}, lb.out);
  ASSERT_EQ(seq.code, 0) << seq.err;
  ASSERT_EQ(par.code, 0) << par.err;
  EXPECT_EQ(seq.out, par.out);
}

TEST(Cli, SweepRunsEveryFamily) {
  const auto cycles =
      invoke({"sweep", "cycle", "--min", "8", "--max", "32"});
  ASSERT_EQ(cycles.code, 0) << cycles.err;
  EXPECT_NE(cycles.out.find("jobs=3"), std::string::npos);
  EXPECT_EQ(cycles.out.find("NO"), std::string::npos);

  const auto paths = invoke({"sweep", "path", "--min", "4", "--max", "16",
                             "--step", "4"});
  ASSERT_EQ(paths.code, 0) << paths.err;
  EXPECT_NE(paths.out.find("jobs=4"), std::string::npos);

  const auto regular = invoke({"sweep", "regular", "--min", "8", "--max",
                               "16", "--d", "3", "--seed", "11"});
  ASSERT_EQ(regular.code, 0) << regular.err;
  EXPECT_NE(regular.out.find("odd-regular"), std::string::npos);

  const auto multi = invoke({"sweep", "portgraph", "--min", "4", "--max",
                             "16", "--d", "4", "--seed", "11"});
  ASSERT_EQ(multi.code, 0) << multi.err;
  EXPECT_NE(multi.out.find("selected"), std::string::npos);
}

TEST(Cli, SweepIsDeterministicAcrossThreadCounts) {
  const std::vector<std::string> base{"sweep",  "regular", "--min", "8",
                                      "--max",  "64",      "--d",   "3",
                                      "--seed", "42"};
  auto one = base;
  one.insert(one.end(), {"--threads", "1"});
  auto many = base;
  many.insert(many.end(), {"--threads", "8"});
  const auto a = invoke(one);
  const auto b = invoke(many);
  ASSERT_EQ(a.code, 0) << a.err;
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_EQ(a.out, b.out);
}

TEST(Cli, SweepNewFamiliesRun) {
  const auto torus = invoke({"sweep", "torus", "--min", "9", "--max", "36"});
  ASSERT_EQ(torus.code, 0) << torus.err;
  EXPECT_NE(torus.out.find("port-one"), std::string::npos)
      << "tori are 4-regular: auto picks port-one";

  const auto grid = invoke({"sweep", "grid", "--min", "9", "--max", "16"});
  ASSERT_EQ(grid.code, 0) << grid.err;
  EXPECT_EQ(grid.out.find("NO"), std::string::npos);

  const auto cat =
      invoke({"sweep", "caterpillar", "--min", "12", "--max", "24"});
  ASSERT_EQ(cat.code, 0) << cat.err;

  const auto pl = invoke({"sweep", "powerlaw", "--min", "16", "--max", "64",
                          "--seed", "5"});
  ASSERT_EQ(pl.code, 0) << pl.err;
  EXPECT_EQ(pl.out.find("NO"), std::string::npos);
}

TEST(Cli, SweepRoundBudgetFollowsTheSchedule) {
  // This instance's hub has degree 226: A(∆) needs 3 + 3·227² = 154,590
  // rounds, more than the default cap of 100,000.
  const auto run = invoke({"sweep", "powerlaw", "--min", "65536", "--max",
                           "65536", "--seed", "1"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("154590"), std::string::npos) << run.out;
}

TEST(Cli, SweepRepeatCompilesOnePlanPerInstance) {
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                           "--repeat", "5"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("jobs=5"), std::string::npos);
  EXPECT_NE(run.out.find("plan-cache: compiled=1 hits=4"), std::string::npos)
      << run.out;

  // Two sizes x 3 repeats: 2 plans, 4 hits.
  const auto two = invoke({"sweep", "cycle", "--min", "8", "--max", "16",
                           "--repeat", "3"});
  ASSERT_EQ(two.code, 0) << two.err;
  EXPECT_NE(two.out.find("plan-cache: compiled=2 hits=4"), std::string::npos)
      << two.out;

  EXPECT_EQ(invoke({"sweep", "cycle", "--repeat", "0"}).code, 2);
}

TEST(Cli, SweepNdjsonStreamsOneObjectPerJob) {
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "32",
                           "--ndjson", "--repeat", "2"});
  ASSERT_EQ(run.code, 0) << run.err;
  std::istringstream lines(run.out);
  std::string line;
  std::size_t rows = 0;
  bool saw_summary = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    // Every object — jobs and summary — is versioned with the protocol.
    EXPECT_NE(line.find("\"schema\":2"), std::string::npos) << line;
    if (line.find("\"summary\"") != std::string::npos) {
      saw_summary = true;
      EXPECT_NE(line.find("\"plans_compiled\":3"), std::string::npos) << line;
      EXPECT_NE(line.find("\"plan_hits\":3"), std::string::npos) << line;
      EXPECT_NE(line.find("\"all_feasible\":true"), std::string::npos);
    } else {
      ++rows;
      EXPECT_NE(line.find("\"rounds\":"), std::string::npos);
      EXPECT_NE(line.find("\"feasible\":true"), std::string::npos);
    }
  }
  EXPECT_EQ(rows, 6u);  // 3 sizes x 2 repeats
  EXPECT_TRUE(saw_summary);

  // The portgraph family emits NDJSON too, with port-level fields.
  const auto multi = invoke({"sweep", "portgraph", "--min", "4", "--max", "8",
                             "--d", "3", "--ndjson"});
  ASSERT_EQ(multi.code, 0) << multi.err;
  EXPECT_EQ(multi.out.front(), '{');
  EXPECT_NE(multi.out.find("\"selected\":"), std::string::npos);
  EXPECT_NE(multi.out.find("\"summary\""), std::string::npos);
}

TEST(Cli, SweepNdjsonIsDeterministicAcrossThreadCounts) {
  const std::vector<std::string> base{"sweep", "regular", "--min", "8",
                                      "--max", "32",      "--d",   "3",
                                      "--seed", "13",     "--ndjson"};
  auto one = base;
  one.insert(one.end(), {"--threads", "1"});
  auto many = base;
  many.insert(many.end(), {"--threads", "8"});
  const auto a = invoke(one);
  const auto b = invoke(many);
  ASSERT_EQ(a.code, 0) << a.err;
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_EQ(a.out, b.out);
}

TEST(Cli, SweepShardsAreByteIdenticalToThreadsAndSequential) {
  if (!edsim_available()) GTEST_SKIP() << "edsim binary not found";
  // The acceptance differential for the sharded backend: for each family,
  // sequential (--threads 1), pooled (--threads 8) and process-sharded
  // (--shards 3) sweeps must produce byte-identical NDJSON — rows,
  // summary, plan-cache counters and all.
  const std::vector<std::vector<std::string>> sweeps{
      {"sweep", "grid", "--min", "9", "--max", "36", "--repeat", "2",
       "--seed", "3", "--ndjson"},
      {"sweep", "powerlaw", "--min", "16", "--max", "64", "--seed", "5",
       "--ndjson"},
      {"sweep", "portgraph", "--min", "4", "--max", "16", "--d", "3",
       "--seed", "11", "--repeat", "2", "--ndjson"},
  };
  for (const auto& base : sweeps) {
    auto sequential = base;
    sequential.insert(sequential.end(), {"--threads", "1"});
    auto pooled = base;
    pooled.insert(pooled.end(), {"--threads", "8"});
    auto sharded = base;
    sharded.insert(sharded.end(), {"--shards", "3"});

    const auto a = invoke(sequential);
    const auto b = invoke(pooled);
    const auto c = invoke(sharded);
    ASSERT_EQ(a.code, 0) << base[1] << ": " << a.err;
    ASSERT_EQ(b.code, 0) << base[1] << ": " << b.err;
    ASSERT_EQ(c.code, 0) << base[1] << ": " << c.err;
    EXPECT_EQ(a.out, b.out) << base[1];
    EXPECT_EQ(a.out, c.out) << base[1] << ": shards must not change a byte";
  }
}

TEST(Cli, SweepShardsReportsADeadWorkerCommand) {
  // /bin/false exits immediately without speaking the protocol: the sweep
  // fails cleanly (exit 1, prefix rule) instead of hanging.
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                           "--shards", "2", "--worker-bin", "/bin/false"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("sweep:"), std::string::npos) << run.err;
}

/// FNV-1a (64-bit) over the bytes of `text`.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One pinned sweep: `sweep <args> --seed 5` in table mode and again with
/// --ndjson, each as the FNV-1a hash of stdout plus the exit code.
struct GoldenSweep {
  std::vector<std::string> args;
  std::uint64_t table_hash;
  int table_code;
  std::uint64_t ndjson_hash;
  int ndjson_code;
};

void expect_golden(const std::vector<GoldenSweep>& pins) {
  for (const auto& pin : pins) {
    std::vector<std::string> args{"sweep"};
    args.insert(args.end(), pin.args.begin(), pin.args.end());
    args.insert(args.end(), {"--seed", "5"});
    std::string label;
    for (const auto& a : args) label += a + ' ';
    const auto table = invoke(args);
    args.push_back("--ndjson");
    const auto ndjson = invoke(args);
    EXPECT_EQ(table.code, pin.table_code) << label << table.err;
    EXPECT_EQ(fnv1a(table.out), pin.table_hash) << label << '\n' << table.out;
    EXPECT_EQ(ndjson.code, pin.ndjson_code) << label << ndjson.err;
    EXPECT_EQ(fnv1a(ndjson.out), pin.ndjson_hash)
        << label << "--ndjson\n" << ndjson.out;
  }
}

// Golden pins: the exact bytes every sweep shape prints, recorded before
// the sweep's job pipeline was unified.  The thread- and backend-identity
// tests compare runs with each other; these catch a change to the output
// itself.  The error cases pin what reaches stdout before the failure
// (a sync table prints its header before resolving the parameter).
TEST(Cli, SweepOutputMatchesGoldenPins) {
  expect_golden({
      {{"path", "--min", "8", "--max", "64"},
       0x7aab70283023582bULL, 0, 0x2641cbaa48a5ddd3ULL, 0},
      {{"cycle", "--min", "8", "--max", "64"},
       0xa5eeec889e90d919ULL, 0, 0xb25fb6316b7135eaULL, 0},
      {{"regular", "--d", "3", "--min", "8", "--max", "64"},
       0xfffa41ec70a1a6b0ULL, 0, 0xd9e2981d857448e0ULL, 0},
      {{"regular", "--d", "4", "--min", "8", "--max", "64"},
       0x095fdd52fa806c93ULL, 0, 0x9ca82422669fc016ULL, 0},
      {{"grid", "--min", "9", "--max", "100"},
       0x9f2db142a030448aULL, 0, 0x2c9eea567361f1caULL, 0},
      {{"torus", "--min", "9", "--max", "100"},
       0x76ba0edc4537559dULL, 0, 0xd04ba5227b8d69deULL, 0},
      {{"caterpillar", "--min", "8", "--max", "64"},
       0x881cc918ad41436eULL, 0, 0xd3c3f55c0e761576ULL, 0},
      {{"powerlaw", "--min", "16", "--max", "128"},
       0x3d087224380968e9ULL, 0, 0xcb8f9e0a262ec5c7ULL, 0},
      {{"portgraph", "--d", "3", "--min", "4", "--max", "32"},
       0x904016c7a4ef6cbdULL, 0, 0x972930e7fb404578ULL, 0},
      {{"grid", "--min", "9", "--max", "64", "--algorithm", "bounded-degree", "--param", "5"},
       0xa366ccfea9d96271ULL, 0, 0x5ef060f7ccb650eeULL, 0},
      {{"regular", "--d", "3", "--min", "8", "--max", "32", "--repeat", "2"},
       0xde355cf4009bca09ULL, 0, 0x9dd6d01afbb19bb6ULL, 0},
      {{"regular", "--d", "3", "--min", "8", "--max", "32", "--model", "async", "--delay", "uniform:1:9"},
       0xbbc2d9608a110ba9ULL, 0, 0xde83c5aef052629eULL, 0},
      {{"regular", "--d", "3", "--min", "8", "--max", "32", "--algorithm", "port-one", "--model", "async", "--delay", "uniform:1:6", "--loss", "0.1", "--dup", "0.05", "--crash", "2"},
       0x2c4301f023ce25caULL, 0, 0x565e03dd98e2da8dULL, 0},
      {{"cycle", "--min", "8", "--max", "32", "--model", "async", "--loss", "0.2"},
       0x2cfb9b3255613ac7ULL, 0, 0xc2134a68f46a430dULL, 0},
      {{"portgraph", "--d", "3", "--min", "4", "--max", "16", "--model", "async"},
       0x87322ae71643a837ULL, 0, 0x78e4ee76d0574045ULL, 0},
      {{"regular", "--d", "3", "--min", "8", "--max", "16", "--model", "async", "--adversary", "delay", "--budget", "8"},
       0x0caca14a32bda858ULL, 0, 0x3668faf078bbea61ULL, 0},
      {{"portgraph", "--d", "3", "--min", "4", "--max", "8", "--model", "async", "--adversary", "delay", "--budget", "8"},
       0x90c1c75b4358c6f6ULL, 0, 0x757e350f6b2b6e92ULL, 0},
      {{"grid", "--min", "9", "--max", "16", "--algorithm", "odd-regular"},
       0xc10b1c03c84e6724ULL, 1, 0xcbf29ce484222325ULL, 1},
      {{"grid", "--min", "9", "--max", "16", "--algorithm", "odd-regular", "--model", "async"},
       0xcbf29ce484222325ULL, 1, 0xcbf29ce484222325ULL, 1},
      {{"portgraph", "--d", "3", "--min", "4", "--max", "16", "--model", "async", "--loss", "0.3", "--algorithm", "port-one"},
       0xa4376974b19e02edULL, 0, 0xfcc0c9b4382853bdULL, 0},
      // Lossy odd-regular: its handshakes meet lost messages, and the
      // detecting nodes stop like crashed ones, so the sweep completes.
      {{"regular", "--d", "3", "--min", "8", "--max", "32", "--model", "async", "--loss", "0.3"},
       0xb51301c58e371ae8ULL, 0, 0x373a310d2fa1f240ULL, 0},
      {{"cycle", "--min", "2", "--max", "2"},
       0xcbf29ce484222325ULL, 1, 0xcbf29ce484222325ULL, 1},
  });
}

TEST(Cli, ShardedSweepOutputMatchesGoldenPins) {
  if (!edsim_available()) GTEST_SKIP() << "edsim binary not found";
  expect_golden({
      {{"torus", "--min", "9", "--max", "64", "--repeat", "2", "--shards", "2"},
       0x9d2df87dd2611739ULL, 0, 0x9093c09b9d0dd768ULL, 0},
      {{"regular", "--d", "3", "--min", "8", "--max", "32", "--model", "async", "--shards", "2"},
       0xa06bf1ae0f93a1f2ULL, 0, 0xeed85809af39b96fULL, 0},
  });
}

// Golden pin: both tables of `edsim table1`, every row held (exit 0).  The
// rows were checked cell for cell against the two Table 1 bench programs
// the command replaced, before this pin was recorded.
TEST(Cli, Table1IsTight) {
  const auto run = invoke({"table1"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(run.err.empty()) << run.err;
  EXPECT_EQ(fnv1a(run.out), 0x8932e524b3a0cd96ULL) << run.out;
}

/// `lines` as the worker's stdin, one line each.
std::string job_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  return text;
}

/// The graph line of the 2-node, 1-edge port graph.
const std::string kEdgeGraphLine =
    runtime::encode_wire_graph("ports 2\ndeg 1 1\nconn 0 1 1 1\n");

/// Every line of a worker's stdout, decoded.
std::vector<runtime::WorkerLine> worker_lines(const std::string& out) {
  std::istringstream lines(out);
  std::string line;
  std::vector<runtime::WorkerLine> parsed;
  while (std::getline(lines, line)) {
    parsed.push_back(runtime::decode_worker_line(line));
  }
  return parsed;
}

TEST(Cli, WorkerSpeaksTheWireProtocol) {
  // One graph line, then two jobs on it: two result lines (flushed in
  // order) plus, at EOF, a summary showing one compiled plan and one
  // cache hit.
  runtime::WireJob job;
  job.algorithm = "all-edges";
  job.param = 0;
  job.threads = 1;
  job.max_rounds = 100;
  job.index = 0;
  const auto line0 = runtime::encode_wire_job(job);
  job.index = 1;
  const auto line1 = runtime::encode_wire_job(job);

  const auto run = invoke({"worker"}, job_lines({kEdgeGraphLine, line0, line1}));
  ASSERT_EQ(run.code, 0) << run.err;
  const auto parsed = worker_lines(run.out);
  ASSERT_EQ(parsed.size(), 3u) << run.out;
  ASSERT_EQ(parsed[0].kind, runtime::WorkerLine::Kind::kResult);
  EXPECT_EQ(parsed[0].index, 0u);
  // all-edges: both endpoints select their single port.
  const std::vector<std::vector<runtime::Port>> want{{1}, {1}};
  EXPECT_EQ(parsed[0].result.outputs, want);
  ASSERT_EQ(parsed[1].kind, runtime::WorkerLine::Kind::kResult);
  EXPECT_EQ(parsed[1].index, 1u);
  ASSERT_EQ(parsed[2].kind, runtime::WorkerLine::Kind::kSummary);
  EXPECT_EQ(parsed[2].summary.jobs, 2u);
  EXPECT_EQ(parsed[2].summary.plans_compiled, 1u);
  EXPECT_EQ(parsed[2].summary.plan_hits, 1u);

  // Each graph line is a new graph, even with the text of the last one:
  // the worker swaps the graph and clears its cache, so two graphs back
  // to back compile two plans.
  const auto swapped = invoke(
      {"worker"}, job_lines({kEdgeGraphLine, line0, kEdgeGraphLine, line1}));
  ASSERT_EQ(swapped.code, 0) << swapped.err;
  const auto swapped_lines = worker_lines(swapped.out);
  ASSERT_EQ(swapped_lines.size(), 3u) << swapped.out;
  EXPECT_EQ(swapped_lines[0].result.outputs, want);
  EXPECT_EQ(swapped_lines[1].result.outputs, want);
  EXPECT_EQ(swapped_lines[2].summary.jobs, 2u);
  EXPECT_EQ(swapped_lines[2].summary.plans_compiled, 2u);
  EXPECT_EQ(swapped_lines[2].summary.plan_hits, 0u);

  // A job line before any graph line has nothing to run on: a protocol
  // failure, reported before any output.
  const auto orphan = invoke({"worker"}, job_lines({line0, kEdgeGraphLine}));
  EXPECT_EQ(orphan.code, 2);
  EXPECT_NE(orphan.err.find("malformed parent line 1"), std::string::npos)
      << orphan.err;
  EXPECT_TRUE(orphan.out.empty()) << orphan.out;

  // A batch frame from the retired framed protocol is not a parent line: a
  // protocol failure, reported before any output.
  const auto framed = invoke(
      {"worker"}, "{\"schema\":2,\"batch_begin\":{\"batch\":1}}\n" +
                      kEdgeGraphLine + "\n" + line0 + "\n");
  EXPECT_EQ(framed.code, 2);
  EXPECT_NE(framed.err.find("malformed parent line 1"), std::string::npos)
      << framed.err;
  EXPECT_TRUE(framed.out.empty()) << framed.out;
}

TEST(Cli, WorkerReportsJobFailuresAndDiesOnGarbage) {
  runtime::WireJob job;
  job.algorithm = "no-such-algorithm";
  job.max_rounds = 10;
  const auto run = invoke(
      {"worker"}, job_lines({kEdgeGraphLine, runtime::encode_wire_job(job)}));
  ASSERT_EQ(run.code, 0) << "a failed job is an error line, not a dead worker";
  EXPECT_NE(run.out.find("\"error\""), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("\"worker_summary\""), std::string::npos);

  EXPECT_EQ(invoke({"worker"}, "garbage\n").code, 2);

  // The crash:1 chaos hook: one result, then a nonzero exit with no
  // summary — exactly what the worker-death tests simulate with.
  runtime::WireJob ok = job;
  ok.algorithm = "all-edges";
  const auto wire = runtime::encode_wire_job(ok);
  const auto killed = invoke({"worker", "--chaos", "crash:1"},
                             job_lines({kEdgeGraphLine, wire, wire}));
  EXPECT_EQ(killed.code, 7);
  EXPECT_EQ(killed.out.find("\"worker_summary\""), std::string::npos);

  // The worker accepts --chaos and nothing else.
  const auto unknown = invoke({"worker", "--crash-after", "1"},
                              job_lines({kEdgeGraphLine, wire}));
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("--crash-after"), std::string::npos)
      << unknown.err;
}

TEST(Cli, ReadersFailTypedOnOversizedHeaders) {
  // Declared sizes the input does not back are read errors (exit 1), not
  // std::bad_alloc from a reservation made before any data was read.
  const auto solve = invoke({"solve"}, "4 99999999999999\n0 1\n");
  EXPECT_EQ(solve.code, 1);
  EXPECT_NE(solve.err.find("fewer edges than promised"), std::string::npos)
      << solve.err;
  for (const char* text :
       {"ports 99999999999\ndeg 1\n", "ports 5000000000\ndeg 1\n"}) {
    const auto views = invoke({"views"}, text);
    EXPECT_EQ(views.code, 1) << text;
    EXPECT_NE(views.err.find("NodeId range"), std::string::npos) << views.err;
  }
  // The worker decodes a graph line through the same reader: every job on
  // that graph answers with one error line naming the parse failure, and
  // the worker carries on with the next graph.
  runtime::WireJob job;
  job.algorithm = "all-edges";
  job.max_rounds = 10;
  const auto wire = runtime::encode_wire_job(job);
  const auto worker = invoke(
      {"worker"},
      job_lines({runtime::encode_wire_graph("ports 5000000000\ndeg 1\n"), wire,
                 wire, kEdgeGraphLine, wire}));
  EXPECT_EQ(worker.code, 0) << worker.err;
  const auto lines = worker_lines(worker.out);
  ASSERT_EQ(lines.size(), 4u) << worker.out;
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_EQ(lines[k].kind, runtime::WorkerLine::Kind::kError) << k;
    EXPECT_NE(lines[k].message.find("NodeId range"), std::string::npos)
        << lines[k].message;
  }
  EXPECT_EQ(lines[2].kind, runtime::WorkerLine::Kind::kResult);
  EXPECT_EQ(lines[3].summary.jobs, 3u);
  EXPECT_EQ(lines[3].summary.plans_compiled, 1u);
}

TEST(Cli, SweepErrors) {
  EXPECT_EQ(invoke({"sweep"}).code, 2);
  EXPECT_EQ(invoke({"sweep", "nosuch"}).code, 2);
  EXPECT_EQ(invoke({"sweep", "cycle", "--min", "0"}).code, 2);
  EXPECT_EQ(invoke({"sweep", "cycle", "--min", "9", "--max", "4"}).code, 2);
  EXPECT_EQ(
      invoke({"sweep", "cycle", "--algorithm", "nosuch"}).code, 2);
  // cycle(2) is invalid: the generator error surfaces as exit code 1.
  EXPECT_EQ(invoke({"sweep", "cycle", "--min", "2", "--max", "2"}).code, 1);

  // Usage errors exit 2 and name the offending argument: an unknown flag
  // (a typo must not silently run in-process), a malformed or
  // out-of-range number, and an option missing its value.
  const std::vector<std::pair<std::vector<std::string>, std::string>> usage{
      {{"--shard", "4"}, "--shard"},
      {{"--threads", "abc"}, "--threads"},
      {{"--threads", "-1"}, "--threads"},
      {{"--threads", "4294967296"}, "--threads"},
      {{"--max", "99999999999999999999"}, "--max"},
      {{"--seed"}, "--seed"},
      {{"--seed", "--ndjson"}, "--seed"},
      {{"--shards", "1", "--pool", "off"}, "--pool"},
  };
  for (const auto& [extra, named] : usage) {
    std::vector<std::string> args{"sweep", "cycle", "--min", "8", "--max",
                                  "8"};
    args.insert(args.end(), extra.begin(), extra.end());
    const auto run = invoke(args);
    EXPECT_EQ(run.code, 2) << named;
    EXPECT_NE(run.err.find(named), std::string::npos) << run.err;
    EXPECT_TRUE(run.out.empty()) << "rejected before any work: " << run.out;
  }
}

/// The value of `"key":` in a one-line JSON object ("" when absent).
/// Good enough for the flat objects the sweep emits — no nesting, no
/// escaped strings in the fields under test.
std::string json_field(const std::string& line, const std::string& key) {
  const auto pos = line.find('"' + key + "\":");
  if (pos == std::string::npos) return "";
  const auto start = pos + key.size() + 3;
  const auto end = line.find_first_of(",}", start);
  return line.substr(start, end - start);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(Cli, SweepResilienceFlagsRequireShards) {
  // The whole resilience surface lives behind the sharded backend;
  // accepting the flags elsewhere would silently do nothing.
  const std::vector<std::vector<std::string>> extras{
      {"--retries", "1"},         {"--job-timeout-ms", "10"},
      {"--batch-timeout-ms", "10"}, {"--breaker-deaths", "2"},
      {"--fallback-inprocess"},   {"--chaos", "crash:1"},
  };
  for (const auto& extra : extras) {
    std::vector<std::string> args{"sweep", "cycle", "--min", "8", "--max",
                                  "8"};
    args.insert(args.end(), extra.begin(), extra.end());
    const auto run = invoke(args);
    EXPECT_EQ(run.code, 2) << extra.front();
    EXPECT_NE(run.err.find("--shards"), std::string::npos) << run.err;
  }
  // With --shards the numeric knobs still reject what does not parse,
  // naming the flag, before any worker is forked.
  for (const char* flag : {"--retries", "--job-timeout-ms",
                           "--batch-timeout-ms", "--breaker-deaths",
                           "--shards"}) {
    const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                             "--shards", "1", flag, "-5"});
    EXPECT_EQ(run.code, 2) << flag;
    EXPECT_NE(run.err.find(flag), std::string::npos) << run.err;
  }
}

TEST(Cli, SweepAsyncOnlyFlagsNeedModelAsync) {
  // Under the default (or an explicit) sync model these flags would be
  // parsed and then ignored; each is a usage error naming both flags.
  const std::vector<std::vector<std::string>> extras{
      {"--adversary", "delay"}, {"--delay", "fixed:2"},
      {"--loss", "0.5"},        {"--dup", "0.1"},
      {"--crash", "3"},         {"--timeout", "4"},
      {"--synchronizer", "on"},
  };
  for (const auto& extra : extras) {
    for (const bool spelled : {false, true}) {
      std::vector<std::string> args{"sweep", "cycle", "--min", "8", "--max",
                                    "8"};
      if (spelled) args.insert(args.end(), {"--model", "sync"});
      args.insert(args.end(), extra.begin(), extra.end());
      const auto run = invoke(args);
      EXPECT_EQ(run.code, 2) << extra.front();
      EXPECT_NE(run.err.find(extra.front()), std::string::npos) << run.err;
      EXPECT_NE(run.err.find("--model async"), std::string::npos) << run.err;
      EXPECT_TRUE(run.out.empty()) << run.out;
    }
  }
  // The adversary-only knobs name the flag they need.
  for (const char* flag : {"--budget", "--replay-out"}) {
    const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                             "--model", "async", flag, "4"});
    EXPECT_EQ(run.code, 2) << flag;
    EXPECT_NE(run.err.find(std::string(flag) + " needs --adversary"),
              std::string::npos)
        << run.err;
  }
}

TEST(Cli, SweepRejectsAMalformedChaosSpec) {
  // The spec is validated up front, in the parent — not discovered as a
  // worker that dies with a usage error on its first batch.
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                           "--shards", "1", "--chaos", "frobnicate:1"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("chaos"), std::string::npos) << run.err;
}

TEST(Cli, SweepChaosSummaryReportsDegradedCountersAndIdenticalRows) {
  if (!edsim_available()) GTEST_SKIP() << "edsim binary not found";
  const std::vector<std::string> base{"sweep", "cycle",    "--min", "8",
                                      "--max", "8",        "--repeat", "3",
                                      "--seed", "3",       "--ndjson"};
  auto clean = base;
  clean.insert(clean.end(), {"--shards", "1"});
  auto chaotic = clean;
  // crash:2 kills the worker after its second answer, orphaning the
  // third repeat — exercised as a retry, visible only in the summary.
  chaotic.insert(chaotic.end(), {"--chaos", "crash:2"});

  const auto a = invoke(clean);
  const auto b = invoke(chaotic);
  ASSERT_EQ(a.code, 0) << a.err;
  ASSERT_EQ(b.code, 0) << b.err;
  const auto clean_lines = lines_of(a.out);
  const auto chaos_lines = lines_of(b.out);
  ASSERT_EQ(clean_lines.size(), chaos_lines.size());
  // Every row is bit-identical — chaos may cost retries, never bytes.
  for (std::size_t i = 0; i + 1 < clean_lines.size(); ++i) {
    EXPECT_EQ(clean_lines[i], chaos_lines[i]) << "row " << i;
  }
  // The clean summary omits the resilience counters entirely (so it
  // stays byte-identical to in-process backends); the degraded one
  // carries the exact retry accounting.
  const auto& clean_summary = clean_lines.back();
  const auto& chaos_summary = chaos_lines.back();
  EXPECT_EQ(json_field(clean_summary, "jobs_retried"), "");
  EXPECT_EQ(json_field(chaos_summary, "jobs_retried"), "1");
  EXPECT_EQ(json_field(chaos_summary, "workers_respawned"), "1");
  EXPECT_EQ(json_field(chaos_summary, "jobs_poisoned"), "0");
  EXPECT_EQ(json_field(chaos_summary, "summaries_lost"), "1")
      << "the crashed worker died before reporting its batch delta";
  // The retried job recompiled its plan in a fresh worker, but the cache
  // accounting must stay coherent: same hits as the clean run reports.
  EXPECT_EQ(json_field(chaos_summary, "jobs"), json_field(clean_summary,
                                                          "jobs"));
}

TEST(Cli, SweepModelSyncDefaultIsByteIdentical) {
  // `--model sync` must be a no-op: same bytes as omitting the flag, in
  // both table and NDJSON mode.
  const std::vector<std::string> base{"sweep",  "cycle", "--min", "8",
                                      "--max",  "32",    "--seed", "3"};
  for (const bool ndjson : {false, true}) {
    auto plain = base;
    auto spelled = base;
    spelled.insert(spelled.end(), {"--model", "sync"});
    if (ndjson) {
      plain.push_back("--ndjson");
      spelled.push_back("--ndjson");
    }
    const auto a = invoke(plain);
    const auto b = invoke(spelled);
    ASSERT_EQ(a.code, 0) << a.err;
    EXPECT_EQ(b.code, a.code);
    EXPECT_EQ(b.out, a.out);
    EXPECT_EQ(b.err, a.err);
    // The sync rows never carry the async-only fields.
    EXPECT_EQ(a.out.find("\"model\""), std::string::npos);
    EXPECT_EQ(a.out.find("\"consistent\""), std::string::npos);
  }
}

TEST(Cli, SweepModelAsyncOracleRowsMatchSyncRows) {
  // The α-synchronizer differential oracle at the CLI layer: a fault-free
  // async sweep must report the same rounds/messages/solution/feasible as
  // the sync sweep, row by row, under an adversarial delay model.
  const std::vector<std::string> base{
      "sweep", "regular", "--min", "8",    "--max",  "32", "--d",
      "3",     "--seed",  "11",    "--ndjson"};
  auto async_args = base;
  async_args.insert(async_args.end(),
                    {"--model", "async", "--delay", "uniform:1:9"});
  const auto sync = invoke(base);
  const auto async = invoke(async_args);
  ASSERT_EQ(sync.code, 0) << sync.err;
  ASSERT_EQ(async.code, 0) << async.err;

  const auto sync_lines = lines_of(sync.out);
  const auto async_lines = lines_of(async.out);
  ASSERT_EQ(sync_lines.size(), async_lines.size());
  for (std::size_t i = 0; i + 1 < sync_lines.size(); ++i) {  // skip summary
    EXPECT_EQ(json_field(async_lines[i], "model"), "\"async\"");
    EXPECT_EQ(json_field(async_lines[i], "consistent"), "true");
    for (const char* key :
         {"n", "nodes", "edges", "rounds", "messages", "solution",
          "feasible", "algorithm"}) {
      EXPECT_EQ(json_field(async_lines[i], key), json_field(sync_lines[i], key))
          << "row " << i << " field " << key;
    }
  }
}

TEST(Cli, SweepModelAsyncEchoesConfigInSummary) {
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                           "--ndjson", "--model", "async", "--delay",
                           "geometric:3", "--loss", "0.1", "--crash", "1",
                           "--seed", "4"});
  ASSERT_EQ(run.code, 0) << run.err;
  const auto lines = lines_of(run.out);
  ASSERT_FALSE(lines.empty());
  const auto& summary = lines.back();
  ASSERT_NE(summary.find("\"summary\""), std::string::npos);
  EXPECT_NE(summary.find("\"model\":\"async\""), std::string::npos);
  EXPECT_NE(summary.find("\"delay\":\"geometric:3:24\""), std::string::npos);
  EXPECT_NE(summary.find("\"loss\":0.1"), std::string::npos);
  EXPECT_NE(summary.find("\"crash\":1"), std::string::npos);
  // Faults were requested, so the synchronizer defaulted off.
  EXPECT_NE(summary.find("\"synchronizer\":false"), std::string::npos);

  // The portgraph family carries the async fields too.
  const auto multi = invoke({"sweep", "portgraph", "--min", "4", "--max", "8",
                             "--d", "3", "--ndjson", "--model", "async"});
  ASSERT_EQ(multi.code, 0) << multi.err;
  EXPECT_NE(multi.out.find("\"model\":\"async\""), std::string::npos);
  EXPECT_NE(multi.out.find("\"consistent\":true"), std::string::npos);
}

TEST(Cli, SweepModelAsyncFaultyIsDeterministicAcrossThreadCounts) {
  // Fault injection draws from per-job seeds fixed at construction, so a
  // faulty sweep is byte-identical between --threads 1 and --threads 8.
  // port-one: the one protocol that tolerates fault-induced silence (in
  // the handshake algorithms the detecting nodes stop, see below).
  const std::vector<std::string> base{
      "sweep",   "regular", "--min",  "8",     "--max", "32",
      "--d",     "3",       "--seed", "7",     "--ndjson",
      "--algorithm", "port-one",
      "--model", "async",   "--delay", "uniform:1:6",
      "--loss",  "0.1",     "--dup",  "0.05",  "--crash", "2"};
  auto one = base;
  one.insert(one.end(), {"--threads", "1"});
  auto many = base;
  many.insert(many.end(), {"--threads", "8"});
  const auto a = invoke(one);
  const auto b = invoke(many);
  ASSERT_EQ(a.code, 0) << a.err;
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_EQ(a.out, b.out);
}

TEST(Cli, SweepModelAsyncFaultyHandshakesReportInconsistentRows) {
  // A fault leaves a handshake algorithm silence where it expects a
  // message; the node that detects it stops like a crashed one, and the
  // sweep reports the damage as an inconsistent row instead of aborting.
  const std::vector<std::string> base{
      "sweep", "regular", "--d", "3", "--min", "2048", "--max", "2048",
      "--model", "async", "--delay", "uniform:1:9", "--ndjson"};
  for (const auto& faults : std::vector<std::vector<std::string>>{
           {"--loss", "0.01"},
           {"--dup", "0.01", "--crash", "2"},
           {"--algorithm", "double-cover", "--loss", "0.01"}}) {
    auto args = base;
    args.insert(args.end(), faults.begin(), faults.end());
    const auto run = invoke(args);
    EXPECT_EQ(run.code, 0) << faults.front() << ": " << run.err;
    EXPECT_NE(run.out.find("\"consistent\":false"), std::string::npos)
        << faults.front() << ": " << run.out;
  }
}

TEST(Cli, SweepModelAsyncRejections) {
  const auto fails = [](std::vector<std::string> extra) {
    std::vector<std::string> args{"sweep", "cycle", "--min", "8", "--max",
                                  "8"};
    args.insert(args.end(), extra.begin(), extra.end());
    return invoke(args).code;
  };
  EXPECT_EQ(fails({"--model", "turbo"}), 2);
  // --model async + --shards is legal; what stays out of the wire is the
  // adversary (schedules are an in-process artifact).
  EXPECT_EQ(fails({"--model", "async", "--adversary", "random", "--shards",
                   "2"}),
            2);
  EXPECT_EQ(fails({"--model", "async", "--delay", "bogus:1"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--delay", "uniform:9:1"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--loss", "1.5"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--loss", "nope"}), 2);
  EXPECT_EQ(
      fails({"--model", "async", "--loss", "0.5", "--synchronizer", "on"}),
      2);
  EXPECT_EQ(fails({"--model", "async", "--synchronizer", "sideways"}), 2);
}

TEST(Cli, SweepRefusesMalformedProbabilities) {
  // --loss and --dup take one whole finite number in [0, 1]: NaN, an
  // infinity or trailing bytes exit 2 before any work, on every backend.
  const std::vector<std::pair<std::string, std::string>> bad{
      {"--dup", "nan"}, {"--loss", "nan"},  {"--loss", "0.5abc"},
      {"--loss", "inf"}, {"--dup", "-nan"}, {"--dup", "0.5 "}};
  std::vector<std::vector<std::string>> backends{{"--threads", "1"}};
  if (edsim_available()) backends.push_back({"--shards", "1"});
  for (const auto& backend : backends) {
    for (const auto& [flag, value] : bad) {
      std::vector<std::string> args{"sweep", "regular", "--d", "3",
                                    "--min", "8", "--max", "8", "--model",
                                    "async", flag, value, "--synchronizer",
                                    "off"};
      args.insert(args.end(), backend.begin(), backend.end());
      const auto run = invoke(args);
      EXPECT_EQ(run.code, 2) << flag << ' ' << value << ' ' << backend[0];
      EXPECT_NE(run.err.find("--loss/--dup"), std::string::npos) << run.err;
      EXPECT_TRUE(run.out.empty()) << run.out;
    }
  }
  // The whole range still runs, and a lossy run crosses the wire.
  for (const char* value : {"0", "1", "0.25", "1e-3"}) {
    EXPECT_EQ(invoke({"sweep", "regular", "--d", "3", "--min", "8", "--max",
                      "8", "--model", "async", "--loss", value,
                      "--synchronizer", "off"})
                  .code,
              0)
        << value;
  }
}

TEST(Cli, SweepAdversaryEchoesConfigAndEmitsWorstCaseRows) {
  // One instance, one search: a row with the full worst-case metric set and
  // a summary echoing the adversary configuration.
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                           "--model", "async", "--adversary", "delay",
                           "--budget", "8", "--timeout", "3", "--seed", "4",
                           "--ndjson"});
  ASSERT_EQ(run.code, 0) << run.err;
  const auto lines = lines_of(run.out);
  ASSERT_EQ(lines.size(), 2u) << run.out;

  const auto& row = lines.front();
  EXPECT_EQ(json_field(row, "family"), "\"cycle\"");
  EXPECT_EQ(json_field(row, "adversary"), "\"delay\"");
  EXPECT_EQ(json_field(row, "budget"), "8");
  EXPECT_EQ(json_field(row, "evaluated"), "8");
  for (const char* key :
       {"failures", "worst_rounds", "worst_time", "worst_selected",
        "worst_inconsistent", "primary", "shrunk_changes",
        "shrunk_overrides"}) {
    EXPECT_NE(json_field(row, key), "") << "row missing " << key;
  }
  // cycle(8) has 8 <= 24 edges: the exact optimum and the worst-case
  // approximation ratio are part of the row.
  EXPECT_EQ(json_field(row, "optimum"), "3");
  EXPECT_NE(json_field(row, "worst_ratio"), "");

  const auto& summary = lines.back();
  ASSERT_NE(summary.find("\"summary\""), std::string::npos);
  EXPECT_EQ(json_field(summary, "adversary"), "\"delay\"");
  EXPECT_EQ(json_field(summary, "budget"), "8");
  // Adversaries imply free-running mode unless overridden.
  EXPECT_NE(summary.find("\"synchronizer\":false"), std::string::npos);
}

TEST(Cli, SweepAdversaryReplayRoundTripIsByteIdentical) {
  // The differential replay acceptance path end to end: search under
  // --threads 1 and --threads 8 (byte-identical reports and replay files),
  // then re-execute the serialized worst schedule — every recorded metric
  // must reproduce, again independent of the thread count.
  const auto dir = ::testing::TempDir() + "cli_adversary_replay";
  std::filesystem::create_directories(dir);
  const std::vector<std::string> base{
      "sweep", "cycle", "--min", "8", "--max", "8", "--model", "async",
      "--adversary", "delay", "--budget", "8", "--timeout", "3",
      "--seed", "4", "--ndjson", "--replay-out", dir};
  auto one = base;
  one.insert(one.end(), {"--threads", "1"});
  auto many = base;
  many.insert(many.end(), {"--threads", "8"});
  const auto a = invoke(one);
  const auto b = invoke(many);
  ASSERT_EQ(a.code, 0) << a.err;
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_EQ(a.out, b.out);

  auto path = json_field(lines_of(a.out).front(), "replay");
  ASSERT_GE(path.size(), 2u);
  path = path.substr(1, path.size() - 2);  // strip the JSON quotes
  EXPECT_EQ(path, dir + "/worst-cycle-0.edsched");

  const auto replay_one = invoke({"sweep", "--replay", path, "--threads", "1"});
  const auto replay_many =
      invoke({"sweep", "--replay", path, "--threads", "8"});
  ASSERT_EQ(replay_one.code, 0) << replay_one.err;
  ASSERT_EQ(replay_many.code, 0) << replay_many.err;
  EXPECT_EQ(replay_one.out, replay_many.out);
  EXPECT_NE(replay_one.out.find("replay: schema=1 strategy=delay"),
            std::string::npos)
      << replay_one.out;
  EXPECT_NE(replay_one.out.find("--- transcript ---"), std::string::npos);
  EXPECT_NE(replay_one.out.find("--- fault log ---"), std::string::npos);
  EXPECT_NE(replay_one.out.find("reproduced"), std::string::npos);
  EXPECT_EQ(replay_one.out.find("DRIFT"), std::string::npos) << replay_one.out;
}

TEST(Cli, SweepAdversaryRejections) {
  const auto fails = [](std::vector<std::string> extra) {
    std::vector<std::string> args{"sweep", "cycle", "--min", "8", "--max",
                                  "8"};
    args.insert(args.end(), extra.begin(), extra.end());
    return invoke(args).code;
  };
  // The synchronous model has no schedules to attack.
  EXPECT_EQ(fails({"--adversary", "delay", "--budget", "4"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--adversary", "chaos",
                   "--budget", "4"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--adversary", "delay",
                   "--budget", "0"}), 2);
  // --budget / --replay-out are adversary-only knobs.
  EXPECT_EQ(fails({"--model", "async", "--budget", "4"}), 2);
  EXPECT_EQ(fails({"--budget", "4"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--replay-out", "/tmp"}), 2);
  // The α-synchronizer absorbs every schedule: refuse the no-op search.
  EXPECT_EQ(fails({"--model", "async", "--adversary", "pct", "--budget", "4",
                   "--synchronizer", "on"}), 2);
  // Replay rejections: missing file, not a replay file.
  EXPECT_EQ(invoke({"sweep", "--replay", "/no/such/file.edsched"}).code, 2);
  const auto garbage = ::testing::TempDir() + "cli_garbage.edsched";
  {
    std::ofstream sink(garbage);
    sink << "not a replay\n";
  }
  EXPECT_EQ(invoke({"sweep", "--replay", garbage}).code, 2);
  // A number too large for its field is refused, not truncated.
  const auto too_large = ::testing::TempDir() + "cli_too_large.edsched";
  {
    std::ofstream sink(too_large);
    sink << "edsched 1\nalgorithm odd-regular\nparam 4294967299\n"
            "graph\nports 0\ndeg\n";
  }
  const auto refused = invoke({"sweep", "--replay", too_large});
  EXPECT_EQ(refused.code, 2);
  EXPECT_NE(refused.err.find("'param' value 4294967299 exceeds"),
            std::string::npos)
      << refused.err;
}

}  // namespace
}  // namespace eds::cli
