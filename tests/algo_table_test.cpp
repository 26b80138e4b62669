// The algorithm table and the job builder (algo/driver.hpp): every
// per-algorithm fact the library uses is one row of the table, and every
// front end builds its runs with make_job.  Tokens, names and factory
// validation are pinned by the Driver tests in algo_port_one_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "algo/bounded_degree.hpp"
#include "algo/double_cover.hpp"
#include "algo/driver.hpp"
#include "algo/odd_regular.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/plan_cache.hpp"
#include "util/error.hpp"
#include "test_util.hpp"

namespace eds::algo {
namespace {

TEST(AlgorithmTable, ScheduleLengthIsTheProgramsSchedule) {
  for (const port::Port d : {1u, 3u, 5u, 9u}) {
    EXPECT_EQ(schedule_length(Algorithm::kOddRegular, d),
              OddRegularProgram::schedule_length(d))
        << "d=" << d;
  }
  for (const port::Port delta : {2u, 3u, 4u, 7u, 200u}) {
    EXPECT_EQ(schedule_length(Algorithm::kBoundedDegree, delta),
              BoundedDegreeProgram::schedule_length(delta))
        << "delta=" << delta;
    EXPECT_EQ(schedule_length(Algorithm::kDoubleCover, delta),
              DoubleCoverProgram::schedule_length(delta))
        << "delta=" << delta;
  }
  EXPECT_EQ(schedule_length(Algorithm::kAllEdges, 0), 0u);
  EXPECT_EQ(schedule_length(Algorithm::kPortOne, 0), 1u);
}

TEST(AlgorithmTable, ZeroParamResolvesFromPortGraphDegrees) {
  // A multigraph with loops: degrees 1..4, max 4.
  auto rng = test::make_rng(0x7AB1E);
  const auto g = port::random_port_graph({1, 2, 3, 4, 4, 2}, rng, 0.3);
  EXPECT_EQ(resolved_param(g, Algorithm::kBoundedDegree), 4u);
  EXPECT_EQ(resolved_param(g, Algorithm::kDoubleCover), 4u);
  EXPECT_EQ(resolved_param(g, Algorithm::kPortOne), 0u);
  EXPECT_EQ(resolved_param(g, Algorithm::kAllEdges), 0u);
  EXPECT_THROW((void)resolved_param(g, Algorithm::kOddRegular),
               InvalidArgument);
  // A nonzero param is taken as given.
  EXPECT_EQ(resolved_param(g, Algorithm::kOddRegular, 5), 5u);
  EXPECT_EQ(resolved_param(g, Algorithm::kPortOne, 2), 2u);

  const auto regular = port::random_port_graph({3, 3, 3, 3}, rng, 0.0);
  EXPECT_EQ(resolved_param(regular, Algorithm::kOddRegular), 3u);
  // Degree 0 and no nodes at all resolve to at least 1.
  const auto edgeless = port::random_port_graph({0, 0}, rng, 0.0);
  EXPECT_EQ(resolved_param(edgeless, Algorithm::kBoundedDegree), 1u);
  EXPECT_EQ(resolved_param(port::PortGraph{}, Algorithm::kOddRegular), 1u);

  // The ported-graph overload reads the same degrees.
  const auto pg = port::with_canonical_ports(graph::grid(3, 4));
  EXPECT_EQ(resolved_param(pg, Algorithm::kBoundedDegree),
            resolved_param(pg.ports(), Algorithm::kBoundedDegree));
  EXPECT_EQ(resolved_param(pg, Algorithm::kBoundedDegree), 4u);
}

TEST(JobBuilder, SetsBudgetSpecAndPlanCache) {
  auto rng = test::make_rng(0x10B);
  const auto pg = test::random_ported_regular(12, 3, rng);
  runtime::PlanCache cache;
  const auto job = make_job(pg.ports(), Algorithm::kOddRegular, 0, &cache);
  EXPECT_EQ(job.batch.graph, &pg.ports());
  EXPECT_EQ(job.batch.factory, job.factory.get());
  EXPECT_EQ(job.batch.options.exec.plan_cache, &cache);
  EXPECT_EQ(job.batch.options.max_rounds, runtime::RunOptions{}.max_rounds);
  EXPECT_EQ(job.batch.options.exec.threads, 1u);
  ASSERT_TRUE(job.batch.spec.has_value());
  EXPECT_EQ(job.batch.spec->algorithm, "odd-regular");
  EXPECT_EQ(job.batch.spec->param, 3u);
  EXPECT_EQ(job.batch.spec->group, runtime::structural_hash(pg.ports()));

  // A memo gives the same group; no cache means the process-wide one.
  runtime::StructuralHashMemo hashes;
  const auto memoized =
      make_job(pg.ports(), Algorithm::kPortOne, 0, nullptr, &hashes);
  EXPECT_EQ(memoized.batch.spec->group, job.batch.spec->group);
  EXPECT_EQ(memoized.batch.spec->param, 0u);
  EXPECT_EQ(memoized.batch.options.exec.plan_cache,
            &runtime::PlanCache::global());

  // The budget follows a schedule longer than the default cap.
  const auto star = port::with_canonical_ports(graph::star(200));
  const auto long_job =
      make_job(star.ports(), Algorithm::kBoundedDegree, 0, &cache);
  EXPECT_EQ(long_job.batch.spec->param, 200u);
  EXPECT_EQ(long_job.batch.options.max_rounds,
            schedule_length(Algorithm::kBoundedDegree, 200));
  EXPECT_GT(long_job.batch.options.max_rounds,
            runtime::RunOptions{}.max_rounds);
}

TEST(JobBuilder, JobRunsAsRunAlgorithm) {
  auto rng = test::make_rng(0x10C);
  const auto pg = port::with_random_ports(graph::grid(4, 5), rng);
  const auto job = make_job(pg.ports(), Algorithm::kBoundedDegree, 0, nullptr);
  const auto result =
      runtime::run_synchronous(pg.ports(), *job.factory, job.batch.options);
  const auto outcome = run_algorithm(pg, Algorithm::kBoundedDegree);
  EXPECT_EQ(runtime::validated_edge_set(pg, result), outcome.solution);
  EXPECT_TRUE(result.stats == outcome.stats);
}

}  // namespace
}  // namespace eds::algo
