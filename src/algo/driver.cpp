#include "algo/driver.hpp"

#include <algorithm>

#include "algo/all_edges.hpp"
#include "algo/bounded_degree.hpp"
#include "algo/double_cover.hpp"
#include "algo/odd_regular.hpp"
#include "algo/port_one.hpp"
#include "runtime/plan_cache.hpp"
#include "util/error.hpp"

namespace eds::algo {

namespace {

using FactoryPtr = std::unique_ptr<runtime::ProgramFactory>;

/// What a zero `param` resolves to on a graph (resolved_param).
enum class ParamRule {
  kNone,           ///< the algorithm takes no parameter: 0
  kMaxDegree,      ///< the max degree, at least 1
  kRegularDegree,  ///< as kMaxDegree, and only on a regular graph
};

/// One row of the algorithm table.  `factory` and `schedule` take the
/// resolved param, which is nonzero unless `rule` is kNone.
struct AlgorithmInfo {
  Algorithm algorithm;
  const char* token;
  const char* name;
  ParamRule rule;
  FactoryPtr (*factory)(port::Port param);
  runtime::Round (*schedule)(port::Port param);
};

constexpr AlgorithmInfo kAlgorithms[] = {
    {Algorithm::kAllEdges, "all-edges", "all-edges", ParamRule::kNone,
     [](port::Port) -> FactoryPtr {
       return std::make_unique<AllEdgesFactory>();
     },
     [](port::Port) -> runtime::Round { return 0; }},
    {Algorithm::kPortOne, "port-one", "port-one (Thm 3)", ParamRule::kNone,
     [](port::Port) -> FactoryPtr {
       return std::make_unique<PortOneFactory>();
     },
     [](port::Port) -> runtime::Round { return 1; }},
    {Algorithm::kOddRegular, "odd-regular", "odd-regular (Thm 4)",
     ParamRule::kRegularDegree,
     [](port::Port d) -> FactoryPtr {
       return std::make_unique<OddRegularFactory>(d);
     },
     &OddRegularProgram::schedule_length},
    // ∆ = 1 graphs are matchings, Table 1's trivial row: all edges.
    {Algorithm::kBoundedDegree, "bounded-degree", "bounded-degree (Thm 5)",
     ParamRule::kMaxDegree,
     [](port::Port delta) -> FactoryPtr {
       if (delta == 1) return std::make_unique<AllEdgesFactory>();
       return std::make_unique<BoundedDegreeFactory>(delta);
     },
     [](port::Port delta) -> runtime::Round {
       return delta <= 1 ? 0 : BoundedDegreeProgram::schedule_length(delta);
     }},
    {Algorithm::kDoubleCover, "double-cover", "double-cover 2-matching",
     ParamRule::kMaxDegree,
     [](port::Port delta) -> FactoryPtr {
       return std::make_unique<DoubleCoverFactory>(delta);
     },
     &DoubleCoverProgram::schedule_length},
};

const AlgorithmInfo& info(Algorithm a) {
  for (const auto& row : kAlgorithms) {
    if (row.algorithm == a) return row;
  }
  throw InvalidArgument("unknown algorithm");
}

}  // namespace

std::string algorithm_name(Algorithm a) { return info(a).name; }

std::string algorithm_token(Algorithm a) { return info(a).token; }

std::optional<Algorithm> algorithm_from_token(const std::string& token) {
  for (const auto& row : kAlgorithms) {
    if (token == row.token) return row.algorithm;
  }
  return std::nullopt;
}

std::unique_ptr<runtime::ProgramFactory> make_factory(Algorithm algorithm,
                                                      port::Port param) {
  const auto& row = info(algorithm);
  if (row.rule != ParamRule::kNone && param == 0) {
    throw InvalidArgument(
        std::string("make_factory: ") + row.token + " needs " +
        (row.rule == ParamRule::kRegularDegree ? "d" : "max degree"));
  }
  return row.factory(param);
}

runtime::Round schedule_length(Algorithm algorithm, port::Port param) {
  return info(algorithm).schedule(param);
}

port::Port resolved_param(const port::PortGraph& g, Algorithm algorithm,
                          port::Port param) {
  const auto& row = info(algorithm);
  if (param != 0 || row.rule == ParamRule::kNone) return param;
  const auto& degrees = g.degree_sequence();
  const auto [lo, hi] = std::minmax_element(degrees.begin(), degrees.end());
  if (hi == degrees.end()) return 1;  // no nodes: every degree fits
  if (row.rule == ParamRule::kRegularDegree && *lo != *hi) {
    throw InvalidArgument(std::string(row.token) +
                          ": graph is not regular (pass its d as param)");
  }
  return std::max<port::Port>(*hi, 1);
}

port::Port resolved_param(const port::PortedGraph& pg, Algorithm algorithm,
                          port::Port param) {
  return resolved_param(pg.ports(), algorithm, param);
}

Job make_job(const port::PortGraph& g, Algorithm algorithm, port::Port param,
             runtime::PlanCache* plan_cache) {
  param = resolved_param(g, algorithm, param);
  Job job{make_factory(algorithm, param), {}};
  auto& options = job.batch.options;
  options.max_rounds =
      std::max(options.max_rounds, schedule_length(algorithm, param));
  options.exec.plan_cache = plan_cache;
  job.batch.graph = &g;
  job.batch.factory = job.factory.get();
  job.batch.spec = runtime::JobSpec{algorithm_token(algorithm), param};
  return job;
}

EdsOutcome run_algorithm(const port::PortedGraph& pg, Algorithm algorithm,
                         port::Port param, const runtime::ExecOptions& exec) {
  const auto job = make_job(pg.ports(), algorithm, param, exec.plan_cache);
  auto options = job.batch.options;
  options.exec = exec;
  const auto result = runtime::run_synchronous(pg.ports(), *job.factory,
                                               options);
  return {runtime::validated_edge_set(pg, result), result.stats};
}

void run_batch_streaming(
    const std::vector<BatchItem>& items, const runtime::ExecOptions& exec,
    const std::function<void(std::size_t index, EdsOutcome&& outcome)>&
        on_outcome,
    runtime::PlanCache* plan_cache) {
  // Without a caller's cache, the batch's repeats still share one plan per
  // graph, and the plans die with the batch.
  runtime::PlanCache local;
  if (plan_cache == nullptr) plan_cache = &local;
  std::vector<Job> built;
  std::vector<runtime::BatchJob> jobs;
  built.reserve(items.size());
  jobs.reserve(items.size());
  for (const auto& item : items) {
    if (item.graph == nullptr) {
      throw InvalidArgument("run_batch_streaming: item requires a graph");
    }
    built.push_back(make_job(item.graph->ports(), item.algorithm, item.param,
                             plan_cache));
    jobs.push_back(built.back().batch);
  }
  // `exec.threads` sizes the in-process pool; `exec.executor` replaces it
  // wholesale (the job-level options stay sequential either way, so the
  // two levels of parallelism never multiply).
  const runtime::BatchRunner runner =
      exec.executor != nullptr ? runtime::BatchRunner(exec.executor)
                               : runtime::BatchRunner(exec.threads);
  runner.run_streaming(jobs, [&](std::size_t i, runtime::RunResult&& result) {
    on_outcome(i, {runtime::validated_edge_set(*items[i].graph, result),
                   result.stats});
  });
}

Recommendation recommended_for(const graph::SimpleGraph& g) {
  const auto delta = g.max_degree();
  if (delta <= 1) return {Algorithm::kAllEdges, 0};
  if (g.is_regular(delta)) {
    if (delta % 2 == 0) return {Algorithm::kPortOne, 0};
    return {Algorithm::kOddRegular, static_cast<port::Port>(delta)};
  }
  return {Algorithm::kBoundedDegree, static_cast<port::Port>(delta)};
}

}  // namespace eds::algo
