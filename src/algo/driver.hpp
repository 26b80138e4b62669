// High-level entry points: pick an algorithm, run it on a ported graph,
// validate the output, and return the solution with execution statistics.
//
// One table in driver.cpp holds each algorithm's token, display name,
// factory, schedule length and the rule that resolves a zero `param` from
// the graph's degrees (Table 1's pairing of a graph class with an
// algorithm and its d or ∆); the functions below are lookups in it.
// Beside it, make_job is the one job builder: run_algorithm,
// run_batch_streaming and every `edsim` command that runs an algorithm
// build their runs with it, so the recipe of a run is written once.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/edge_set.hpp"
#include "port/ported_graph.hpp"
#include "runtime/batch.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"

namespace eds::runtime {
class PlanCache;
class StructuralHashMemo;
}  // namespace eds::runtime

namespace eds::algo {

/// The algorithms of the paper (plus the standalone phase III subroutine).
enum class Algorithm {
  kAllEdges,      ///< trivial ∆ = 1 algorithm (Table 1 row 3)
  kPortOne,       ///< Theorem 3: O(1), 4 − 2/d on d-regular graphs
  kOddRegular,    ///< Theorem 4: O(d²), 4 − 6/(d+1) on odd-d-regular graphs
  kBoundedDegree, ///< Theorem 5: O(∆²), 4 − 1/k on max-degree-∆ graphs
  kDoubleCover,   ///< Polishchuk–Suomela 2-matching (not an EDS by itself
                  ///< in general; dominates all edges and is a 2-matching)
};

[[nodiscard]] std::string algorithm_name(Algorithm a);

/// Stable machine-readable token for `a` ("port-one", "bounded-degree",
/// ...).  This is the CLI's --algorithm vocabulary and the `algorithm`
/// field of the process-shard wire protocol, so a worker subprocess can
/// rebuild the factory the parent meant.
[[nodiscard]] std::string algorithm_token(Algorithm a);

/// Inverse of algorithm_token; nullopt for an unknown token.
[[nodiscard]] std::optional<Algorithm> algorithm_from_token(
    const std::string& token);

/// Result of one distributed execution.
struct EdsOutcome {
  graph::EdgeSet solution;   ///< validated, internally consistent edge set
  runtime::RunStats stats;   ///< rounds and message counts
};

/// Builds the factory for `algorithm`; `param` is d for kOddRegular and ∆
/// for kBoundedDegree / kDoubleCover (ignored for the others, and
/// InvalidArgument when it is 0 for these three).  kBoundedDegree with
/// ∆ = 1 builds the all-edges factory: such a graph is a matching.
[[nodiscard]] std::unique_ptr<runtime::ProgramFactory> make_factory(
    Algorithm algorithm, port::Port param = 0);

/// The length of the fixed schedule that make_factory(algorithm, param)'s
/// programs follow, so no run takes more rounds.  make_job sets
/// RunOptions::max_rounds to at least this, so that a large ∆ is not cut
/// off by the default cap.
[[nodiscard]] runtime::Round schedule_length(Algorithm algorithm,
                                             port::Port param);

/// Resolves the `param == 0` default from the graph's degrees: the max
/// degree, at least 1, for kBoundedDegree / kDoubleCover and for
/// kOddRegular, which also requires a regular graph (InvalidArgument
/// otherwise); 0 for the algorithms that take no parameter.  A nonzero
/// `param` is returned unchanged.
[[nodiscard]] port::Port resolved_param(const port::PortGraph& g,
                                        Algorithm algorithm,
                                        port::Port param = 0);

/// resolved_param on the port graph of `pg`, whose degrees are those of
/// its simple graph.
[[nodiscard]] port::Port resolved_param(const port::PortedGraph& pg,
                                        Algorithm algorithm,
                                        port::Port param = 0);

/// One runnable job: the factory it owns and the runtime::BatchJob that
/// points at it and at the graph.  The factory lives on the heap, so
/// moving a Job keeps `batch.factory` valid, and copies of `batch` (a
/// sweep's --repeat jobs) share it; the graph must outlive every copy.
struct Job {
  std::unique_ptr<runtime::ProgramFactory> factory;
  runtime::BatchJob batch;
};

/// The job builder: resolves `param` on `g`, builds the factory and a
/// one-lane synchronous BatchJob on `g` with max_rounds = max(default
/// cap, schedule_length), plans from `plan_cache` (null =
/// PlanCache::global()), and a JobSpec of the token, the resolved param
/// and `g`'s structural hash as shard group (through `hashes` when set,
/// so a batch that repeats a graph walks it once).
[[nodiscard]] Job make_job(const port::PortGraph& g, Algorithm algorithm,
                           port::Port param, runtime::PlanCache* plan_cache,
                           runtime::StructuralHashMemo* hashes = nullptr);

/// Runs `algorithm` on `pg` and returns the validated solution.
/// `param` defaults (0) resolve from the graph (resolved_param).  `exec`
/// selects the engine policy (ExecOptions{.threads = N}); the solution is
/// identical for every policy.  When `exec.plan_cache` is null the
/// process-wide `runtime::PlanCache::global()` is used, so repeated runs
/// on one graph compile its ExecutionPlan once.
[[nodiscard]] EdsOutcome run_algorithm(const port::PortedGraph& pg,
                                       Algorithm algorithm,
                                       port::Port param = 0,
                                       const runtime::ExecOptions& exec = {});

/// One job of a batch; `graph` is non-owning and must outlive the
/// run_batch_streaming call.  `param` resolves exactly as in run_algorithm.
struct BatchItem {
  const port::PortedGraph* graph = nullptr;
  Algorithm algorithm = Algorithm::kBoundedDegree;
  port::Port param = 0;
};

/// Runs every item as a make_job job and hands `on_outcome` each item's
/// validated outcome as soon as its whole prefix has completed
/// (serialized, strictly increasing item order — see
/// BatchRunner::run_streaming), so long sweeps can emit output
/// incrementally; the outcomes are identical for every backend and lane
/// count.  `exec.executor` (when set) replaces the in-process pool — e.g. a
/// runtime::ProcessShardExecutor fans the items across worker
/// subprocesses — while `exec.threads` sizes the in-process BatchRunner
/// pool otherwise (0 = one lane per hardware thread).  Plans are shared
/// through `plan_cache` (null = PlanCache::global()), so repeated items on
/// one graph compile a single ExecutionPlan.  Blocks until the batch
/// drains; rethrows the lowest-indexed failure after withholding outcomes
/// from it onward.
void run_batch_streaming(
    const std::vector<BatchItem>& items, const runtime::ExecOptions& exec,
    const std::function<void(std::size_t index, EdsOutcome&& outcome)>&
        on_outcome,
    runtime::PlanCache* plan_cache = nullptr);

/// The Table 1 row selector: the algorithm (and parameter) the paper
/// prescribes for `g` — kAllEdges for max degree <= 1, kPortOne for
/// even-regular, kOddRegular for odd-regular, kBoundedDegree otherwise.
struct Recommendation {
  Algorithm algorithm = Algorithm::kBoundedDegree;
  port::Port param = 0;
};
[[nodiscard]] Recommendation recommended_for(const graph::SimpleGraph& g);

}  // namespace eds::algo
