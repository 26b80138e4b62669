// The ID-model reference point of Section 1.3: deterministic distributed
// maximal matching with unique identifiers, hence a 2-approximate EDS.
//
// The paper contrasts its anonymous algorithms against ID-model maximal
// matching (Hańćkowiak–Karoński–Panconesi, Panconesi–Rizzi): with unique
// IDs one gets ratio 2, but the running time must grow with n — and
// Ω(log* n) is unavoidable for ratios below 3.  This module implements the
// classic pseudoforest-decomposition algorithm:
//
//   1. orient every edge towards the larger ID and split the out-edges of
//      each node by rank into ∆ classes — each class is a forest (IDs
//      increase along directed edges);
//   2. for each class: colour the forest with < 8 colours by Cole–Vishkin
//      bit reduction in log*-many rounds (each node reduces against its
//      parent's colour), then run 8 colour-synchronised propose/accept
//      slots: an unmatched node whose colour is on turn proposes to its
//      unmatched parent, parents accept one proposal;
//   3. the union over classes is a maximal matching of G.
//
// Round complexity O(∆ · (log* N + 1)) where N is the ID-space size —
// deliberately n-dependent, unlike the paper's anonymous algorithms.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/edge_set.hpp"
#include "port/ported_graph.hpp"
#include "runtime/runner.hpp"

namespace eds::idmodel {

/// Number of Cole–Vishkin iterations needed to reduce `id_bits`-bit colours
/// below 8 (the log* term, computed on the colour-count recurrence
/// b -> bits(2b - 1)).
[[nodiscard]] runtime::Round cv_iterations(std::uint32_t id_bits);

/// Schedule length for parameters (∆, id_bits).
[[nodiscard]] runtime::Round forest_matching_schedule(port::Port max_degree,
                                                      std::uint32_t id_bits);

/// Result of one ID-model execution.
struct IdMatchingOutcome {
  graph::EdgeSet matching;  ///< a maximal matching of pg.graph()
  runtime::RunStats stats;
};

/// One node's program, for callers that drive the engine themselves:
/// `id` is the node's unique identifier (< 2^id_bits), `max_degree` the
/// family parameter.
[[nodiscard]] std::unique_ptr<runtime::NodeProgram>
make_forest_matching_program(std::uint32_t id, std::uint32_t id_bits,
                             port::Port max_degree);

/// Runs the forest-decomposition maximal-matching algorithm on `pg` with
/// the given unique identifiers (`ids[v]` < 2^id_bits, pairwise distinct)
/// and family parameter `max_degree` >= the true maximum degree.
[[nodiscard]] IdMatchingOutcome run_forest_matching(
    const port::PortedGraph& pg, const std::vector<std::uint32_t>& ids,
    std::uint32_t id_bits, port::Port max_degree);

/// Convenience: ids 0..n-1 with the tightest id_bits.
[[nodiscard]] IdMatchingOutcome run_forest_matching(
    const port::PortedGraph& pg);

}  // namespace eds::idmodel
