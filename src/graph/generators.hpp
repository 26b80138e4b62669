// Graph family generators.
//
// The theorems of the paper quantify over *all* d-regular / max-degree-∆
// graphs, so the experiment harness exercises the algorithms on a spread of
// structured families (cycles, complete (bipartite) graphs, crowns,
// hypercubes, tori, circulants, the Petersen graph) plus random families
// (configuration-model regular graphs, bounded-degree random graphs, random
// trees).  All random generators take an explicit Rng for reproducibility.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/simple_graph.hpp"
#include "util/rng.hpp"

namespace eds::graph {

/// Path with n nodes (n-1 edges); n >= 1.
[[nodiscard]] SimpleGraph path(std::size_t n);

/// Cycle with n nodes; n >= 3.
[[nodiscard]] SimpleGraph cycle(std::size_t n);

/// Complete graph K_n; n >= 1.
[[nodiscard]] SimpleGraph complete(std::size_t n);

/// Complete bipartite graph K_{a,b}; left nodes 0..a-1, right a..a+b-1.
[[nodiscard]] SimpleGraph complete_bipartite(std::size_t a, std::size_t b);

/// Star K_{1,n}: node 0 joined to nodes 1..n.
[[nodiscard]] SimpleGraph star(std::size_t leaves);

/// Crown graph: K_{n,n} minus a perfect matching ((n-1)-regular); n >= 1.
/// This is the `T(l)` building block of the paper's Theorem 2 construction.
[[nodiscard]] SimpleGraph crown(std::size_t n);

/// Hypercube Q_dim with 2^dim nodes (dim-regular); dim >= 1.
[[nodiscard]] SimpleGraph hypercube(std::size_t dim);

/// Grid graph rows x cols (4-neighbourhood, no wraparound).
[[nodiscard]] SimpleGraph grid(std::size_t rows, std::size_t cols);

/// Torus rows x cols (4-regular); rows, cols >= 3 to stay simple.
[[nodiscard]] SimpleGraph torus(std::size_t rows, std::size_t cols);

/// Circulant graph: node i joined to i +- off (mod n) for each offset.
/// Offsets must be in [1, n/2]; an offset of exactly n/2 contributes one
/// edge per node pair (degree 1), others contribute degree 2.
[[nodiscard]] SimpleGraph circulant(std::size_t n,
                                    const std::vector<std::size_t>& offsets);

/// The Petersen graph (10 nodes, 3-regular, not 1-factorisable).
[[nodiscard]] SimpleGraph petersen();

/// Prism / circular ladder CL_n: two n-cycles joined by a perfect matching
/// (3-regular); n >= 3.
[[nodiscard]] SimpleGraph prism(std::size_t n);

/// Moebius ladder M_n: the cycle C_{2n} plus all n antipodal chords
/// (3-regular); n >= 2 (n = 2 gives K_4).
[[nodiscard]] SimpleGraph moebius_ladder(std::size_t n);

/// Wheel W_n: a hub joined to every node of an n-cycle; n >= 3.
[[nodiscard]] SimpleGraph wheel(std::size_t n);

/// Complete multipartite graph with the given part sizes.
[[nodiscard]] SimpleGraph complete_multipartite(
    const std::vector<std::size_t>& parts);

/// Barbell: two K_m cliques joined by a path of `bridge` edges; m >= 3.
[[nodiscard]] SimpleGraph barbell(std::size_t m, std::size_t bridge);

/// Caterpillar: a path of `spine` nodes with `legs_per_node` leaves hanging
/// off every spine node; spine >= 1.  Nodes 0..spine-1 form the spine, the
/// leaves follow in spine order.  Total nodes: spine * (1 + legs_per_node).
/// A long-tail workload for the round engine: leaves halt in O(1) rounds
/// while the spine keeps running.
[[nodiscard]] SimpleGraph caterpillar(std::size_t spine,
                                      std::size_t legs_per_node);

/// Uniform random labelled tree on n nodes (Prufer-style attachment).
[[nodiscard]] SimpleGraph random_tree(std::size_t n, Rng& rng);

/// Random d-regular simple graph: a circulant (offsets 1..⌊d/2⌋, plus n/2 for
/// odd d) mixed by 12·m double-edge-swap attempts that reject loops and
/// parallel edges.  Approximately uniform over labelled d-regular graphs,
/// not exactly: the finite chain keeps some bias towards its start.
/// Requires n*d even and d < n.
[[nodiscard]] SimpleGraph random_regular(std::size_t n, std::size_t d,
                                         Rng& rng);

/// Random graph with maximum degree at most `max_degree`.  Attempts to place
/// `target_edges` edges by sampling random pairs and keeping those that do
/// not violate the degree cap; the result can have fewer edges.
[[nodiscard]] SimpleGraph random_bounded_degree(std::size_t n,
                                                std::size_t max_degree,
                                                std::size_t target_edges,
                                                Rng& rng);

/// Random graph with a power-law degree *target* sequence: node degrees are
/// drawn with P(d) ∝ d^-exponent over [1, max_degree] (max_degree = 0 means
/// ⌈√n⌉), then wired by the configuration model with loops and parallel
/// edges dropped — so realised degrees can fall below their targets, as
/// usual for simple-graph power-law samplers.  Requires n >= 2 and
/// exponent > 0.  Deterministic for a fixed rng stream.
[[nodiscard]] SimpleGraph random_power_law(std::size_t n, double exponent,
                                           Rng& rng,
                                           std::size_t max_degree = 0);

/// Random bipartite d-regular graph on two sides of `side` nodes each: d
/// disjoint cyclic-shift perfect matchings mixed by 12·m double-edge-swap
/// attempts that keep the bipartition and reject parallel edges.
/// Approximately uniform, not exactly (as random_regular).
[[nodiscard]] SimpleGraph random_bipartite_regular(std::size_t side,
                                                   std::size_t d, Rng& rng);

/// Disjoint union; nodes of `b` are shifted by a.num_nodes().
[[nodiscard]] SimpleGraph disjoint_union(const SimpleGraph& a,
                                         const SimpleGraph& b);

}  // namespace eds::graph
