// Section 1.3 in numbers: the ID model vs the anonymous port-numbering
// model.  With unique identifiers a deterministic maximal matching (ratio
// 2) is computable, but the round count carries a log*-of-id-space term and
// a Ω(log* n) barrier applies below ratio 3; the paper's anonymous
// algorithms run in rounds independent of n at the price of the Table 1
// ratios.  Both trade-offs, measured side by side.
#include <iostream>
#include <utility>
#include <vector>

#include "algo/driver.hpp"
#include "analysis/ratio.hpp"
#include "exact/exact_eds.hpp"
#include "graph/generators.hpp"
#include "idmodel/forest_matching.hpp"
#include "port/ported_graph.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  eds::Rng rng(5150);

  // --- ratio comparison on instances with exact optima --------------------
  {
    eds::TextTable table(
        "Solution quality: ID-model maximal matching vs anonymous (3-regular)");
    table.header({"instance", "optimum", "ID-model |M|", "anonymous |D|",
                  "ID ratio", "anon ratio", "ID bound", "anon bound"});
    // The anonymous runs execute as one batch over the engine pool; the
    // ID-model runs stay inline (they are the comparison baseline).
    std::vector<eds::port::PortedGraph> instances;
    std::vector<std::size_t> optima;
    std::vector<eds::idmodel::IdMatchingOutcome> id_outcomes;
    for (int trial = 0; trial < 5; ++trial) {
      const auto g = eds::graph::random_regular(12, 3, rng);
      optima.push_back(eds::exact::minimum_eds_size(g));
      instances.push_back(eds::port::with_random_ports(g, rng));
      id_outcomes.push_back(eds::idmodel::run_forest_matching(instances.back()));
    }
    std::vector<eds::algo::BatchItem> items;
    for (const auto& pg : instances) {
      items.push_back({&pg, eds::algo::Algorithm::kOddRegular, 3});
    }
    std::vector<eds::algo::EdsOutcome> anons(items.size());
    eds::algo::run_batch_streaming(
        items, {.threads = 0},
        [&](std::size_t i, eds::algo::EdsOutcome&& outcome) {
          anons[i] = std::move(outcome);
        });
    for (std::size_t trial = 0; trial < instances.size(); ++trial) {
      const auto optimum = optima[trial];
      const auto& id = id_outcomes[trial];
      const auto& anon = anons[trial];
      table.row({"rand-12-" + std::to_string(trial), std::to_string(optimum),
                 std::to_string(id.matching.size()),
                 std::to_string(anon.solution.size()),
                 eds::analysis::approximation_ratio(id.matching.size(), optimum)
                     .str(),
                 eds::analysis::approximation_ratio(anon.solution.size(),
                                                    optimum)
                     .str(),
                 "2", eds::analysis::paper_bound_regular(3).str()});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // --- round comparison: the n-dependence ---------------------------------
  {
    eds::TextTable table(
        "Rounds vs n (d = 3): the ID model pays a log*(id-space) term");
    table.header({"n", "id bits", "ID-model rounds", "anonymous rounds"});
    const std::vector<std::size_t> ns{8u, 32u, 128u, 512u};
    std::vector<eds::port::PortedGraph> instances;
    std::vector<eds::idmodel::IdMatchingOutcome> id_outcomes;
    for (const std::size_t n : ns) {
      const auto g = eds::graph::random_regular(n, 3, rng);
      instances.push_back(eds::port::with_random_ports(g, rng));
      id_outcomes.push_back(eds::idmodel::run_forest_matching(instances.back()));
    }
    std::vector<eds::algo::BatchItem> items;
    for (const auto& pg : instances) {
      items.push_back({&pg, eds::algo::Algorithm::kOddRegular, 3});
    }
    std::vector<eds::algo::EdsOutcome> anons(items.size());
    eds::algo::run_batch_streaming(
        items, {.threads = 0},
        [&](std::size_t i, eds::algo::EdsOutcome&& outcome) {
          anons[i] = std::move(outcome);
        });
    for (std::size_t i = 0; i < ns.size(); ++i) {
      const auto n = ns[i];
      const auto bits = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(std::bit_width(n - 1)));
      table.row({std::to_string(n), std::to_string(bits),
                 std::to_string(id_outcomes[i].stats.rounds),
                 std::to_string(anons[i].stats.rounds)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // --- the id-space knob in isolation --------------------------------------
  {
    eds::TextTable table(
        "Rounds vs id-space size at fixed n = 16, d = 3 (pure log* term)");
    table.header({"id bits", "cv iterations", "ID-model rounds"});
    const auto g = eds::graph::random_regular(16, 3, rng);
    const auto pg = eds::port::with_random_ports(g, rng);
    std::vector<std::uint32_t> ids(g.num_nodes());
    for (std::size_t v = 0; v < ids.size(); ++v) {
      ids[v] = static_cast<std::uint32_t>(v);
    }
    for (const std::uint32_t bits : {4u, 8u, 16u, 31u}) {
      const auto outcome = eds::idmodel::run_forest_matching(pg, ids, bits, 3);
      table.row({std::to_string(bits),
                 std::to_string(eds::idmodel::cv_iterations(bits)),
                 std::to_string(outcome.stats.rounds)});
    }
    table.print(std::cout);
  }

  std::cout << "\nExpected shape: ID-model ratios sit at or below 2 while the"
               " anonymous\nalgorithm pays up to 4 - 6/(d+1); ID-model rounds"
               " grow (slowly — log*) with\nthe id space, anonymous rounds"
               " are exactly 2 + 2d^2 regardless of n.\n";
  return 0;
}
