// The locality claim of Section 1.5: the running time of the algorithms
// depends only on d (or ∆), never on n.  Two sweeps:
//   (1) rounds vs n at fixed d      -> flat series
//   (2) rounds vs d at fixed n-ish  -> O(1) / O(d^2) growth
// Instances are generated sequentially (the RNG stream is the experiment);
// each sweep's runs then execute as one batch over the engine pool.
#include <iostream>
#include <utility>
#include <vector>

#include "algo/bounded_degree.hpp"
#include "algo/driver.hpp"
#include "algo/odd_regular.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  eds::Rng rng(4242);

  eds::TextTable by_n("Rounds vs n at fixed degree (flat = local algorithm)");
  by_n.header({"n", "port-one d=4", "odd-regular d=3", "odd-regular d=5",
               "A(4) grid"});
  {
    std::vector<std::size_t> ns;
    std::vector<eds::port::PortedGraph> instances;  // 4 per n, in column order
    std::vector<eds::algo::BatchItem> items;
    for (const std::size_t scale : {1u, 2u, 4u, 8u, 16u}) {
      const std::size_t n = 16 * scale;
      ns.push_back(n);
      const auto g4 = eds::graph::random_regular(n, 4, rng);
      const auto g3 = eds::graph::random_regular(n, 3, rng);
      const auto g5 = eds::graph::random_regular(n, 5, rng);
      const auto grid = eds::graph::grid(4, n / 4);
      instances.push_back(eds::port::with_random_ports(g4, rng));
      instances.push_back(eds::port::with_random_ports(g3, rng));
      instances.push_back(eds::port::with_random_ports(g5, rng));
      instances.push_back(eds::port::with_random_ports(grid, rng));
    }
    items.reserve(instances.size());
    for (std::size_t i = 0; i < instances.size(); i += 4) {
      items.push_back({&instances[i], eds::algo::Algorithm::kPortOne, 0});
      items.push_back({&instances[i + 1], eds::algo::Algorithm::kOddRegular, 3});
      items.push_back({&instances[i + 2], eds::algo::Algorithm::kOddRegular, 5});
      items.push_back(
          {&instances[i + 3], eds::algo::Algorithm::kBoundedDegree, 4});
    }
    std::vector<eds::algo::EdsOutcome> outcomes(items.size());
    eds::algo::run_batch_streaming(
        items, {.threads = 0},
        [&](std::size_t i, eds::algo::EdsOutcome&& outcome) {
          outcomes[i] = std::move(outcome);
        });
    for (std::size_t i = 0; i < ns.size(); ++i) {
      by_n.row({std::to_string(ns[i]),
                std::to_string(outcomes[4 * i].stats.rounds),
                std::to_string(outcomes[4 * i + 1].stats.rounds),
                std::to_string(outcomes[4 * i + 2].stats.rounds),
                std::to_string(outcomes[4 * i + 3].stats.rounds)});
    }
  }
  by_n.print(std::cout);
  std::cout << "\n";

  eds::TextTable by_d("Rounds vs degree parameter (O(1) even / O(d^2) odd / "
                      "O(Delta^2) bounded)");
  by_d.header({"d", "port-one (even d)", "odd-regular (odd d)",
               "A(Delta) schedule", "messages odd-regular"});
  {
    std::vector<eds::port::PortedGraph> instances;
    std::vector<eds::algo::BatchItem> items;
    for (eds::port::Port d = 1; d <= 9; ++d) {
      const std::size_t n = 2 * static_cast<std::size_t>(d) + 10;
      const auto g = eds::graph::random_regular(n, d, rng);
      instances.push_back(eds::port::with_random_ports(g, rng));
    }
    items.reserve(instances.size());
    for (eds::port::Port d = 1; d <= 9; ++d) {
      items.push_back({&instances[d - 1],
                       d % 2 == 0 ? eds::algo::Algorithm::kPortOne
                                  : eds::algo::Algorithm::kOddRegular,
                       d % 2 == 0 ? eds::port::Port{0} : d});
    }
    std::vector<eds::algo::EdsOutcome> outcomes(items.size());
    eds::algo::run_batch_streaming(
        items, {.threads = 0},
        [&](std::size_t i, eds::algo::EdsOutcome&& outcome) {
          outcomes[i] = std::move(outcome);
        });
    for (eds::port::Port d = 1; d <= 9; ++d) {
      const auto& r = outcomes[d - 1];
      std::string even = "-";
      std::string odd = "-";
      std::string msgs = "-";
      if (d % 2 == 0) {
        even = std::to_string(r.stats.rounds);
      } else {
        odd = std::to_string(r.stats.rounds);
        msgs = std::to_string(r.stats.messages_sent);
      }
      by_d.row({std::to_string(d), even, odd,
                d >= 2 ? std::to_string(
                             eds::algo::BoundedDegreeProgram::schedule_length(d))
                       : "0",
                msgs});
    }
  }
  by_d.print(std::cout);
  std::cout << "\nExpected shape: the first table is constant down each"
               " column (independence\nfrom n); in the second, odd-regular"
               " rounds track 2 + 2d^2 and the A(Delta)\nschedule tracks"
               " 3 + 3 Delta'^2.\n";
  return 0;
}
