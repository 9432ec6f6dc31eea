#include "workloads/sample.h"

#include <array>

namespace aheft::workloads {

SampleScenario sample_scenario(sim::Time r4_arrival) {
  dag::Dag graph("fig4-sample");
  std::array<dag::JobId, 10> n{};
  for (int i = 0; i < 10; ++i) {
    // Not `"n" + std::to_string(...)`: GCC 12 at -O3 reports a false
    // -Wrestrict on it.
    n[static_cast<std::size_t>(i)] = graph.add_job(
        std::string("n").append(std::to_string(i + 1)), "sample");
  }
  // Edge weights are communication costs directly (link: latency 0,
  // bandwidth 1).
  graph.add_edge(n[0], n[1], 18);
  graph.add_edge(n[0], n[2], 12);
  graph.add_edge(n[0], n[3], 9);
  graph.add_edge(n[0], n[4], 11);
  graph.add_edge(n[0], n[5], 14);
  graph.add_edge(n[1], n[7], 19);
  graph.add_edge(n[1], n[8], 16);
  graph.add_edge(n[2], n[6], 23);
  graph.add_edge(n[3], n[7], 27);
  graph.add_edge(n[3], n[8], 23);
  graph.add_edge(n[4], n[8], 13);
  graph.add_edge(n[5], n[7], 15);
  graph.add_edge(n[6], n[9], 17);
  graph.add_edge(n[7], n[9], 11);
  graph.add_edge(n[8], n[9], 13);
  graph.finalize();

  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "r1", .arrival = 0.0});
  pool.add(grid::Resource{.name = "r2", .arrival = 0.0});
  pool.add(grid::Resource{.name = "r3", .arrival = 0.0});
  pool.add(grid::Resource{.name = "r4", .arrival = r4_arrival});

  // The paper's computation cost table (Fig. 4, right).
  constexpr std::array<std::array<double, 4>, 10> w{{
      {14, 16, 9, 14},
      {13, 19, 18, 17},
      {11, 13, 19, 14},
      {13, 8, 17, 15},
      {12, 13, 10, 14},
      {13, 16, 9, 16},
      {7, 15, 11, 15},
      {5, 11, 14, 20},
      {18, 12, 20, 13},
      {21, 7, 16, 15},
  }};
  grid::MachineModel model(10, 4);
  for (dag::JobId i = 0; i < 10; ++i) {
    for (grid::ResourceId j = 0; j < 4; ++j) {
      model.set_compute_cost(i, j, w[i][j]);
    }
  }

  return SampleScenario{std::move(graph), std::move(pool), std::move(model)};
}

}  // namespace aheft::workloads
