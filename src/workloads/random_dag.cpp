#include "workloads/random_dag.h"

#include <algorithm>
#include <string>

#include "support/assert.h"

namespace aheft::workloads {

Workload generate_random_workload(const RandomDagParams& params,
                                  RngStream& rng) {
  AHEFT_REQUIRE(params.jobs >= 2, "need at least two jobs");
  AHEFT_REQUIRE(params.out_degree > 0.0 && params.out_degree <= 1.0,
                "out_degree must be in (0, 1]");
  AHEFT_REQUIRE(params.ccr >= 0.0, "CCR must be non-negative");
  AHEFT_REQUIRE(params.avg_compute > 0.0, "avg_compute must be positive");

  const std::size_t v = params.jobs;
  dag::Dag graph("random-v" + std::to_string(v));
  for (std::size_t i = 0; i < v; ++i) {
    // Not `"n" + std::to_string(...)`: GCC 12 at -O3 reports a false
    // -Wrestrict on it.
    graph.add_job(std::string("n").append(std::to_string(i + 1)),
                  std::string("op").append(std::to_string(i % 7)));
  }

  const auto max_out = std::max<std::size_t>(
      1, static_cast<std::size_t>(params.out_degree *
                                  static_cast<double>(v) + 0.5));
  const double mean_comm = params.ccr * params.avg_compute;

  auto draw_data = [&rng, mean_comm]() {
    return rng.uniform(0.0, 2.0 * mean_comm);
  };

  std::vector<bool> has_pred(v, false);
  // Forward edges with bounded out-degree. Node indexes are already a
  // topological order by construction.
  for (std::size_t i = 0; i + 1 < v; ++i) {
    const std::size_t remaining = v - 1 - i;
    const std::size_t fanout = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(std::min(max_out, remaining))));
    // Choose `fanout` distinct targets among i+1 .. v-1.
    std::vector<std::size_t> targets;
    targets.reserve(fanout);
    for (std::size_t k = 0; k < fanout; ++k) {
      const std::size_t t =
          i + 1 + rng.index(remaining);
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (const std::size_t t : targets) {
      graph.add_edge(static_cast<dag::JobId>(i), static_cast<dag::JobId>(t),
                     draw_data());
      has_pred[t] = true;
    }
  }
  // Connect orphan nodes so the entry job is unique: every node except 0
  // gains a predecessor among strictly earlier nodes.
  for (std::size_t i = 1; i < v; ++i) {
    if (!has_pred[i]) {
      const std::size_t source = rng.index(i);
      graph.add_edge(static_cast<dag::JobId>(source),
                     static_cast<dag::JobId>(i), draw_data());
      has_pred[i] = true;
    }
  }
  graph.finalize();

  Workload workload{std::move(graph), {}};
  workload.base_cost.reserve(v);
  for (std::size_t i = 0; i < v; ++i) {
    // Uniform in (0, 2 * avg]: a floor keeps every cost strictly positive.
    const double floor_cost = 1e-3 * params.avg_compute;
    workload.base_cost.push_back(std::max(
        floor_cost, rng.uniform(0.0, 2.0 * params.avg_compute)));
  }
  return workload;
}

}  // namespace aheft::workloads
