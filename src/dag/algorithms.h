// Graph analyses over workflow DAGs: levels and parallelism.
#ifndef AHEFT_DAG_ALGORITHMS_H_
#define AHEFT_DAG_ALGORITHMS_H_

#include <vector>

#include "dag/dag.h"

namespace aheft::dag {

/// Topological level of each job: entry jobs are level 0; every other job
/// is 1 + max(level of predecessors). This is the paper's notion of a DAG
/// "level" (e.g. LAPW2_FERMI being "the single job on its level").
[[nodiscard]] std::vector<std::uint32_t> levels(const Dag& dag);

/// Number of jobs on each level; the maximum is a cheap lower bound on the
/// DAG's degree of parallelism, the property the paper ties AHEFT's
/// improvement to.
[[nodiscard]] std::vector<std::uint32_t> level_widths(const Dag& dag);

/// max(level_widths).
[[nodiscard]] std::uint32_t max_parallelism(const Dag& dag);

}  // namespace aheft::dag

#endif  // AHEFT_DAG_ALGORITHMS_H_
