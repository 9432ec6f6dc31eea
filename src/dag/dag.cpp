#include "dag/dag.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "support/assert.h"

namespace aheft::dag {

JobId Dag::add_job(std::string name, std::string operation) {
  AHEFT_REQUIRE(!finalized_, "cannot add jobs to a finalized DAG");
  AHEFT_REQUIRE(jobs_.size() < kInvalidJob, "too many jobs");
  jobs_.push_back(JobInfo{std::move(name), std::move(operation)});
  return static_cast<JobId>(jobs_.size() - 1);
}

void Dag::add_edge(JobId from, JobId to, double data) {
  AHEFT_REQUIRE(!finalized_, "cannot add edges to a finalized DAG");
  AHEFT_REQUIRE(from < jobs_.size(), "edge source does not exist");
  AHEFT_REQUIRE(to < jobs_.size(), "edge target does not exist");
  AHEFT_REQUIRE(from != to, "self-loop edges are not allowed");
  AHEFT_REQUIRE(data >= 0.0, "edge data must be non-negative");
  edges_.push_back(Edge{from, to, data});
}

void Dag::finalize() {
  if (finalized_) {
    return;
  }
  AHEFT_REQUIRE(!jobs_.empty(), "DAG must contain at least one job");

  const auto v = jobs_.size();
  std::vector<std::uint32_t> in_degree(v, 0);
  std::vector<std::uint32_t> out_degree(v, 0);
  for (const Edge& e : edges_) {
    ++in_degree[e.to];
    ++out_degree[e.from];
  }

  auto build_csr = [&](const std::vector<std::uint32_t>& degree,
                       std::vector<std::uint32_t>& offsets,
                       std::vector<std::uint32_t>& index, bool by_target) {
    offsets.assign(v + 1, 0);
    for (std::size_t i = 0; i < v; ++i) {
      offsets[i + 1] = offsets[i] + degree[i];
    }
    index.resize(edges_.size());
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::uint32_t e = 0; e < edges_.size(); ++e) {
      const JobId key = by_target ? edges_[e].to : edges_[e].from;
      index[cursor[key]++] = e;
    }
  };
  build_csr(in_degree, in_offsets_, in_index_, /*by_target=*/true);
  build_csr(out_degree, out_offsets_, out_index_, /*by_target=*/false);

  // Reject duplicate edges. Each out slice lists its edges in edge order,
  // so the first edge of a slice whose target the slice already reached
  // is that slice's first duplicate; report the lowest over all slices.
  {
    std::vector<JobId> reached_from(v, kInvalidJob);
    std::size_t first_duplicate = edges_.size();
    for (JobId from = 0; from < v; ++from) {
      for (std::uint32_t k = out_offsets_[from]; k < out_offsets_[from + 1];
           ++k) {
        const std::uint32_t e = out_index_[k];
        JobId& reached = reached_from[edges_[e].to];
        if (reached == from) {
          first_duplicate = std::min<std::size_t>(first_duplicate, e);
          break;
        }
        reached = from;
      }
    }
    if (first_duplicate < edges_.size()) {
      const Edge& e = edges_[first_duplicate];
      throw std::invalid_argument("duplicate edge " + jobs_[e.from].name +
                                  " -> " + jobs_[e.to].name);
    }
  }

  // Kahn topological sort; deterministic FIFO order.
  topo_order_.clear();
  topo_order_.reserve(v);
  std::vector<std::uint32_t> remaining(in_degree);
  std::deque<JobId> ready;
  for (JobId i = 0; i < v; ++i) {
    if (remaining[i] == 0) {
      ready.push_back(i);
    }
  }
  while (!ready.empty()) {
    const JobId id = ready.front();
    ready.pop_front();
    topo_order_.push_back(id);
    for (const std::uint32_t e :
         std::span(out_index_).subspan(out_offsets_[id],
                                       out_offsets_[id + 1] -
                                           out_offsets_[id])) {
      const JobId target = edges_[e].to;
      if (--remaining[target] == 0) {
        ready.push_back(target);
      }
    }
  }
  AHEFT_REQUIRE(topo_order_.size() == v, "DAG contains a cycle");

  entries_.clear();
  exits_.clear();
  for (JobId i = 0; i < v; ++i) {
    if (in_degree[i] == 0) {
      entries_.push_back(i);
    }
    if (out_degree[i] == 0) {
      exits_.push_back(i);
    }
  }
  finalized_ = true;
}

void Dag::require_finalized() const {
  AHEFT_REQUIRE(finalized_, "DAG must be finalized first");
}

void Dag::require_job(JobId id) const {
  AHEFT_REQUIRE(id < jobs_.size(), "job id out of range");
}

const JobInfo& Dag::job(JobId id) const {
  require_job(id);
  return jobs_[id];
}

std::span<const std::uint32_t> Dag::in_edges(JobId id) const {
  require_finalized();
  require_job(id);
  return std::span(in_index_)
      .subspan(in_offsets_[id], in_offsets_[id + 1] - in_offsets_[id]);
}

std::span<const std::uint32_t> Dag::out_edges(JobId id) const {
  require_finalized();
  require_job(id);
  return std::span(out_index_)
      .subspan(out_offsets_[id], out_offsets_[id + 1] - out_offsets_[id]);
}

std::vector<JobId> Dag::predecessors(JobId id) const {
  std::vector<JobId> out;
  for (const std::uint32_t e : in_edges(id)) {
    out.push_back(edges_[e].from);
  }
  return out;
}

std::vector<JobId> Dag::successors(JobId id) const {
  std::vector<JobId> out;
  for (const std::uint32_t e : out_edges(id)) {
    out.push_back(edges_[e].to);
  }
  return out;
}

const std::vector<JobId>& Dag::entry_jobs() const {
  require_finalized();
  return entries_;
}

const std::vector<JobId>& Dag::exit_jobs() const {
  require_finalized();
  return exits_;
}

const std::vector<JobId>& Dag::topological_order() const {
  require_finalized();
  return topo_order_;
}

double Dag::data(JobId from, JobId to) const {
  require_finalized();
  require_job(from);
  require_job(to);
  for (const std::uint32_t e : out_edges(from)) {
    if (edges_[e].to == to) {
      return edges_[e].data;
    }
  }
  return 0.0;
}

std::vector<std::string> Dag::operations() const {
  // Insertion-ordered dedup without a hashed container: operation
  // alphabets are tiny (a handful per application), so the linear probe
  // costs nothing and keeps src/dag free of unordered containers whose
  // iteration order could one day leak into scheduling order.
  std::vector<std::string> ops;
  for (const JobInfo& info : jobs_) {
    if (std::find(ops.begin(), ops.end(), info.operation) == ops.end()) {
      ops.push_back(info.operation);
    }
  }
  return ops;
}

}  // namespace aheft::dag
