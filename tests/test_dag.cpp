// Unit tests for the DAG substrate: construction, topology, algorithms,
// serialization.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "dag/algorithms.h"
#include "dag/dag.h"
#include "dag/dot.h"
#include "dag/io.h"
#include "workloads/sample.h"

namespace aheft::dag {
namespace {

Dag diamond() {
  Dag d("diamond");
  const JobId a = d.add_job("a", "op1");
  const JobId b = d.add_job("b", "op2");
  const JobId c = d.add_job("c", "op2");
  const JobId e = d.add_job("e", "op3");
  d.add_edge(a, b, 10.0);
  d.add_edge(a, c, 20.0);
  d.add_edge(b, e, 5.0);
  d.add_edge(c, e, 1.0);
  d.finalize();
  return d;
}

TEST(Dag, BasicTopology) {
  const Dag d = diamond();
  EXPECT_EQ(d.job_count(), 4u);
  EXPECT_EQ(d.edge_count(), 4u);
  EXPECT_EQ(d.entry_jobs(), (std::vector<JobId>{0}));
  EXPECT_EQ(d.exit_jobs(), (std::vector<JobId>{3}));
  EXPECT_EQ(d.predecessors(3), (std::vector<JobId>{1, 2}));
  EXPECT_EQ(d.successors(0), (std::vector<JobId>{1, 2}));
  EXPECT_DOUBLE_EQ(d.data(0, 2), 20.0);
  EXPECT_DOUBLE_EQ(d.data(1, 2), 0.0);  // no such edge
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const Dag d = diamond();
  const auto& order = d.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[order[i]] = i;
  }
  for (const Edge& e : d.edges()) {
    EXPECT_LT(position[e.from], position[e.to]);
  }
}

TEST(Dag, RejectsCycle) {
  Dag d;
  const JobId a = d.add_job("a");
  const JobId b = d.add_job("b");
  d.add_edge(a, b, 1.0);
  d.add_edge(b, a, 1.0);
  EXPECT_THROW(d.finalize(), std::invalid_argument);
}

TEST(Dag, RejectsSelfLoop) {
  Dag d;
  const JobId a = d.add_job("a");
  EXPECT_THROW(d.add_edge(a, a, 1.0), std::invalid_argument);
}

TEST(Dag, RejectsDuplicateEdge) {
  Dag d;
  const JobId a = d.add_job("a");
  const JobId b = d.add_job("b");
  d.add_edge(a, b, 1.0);
  d.add_edge(a, b, 2.0);
  EXPECT_THROW(d.finalize(), std::invalid_argument);
}

TEST(Dag, DuplicateEdgeMessageNamesTheFirstDuplicateInEdgeOrder) {
  // Two duplicated pairs. In edge order the c -> d repeat (edge 3) comes
  // before the a -> b repeat (edge 4), although a's edges are listed
  // first by source.
  Dag d;
  const JobId a = d.add_job("a");
  const JobId b = d.add_job("b");
  const JobId c = d.add_job("c");
  const JobId e = d.add_job("d");
  d.add_edge(a, b, 1.0);
  d.add_edge(c, e, 1.0);
  d.add_edge(b, c, 1.0);
  d.add_edge(c, e, 2.0);
  d.add_edge(a, b, 2.0);
  try {
    d.finalize();
    FAIL() << "duplicate edges were accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "duplicate edge c -> d");
  }
  // Same target from different sources is no duplicate.
  Dag ok;
  const JobId x = ok.add_job("x");
  const JobId y = ok.add_job("y");
  const JobId z = ok.add_job("z");
  ok.add_edge(x, z, 1.0);
  ok.add_edge(y, z, 1.0);
  ok.add_edge(x, y, 1.0);
  EXPECT_NO_THROW(ok.finalize());
}

TEST(Dag, RejectsNegativeDataAndBadIds) {
  Dag d;
  const JobId a = d.add_job("a");
  const JobId b = d.add_job("b");
  EXPECT_THROW(d.add_edge(a, b, -1.0), std::invalid_argument);
  EXPECT_THROW(d.add_edge(a, 99, 1.0), std::invalid_argument);
  EXPECT_THROW(d.add_edge(99, b, 1.0), std::invalid_argument);
}

TEST(Dag, RejectsEmptyGraphAndMutationAfterFinalize) {
  Dag empty;
  EXPECT_THROW(empty.finalize(), std::invalid_argument);

  Dag d = diamond();
  EXPECT_THROW(d.add_job("late"), std::invalid_argument);
  EXPECT_THROW(d.add_edge(0, 1, 1.0), std::invalid_argument);
}

TEST(Dag, AccessorsRequireFinalize) {
  Dag d;
  d.add_job("a");
  EXPECT_THROW((void)d.topological_order(), std::invalid_argument);
  EXPECT_THROW((void)d.entry_jobs(), std::invalid_argument);
}

TEST(Dag, FinalizeIsIdempotent) {
  Dag d = diamond();
  d.finalize();
  EXPECT_EQ(d.job_count(), 4u);
}

TEST(Dag, OperationsListedInFirstAppearanceOrder) {
  const Dag d = diamond();
  EXPECT_EQ(d.operations(),
            (std::vector<std::string>{"op1", "op2", "op3"}));
}

TEST(DagAlgorithms, LevelsAndWidths) {
  const Dag d = diamond();
  EXPECT_EQ(levels(d), (std::vector<std::uint32_t>{0, 1, 1, 2}));
  EXPECT_EQ(level_widths(d), (std::vector<std::uint32_t>{1, 2, 1}));
  EXPECT_EQ(max_parallelism(d), 2u);
}

TEST(DagAlgorithms, SampleDagShape) {
  const auto scenario = workloads::sample_scenario();
  EXPECT_EQ(scenario.dag.job_count(), 10u);
  EXPECT_EQ(scenario.dag.edge_count(), 15u);
  EXPECT_EQ(scenario.dag.entry_jobs(), (std::vector<JobId>{0}));
  EXPECT_EQ(scenario.dag.exit_jobs(), (std::vector<JobId>{9}));
  EXPECT_EQ(max_parallelism(scenario.dag), 5u);
}

TEST(DagIo, RoundTripPreservesEverything) {
  const Dag original = diamond();
  const std::string text = write_dag_string(original);
  const Dag parsed = read_dag_string(text);
  EXPECT_EQ(parsed.name(), original.name());
  ASSERT_EQ(parsed.job_count(), original.job_count());
  ASSERT_EQ(parsed.edge_count(), original.edge_count());
  for (JobId i = 0; i < original.job_count(); ++i) {
    EXPECT_EQ(parsed.job(i).name, original.job(i).name);
    EXPECT_EQ(parsed.job(i).operation, original.job(i).operation);
  }
  for (std::size_t e = 0; e < original.edge_count(); ++e) {
    EXPECT_EQ(parsed.edges()[e].from, original.edges()[e].from);
    EXPECT_EQ(parsed.edges()[e].to, original.edges()[e].to);
    EXPECT_DOUBLE_EQ(parsed.edges()[e].data, original.edges()[e].data);
  }
}

TEST(DagIo, ParsesCommentsAndBlankLines) {
  const Dag d = read_dag_string(
      "# a comment\n"
      "dag tiny\n"
      "\n"
      "job 0 start boot   # trailing comment\n"
      "job 1 end shutdown\n"
      "edge 0 1 3.5\n");
  EXPECT_EQ(d.name(), "tiny");
  EXPECT_EQ(d.job_count(), 2u);
  EXPECT_DOUBLE_EQ(d.data(0, 1), 3.5);
}

TEST(DagIo, RejectsMalformedInput) {
  EXPECT_THROW(read_dag_string("job zero a b\n"), std::invalid_argument);
  EXPECT_THROW(read_dag_string("dag x\njob 1 late op\n"),
               std::invalid_argument);
  EXPECT_THROW(read_dag_string("what 1 2\n"), std::invalid_argument);
  EXPECT_THROW(read_dag_string("dag x\ndag y\n"), std::invalid_argument);
}

TEST(DagDot, EmitsNodesAndLabeledEdges) {
  const std::string dot = to_dot(diamond());
  EXPECT_NE(dot.find("digraph \"diamond\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"20.0\""), std::string::npos);
}

}  // namespace
}  // namespace aheft::dag
