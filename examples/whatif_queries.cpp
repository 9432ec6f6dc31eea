// What-if queries (paper §3.3): "What will be the expected performance if
// an additional resource A is added (removed)?" — the proactive system-
// management interface the paper sketches as the natural extension of the
// event-evaluation machinery.
//
// The example runs the paper's own Fig. 4 workflow to t = 15 and then
// interrogates the planner about hypothetical grid changes.
#include <iostream>

#include "core/execution_engine.h"
#include "core/heft.h"
#include "core/whatif.h"
#include "sim/simulator.h"
#include "support/env.h"
#include "support/table.h"
#include "workloads/sample.h"

using namespace aheft;

int main(int argc, char** argv) {
  // Takes no flags: any argument exits 2 naming it.
  const ArgParser args(argc, argv, {});

  // r4 exists in the universe but has not joined (arrival pushed out), so
  // it can serve as the "what if it joined now?" hypothesis.
  workloads::SampleScenario scenario = workloads::sample_scenario(1e9);

  const core::Schedule plan =
      core::heft_schedule(scenario.dag, scenario.model, scenario.pool);
  core::SessionEnvironment env;
  env.pool = &scenario.pool;
  core::SimulationSession session(env);
  core::ExecutionEngine engine(session, scenario.dag, scenario.model);
  engine.submit(plan);
  session.simulator().run_until(15.0);
  const core::ExecutionSnapshot snapshot = engine.snapshot();

  std::cout << "Workflow state at t=15: " << snapshot.finished_count()
            << " job(s) finished, " << snapshot.running().size()
            << " running; planned makespan " << plan.makespan() << ".\n\n";

  core::SchedulerConfig config;
  config.order_candidates = 8;
  const core::WhatIfAnalyzer analyzer(scenario.dag, scenario.model,
                                      scenario.pool, config);

  AsciiTable table({"hypothesis", "predicted makespan", "delta"});
  const double baseline = analyzer.predict_current(snapshot, plan);
  table.add_row({"no change", format_double(baseline, 1), "0.0"});
  {
    const double with_r4 = analyzer.predict_with_added(snapshot, plan, 3);
    table.add_row({"add r4 now", format_double(with_r4, 1),
                   format_double(with_r4 - baseline, 1)});
  }
  for (const grid::ResourceId r : {0u, 1u, 2u}) {
    const double without =
        analyzer.predict_with_removed(snapshot, plan, r);
    table.add_row({"remove " + scenario.pool.resource(r).name,
                   format_double(without, 1),
                   format_double(without - baseline, 1)});
  }
  std::cout << table.to_string()
            << "\nReading: adding r4 at t=15 is predicted to save "
            << format_double(baseline -
                                 analyzer.predict_with_added(snapshot, plan,
                                                             3),
                             1)
            << " time units (the paper's Fig. 5 worked example); losing r3"
               " — which hosts the running n3 and most of the remaining"
               " plan — would be the most damaging event.\n";
  return 0;
}
