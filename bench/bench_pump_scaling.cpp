// EXP-S3 — pump scaling: per-machine-event work versus workflow count,
// and sharded-simulator throughput versus shard count.
//
// Phase 1 (flat-cost): before the session-owned ResourceLedger, the
// contention floor of every acquire was computed by polling busy_until()
// on EVERY registered workflow — so each machine event cost O(session
// workflows) even when the machine's queue held one entry, and a
// stream's total work grew quadratically. The ledger keeps the committed
// horizon per resource, so an acquire costs O(queue on that resource)
// regardless of how many workflows share the session. The bench holds
// total work constant (kTotalJobs chained jobs split over W workflows,
// each executing on its own dedicated machine — zero queue overlap)
// while W grows; the self-check fails when the largest W costs more than
// kMaxRatio x the smallest per event.
//
// Phase 2 (sharded throughput): the same dedicated-machine chains at
// 256/1k/4k workflows, swept over SessionEnvironment::shards and a sinks
// arm (trace recorder + performance history fed through the per-shard
// stamped sinks, with a completion hook recording every job — sharded
// AHEFT's write path). Rows report events, wall seconds, events/sec and
// the barrier count (epochs). On a machine with >= 8 cores and an axis
// containing shards=1 and shards=8, self-checks fail when 8 shards
// deliver less than kMinSpeedup x the serial throughput at the largest
// workflow count — once with sinks off and once with the history arm on.
//
// Phase 3 (sparse stream): each shard's workflows are staggered into a
// disjoint time window. An epoch drains every shard to the
// second-smallest next-event time across shards, so the stream should
// take at most one epoch per shard window. The self-check fails unless
// it does AND the merged trace/history sinks are byte-identical to the
// same run drained inline (no pool).
//
// The engines are driven directly with precomputed schedules (no HEFT
// pass), so the measurement isolates the executor/session hot path.
//
// Extra knobs: --smoke (quarter-size), --shards=a,b,c, --json=path.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/execution_engine.h"
#include "core/schedule.h"
#include "core/session.h"
#include "dag/dag.h"
#include "grid/history.h"
#include "grid/machine_model.h"
#include "grid/resource_pool.h"
#include "sim/trace.h"
#include "support/thread_pool.h"

using namespace aheft;

namespace {

struct ScalingPoint {
  std::size_t workflows = 0;
  std::size_t jobs_per_workflow = 0;
  std::size_t shards = 1;
  bool sinks = false;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  double seconds = 0.0;
  [[nodiscard]] double micros_per_event() const {
    return events == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(events);
  }
  [[nodiscard]] double events_per_sec() const {
    return seconds <= 0.0 ? 0.0 : static_cast<double>(events) / seconds;
  }
};

/// The merged sink contents of a sinks-on run, for byte-identity checks.
struct SinkCapture {
  std::vector<sim::TraceInterval> trace;
  std::vector<grid::PerformanceHistoryRepository::Observation> history;
};

bool captures_equal(const SinkCapture& a, const SinkCapture& b) {
  if (a.trace.size() != b.trace.size() ||
      a.history.size() != b.history.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const sim::TraceInterval& x = a.trace[i];
    const sim::TraceInterval& y = b.trace[i];
    if (x.kind != y.kind || x.job != y.job || x.consumer != y.consumer ||
        x.resource != y.resource || x.start != y.start || x.end != y.end) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const auto& x = a.history[i];
    const auto& y = b.history[i];
    if (x.operation != y.operation || x.resource != y.resource ||
        x.smoothed != y.smoothed || x.count != y.count) {
      return false;
    }
  }
  return true;
}

/// One measured configuration: W chains of K jobs, machine w dedicated to
/// workflow w (its costs are 1 there and 100 elsewhere, so every plan
/// stays on its own machine and the queues never overlap).
ScalingPoint run_point(std::size_t workflows, std::size_t jobs) {
  grid::ResourcePool pool;
  for (std::size_t w = 0; w < workflows; ++w) {
    pool.add(grid::Resource{.name = "m" + std::to_string(w)});
  }

  std::vector<dag::Dag> dags;
  std::vector<grid::MachineModel> models;
  dags.reserve(workflows);
  models.reserve(workflows);
  for (std::size_t w = 0; w < workflows; ++w) {
    dags.emplace_back("chain" + std::to_string(w));
    dag::Dag& dag = dags.back();
    for (std::size_t i = 0; i < jobs; ++i) {
      dag.add_job("j" + std::to_string(i));
      if (i > 0) {
        dag.add_edge(static_cast<dag::JobId>(i - 1),
                     static_cast<dag::JobId>(i), 0.0);
      }
    }
    dag.finalize();
    models.emplace_back(jobs, workflows);
    for (dag::JobId i = 0; i < jobs; ++i) {
      for (grid::ResourceId r = 0;
           r < static_cast<grid::ResourceId>(workflows); ++r) {
        models.back().set_compute_cost(
            i, r, r == static_cast<grid::ResourceId>(w) ? 1.0 : 100.0);
      }
    }
  }

  core::SessionEnvironment env;
  env.pool = &pool;
  core::SimulationSession session(env);
  std::vector<std::unique_ptr<core::ExecutionEngine>> engines;
  engines.reserve(workflows);
  Stopwatch watch;
  for (std::size_t w = 0; w < workflows; ++w) {
    engines.push_back(std::make_unique<core::ExecutionEngine>(
        session, dags[w], models[w]));
    core::Schedule plan(jobs);
    for (dag::JobId i = 0; i < jobs; ++i) {
      plan.assign(core::Assignment{i, static_cast<grid::ResourceId>(w),
                                   static_cast<sim::Time>(i),
                                   static_cast<sim::Time>(i + 1)});
    }
    engines.back()->submit(plan);
  }
  session.run();

  ScalingPoint point;
  point.workflows = workflows;
  point.jobs_per_workflow = jobs;
  point.seconds = watch.seconds();
  point.events = session.executed_events();
  for (const auto& engine : engines) {
    if (!engine->finished()) {
      std::cerr << "pump-scaling workflow did not finish\n";
      std::exit(1);
    }
  }
  return point;
}

/// One sharded-throughput configuration: W chains of K unit jobs, one
/// dedicated machine per workflow, swept over the shard count. All
/// workflows share one chain DAG and one all-ones cost model (plans are
/// explicit, so per-workflow cost asymmetry buys nothing here and a
/// dense per-workflow model at 4096 machines would cost gigabytes);
/// both are const, so shard threads read them race-free. Each engine is
/// built and submitted under its machine's home-shard binding —
/// construction captures the shard's simulator, masked pool, and
/// (with `sinks` on) the shard's private stamped trace sink; submit()'s
/// synchronous first pump acquires on the shard's ledger.
///
/// `stagger` > 0 gives every workflow's *first* job a compute cost of
/// stagger x (its machine's shard index + 1), so each shard's chain
/// activity lands in a disjoint time window — the sparse-stream shape
/// where an epoch spans a whole window (the engine is work-conserving,
/// so staggering must come from simulated work, not plan times). With
/// `sinks` on, a completion hook records every job into the session's
/// per-shard history delta (the sharded AHEFT write path) and `capture`
/// (when non-null) receives the merged trace/history contents.
ScalingPoint run_wide_point(std::size_t workflows, std::size_t jobs,
                            std::size_t shards, ThreadPool* workers,
                            bool sinks, sim::Time stagger,
                            SinkCapture* capture) {
  grid::ResourcePool pool;
  for (std::size_t w = 0; w < workflows; ++w) {
    pool.add(grid::Resource{.name = "m" + std::to_string(w)});
  }

  dag::Dag chain("chain");
  for (std::size_t i = 0; i < jobs; ++i) {
    chain.add_job("j" + std::to_string(i));
    if (i > 0) {
      chain.add_edge(static_cast<dag::JobId>(i - 1),
                     static_cast<dag::JobId>(i), 0.0);
    }
  }
  chain.finalize();

  sim::TraceRecorder trace;
  grid::PerformanceHistoryRepository history;
  core::SessionEnvironment env;
  env.pool = &pool;
  env.shards = shards;
  env.shard_workers = shards > 1 ? workers : nullptr;
  if (sinks) {
    env.trace = &trace;
    env.history = &history;
  }
  core::SimulationSession session(env);

  grid::MachineModel model(jobs, workflows);
  for (dag::JobId i = 0; i < jobs; ++i) {
    for (grid::ResourceId r = 0;
         r < static_cast<grid::ResourceId>(workflows); ++r) {
      const sim::Time lead =
          stagger > 0.0
              ? stagger * static_cast<sim::Time>(session.shard_of(r) + 1)
              : 1.0;
      model.set_compute_cost(i, r, i == 0 ? lead : 1.0);
    }
  }

  std::vector<std::unique_ptr<core::ExecutionEngine>> engines;
  engines.reserve(workflows);
  Stopwatch watch;
  for (std::size_t w = 0; w < workflows; ++w) {
    const auto machine = static_cast<grid::ResourceId>(w);
    const std::size_t home = session.shard_of(machine);
    const auto binding = session.bind_shard(home);
    engines.push_back(
        std::make_unique<core::ExecutionEngine>(session, chain, model));
    if (sinks) {
      // The hook fires on the shard's drain thread; session.history()
      // resolves to that shard's private delta there.
      engines.back()->set_completion_hook(
          [&session, &chain](dag::JobId job, grid::ResourceId resource,
                             sim::Time start, sim::Time end) {
            session.history()->record(chain.job(job).operation, resource,
                                     end - start);
          });
    }
    const sim::Time lead =
        stagger > 0.0 ? stagger * static_cast<sim::Time>(home + 1) : 1.0;
    core::Schedule plan(jobs);
    for (dag::JobId i = 0; i < jobs; ++i) {
      const sim::Time start =
          i == 0 ? 0.0 : lead + static_cast<sim::Time>(i - 1);
      const sim::Time end = lead + static_cast<sim::Time>(i);
      plan.assign(core::Assignment{i, machine, start, end});
    }
    engines.back()->submit(plan);
  }
  session.run();

  ScalingPoint point;
  point.workflows = workflows;
  point.jobs_per_workflow = jobs;
  point.shards = session.shard_count();
  point.sinks = sinks;
  point.seconds = watch.seconds();
  point.events = session.executed_events();
  point.epochs = session.sharded().epochs();
  for (const auto& engine : engines) {
    if (!engine->finished()) {
      std::cerr << "pump-scaling sharded workflow did not finish\n";
      std::exit(1);
    }
  }
  if (capture != nullptr) {
    capture->trace = trace.intervals();
    capture->history = history.snapshot();
  }
  return point;
}

/// Best of two runs: absorbs one-off allocator/cache noise without
/// hiding real asymptotic growth.
template <typename RunFn>
ScalingPoint best_of_two(const RunFn& run) {
  ScalingPoint best = run();
  const ScalingPoint second = run();
  if (second.seconds < best.seconds) {
    best = second;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::parse_options(argc, argv);
  const ArgParser args(argc, argv);
  if (args.has("smoke")) {
    options.scale = Scale::kSmoke;
  }
  const bool smoke = options.scale == Scale::kSmoke;
  const std::size_t total_jobs = smoke ? 8192 : 32768;
  const std::vector<std::size_t> workflow_counts = {4, 16, 64};
  constexpr double kMaxRatio = 3.0;
  // Sharded phase axes: stream widths from the ROADMAP's
  // thousands-of-streams target, shard counts from the CLI.
  const std::vector<std::size_t> wide_counts =
      smoke ? std::vector<std::size_t>{256, 1024}
            : std::vector<std::size_t>{256, 1024, 4096};
  const std::size_t wide_jobs = smoke ? 4 : 16;
  const std::vector<std::size_t> shard_counts =
      bench::parse_shards(args, {1, 8});
  constexpr double kMinSpeedup = 2.0;

  bench::print_header(
      "Pump scaling: per-machine-event work vs workflow count", options,
      workflow_counts.size() +
          wide_counts.size() * shard_counts.size() * 2);
  bench::JsonReport report("bench_pump_scaling", options);

  std::vector<ScalingPoint> points;
  for (const std::size_t w : workflow_counts) {
    const ScalingPoint best =
        best_of_two([&] { return run_point(w, total_jobs / w); });
    points.push_back(best);
    report.add_row(
        {{"workflows", std::to_string(w)}},
        {{"events", static_cast<double>(best.events)},
         {"seconds", best.seconds},
         {"micros_per_event", best.micros_per_event()}});
  }

  AsciiTable table({"workflows", "jobs/workflow", "events", "seconds",
                    "us/event"});
  for (const ScalingPoint& p : points) {
    table.add_row({std::to_string(p.workflows),
                   std::to_string(p.jobs_per_workflow),
                   std::to_string(p.events),
                   format_double(p.seconds, 3),
                   format_double(p.micros_per_event(), 3)});
  }
  std::cout << table.to_string() << "\n";

  // Phase 2: sharded throughput at stream scale, with and without the
  // per-shard sink machinery (trace + history through the barrier merge).
  ThreadPool workers(options.threads);
  std::vector<ScalingPoint> wide_points;
  for (const std::size_t w : wide_counts) {
    for (const std::size_t shards : shard_counts) {
      for (const bool sinks : {false, true}) {
        const ScalingPoint best = best_of_two([&] {
          return run_wide_point(w, wide_jobs, shards, &workers, sinks, 0.0,
                                nullptr);
        });
        wide_points.push_back(best);
        report.add_row(
            {{"workflows", std::to_string(w)},
             {"shards", std::to_string(best.shards)},
             {"sinks", sinks ? "on" : "off"}},
            {{"events", static_cast<double>(best.events)},
             {"seconds", best.seconds},
             {"events_per_sec", best.events_per_sec()},
             {"micros_per_event", best.micros_per_event()},
             {"epochs", static_cast<double>(best.epochs)}});
      }
    }
  }

  AsciiTable wide_table({"workflows", "shards", "sinks", "events", "epochs",
                         "seconds", "events/sec"});
  for (const ScalingPoint& p : wide_points) {
    wide_table.add_row({std::to_string(p.workflows),
                        std::to_string(p.shards),
                        p.sinks ? "on" : "off",
                        std::to_string(p.events),
                        std::to_string(p.epochs),
                        format_double(p.seconds, 3),
                        format_double(p.events_per_sec(), 0)});
  }
  std::cout << "sharded throughput (lock-step epochs on "
            << workers.thread_count() << " pool threads):\n"
            << wide_table.to_string() << "\n";

  // Phase 3: sparse stream — each shard's workflows staggered into a
  // disjoint window. Each epoch must span a whole window, and the pool
  // run's merged sinks must equal the same run drained inline.
  const std::size_t sparse_workflows = 64;
  const std::size_t sparse_jobs = 32;
  const std::size_t sparse_shards = 4;
  const sim::Time kStagger = 1000.0;
  SinkCapture pool_capture;
  SinkCapture inline_capture;
  const ScalingPoint sparse_point =
      run_wide_point(sparse_workflows, sparse_jobs, sparse_shards, &workers,
                     true, kStagger, &pool_capture);
  const ScalingPoint inline_point =
      run_wide_point(sparse_workflows, sparse_jobs, sparse_shards, nullptr,
                     true, kStagger, &inline_capture);
  report.add_row({{"phase", "sparse"},
                  {"workflows", std::to_string(sparse_point.workflows)},
                  {"shards", std::to_string(sparse_point.shards)}},
                 {{"events", static_cast<double>(sparse_point.events)},
                  {"seconds", sparse_point.seconds},
                  {"epochs", static_cast<double>(sparse_point.epochs)}});
  report.write_if_requested(options);

  const double first = points.front().micros_per_event();
  const double last = points.back().micros_per_event();
  const double ratio = first > 0.0 ? last / first : 0.0;
  const bool flat = ratio <= kMaxRatio;
  std::cout << "pump-scaling self-check: us/event at "
            << points.back().workflows << " workflows is "
            << format_double(ratio, 2) << "x the " << points.front().workflows
            << "-workflow cost (bound " << format_double(kMaxRatio, 1)
            << "x; participant-scan scaling would be ~"
            << points.back().workflows / points.front().workflows
            << "x) -> " << (flat ? "PASS" : "FAIL") << "\n";

  // Shard speedup self-checks at the largest workflow count, sinks off
  // and sinks on (the history arm): enforced only
  // where they can physically hold — the axis must compare 1 and 8 shards
  // and the machine must have >= 8 cores for 8 shards to run
  // concurrently.
  bool sharded_ok = true;
  const bool axis_has_pair =
      std::find(shard_counts.begin(), shard_counts.end(),
                std::size_t{1}) != shard_counts.end() &&
      std::find(shard_counts.begin(), shard_counts.end(),
                std::size_t{8}) != shard_counts.end();
  const unsigned cores = std::thread::hardware_concurrency();
  for (const bool sinks : {false, true}) {
    double serial_eps = 0.0;
    double sharded_eps = 0.0;
    for (const ScalingPoint& p : wide_points) {
      if (p.workflows != wide_counts.back() || p.sinks != sinks) {
        continue;
      }
      if (p.shards == 1) {
        serial_eps = p.events_per_sec();
      } else if (p.shards == 8) {
        sharded_eps = p.events_per_sec();
      }
    }
    const char* arm = sinks ? "history arm" : "sinks off";
    if (axis_has_pair && cores >= 8) {
      const double speedup =
          serial_eps > 0.0 ? sharded_eps / serial_eps : 0.0;
      const bool ok = speedup >= kMinSpeedup;
      sharded_ok = sharded_ok && ok;
      std::cout << "shard-speedup self-check (" << arm
                << "): 8 shards deliver " << format_double(speedup, 2)
                << "x the serial events/sec at " << wide_counts.back()
                << " workflows (bound " << format_double(kMinSpeedup, 1)
                << "x on " << cores << " cores) -> "
                << (ok ? "PASS" : "FAIL") << "\n";
    } else {
      std::cout << "shard-speedup self-check (" << arm
                << "): SKIP (needs --shards covering 1 and 8, and >= 8 "
                   "cores; axis pair="
                << (axis_has_pair ? "yes" : "no") << ", cores=" << cores
                << ")\n";
    }
  }

  // Sparse-stream self-check: logical, so no core-count gate — a null
  // or undersized pool drains epochs inline with identical semantics.
  const bool window_epochs = sparse_point.epochs <= sparse_point.shards;
  const bool identical = captures_equal(pool_capture, inline_capture) &&
                         sparse_point.events == inline_point.events;
  const bool sparse_ok = window_epochs && identical;
  std::cout << "sparse-stream self-check: " << sparse_point.epochs
            << " epochs over " << sparse_point.shards
            << " shard windows (want at most one per window), merged sinks "
            << (identical ? "byte-identical" : "DIFFER")
            << " to the inline drain -> " << (sparse_ok ? "PASS" : "FAIL")
            << "\n";

  return flat && sharded_ok && sparse_ok ? 0 : 1;
}
