// EXP-R0 — §4.2 random-DAG study, overall averages.
//
// Paper (500,000 cases over the Table 2 grid): average makespans
// HEFT 4075, AHEFT 3911, dynamic Min-Min 12352 — i.e. both static plans
// beat the just-in-time baseline by ~3x, and AHEFT edges out HEFT.
// Absolute values depend on the unpublished cost scale; the orderings and
// ratios are the reproduction target.
#include <iostream>

#include "bench_util.h"
#include "exp/paper_ref.h"

using namespace aheft;

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(bench::arguments(argc, argv, bench::kRunFlags));
  std::vector<exp::CaseSpec> specs =
      exp::build_random_sweep(options.scale, options.seed,
                              /*run_dynamic=*/true);
  bench::print_header("Random-DAG overall averages (paper §4.2)", options,
                      specs.size());
  const exp::SweepOutcome outcome = bench::run(options, std::move(specs));
  const exp::GroupStats stats = exp::overall(outcome);

  AsciiTable table({"strategy", "avg makespan", "paper", "vs HEFT",
                    "paper ratio"});
  const double heft = stats.heft.mean();
  const double aheft = stats.aheft.mean();
  const double minmin = stats.minmin.mean();
  table.add_row({"HEFT (static)", format_double(heft, 0),
                 format_double(exp::paper::kRandomAvgHeft, 0), "1.00",
                 "1.00"});
  table.add_row({"AHEFT (adaptive)", format_double(aheft, 0),
                 format_double(exp::paper::kRandomAvgAheft, 0),
                 format_double(aheft / heft, 2),
                 format_double(exp::paper::kRandomAvgAheft /
                                   exp::paper::kRandomAvgHeft,
                               2)});
  table.add_row({"Min-Min (dynamic)", format_double(minmin, 0),
                 format_double(exp::paper::kRandomAvgMinMin, 0),
                 format_double(minmin / heft, 2),
                 format_double(exp::paper::kRandomAvgMinMin /
                                   exp::paper::kRandomAvgHeft,
                               2)});
  std::cout << table.to_string() << "\n";
  std::cout << "AHEFT improvement over HEFT: "
            << format_percent(stats.improvement())
            << "   (paper: " << format_percent((4075.0 - 3911.0) / 4075.0)
            << ")\n";
  std::cout << "mean adopted reschedules per case: "
            << format_double(stats.adoptions.mean(), 2) << "\n";
  return 0;
}
