// EXP-T6 — paper Table 6: average makespan and improvement rate by AHEFT
// on the two real applications.
// Published: BLAST 4939.3 -> 3933.1 (20.4%); WIEN2K 3451.6 -> 3233.8
// (6.3%). The headline: the wide, balanced BLAST gains far more than the
// LAPW2_FERMI-gated WIEN2K.
#include <iostream>

#include "bench_util.h"
#include "exp/paper_ref.h"

using namespace aheft;

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(bench::arguments(argc, argv, bench::kRunFlags));

  AsciiTable table({"application", "avg HEFT", "avg AHEFT", "improvement",
                    "paper HEFT", "paper AHEFT", "paper impr."});
  for (const exp::AppKind app :
       {exp::AppKind::kBlast, exp::AppKind::kWien2k}) {
    std::vector<exp::CaseSpec> specs =
        exp::build_app_sweep(app, options.scale, options.seed);
    bench::print_header(
        "Table 6 — " + exp::to_string(app) + " average makespan", options,
        specs.size());
    const exp::SweepOutcome outcome = bench::run(options, std::move(specs));
    const exp::GroupStats stats = exp::overall(outcome);
    const bool blast = app == exp::AppKind::kBlast;
    table.add_row(
        {exp::to_string(app), format_double(stats.heft.mean(), 1),
         format_double(stats.aheft.mean(), 1),
         format_percent(stats.improvement()),
         format_double(blast ? exp::paper::kBlastHeft
                             : exp::paper::kWien2kHeft,
                       1),
         format_double(blast ? exp::paper::kBlastAheft
                             : exp::paper::kWien2kAheft,
                       1),
         format_percent(blast ? exp::paper::kBlastImprovement
                              : exp::paper::kWien2kImprovement)});
  }
  std::cout << table.to_string() << "\n"
            << "Expected shape: BLAST improvement >> WIEN2K improvement.\n";
  return 0;
}
