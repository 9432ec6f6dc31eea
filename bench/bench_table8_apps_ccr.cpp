// EXP-T8 — paper Table 8: improvement rate by CCR on the applications.
// Published: BLAST 16.1/15.5/14.3/19.1/26.1 % (rising at high CCR),
// WIEN2K 7.3/7.3/6.6/5.3/6.4 % (flat) for CCR = 0.1, 0.5, 1, 5, 10.
#include <iostream>

#include "bench_util.h"
#include "exp/paper_ref.h"

using namespace aheft;

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(bench::arguments(argc, argv, bench::kRunFlags));

  AsciiTable table({"CCR", "blast impr.", "paper", "wien2k impr.", "paper"});
  std::map<double, double> blast_rows;
  std::map<double, double> wien_rows;
  for (const exp::AppKind app :
       {exp::AppKind::kBlast, exp::AppKind::kWien2k}) {
    std::vector<exp::CaseSpec> specs =
        exp::build_app_sweep(app, options.scale, options.seed);
    bench::print_header(
        "Table 8 — " + exp::to_string(app) + " improvement vs CCR", options,
        specs.size());
    const exp::SweepOutcome outcome = bench::run(options, std::move(specs));
    const auto groups =
        exp::group_by(outcome, [](const exp::CaseSpec& s) { return s.ccr; });
    for (const auto& [ccr, stats] : groups) {
      (app == exp::AppKind::kBlast ? blast_rows : wien_rows)[ccr] =
          stats.improvement();
    }
  }
  std::size_t row = 0;
  for (const auto& [ccr, blast_improvement] : blast_rows) {
    const std::string paper_blast =
        row < exp::paper::kTable8Blast.size()
            ? format_percent(exp::paper::kTable8Blast[row])
            : "-";
    const std::string paper_wien =
        row < exp::paper::kTable8Wien2k.size()
            ? format_percent(exp::paper::kTable8Wien2k[row])
            : "-";
    table.add_row({format_double(ccr, 1), format_percent(blast_improvement),
                   paper_blast,
                   wien_rows.count(ccr) ? format_percent(wien_rows[ccr]) : "-",
                   paper_wien});
    ++row;
  }
  std::cout << table.to_string() << "\n"
            << "Expected shape: BLAST sensitive to CCR, WIEN2K flat.\n";
  return 0;
}
