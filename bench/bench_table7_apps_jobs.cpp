// EXP-T7 — paper Table 7: improvement rate by degree of parallelism.
// Published: BLAST 15.9/18.3/19.9/21.9/23.6 %, WIEN2K 2.2/4.3/6.0/7.8/9.4 %
// for N = 200..1000 — improvement grows with DAG complexity for both.
#include <iostream>

#include "bench_util.h"
#include "exp/paper_ref.h"

using namespace aheft;

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(bench::arguments(argc, argv, bench::kRunFlags));

  AsciiTable table({"N", "blast impr.", "paper", "wien2k impr.", "paper"});
  std::map<double, double> blast_rows;
  std::map<double, double> wien_rows;
  for (const exp::AppKind app :
       {exp::AppKind::kBlast, exp::AppKind::kWien2k}) {
    std::vector<exp::CaseSpec> specs =
        exp::build_app_sweep(app, options.scale, options.seed);
    bench::print_header(
        "Table 7 — " + exp::to_string(app) + " improvement vs parallelism",
        options, specs.size());
    const exp::SweepOutcome outcome = bench::run(options, std::move(specs));
    const auto groups = exp::group_by(outcome, [](const exp::CaseSpec& s) {
      return static_cast<double>(s.size);
    });
    for (const auto& [n, stats] : groups) {
      (app == exp::AppKind::kBlast ? blast_rows : wien_rows)[n] =
          stats.improvement();
    }
  }
  std::size_t row = 0;
  for (const auto& [n, blast_improvement] : blast_rows) {
    const std::string paper_blast =
        row < exp::paper::kTable7Blast.size()
            ? format_percent(exp::paper::kTable7Blast[row])
            : "-";
    const std::string paper_wien =
        row < exp::paper::kTable7Wien2k.size()
            ? format_percent(exp::paper::kTable7Wien2k[row])
            : "-";
    table.add_row({format_double(n, 0), format_percent(blast_improvement),
                   paper_blast,
                   wien_rows.count(n) ? format_percent(wien_rows[n]) : "-",
                   paper_wien});
    ++row;
  }
  std::cout << table.to_string() << "\n"
            << "Expected shape: improvement grows with N for both "
               "applications.\n";
  return 0;
}
