// EXP-T4 — paper Table 4: AHEFT improvement rate over HEFT by DAG size on
// the random grid. Published: 2.9%, 3.9%, 4.3%, 4.2%, 4.1% for
// v = 20..100 — a jump from 20 to 40 jobs, then a plateau.
#include <iostream>

#include "bench_util.h"
#include "exp/paper_ref.h"

using namespace aheft;

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(bench::arguments(argc, argv, bench::kRunFlags));
  std::vector<exp::CaseSpec> specs =
      exp::build_random_sweep(options.scale, options.seed,
                              /*run_dynamic=*/false);
  bench::print_header("Table 4 — improvement rate vs job count (random DAGs)",
                      options, specs.size());
  const exp::SweepOutcome outcome = bench::run(options, std::move(specs));
  const auto groups = exp::group_by(outcome, [](const exp::CaseSpec& s) {
    return static_cast<double>(s.size);
  });

  AsciiTable table({"jobs", "avg HEFT", "avg AHEFT", "improvement",
                    "paper"});
  std::size_t row = 0;
  for (const auto& [jobs, stats] : groups) {
    const std::string paper =
        row < exp::paper::kTable4Improvement.size()
            ? format_percent(exp::paper::kTable4Improvement[row])
            : "-";
    table.add_row({format_double(jobs, 0), format_double(stats.heft.mean(), 0),
                   format_double(stats.aheft.mean(), 0),
                   format_percent(stats.improvement()), paper});
    ++row;
  }
  std::cout << table.to_string() << "\n"
            << "Expected shape: improvement rises initially, then "
               "stabilizes.\n";
  return 0;
}
