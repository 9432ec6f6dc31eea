// EXP-T3 — paper Table 3: AHEFT improvement rate over HEFT by CCR on the
// random-DAG grid. Published: 0.4%, 0.5%, 0.7%, 3.2%, 7.7% for
// CCR = 0.1, 0.5, 1, 5, 10 — data-intensive workflows benefit most.
#include <iostream>

#include "bench_util.h"
#include "exp/paper_params.h"
#include "exp/paper_ref.h"

using namespace aheft;

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(bench::arguments(argc, argv, bench::kRunFlags));
  std::vector<exp::CaseSpec> specs =
      exp::build_random_sweep(options.scale, options.seed,
                              /*run_dynamic=*/false);
  bench::print_header("Table 3 — improvement rate vs CCR (random DAGs)",
                      options, specs.size());
  const exp::SweepOutcome outcome = bench::run(options, std::move(specs));
  const auto groups =
      exp::group_by(outcome, [](const exp::CaseSpec& s) { return s.ccr; });

  AsciiTable table({"CCR", "avg HEFT", "avg AHEFT", "improvement",
                    "paper"});
  std::size_t row = 0;
  for (const auto& [ccr, stats] : groups) {
    const std::string paper =
        row < exp::paper::kTable3Improvement.size()
            ? format_percent(exp::paper::kTable3Improvement[row])
            : "-";
    table.add_row({format_double(ccr, 1), format_double(stats.heft.mean(), 0),
                   format_double(stats.aheft.mean(), 0),
                   format_percent(stats.improvement()), paper});
    ++row;
  }
  std::cout << table.to_string() << "\n"
            << "Expected shape: improvement grows with CCR.\n";
  return 0;
}
