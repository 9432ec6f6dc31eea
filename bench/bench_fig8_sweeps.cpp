// EXP-F8 — paper Fig. 8(a)–(f): average makespan of HEFT and AHEFT on
// BLAST (HEFT1/AHEFT1) and WIEN2K (HEFT2/AHEFT2) as one parameter sweeps
// while the rest sit at the central base configuration.
//
// Published trends: (a) makespan grows with CCR, AHEFT gap widens;
// (b) flat in beta; (c) grows with job count; (d) shrinks with initial
// pool size, AHEFT gap largest for small pools; (e) AHEFT gap shrinks as
// the change interval grows; (f) weak sensitivity to the change fraction.
#include <iostream>

#include "bench_util.h"

using namespace aheft;

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(bench::arguments(argc, argv, bench::kRunFlags));

  const std::pair<exp::SweepAxis, const char*> panels[] = {
      {exp::SweepAxis::kCcr, "(a) makespan vs CCR"},
      {exp::SweepAxis::kBeta, "(b) makespan vs beta"},
      {exp::SweepAxis::kJobs, "(c) makespan vs number of jobs (N)"},
      {exp::SweepAxis::kPool, "(d) makespan vs initial resource pool"},
      {exp::SweepAxis::kInterval, "(e) makespan vs resource change interval"},
      {exp::SweepAxis::kFraction,
       "(f) makespan vs resource change percentage"},
  };

  for (const auto& [axis, title] : panels) {
    AsciiTable table({to_string(axis), "HEFT1 (blast)", "AHEFT1 (blast)",
                      "HEFT2 (wien2k)", "AHEFT2 (wien2k)"});
    std::map<double, std::pair<exp::GroupStats, exp::GroupStats>> rows;
    for (const exp::AppKind app :
         {exp::AppKind::kBlast, exp::AppKind::kWien2k}) {
      std::vector<exp::CaseSpec> specs =
          exp::build_fig8_sweep(app, axis, options.scale, options.seed);
      bench::print_header(std::string("Fig. 8") + title + " — " +
                              exp::to_string(app),
                          options, specs.size());
      const exp::SweepOutcome outcome =
          bench::run(options, std::move(specs));
      const auto groups =
          exp::group_by(outcome, [axis](const exp::CaseSpec& s) {
            return exp::axis_value(axis, s);
          });
      for (const auto& [value, stats] : groups) {
        if (app == exp::AppKind::kBlast) {
          rows[value].first = stats;
        } else {
          rows[value].second = stats;
        }
      }
    }
    for (const auto& [value, stats] : rows) {
      table.add_row({format_double(value, 2),
                     format_double(stats.first.heft.mean(), 0),
                     format_double(stats.first.aheft.mean(), 0),
                     format_double(stats.second.heft.mean(), 0),
                     format_double(stats.second.aheft.mean(), 0)});
    }
    std::cout << "Fig. 8" << title << ":\n" << table.to_string() << "\n";
  }
  return 0;
}
