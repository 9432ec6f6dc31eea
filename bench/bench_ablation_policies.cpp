// EXP-A1 — ablation over the scheduler's policy knobs (ours, not in the
// paper): slot policy, running-job policy, adoption threshold, and order
// exploration. Shows which design choices carry the improvement.
#include <iostream>

#include "bench_util.h"
#include "exp/paper_params.h"

using namespace aheft;

namespace {

std::vector<exp::CaseSpec> base_cases(const bench::BenchOptions& options) {
  // A mixed bag: random DAGs across CCRs plus mid-size BLAST instances.
  std::vector<exp::CaseSpec> specs;
  std::size_t repeats = options.scale == Scale::kSmoke ? 1 : 4;
  if (options.scale == Scale::kPaper) {
    repeats = 20;
  }
  for (const double ccr : exp::kCcrValues) {
    for (std::size_t inst = 0; inst < repeats; ++inst) {
      exp::CaseSpec spec;
      spec.app = exp::AppKind::kRandom;
      spec.size = 60;
      spec.ccr = ccr;
      spec.out_degree = 0.3;
      spec.beta = 0.5;
      spec.dynamics = {10, 400.0, 0.2};
      spec.seed = exp::case_seed(options.seed, spec, inst);
      specs.push_back(spec);

      exp::CaseSpec blast;
      blast.app = exp::AppKind::kBlast;
      blast.size = 200;
      blast.ccr = ccr;
      blast.beta = 0.5;
      blast.dynamics = {20, 400.0, 0.2};
      blast.seed = exp::case_seed(options.seed, blast, inst);
      specs.push_back(blast);
    }
  }
  return specs;
}

exp::GroupStats run_variant(const bench::BenchOptions& options,
                            std::vector<exp::CaseSpec> specs,
                            const core::SchedulerConfig& config) {
  for (exp::CaseSpec& spec : specs) {
    spec.scheduler = config;
  }
  const exp::SweepOutcome outcome =
      exp::run_sweep(std::move(specs), options.threads);
  return exp::overall(outcome);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(bench::arguments(argc, argv, {"threads"}));
  const std::vector<exp::CaseSpec> specs = base_cases(options);
  bench::print_header("Ablation — scheduler policy knobs", options,
                      specs.size());

  struct Variant {
    std::string name;
    core::SchedulerConfig config;
  };
  std::vector<Variant> variants;
  {
    Variant v{"baseline (insertion, keep-running, thr 0, no explore)", {}};
    variants.push_back(v);
  }
  {
    Variant v{"end-of-queue slots", {}};
    v.config.slot_policy = core::SlotPolicy::kEndOfQueue;
    variants.push_back(v);
  }
  {
    Variant v{"restartable running jobs", {}};
    v.config.running_policy = core::RunningJobPolicy::kRestartable;
    variants.push_back(v);
  }
  {
    Variant v{"order exploration k=4", {}};
    v.config.order_candidates = 4;
    variants.push_back(v);
  }
  {
    Variant v{"order exploration k=16", {}};
    v.config.order_candidates = 16;
    variants.push_back(v);
  }
  {
    Variant v{"adoption threshold 5%", {}};
    v.config.adoption_threshold = 0.05;
    variants.push_back(v);
  }
  {
    Variant v{"adoption threshold 20%", {}};
    v.config.adoption_threshold = 0.20;
    variants.push_back(v);
  }

  AsciiTable table({"variant", "avg HEFT", "avg AHEFT", "improvement",
                    "adoptions/case"});
  for (const Variant& variant : variants) {
    const exp::GroupStats stats = run_variant(options, specs, variant.config);
    table.add_row({variant.name, format_double(stats.heft.mean(), 0),
                   format_double(stats.aheft.mean(), 0),
                   format_percent(stats.improvement()),
                   format_double(stats.adoptions.mean(), 2)});
  }
  std::cout << table.to_string() << "\n"
            << "Reading: the adoption filter makes every variant safe; the\n"
               "slot policy and thresholds trade improvement for stability.\n";
  return 0;
}
