#include "exp/sweeps.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "core/contention_policy.h"
#include "exp/paper_params.h"
#include "support/assert.h"
#include "support/rng.h"

namespace aheft::exp {

std::uint64_t case_seed(std::uint64_t master, const CaseSpec& spec,
                        std::size_t instance) {
  // The key covers only the workload-shaping fields, NOT the resource
  // dynamics: the paper crosses each generated DAG with every resource
  // model (6250 DAGs x 80 models), so specs that differ only in
  // (R, Delta, delta) must share the workflow — paired comparisons keep
  // the Fig. 8(d)–(f) series smooth.
  //
  // The key text is "app/size/ccr/out_degree/beta/instance" as
  // std::ostream's defaults print it: integers in decimal, doubles as %g
  // at precision 6. It is at most about 100 characters.
  char key[128];
  const std::string app = to_string(spec.app);
  char* out = key;
  out = std::copy(app.begin(), app.end(), out);
  const auto field = [&](const auto value) {
    AHEFT_ASSERT(out != std::end(key), "case_seed key overflows its buffer");
    *out++ = '/';
    std::to_chars_result written;
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      written = std::to_chars(out, std::end(key), value,
                              std::chars_format::general, 6);
    } else {
      written = std::to_chars(out, std::end(key), value);
    }
    AHEFT_ASSERT(written.ec == std::errc(),
                 "case_seed key overflows its buffer");
    out = written.ptr;
  };
  field(spec.size);
  field(spec.ccr);
  field(spec.out_degree);
  field(spec.beta);
  field(instance);
  return mix64(master, hash64(std::string_view(key, out - key)));
}

namespace {

template <typename T>
std::vector<T> thin(const std::vector<T>& values, Scale scale) {
  // kPaper and kDefault keep the full value set (the paper's trends are
  // read across every value); kSmoke keeps the extremes.
  if (scale != Scale::kSmoke || values.size() <= 2) {
    return values;
  }
  return {values.front(), values.back()};
}

std::size_t instances_for(Scale scale) {
  switch (scale) {
    case Scale::kSmoke:
      return 1;
    case Scale::kDefault:
      return 1;
    case Scale::kPaper:
      return kPaperInstancesPerType;
  }
  return 1;
}

/// seeds[inst] = case_seed(master, spec, inst). The key leaves out the
/// resource model, so every (R, Delta, delta) spec of one workflow key
/// shares these seeds: the sweeps derive them once per key, not once
/// per spec.
void fill_seeds(std::vector<std::uint64_t>& seeds, std::uint64_t master,
                const CaseSpec& spec) {
  for (std::size_t inst = 0; inst < seeds.size(); ++inst) {
    seeds[inst] = case_seed(master, spec, inst);
  }
}

}  // namespace

std::vector<CaseSpec> build_random_sweep(Scale scale, std::uint64_t master,
                                         bool run_dynamic) {
  const std::vector<std::size_t> jobs =
      thin(std::vector<std::size_t>(kRandomJobs.begin(), kRandomJobs.end()),
           scale);
  const std::vector<double> ccrs =
      thin(std::vector<double>(kCcrValues.begin(), kCcrValues.end()), scale);
  std::vector<double> out_degrees(kOutDegrees.begin(), kOutDegrees.end());
  std::vector<double> betas(kBetaValues.begin(), kBetaValues.end());
  std::vector<std::size_t> pools(kRandomPoolSizes.begin(),
                                 kRandomPoolSizes.end());
  std::vector<double> intervals(kChangeIntervals.begin(),
                                kChangeIntervals.end());
  std::vector<double> fractions(kChangeFractions.begin(),
                                kChangeFractions.end());
  if (scale == Scale::kSmoke) {
    out_degrees = {0.2};
    betas = {0.5};
    pools = {10};
    intervals = {800};
    fractions = {0.15};
  } else if (scale == Scale::kDefault) {
    // Keep all DAG types; thin the resource-model cross product.
    pools = {10, 30, 50};
    intervals = {400, 1200};
    fractions = {0.10, 0.20};
  }

  // One allocation for the whole grid: growing a vector of these large
  // specs by doubling would copy each several times and briefly hold
  // about three times the grid's size.
  const std::size_t instances = instances_for(scale);
  std::vector<CaseSpec> specs;
  specs.reserve(jobs.size() * ccrs.size() * out_degrees.size() *
                betas.size() * pools.size() * intervals.size() *
                fractions.size() * instances);
  std::vector<std::uint64_t> seeds(instances);
  for (const std::size_t v : jobs) {
    for (const double ccr : ccrs) {
      for (const double out_degree : out_degrees) {
        for (const double beta : betas) {
          CaseSpec spec;
          spec.app = AppKind::kRandom;
          spec.size = v;
          spec.ccr = ccr;
          spec.out_degree = out_degree;
          spec.beta = beta;
          spec.run_dynamic = run_dynamic;
          spec.horizon_factor = run_dynamic ? 4.0 : 1.0;
          fill_seeds(seeds, master, spec);
          for (const std::size_t pool : pools) {
            for (const double interval : intervals) {
              for (const double fraction : fractions) {
                for (std::size_t inst = 0; inst < instances; ++inst) {
                  spec.dynamics = {pool, interval, fraction};
                  spec.seed = seeds[inst];
                  specs.push_back(spec);
                }
              }
            }
          }
        }
      }
    }
  }
  return specs;
}

std::vector<CaseSpec> build_app_sweep(AppKind app, Scale scale,
                                      std::uint64_t master) {
  AHEFT_REQUIRE(app != AppKind::kRandom, "use build_random_sweep for random");
  const std::vector<std::size_t> parallelism = thin(
      std::vector<std::size_t>(kAppParallelism.begin(), kAppParallelism.end()),
      scale);
  const std::vector<double> ccrs =
      thin(std::vector<double>(kCcrValues.begin(), kCcrValues.end()), scale);
  std::vector<double> betas(kBetaValues.begin(), kBetaValues.end());
  std::vector<std::size_t> pools(kAppPoolSizes.begin(), kAppPoolSizes.end());
  std::vector<double> intervals(kChangeIntervals.begin(),
                                kChangeIntervals.end());
  std::vector<double> fractions(kChangeFractions.begin(),
                                kChangeFractions.end());
  std::size_t instances = 1;
  if (scale != Scale::kPaper) {
    // The default grid crosses parallelism x CCR (the axes the paper's
    // tables report) with the pool-size axis (which carries most of the
    // resource-starvation effect), at central beta/Delta/delta.
    betas = {kBaseBeta};
    intervals = {kBaseInterval};
    fractions = {kBaseFraction};
    instances = scale == Scale::kSmoke ? 1 : 2;
    if (scale == Scale::kSmoke) {
      pools = {20};
    }
  }

  std::vector<CaseSpec> specs;
  std::vector<std::uint64_t> seeds(instances);
  for (const std::size_t n : parallelism) {
    for (const double ccr : ccrs) {
      for (const double beta : betas) {
        CaseSpec spec;
        spec.app = app;
        spec.size = n;
        spec.ccr = ccr;
        spec.beta = beta;
        fill_seeds(seeds, master, spec);
        for (const std::size_t pool : pools) {
          for (const double interval : intervals) {
            for (const double fraction : fractions) {
              for (std::size_t inst = 0; inst < instances; ++inst) {
                spec.dynamics = {pool, interval, fraction};
                spec.seed = seeds[inst];
                specs.push_back(spec);
              }
            }
          }
        }
      }
    }
  }
  return specs;
}

const char* to_string(SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kCcr:
      return "CCR";
    case SweepAxis::kBeta:
      return "beta";
    case SweepAxis::kJobs:
      return "jobs";
    case SweepAxis::kPool:
      return "initial-pool";
    case SweepAxis::kInterval:
      return "change-interval";
    case SweepAxis::kFraction:
      return "change-fraction";
  }
  return "unknown";
}

double axis_value(SweepAxis axis, const CaseSpec& spec) {
  switch (axis) {
    case SweepAxis::kCcr:
      return spec.ccr;
    case SweepAxis::kBeta:
      return spec.beta;
    case SweepAxis::kJobs:
      return static_cast<double>(spec.size);
    case SweepAxis::kPool:
      return static_cast<double>(spec.dynamics.initial);
    case SweepAxis::kInterval:
      return spec.dynamics.interval;
    case SweepAxis::kFraction:
      return spec.dynamics.fraction;
  }
  return 0.0;
}

void set_scenario_source(std::vector<CaseSpec>& specs,
                         std::string_view source,
                         std::string_view trace_path,
                         std::string_view archive_path) {
  // Validate eagerly so a typo'd --scenario-source or a forgotten
  // --trace/--archive fails before the sweep starts, not on the first
  // case.
  (void)traces::scenario_source(source);
  if (source == "trace" && trace_path.empty()) {
    throw std::invalid_argument(
        "scenario source 'trace' needs a trace file (--trace=path)");
  }
  if ((source == "archive" || source == "fitted") && archive_path.empty()) {
    throw std::invalid_argument(
        "scenario source '" + std::string(source) +
        "' needs an SWF/GWA log (--archive=path)");
  }
  for (CaseSpec& spec : specs) {
    spec.scenario_source = source;
    spec.trace_path = trace_path;
    spec.archive.path = archive_path;
  }
}

void set_contention_policy(std::vector<CaseSpec>& specs,
                           std::string_view policy) {
  // Validate eagerly so a typo'd --contention-policy fails before the
  // sweep starts, not on the first case's session construction.
  (void)core::ContentionPolicyRegistry::instance().create(policy);
  for (CaseSpec& spec : specs) {
    spec.contention_policy = policy;
  }
}

void set_backfill(std::vector<CaseSpec>& specs, bool backfill) {
  for (CaseSpec& spec : specs) {
    spec.backfill = backfill;
  }
}

void set_contention_aware(std::vector<CaseSpec>& specs,
                          bool contention_aware) {
  for (CaseSpec& spec : specs) {
    spec.contention_aware = contention_aware;
  }
}

std::vector<CaseSpec> build_fig8_sweep(AppKind app, SweepAxis axis,
                                       Scale scale, std::uint64_t master) {
  AHEFT_REQUIRE(app != AppKind::kRandom,
                "Fig. 8 sweeps are application studies");
  std::size_t repeats = 3;
  if (scale == Scale::kSmoke) {
    repeats = 1;
  } else if (scale == Scale::kPaper) {
    repeats = 10;
  }

  CaseSpec base;
  base.app = app;
  base.size = kBaseAppParallelism;
  base.ccr = kBaseCcr;
  base.beta = kBaseBeta;
  base.dynamics = {kBaseAppPool, kBaseInterval, kBaseFraction};

  std::vector<CaseSpec> specs;
  auto emit = [&](const CaseSpec& spec) {
    for (std::size_t inst = 0; inst < repeats; ++inst) {
      CaseSpec with_seed = spec;
      with_seed.seed = case_seed(master, with_seed, inst);
      specs.push_back(with_seed);
    }
  };

  switch (axis) {
    case SweepAxis::kCcr:
      for (const double v : kCcrValues) {
        CaseSpec s = base;
        s.ccr = v;
        emit(s);
      }
      break;
    case SweepAxis::kBeta:
      for (const double v : kBetaValues) {
        CaseSpec s = base;
        s.beta = v;
        emit(s);
      }
      break;
    case SweepAxis::kJobs:
      for (const std::size_t v : kAppParallelism) {
        CaseSpec s = base;
        s.size = v;
        emit(s);
      }
      break;
    case SweepAxis::kPool:
      for (const std::size_t v : kAppPoolSizes) {
        CaseSpec s = base;
        s.dynamics.initial = v;
        emit(s);
      }
      break;
    case SweepAxis::kInterval:
      for (const double v : kChangeIntervals) {
        CaseSpec s = base;
        s.dynamics.interval = v;
        emit(s);
      }
      break;
    case SweepAxis::kFraction:
      for (const double v : kChangeFractions) {
        CaseSpec s = base;
        s.dynamics.fraction = v;
        emit(s);
      }
      break;
  }
  return specs;
}

}  // namespace aheft::exp
