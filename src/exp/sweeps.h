// Builders for the paper's experiment sweeps at three scales.
//
//  - Scale::kPaper replays the full published grids (Table 2: 500,000
//    random-DAG cases; Table 5: 10,000 configurations per application).
//  - Scale::kDefault keeps every swept value but thins instances/cross
//    terms so each bench finishes in seconds to a few minutes.
//  - Scale::kSmoke is CI-sized.
//
// Every case's seed is derived from (master seed, semantic case key), so
// adding or removing grid points never perturbs other cases.
#ifndef AHEFT_EXP_SWEEPS_H_
#define AHEFT_EXP_SWEEPS_H_

#include <string_view>
#include <vector>

#include "exp/case.h"
#include "support/env.h"

namespace aheft::exp {

/// Deterministic per-case seed from a master seed and the spec's semantic
/// identity (app, size, ccr, out_degree, beta, R, Delta, delta, instance).
[[nodiscard]] std::uint64_t case_seed(std::uint64_t master,
                                      const CaseSpec& spec,
                                      std::size_t instance);

/// §4.2 random-DAG study (feeds the overall averages and Tables 3–4).
/// When `run_dynamic` is set, every case also simulates Min-Min.
[[nodiscard]] std::vector<CaseSpec> build_random_sweep(Scale scale,
                                                       std::uint64_t master,
                                                       bool run_dynamic);

/// §4.3 application study over the Table 5 grid (feeds Table 6 and, via
/// grouping, Tables 7–8).
[[nodiscard]] std::vector<CaseSpec> build_app_sweep(AppKind app, Scale scale,
                                                    std::uint64_t master);

/// One-dimensional Fig. 8 sweep: vary `axis`, keep the other parameters at
/// the central base configuration.
enum class SweepAxis { kCcr, kBeta, kJobs, kPool, kInterval, kFraction };

[[nodiscard]] const char* to_string(SweepAxis axis);

[[nodiscard]] std::vector<CaseSpec> build_fig8_sweep(AppKind app,
                                                     SweepAxis axis,
                                                     Scale scale,
                                                     std::uint64_t master);

/// The swept value of `axis` in a spec (used as the grouping key).
[[nodiscard]] double axis_value(SweepAxis axis, const CaseSpec& spec);

/// Applies a scenario-source axis to every spec: the benches'
/// --scenario-source=NAME knob. `trace_path` feeds the "trace" source;
/// `archive_path` feeds the "archive" and "fitted" sources (--archive).
/// Throws std::invalid_argument when the source is not registered or
/// when a file-driven source is missing its path.
void set_scenario_source(std::vector<CaseSpec>& specs,
                         std::string_view source,
                         std::string_view trace_path = {},
                         std::string_view archive_path = {});

/// Applies a contention-policy axis to every spec: the benches'
/// --contention-policy=NAME knob. Throws std::invalid_argument when the
/// policy is not registered.
void set_contention_policy(std::vector<CaseSpec>& specs,
                           std::string_view policy);

/// Applies the session-level ledger backfilling flag to every spec: the
/// benches' --backfill knob.
void set_backfill(std::vector<CaseSpec>& specs, bool backfill);

/// Applies the contention-aware planning flag to every spec: the
/// benches' --contention-aware knob (planning passes fit into the
/// session ledger's availability snapshot).
void set_contention_aware(std::vector<CaseSpec>& specs,
                          bool contention_aware);

}  // namespace aheft::exp

#endif  // AHEFT_EXP_SWEEPS_H_
