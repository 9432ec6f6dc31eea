// ScenarioSource backends over real-workload archives.
//
//   archive  replays a parsed SWF/GWA log: the pool is sized from the
//            log's MaxNodes/MaxProcs headers (or the machines knob), the
//            archive's processor-utilization timeline becomes bucketed
//            background-load segments, and each usable job becomes a
//            workflow-arrival record — run_workflow_stream then replays
//            a production trace instead of a synthetic stream.
//   fitted   fits the archive's marginals (fit_archive) and generates an
//            unbounded, seeded, statistically-faithful stream from them:
//            heavy-tailed runtimes, diurnal arrivals, bag-of-task bursts.
//
// Both read ScenarioRequest::archive (traces::ArchiveParams). The
// traces layer's table of built-in sources holds one of each, which keeps
// the archive machinery out of the traces layer proper.
#ifndef AHEFT_ARCHIVE_ARCHIVE_SOURCE_H_
#define AHEFT_ARCHIVE_ARCHIVE_SOURCE_H_

#include <memory>

#include "traces/scenario_source.h"

namespace aheft::archive {

/// The `archive` replay backend.
[[nodiscard]] std::unique_ptr<traces::ScenarioSource> make_archive_source();
/// The `fitted` generator backend.
[[nodiscard]] std::unique_ptr<traces::ScenarioSource> make_fitted_source();

}  // namespace aheft::archive

#endif  // AHEFT_ARCHIVE_ARCHIVE_SOURCE_H_
