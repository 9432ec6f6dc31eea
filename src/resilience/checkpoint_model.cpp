#include "resilience/checkpoint_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aheft::resilience {

double daly_interval(double write_cost, double mtbf) {
  if (write_cost <= 0.0 || mtbf <= 0.0) {
    throw std::invalid_argument(
        "daly_interval needs positive write cost and MTBF");
  }
  if (write_cost >= mtbf / 2.0) {
    // Dumps this expensive relative to the failure rate degenerate to
    // checkpointing once per expected failure.
    return mtbf;
  }
  const double ratio = write_cost / (2.0 * mtbf);
  return std::sqrt(2.0 * write_cost * mtbf) *
             (1.0 + std::sqrt(ratio) / 3.0 + ratio / 9.0) -
         write_cost;
}

double effective_interval(const CheckpointModel& model) {
  if (!model.enabled) {
    throw std::invalid_argument(
        "effective_interval of a disabled checkpoint model");
  }
  return model.interval > 0.0 ? model.interval
                              : daly_interval(model.write_cost, model.mtbf);
}

double segment_occupancy(const CheckpointModel& model, double work) {
  if (work <= 0.0) {
    return 0.0;
  }
  if (!model.enabled) {
    return work;
  }
  const double interval = effective_interval(model);
  // Writes between cycles only: a run of <= one interval writes nothing,
  // and completion (not a write) ends the final cycle.
  const double cycles = std::ceil(work / interval);
  const double writes = std::max(0.0, cycles - 1.0);
  return work + writes * model.write_cost;
}

SegmentProgress segment_progress(const CheckpointModel& model, double elapsed,
                                 double work) {
  SegmentProgress progress;
  if (elapsed <= 0.0 || work <= 0.0) {
    return progress;
  }
  elapsed = std::min(elapsed, segment_occupancy(model, work));
  if (!model.enabled) {
    progress.lost = elapsed;
    return progress;
  }
  const double interval = effective_interval(model);
  const double cycle = interval + model.write_cost;
  const double max_writes =
      std::max(0.0, std::ceil(work / interval) - 1.0);
  // Checkpoints completed before the interruption; the image on disk
  // holds `completed * interval` units of work.
  const double completed =
      std::min(std::floor(elapsed / cycle), max_writes);
  progress.retained = completed * interval;
  progress.overhead = completed * model.write_cost;
  progress.lost = elapsed - progress.retained - progress.overhead;
  return progress;
}

void validate(const ResilienceConfig& config) {
  const CheckpointModel& model = config.checkpoint;
  if (model.enabled) {
    if (!config.active()) {
      throw std::invalid_argument(
          "a checkpoint model needs a departure action other than kError "
          "or preemption: nothing else interrupts a job");
    }
    if (model.write_cost <= 0.0) {
      throw std::invalid_argument(
          "an enabled checkpoint model needs a positive write cost");
    }
    if (model.read_cost < 0.0) {
      throw std::invalid_argument("checkpoint read cost must be >= 0");
    }
    if (model.interval <= 0.0 && model.mtbf <= 0.0) {
      throw std::invalid_argument(
          "an enabled checkpoint model needs an explicit interval or a "
          "positive MTBF to derive one");
    }
    if (model.interval < 0.0) {
      throw std::invalid_argument("checkpoint interval must be >= 0");
    }
  }
}

}  // namespace aheft::resilience
