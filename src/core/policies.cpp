#include "core/policies.h"

#include <algorithm>

namespace aheft::core {

std::string to_string(SlotPolicy policy) {
  switch (policy) {
    case SlotPolicy::kInsertion:
      return "insertion";
    case SlotPolicy::kEndOfQueue:
      return "end-of-queue";
  }
  return "unknown";
}

std::string to_string(RunningJobPolicy policy) {
  switch (policy) {
    case RunningJobPolicy::kRestartable:
      return "restartable";
    case RunningJobPolicy::kKeepRunning:
      return "keep-running";
  }
  return "unknown";
}

std::string to_string(TransferPolicy policy) {
  switch (policy) {
    case TransferPolicy::kRetransmitFromClock:
      return "retransmit-from-clock";
    case TransferPolicy::kEagerReplicate:
      return "eager-replicate";
    case TransferPolicy::kPrestagedArrivals:
      return "prestaged-arrivals";
  }
  return "unknown";
}

TransferWindow transfer_window(TransferPolicy policy, sim::Time now,
                               sim::Time produced, sim::Time target_arrival,
                               double cost) {
  switch (policy) {
    case TransferPolicy::kRetransmitFromClock:
      // "The file transmission can not be earlier than clock."
      break;
    case TransferPolicy::kEagerReplicate: {
      // The copy left at max(AFT, target arrival).
      const sim::Time start = std::max(produced, target_arrival);
      return {start, start + cost};
    }
    case TransferPolicy::kPrestagedArrivals: {
      // A joining resource syncs previously produced files on arrival.
      const sim::Time arrival = std::max(produced + cost, target_arrival);
      return {arrival - cost, arrival};
    }
  }
  return {now, now + cost};
}

}  // namespace aheft::core
