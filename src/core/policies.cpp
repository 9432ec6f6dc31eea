#include "core/policies.h"

#include <algorithm>

namespace aheft::core {

TransferWindow transfer_window(TransferPolicy policy, sim::Time now,
                               sim::Time produced, sim::Time target_arrival,
                               double cost) {
  switch (policy) {
    case TransferPolicy::kRetransmitFromClock:
      // "The file transmission can not be earlier than clock."
      break;
    case TransferPolicy::kPrestagedArrivals: {
      // A joining resource syncs previously produced files on arrival.
      const sim::Time arrival = std::max(produced + cost, target_arrival);
      return {arrival - cost, arrival};
    }
  }
  return {now, now + cost};
}

}  // namespace aheft::core
