// The mac.arq_* and mac.coding.* counters of a collector, for the tests
// that pin what the link supervisor decided over a whole polling arm.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>

#include "obs/collector.h"

namespace backfi::sim {

// The supervisor's and the coded ladder's counters, in catalogue order.
inline constexpr obs::probe kMacCounters[] = {
    obs::probe::arq_state_transitions,   obs::probe::arq_retries,
    obs::probe::arq_fallbacks,           obs::probe::arq_probe_ups,
    obs::probe::arq_recoveries,          obs::probe::arq_suspensions,
    obs::probe::arq_deferred_polls,      obs::probe::coding_symbols_delivered,
    obs::probe::coding_symbols_erased,   obs::probe::coding_erasure_backoffs,
    obs::probe::coding_blocks_decoded,   obs::probe::coding_repair_rounds,
    obs::probe::coding_blocks_abandoned,
};
using mac_counts = std::array<std::uint64_t, std::size(kMacCounters)>;

inline mac_counts read_mac_counters(const obs::collector& collector) {
  mac_counts counts{};
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts[i] = collector.registry().counter_at(kMacCounters[i]).value;
  return counts;
}

}  // namespace backfi::sim
