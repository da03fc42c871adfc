// The BackFi AP's transmit waveform (paper Fig. 4): after the CTS-to-SELF
// (pure airtime, modeled in mac/), the AP sends 16 us of on/off pulses
// encoding the target tag's pseudo-random wake preamble, then the normal
// WiFi PPDU destined for a WiFi client. The tag's schedule (silent,
// estimation preamble, sync, payload) runs over the PPDU.
#pragma once

#include <cstdint>

#include "dsp/types.h"
#include "phy/bits.h"
#include "wifi/ppdu.h"

namespace backfi::reader {

struct excitation_config {
  std::uint32_t tag_id = 1;
  std::size_t wake_bits = 16;           ///< wake preamble length (1 us/bit)
  std::size_t ppdu_bytes = 1500;        ///< client payload size
  wifi::wifi_rate rate = wifi::wifi_rate::mbps24;  ///< paper uses 24 Mbps
  std::uint64_t payload_seed = 1;       ///< PRNG seed for the client payload
  /// Number of back-to-back PPDUs in the excitation burst (the paper's AP
  /// "transmits 1 to 4 ms long packet"; low tag symbol rates need several).
  std::size_t n_ppdus = 1;
};

/// The assembled excitation waveform.
struct excitation {
  cvec samples;             ///< wake pulses followed by the PPDU(s)
  std::size_t ppdu_start = 0;
  std::size_t wake_end = 0; ///< nominal tag time origin
  /// Layout and payload of the first embedded WiFi packet; its waveform is
  /// samples[ppdu_start, ppdu_start + wifi::ppdu_length_samples(...)).
  wifi::ppdu_info ppdu;
  phy::bitvec wake_preamble;
};

/// Build the excitation for one backscatter opportunity. A process-wide
/// full-synthesis replay cache serves repeated configs: it holds the
/// complete waveform, keyed on (tag_id, wake_bits, rate, ppdu_bytes,
/// payload_seed, n_ppdus), so repeated-seed sweeps pay synthesis once per
/// key. Cache hits are bitwise identical to fresh synthesis. Once the
/// budget is full, a miss is only copied into the cache when the cache
/// admits it (dsp::replay_cache::admit: recent hits, or a key seen
/// before); budget BACKFI_EXCITATION_CACHE_MB (MiB, default 64, 0 disables
/// the cache).
excitation build_excitation(const excitation_config& config);

/// As build_excitation(), recycling the caller's excitation buffers across
/// calls (one per worker thread). Every field of `out` is overwritten;
/// bit-identical output.
void build_excitation_into(const excitation_config& config, excitation& out);

/// Duration [samples] of an excitation with the given parameters.
std::size_t excitation_length(const excitation_config& config);

/// Hit/miss/size counters of the full-synthesis excitation cache
/// (process-wide, cumulative). Exported as runtime.excitation_cache.*
/// gauges by the trial runner; all-zero when the cache is disabled.
struct excitation_cache_stats_snapshot {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::uint64_t refused = 0;  ///< misses the full cache did not admit
};
excitation_cache_stats_snapshot excitation_cache_stats();

}  // namespace backfi::reader
