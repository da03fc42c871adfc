// The BackFi tag: wake -> silent -> preamble -> sync -> payload
// backscatter schedule (paper Fig. 4), producing the per-sample reflection
// coefficient that multiplies the incident excitation signal.
//
// Timeline after the tag's wake detector fires (its local time origin):
//   [ silent 16 us ]           no reflection; reader estimates h_env
//   [ estimation preamble ]    constant phase, 32 us (or 96 us long mode);
//                              reader solves for h_f * h_b
//   [ sync word ]              known PSK symbols; reader finds the symbol
//                              boundary despite detection jitter
//   [ payload ]                CRC-protected, convolutionally coded n-PSK
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "dsp/types.h"
#include "phy/bits.h"
#include "tag/energy_model.h"
#include "tag/phase_modulator.h"

namespace backfi::tag {

/// Why a tag_config is unusable (first violation, as sim::config_error);
/// the tag_device constructor rejects invalid configs up front.
enum class config_error : std::uint8_t {
  none,
  bad_symbol_rate,          ///< not a whole number >= 1 of samples/symbol
  unsupported_coding,       ///< coding other than rate 1/2 or 2/3
  frame_not_representable,  ///< frame offsets overflow std::size_t
};

/// Display name, e.g. "bad_symbol_rate".
const char* to_string(config_error error);

struct tag_config {
  std::uint32_t id = 1;
  tag_rate_config rate;
  double insertion_loss_db = 8.0;
  std::size_t silent_us = 16;     ///< paper: 16 us silent period
  std::size_t preamble_us = 32;   ///< 32 us default, 96 us long mode (Fig. 8)
  std::size_t sync_symbols = 16;  ///< known symbols for timing recovery

  /// First violated constraint, or config_error::none when usable.
  config_error validate() const;
};

/// Throw std::invalid_argument naming `where` and the violated constraint
/// when the config is invalid (called by the tag_device constructor).
void validate_or_throw(const tag_config& config, const char* where);

/// Largest payload (bits, before the CRC-32) a tag packet can describe. No
/// capture can hold a longer one: a capture has fewer than SIZE_MAX / 16
/// samples, and a tag symbol of at least one sample carries at most 4 coded
/// bits, never fewer than the information bits it codes. Up to this size
/// every coded length and symbol count is representable.
inline constexpr std::size_t max_payload_bits =
    std::numeric_limits<std::size_t>::max() / 4;

/// Where each part of the timeline above starts, as absolute sample indices
/// (the silent period is [origin, preamble_start)).
struct frame {
  std::size_t preamble_start = 0;
  std::size_t sync_start = 0;
  std::size_t data_start = 0;
  std::size_t data_end = 0;  ///< first sample after the last payload symbol
  std::size_t samples_per_symbol = 0;
  std::size_t payload_symbols = 0;  ///< payload + CRC-32, coded and padded
};

/// The frame of `payload_bits` for a tag that woke at `origin`: the tag
/// emits it, the decoder reads it, and the simulators size their windows by
/// it. std::nullopt above max_payload_bits or when an index does not fit
/// std::size_t. `config` must pass validate()'s rate checks.
std::optional<frame> frame_layout(const tag_config& config,
                                  std::size_t payload_bits,
                                  std::size_t origin = 0);

/// The reflection waveform and bookkeeping of one backscatter transmission.
struct tag_transmission {
  /// Per-sample reflection coefficient over the whole excitation timeline
  /// (zero while silent/asleep). The received backscatter contribution is
  /// ((x * h_f) .* reflection) * h_b.
  cvec reflection;
  std::size_t silent_start = 0;
  std::size_t preamble_start = 0;
  std::size_t sync_start = 0;
  std::size_t data_start = 0;
  std::size_t data_end = 0;           ///< first sample after the last symbol
  std::size_t samples_per_symbol = 0;
  std::size_t n_payload_symbols = 0;
  phy::bitvec info_bits;              ///< payload + CRC as encoded
  /// Labels of the emitted payload symbols, in order (the coded, padded
  /// stream read bits_per_symbol bits at a time, MSB first); the reader's
  /// raw symbol-error count compares its slices against them.
  std::vector<std::uint32_t> payload_labels;
  double energy_pj = 0.0;             ///< EPB model x information bits
  std::uint64_t switch_toggles = 0;   ///< from the switch-tree model
};

class tag_device {
 public:
  explicit tag_device(const tag_config& config);

  const tag_config& config() const { return config_; }

  /// Gray-coded labels of the sync word (deterministic per tag id).
  std::vector<std::uint32_t> sync_labels() const;

  /// Build the reflection waveform for `payload` bits. `time_origin` is the
  /// sample index (in the excitation timeline of `total_samples` samples)
  /// where the tag's wake detector fired; the frame_layout runs from there
  /// and symbols that do not fit before `total_samples` are dropped (the tag
  /// "stops when its detection logic signals the end of the transmission").
  /// Throws std::invalid_argument when that frame is not representable.
  tag_transmission backscatter(std::span<const std::uint8_t> payload,
                               std::size_t total_samples,
                               std::size_t time_origin) const;

  /// As backscatter(), reusing the caller's tag_transmission so the
  /// capture-length reflection buffer is recycled across calls. Every field
  /// of `out` is overwritten; results are bit-identical to backscatter().
  void backscatter_into(std::span<const std::uint8_t> payload,
                        std::size_t total_samples, std::size_t time_origin,
                        tag_transmission& out) const;

  /// Number of payload symbols required for `n_payload_bits` (with CRC-32,
  /// coding and tail included). Throws std::invalid_argument above
  /// max_payload_bits.
  std::size_t payload_symbols(std::size_t n_payload_bits) const;

  /// Samples per tag symbol at the configured symbol rate (must divide the
  /// 20 MS/s sample rate exactly).
  std::size_t samples_per_symbol() const;

 private:
  tag_config config_;
};

}  // namespace backfi::tag
