#include "reader/excitation.h"

#include <algorithm>
#include <memory>

#include "dsp/replay_cache.h"
#include "dsp/rng.h"
#include "phy/prbs.h"
#include "tag/wake_detector.h"

namespace backfi::reader {

namespace {

// Full-synthesis replay cache: an excitation is a pure function of the
// whole excitation_config (the per-PPDU payload rng is seeded from
// payload_seed + i and nothing else), so repeated-seed sweeps — perf reps,
// fig08/fig10 grids, PER points, wild-traffic arms — can replay the
// complete waveform instead of re-running the wake pulses, preamble and
// payload scrambling/coding/interleaving/IFFT per trial. The entry is the
// excitation the synthesis path produced, so hits are bitwise identical to
// misses by construction.
struct full_key {
  std::uint32_t tag_id = 0;
  std::size_t wake_bits = 0;
  wifi::wifi_rate rate{};
  std::size_t ppdu_bytes = 0;
  std::uint64_t payload_seed = 0;
  std::size_t n_ppdus = 0;
  bool operator==(const full_key&) const = default;
};

struct full_key_hash {
  std::size_t operator()(const full_key& k) const {
    std::uint64_t h = dsp::hash_mix_u64(0, k.tag_id);
    h = dsp::hash_mix_u64(h, k.wake_bits);
    h = dsp::hash_mix_u64(h, static_cast<std::uint64_t>(k.rate));
    h = dsp::hash_mix_u64(h, k.ppdu_bytes);
    h = dsp::hash_mix_u64(h, k.payload_seed);
    h = dsp::hash_mix_u64(h, k.n_ppdus);
    return static_cast<std::size_t>(h);
  }
};

using full_cache_t = dsp::replay_cache<full_key, excitation, full_key_hash>;

full_cache_t& full_cache() {
  static full_cache_t cache(
      dsp::cache_budget_bytes("BACKFI_EXCITATION_CACHE_MB", 64));
  return cache;
}

full_key key_for(const excitation_config& config) {
  return {config.tag_id,      config.wake_bits,
          config.rate,        config.ppdu_bytes,
          config.payload_seed, std::max<std::size_t>(config.n_ppdus, 1)};
}

void build_excitation_uncached(const excitation_config& config,
                               excitation& out) {
  out.wake_preamble = phy::wake_preamble(config.tag_id, config.wake_bits);
  out.samples.resize(excitation_length(config));
  // Wake preamble as 1 us on/off pulses.
  for (std::size_t b = 0; b < out.wake_preamble.size(); ++b)
    std::fill_n(out.samples.begin() + b * tag::samples_per_wake_bit,
                tag::samples_per_wake_bit,
                out.wake_preamble[b] ? cplx{1.0, 0.0} : cplx{0.0, 0.0});
  out.wake_end = out.wake_preamble.size() * tag::samples_per_wake_bit;
  out.ppdu_start = out.wake_end;

  // PPDU i draws its payload from payload_seed + i (same rng, same draw
  // order as wifi::random_ppdu) and is transmitted straight into its slice
  // of the burst.
  const std::size_t n_ppdus = std::max<std::size_t>(config.n_ppdus, 1);
  const std::size_t ppdu_len =
      wifi::ppdu_length_samples(config.ppdu_bytes, config.rate);
  thread_local std::vector<std::uint8_t> psdu_scratch;
  thread_local wifi::ppdu_info extra_info;
  for (std::size_t i = 0; i < n_ppdus; ++i) {
    dsp::rng gen(config.payload_seed + i);
    psdu_scratch.resize(config.ppdu_bytes);
    for (auto& b : psdu_scratch)
      b = static_cast<std::uint8_t>(gen.uniform_int(256));
    wifi::transmit_into(
        psdu_scratch, {.rate = config.rate},
        std::span<cplx>(out.samples).subspan(out.ppdu_start + i * ppdu_len, ppdu_len),
        i == 0 ? out.ppdu : extra_info);
  }
}

}  // namespace

excitation build_excitation(const excitation_config& config) {
  excitation out;
  build_excitation_into(config, out);
  return out;
}

void build_excitation_into(const excitation_config& config, excitation& out) {
  full_cache_t& cache = full_cache();
  if (!cache.enabled()) {
    build_excitation_uncached(config, out);
    return;
  }
  const full_key key = key_for(config);
  if (const auto hit = cache.find(key)) {
    out = *hit;  // copy-assignment reuses out's buffers
    return;
  }
  build_excitation_uncached(config, out);
  // The entry is a copy of `out`; a miss the full cache refuses skips it.
  const std::size_t bytes = out.samples.size() * sizeof(cplx) +
                            out.ppdu.payload.size() +
                            out.wake_preamble.size() + sizeof(excitation);
  if (cache.admit(key, bytes))
    cache.insert(key, std::make_shared<excitation>(out), bytes);
}

excitation_cache_stats_snapshot excitation_cache_stats() {
  const auto s = full_cache().stats();
  return {s.hits, s.misses, s.evictions, s.entries, s.bytes, s.refused};
}

std::size_t excitation_length(const excitation_config& config) {
  return config.wake_bits * tag::samples_per_wake_bit +
         std::max<std::size_t>(config.n_ppdus, 1) *
             wifi::ppdu_length_samples(config.ppdu_bytes, config.rate);
}

}  // namespace backfi::reader
