#include "reader/excitation.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "dsp/replay_cache.h"
#include "dsp/rng.h"
#include "phy/prbs.h"
#include "wifi/preamble.h"

namespace backfi::reader {

namespace {

constexpr std::size_t samples_per_wake_bit = 20;  // 1 us at 20 MS/s

// Everything in the excitation that does not depend on the per-trial payload
// seed: the tag's wake preamble (bits + expanded on/off pulses) and the WiFi
// legacy preamble + SIGNAL symbol of each PPDU. Entries live on an immutable
// singly-linked list (same publication pattern as the dsp fft_plan cache):
// steady-state lookups are one acquire load and a short walk, misses build
// the entry under a mutex, and entries are never destroyed so references
// stay valid for the life of the process.
struct prefix_entry {
  std::uint32_t tag_id = 0;
  std::size_t wake_bits = 0;
  wifi::wifi_rate rate{};
  std::size_t ppdu_bytes = 0;
  phy::bitvec wake_preamble;
  cvec wake_samples;  ///< wake preamble expanded to 1 us on/off pulses
  cvec ppdu_prefix;   ///< legacy preamble + SIGNAL symbol for this shape
  const prefix_entry* next = nullptr;
};

std::atomic<const prefix_entry*> g_prefix_head{nullptr};
std::mutex g_prefix_mutex;

const prefix_entry& prefix_for(const excitation_config& config) {
  auto matches = [&](const prefix_entry& e) {
    return e.tag_id == config.tag_id && e.wake_bits == config.wake_bits &&
           e.rate == config.rate && e.ppdu_bytes == config.ppdu_bytes;
  };
  for (const prefix_entry* e = g_prefix_head.load(std::memory_order_acquire);
       e != nullptr; e = e->next)
    if (matches(*e)) return *e;

  std::lock_guard<std::mutex> lock(g_prefix_mutex);
  for (const prefix_entry* e = g_prefix_head.load(std::memory_order_acquire);
       e != nullptr; e = e->next)
    if (matches(*e)) return *e;

  auto entry = std::make_unique<prefix_entry>();
  entry->tag_id = config.tag_id;
  entry->wake_bits = config.wake_bits;
  entry->rate = config.rate;
  entry->ppdu_bytes = config.ppdu_bytes;
  entry->wake_preamble = phy::wake_preamble(config.tag_id, config.wake_bits);
  entry->wake_samples.reserve(entry->wake_preamble.size() * samples_per_wake_bit);
  for (std::uint8_t bit : entry->wake_preamble) {
    const cplx level = bit ? cplx{1.0, 0.0} : cplx{0.0, 0.0};
    entry->wake_samples.insert(entry->wake_samples.end(), samples_per_wake_bit,
                               level);
  }
  entry->ppdu_prefix = wifi::legacy_preamble();
  const cvec sig = wifi::signal_symbol(config.rate, config.ppdu_bytes);
  entry->ppdu_prefix.insert(entry->ppdu_prefix.end(), sig.begin(), sig.end());

  entry->next = g_prefix_head.load(std::memory_order_relaxed);
  const prefix_entry* raw = entry.release();
  g_prefix_head.store(raw, std::memory_order_release);
  return *raw;
}

// Full-synthesis replay cache on top of the prefix cache: an excitation is
// a pure function of the whole excitation_config (the per-PPDU payload rng
// is seeded from payload_seed + i and nothing else), so repeated-seed
// sweeps — perf reps, fig08/fig10 grids, PER points, wild-traffic arms —
// can replay the complete waveform instead of re-running payload
// scrambling/coding/interleaving/IFFT per trial. The entry stores the
// exact sample buffer (plus PPDU 0's metadata) the synthesis path
// produced, so hits are bitwise identical to misses by construction.
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

struct full_entry {
  cvec samples;                 ///< the complete excitation waveform
  std::size_t wake_end = 0;
  std::size_t ppdu_start = 0;
  phy::bitvec wake_preamble;
  wifi::ppdu_info ppdu;         ///< PPDU 0's layout and payload
};

using full_cache_t = dsp::replay_cache<full_key, full_entry, full_key_hash>;

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

void emit_from_entry(const full_entry& e, excitation& out,
                     dsp::workspace_stats* stats) {
  out.wake_preamble = e.wake_preamble;
  dsp::acquire(out.samples, e.samples.size(), stats);
  std::copy(e.samples.begin(), e.samples.end(), out.samples.begin());
  out.wake_end = e.wake_end;
  out.ppdu_start = e.ppdu_start;
  out.ppdu = e.ppdu;
}

void build_excitation_uncached(const excitation_config& config,
                               excitation& out, dsp::workspace_stats* stats) {
  const prefix_entry& pre = prefix_for(config);

  out.wake_preamble = pre.wake_preamble;
  dsp::acquire(out.samples, excitation_length(config), stats);
  std::copy(pre.wake_samples.begin(), pre.wake_samples.end(),
            out.samples.begin());
  out.wake_end = pre.wake_samples.size();
  out.ppdu_start = out.wake_end;

  // Unified per-PPDU loop: PPDU i draws its payload from payload_seed + i
  // (same rng, same draw order as wifi::random_ppdu — the prefix cache never
  // touches the rng, so every emitted sample is unchanged) and is
  // transmitted straight into its slice of the burst.
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
        psdu_scratch, {.rate = config.rate}, pre.ppdu_prefix,
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

void build_excitation_into(const excitation_config& config, excitation& out,
                           dsp::workspace_stats* stats) {
  full_cache_t& cache = full_cache();
  if (!cache.enabled()) {
    build_excitation_uncached(config, out, stats);
    return;
  }
  const full_key key = key_for(config);
  if (const auto hit = cache.find(key)) {
    emit_from_entry(*hit, out, stats);
    return;
  }
  build_excitation_uncached(config, out, stats);
  auto entry = std::make_shared<full_entry>();
  entry->samples = out.samples;
  entry->wake_end = out.wake_end;
  entry->ppdu_start = out.ppdu_start;
  entry->wake_preamble = out.wake_preamble;
  entry->ppdu = out.ppdu;
  const std::size_t bytes = entry->samples.size() * sizeof(cplx) +
                            entry->ppdu.payload.size() +
                            entry->wake_preamble.size() + sizeof(full_entry);
  cache.insert(key, std::move(entry), bytes);
}

excitation_cache_stats_snapshot excitation_cache_stats() {
  const auto s = full_cache().stats();
  return {s.hits, s.misses, s.evictions, s.entries, s.bytes};
}

std::size_t excitation_length(const excitation_config& config) {
  return config.wake_bits * samples_per_wake_bit +
         std::max<std::size_t>(config.n_ppdus, 1) *
             wifi::ppdu_length_samples(config.ppdu_bytes, config.rate);
}

}  // namespace backfi::reader
