#include "channel/awgn.h"

#include <bit>
#include <cmath>
#include <memory>

#include "channel/pathloss.h"
#include "dsp/math_util.h"
#include "dsp/replay_cache.h"
#include "dsp/vec_ops.h"

namespace backfi::channel {

namespace {

// The replay cache stores the *pre-amplitude* unit-power noise vector plus
// the RNG state the generating pass ended at. Keying on the entering RNG
// state (not the seed) makes correctness structural: two lookups can only
// collide if the full xoshiro256++ state, spare flag, and spare value all
// match, in which case the non-cached path would have produced the exact
// same draws anyway. The amplitude stays outside the cache, so sweeps that
// vary noise power across points still share entries.
struct noise_key {
  dsp::rng::state_snapshot snap;
  std::size_t len = 0;
  bool operator==(const noise_key&) const = default;
};

struct noise_key_hash {
  std::size_t operator()(const noise_key& k) const {
    std::uint64_t h = 0;
    for (const std::uint64_t w : k.snap.state) h = dsp::hash_mix_u64(h, w);
    h = dsp::hash_mix_u64(h, k.snap.have_spare ? 1 : 0);
    h = dsp::hash_mix_u64(h, std::bit_cast<std::uint64_t>(k.snap.spare));
    h = dsp::hash_mix_u64(h, static_cast<std::uint64_t>(k.len));
    return static_cast<std::size_t>(h);
  }
};

struct noise_entry {
  /// Unit-power complex Gaussians as 2 * len interleaved re/im doubles,
  /// exactly the z = complex_gaussian() values the generating pass added.
  /// Written once by the miss pass, so never zero-filled first.
  std::unique_ptr<double[]> z;
  dsp::rng::state_snapshot end;  ///< stream position after generating z
};

using noise_cache_t = dsp::replay_cache<noise_key, noise_entry, noise_key_hash>;

noise_cache_t& noise_cache() {
  static noise_cache_t cache(
      dsp::cache_budget_bytes("BACKFI_NOISE_CACHE_MB", 64));
  return cache;
}

}  // namespace

void add_awgn(std::span<cplx> x, double noise_power, dsp::rng& gen) {
  // Documented contract: non-positive power consumes zero draws.
  if (noise_power <= 0.0 || x.empty()) return;
  const double amp = std::sqrt(noise_power);

  noise_cache_t& cache = noise_cache();
  if (!cache.enabled()) {
    gen.add_scaled_complex_gaussian(x, amp);
    return;
  }

  const noise_key key{gen.save(), x.size()};
  if (const auto hit = cache.find(key)) {
    // x[i] += amp * z[i] — the same two multiplies per component the
    // generating pass performs (z[i] holds the scale*g products), so hit
    // and miss results are bitwise identical.
    dsp::add_scaled_in_place(
        x, std::span<const double>(hit->z.get(), 2 * x.size()), amp);
    gen.restore(hit->end);
    return;
  }

  // Miss the cache refuses (full, and no replay lately): the plain pass,
  // with no record to write.
  const std::size_t bytes = x.size() * sizeof(cplx) + sizeof(noise_entry);
  if (!cache.admit(key, bytes)) {
    gen.add_scaled_complex_gaussian(x, amp);
    return;
  }

  // Admitted miss: one pass draws, records and adds, exactly as the
  // no-cache path.
  auto entry = std::make_shared<noise_entry>();
  entry->z = std::make_unique_for_overwrite<double[]>(2 * x.size());
  gen.add_scaled_complex_gaussian(
      x, amp, std::span<double>(entry->z.get(), 2 * x.size()));
  entry->end = gen.save();
  cache.insert(key, std::move(entry), bytes);
}

noise_cache_stats awgn_cache_stats() {
  const auto s = noise_cache().stats();
  return {s.hits, s.misses, s.evictions, s.entries, s.bytes, s.refused};
}

double normalized_noise_power(double tx_power_dbm, double bandwidth_hz,
                              double noise_figure_db) {
  const double floor_dbm = noise_floor_dbm(bandwidth_hz, noise_figure_db);
  return dsp::from_db(floor_dbm - tx_power_dbm);
}

}  // namespace backfi::channel
