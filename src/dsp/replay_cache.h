// Bounded, thread-safe replay cache for deterministic synthesis stages.
//
// The Monte-Carlo evaluators re-run the same (point, trial) grid many
// times — perf reps, fig08/fig10 sweeps, wild-traffic arms — and several
// expensive synthesis stages are pure functions of a small key (the RNG
// state entering an AWGN pass; the payload seed of an excitation). A
// replay_cache memoizes those stages under a hard byte budget so repeated
// keys pay the synthesis exactly once.
//
// Bit-identity contract: a cache NEVER changes values — the caller stores
// the exact buffer the non-cached path would have produced (plus whatever
// side state, e.g. the RNG end position, is needed to leave the world as
// the non-cached path would). Hit and miss paths are therefore bitwise
// indistinguishable, which is what lets the trial evaluators keep their
// pinned literals and thread-count determinism while sharing one
// process-wide cache across lanes.
//
// Concurrency: lookups take a shared lock and bump an approximate-LRU
// tick through std::atomic_ref (entries never move under a shared lock;
// rehashes only happen under the unique lock inserts take). Inserts are
// first-writer-wins — a racing duplicate insert is dropped, which is safe
// precisely because duplicates are bit-identical by the contract above.
// admit() takes no map lock: its counters are relaxed atomics and its
// ring of refused keys has a mutex of its own.
//
// Admission: a miss costs its caller a capture-sized copy into the new
// entry, which only pays off if the key comes back. So callers ask
// admit() on a miss, before building the entry, and take their plain
// uncached path when refused. A miss is admitted only on evidence of
// reuse: some lookup has hit within the last budget's worth of missed
// bytes (the cache paid off within its last turnover), or the key was
// refused before (a fixed ring of refused key hashes remembers it; this
// is its second sighting). The gate starts closed: a cache that has never
// hit counts as having missed a full budget. A stream of never-repeated
// keys (first evaluations of fresh seeds) therefore never inserts, while
// a replaying workload opens the gate with its first hits and keeps it
// open. The rule reads only what the cache observes.
//
// Budgets come from environment variables (see cache_budget_bytes); a
// budget of 0 disables the cache entirely, turning find/admit/insert
// into cheap no-ops so A/B runs can bisect cache effects.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "dsp/env.h"

namespace backfi::dsp {

/// Byte budget for one cache: `env_name` in whole MiB (0 disables),
/// falling back to `default_mb` when unset or unparsable (see env_size)
/// or when the byte count would overflow a size_t.
inline std::size_t cache_budget_bytes(const char* env_name,
                                      std::size_t default_mb) {
  const std::optional<std::size_t> mb = env_size(env_name);
  if (!mb || *mb > (SIZE_MAX >> 20)) return default_mb << 20;
  return *mb << 20;
}

/// A replay_cache's cumulative counters and current size (all zero when the
/// cache is disabled).
struct replay_cache_stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::uint64_t refused = 0;  ///< misses admit() turned away
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class replay_cache {
 public:
  explicit replay_cache(std::size_t max_bytes)
      : max_bytes_(max_bytes), missed_since_hit_(max_bytes) {}

  bool enabled() const { return max_bytes_ > 0; }
  std::size_t max_bytes() const { return max_bytes_; }

  /// Look up `key`; returns the stored value (shared, immutable) or null.
  /// Counts a hit or a miss; with the cache disabled neither is counted
  /// (stats then read all-zero, signalling "cache off" to the gauges).
  std::shared_ptr<const Value> find(const Key& key) {
    if (!enabled()) return nullptr;
    std::shared_lock lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    std::atomic_ref<std::uint64_t>(it->second.last_tick)
        .store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (missed_since_hit_.load(std::memory_order_relaxed) != 0)
      missed_since_hit_.store(0, std::memory_order_relaxed);
    return it->second.value;
  }

  /// Ask, after find(key) missed and before building the value, whether
  /// an entry of `bytes` for `key` should be built and inserted. True
  /// only if a lookup has hit within the last max_bytes() of missed bytes
  /// (never, before the first hit) or `key` was refused before (its
  /// second sighting). A false answer is counted in stats().refused; the
  /// caller then takes its uncached path and inserts nothing. Values
  /// larger than the whole budget are always refused (insert would drop
  /// them), and so is everything when the cache is disabled.
  bool admit(const Key& key, std::size_t bytes) {
    if (!enabled() || bytes > max_bytes_) return false;
    const std::size_t missed =
        missed_since_hit_.fetch_add(bytes, std::memory_order_relaxed);
    if (missed < max_bytes_) return true;
    const std::size_t h = Hash{}(key);
    std::lock_guard lock(ring_mutex_);
    // No early exit, so -O3 vectorises the scan; d | -d has bit 63 set
    // iff d != 0 (SSE2 has no 64-bit lane compare).
    const std::size_t filled = std::min(ring_count_, refused_ring_.size());
    std::uint64_t none = 1;
    for (std::size_t i = 0; i < filled; ++i) {
      const std::uint64_t d = refused_ring_[i] ^ h;
      none &= (d | (0 - d)) >> 63;
    }
    if (!none) return true;
    refused_ring_[ring_count_ % refused_ring_.size()] = h;
    ++ring_count_;
    refused_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Insert `key` -> `value` accounting `bytes` against the budget,
  /// evicting approximate-LRU entries as needed. First writer wins; a
  /// value larger than the whole budget is dropped.
  void insert(const Key& key, std::shared_ptr<const Value> value,
              std::size_t bytes) {
    if (!enabled() || bytes > max_bytes_) return;
    std::unique_lock lock(mutex_);
    const auto [it, inserted] = map_.try_emplace(key);
    if (!inserted) return;  // racing duplicate: bit-identical, keep first
    it->second.value = std::move(value);
    it->second.bytes = bytes;
    it->second.last_tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    while (bytes_.load(std::memory_order_relaxed) > max_bytes_ &&
           map_.size() > 1) {
      auto oldest = map_.end();
      for (auto e = map_.begin(); e != map_.end(); ++e) {
        if (e == it) continue;  // never evict the entry just inserted
        if (oldest == map_.end() || e->second.last_tick < oldest->second.last_tick)
          oldest = e;
      }
      if (oldest == map_.end()) break;
      bytes_.fetch_sub(oldest->second.bytes, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      map_.erase(oldest);
    }
  }

  replay_cache_stats stats() const {
    std::shared_lock lock(mutex_);
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed),
            evictions_.load(std::memory_order_relaxed), map_.size(),
            bytes_.load(std::memory_order_relaxed),
            refused_.load(std::memory_order_relaxed)};
  }

  /// Drop every entry (tests; stats counters are kept).
  void clear() {
    std::unique_lock lock(mutex_);
    map_.clear();
    bytes_.store(0, std::memory_order_relaxed);
  }

 private:
  struct entry {
    std::shared_ptr<const Value> value;
    std::size_t bytes = 0;
    std::uint64_t last_tick = 0;  // via atomic_ref under the shared lock
  };

  const std::size_t max_bytes_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<Key, entry, Hash> map_;
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> bytes_{0};
  // Admission state: bytes of the misses admit() saw since the last hit
  // (a full budget before the first one), and the hashes of the last
  // refused keys (a hash collision only admits a first sighting early,
  // never changes a value).
  std::atomic<std::size_t> missed_since_hit_;
  std::atomic<std::uint64_t> refused_{0};
  std::mutex ring_mutex_;
  std::array<std::size_t, 4096> refused_ring_{};
  std::size_t ring_count_ = 0;  // refusals recorded, guarded by ring_mutex_
};

/// splitmix64-style word mixer for composing cache-key hashes.
inline std::uint64_t hash_mix_u64(std::uint64_t h, std::uint64_t word) {
  h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

}  // namespace backfi::dsp
