#include "dsp/replay_cache.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace backfi::dsp {
namespace {

struct key {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const key&) const = default;
};

struct key_hash {
  std::size_t operator()(const key& k) const {
    return static_cast<std::size_t>(hash_mix_u64(hash_mix_u64(0, k.a), k.b));
  }
};

using cache = replay_cache<key, std::vector<int>, key_hash>;

TEST(ReplayCacheTest, FindAfterInsertReturnsSameObject) {
  cache c(1 << 20);
  EXPECT_EQ(c.find({1, 2}), nullptr);
  auto value = std::make_shared<const std::vector<int>>(std::vector<int>{1, 2, 3});
  c.insert({1, 2}, value, 64);
  const auto hit = c.find({1, 2});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), value.get());
  const auto s = c.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 64u);
}

TEST(ReplayCacheTest, FirstWriterWins) {
  cache c(1 << 20);
  auto first = std::make_shared<const std::vector<int>>(std::vector<int>{1});
  auto second = std::make_shared<const std::vector<int>>(std::vector<int>{2});
  c.insert({7, 7}, first, 16);
  c.insert({7, 7}, second, 16);
  EXPECT_EQ(c.find({7, 7}).get(), first.get());
  EXPECT_EQ(c.stats().entries, 1u);
  EXPECT_EQ(c.stats().bytes, 16u);
}

TEST(ReplayCacheTest, EvictsLeastRecentlyUsedUnderBudget) {
  cache c(100);
  auto value = std::make_shared<const std::vector<int>>();
  c.insert({1, 0}, value, 40);
  c.insert({2, 0}, value, 40);
  EXPECT_NE(c.find({1, 0}), nullptr);  // touch 1 so 2 is the LRU entry
  c.insert({3, 0}, value, 40);         // over budget: evict key 2
  EXPECT_NE(c.find({1, 0}), nullptr);
  EXPECT_EQ(c.find({2, 0}), nullptr);
  EXPECT_NE(c.find({3, 0}), nullptr);
  const auto s = c.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, 100u);
}

TEST(ReplayCacheTest, OversizedValueIsDropped) {
  cache c(100);
  auto value = std::make_shared<const std::vector<int>>();
  c.insert({1, 0}, value, 1000);
  EXPECT_EQ(c.find({1, 0}), nullptr);
  EXPECT_EQ(c.stats().entries, 0u);
}

TEST(ReplayCacheTest, DisabledCacheIsInert) {
  cache c(0);
  EXPECT_FALSE(c.enabled());
  auto value = std::make_shared<const std::vector<int>>();
  c.insert({1, 0}, value, 8);
  EXPECT_EQ(c.find({1, 0}), nullptr);
  const auto s = c.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(ReplayCacheTest, ConcurrentFindersAndInsertersSurvive) {
  cache c(1 << 16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < 500; ++i) {
        const key k{static_cast<std::uint64_t>(i % 37), 0};
        if (!c.find(k)) {
          auto value = std::make_shared<const std::vector<int>>(
              std::vector<int>{i % 37});
          c.insert(k, value, 32);
        }
        const auto hit = c.find(k);
        if (hit) {
          EXPECT_EQ(hit->at(0), i % 37) << "thread " << t;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(c.stats().entries, 37u);
}

// The caller protocol of add_awgn and build_excitation_into: find, and on
// a miss ask admit before building and inserting. Returns true on a hit.
bool lookup(cache& c, const key& k, std::size_t bytes) {
  if (c.find(k)) return true;
  if (c.admit(k, bytes))
    c.insert(k, std::make_shared<const std::vector<int>>(), bytes);
  return false;
}

TEST(ReplayCacheTest, FreshKeysAreAdmittedOnlyOnEvidenceOfReuse) {
  cache c(100);
  // The gate starts closed: never-repeated keys into an empty cache are
  // all refused, and nothing is held for them.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_FALSE(c.find({i, 0})) << i;
    EXPECT_FALSE(c.admit({i, 0}, 10)) << i;
  }
  auto s = c.stats();
  EXPECT_EQ(s.refused, 1000u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);

  // A key's second sighting is admitted.
  EXPECT_FALSE(c.find({999, 0}));
  EXPECT_TRUE(c.admit({999, 0}, 10));
  c.insert({999, 0}, std::make_shared<const std::vector<int>>(), 10);

  // A hit opens the gate: fresh keys are admitted at their first sighting
  // for a budget's worth of missed bytes (ten 10-byte misses) ...
  EXPECT_TRUE(c.find({999, 0}));
  for (std::uint64_t i = 5000; i < 5010; ++i) {
    EXPECT_FALSE(c.find({i, 0})) << i;
    EXPECT_TRUE(c.admit({i, 0}, 10)) << "after a hit: key " << i;
    c.insert({i, 0}, std::make_shared<const std::vector<int>>(), 10);
  }
  s = c.stats();
  EXPECT_EQ(s.refused, 1000u);
  EXPECT_EQ(s.entries, 10u);
  EXPECT_EQ(s.evictions, 1u);

  // ... and with no hit since, fresh keys are refused again.
  for (std::uint64_t i = 5010; i < 5020; ++i) {
    EXPECT_FALSE(c.find({i, 0})) << i;
    EXPECT_FALSE(c.admit({i, 0}, 10)) << i;
  }
  s = c.stats();
  EXPECT_EQ(s.refused, 1010u);
  EXPECT_EQ(s.entries, 10u);

  // Oversized values and a disabled cache are never admitted.
  EXPECT_FALSE(c.admit({6000, 0}, 101));
  cache off(0);
  EXPECT_FALSE(off.admit({1, 0}, 1));
}

TEST(ReplayCacheTest, RefusedKeyIsAdmittedOnItsSecondSighting) {
  cache c(100);
  for (std::uint64_t i = 0; i < 30; ++i) lookup(c, {i, 0}, 10);
  EXPECT_FALSE(c.find({77, 7}));
  EXPECT_FALSE(c.admit({77, 7}, 10));
  EXPECT_FALSE(c.find({77, 7}));
  EXPECT_TRUE(c.admit({77, 7}, 10));
  c.insert({77, 7}, std::make_shared<const std::vector<int>>(), 10);
  EXPECT_TRUE(c.find({77, 7}));
}

// The fault campaign's lookup pattern: blocks of 60 fresh seeds, each
// replayed by 9 cells (cell-major), through a cache that holds fewer than
// two blocks. Every block turns the whole budget over. Against a cache
// that admits every miss, admission costs only the first block's first
// cell: the closed gate refuses those 60 first sightings, their second
// sightings are admitted, and the hits that follow keep the gate open.
TEST(ReplayCacheTest, CampaignTraceLosesOnlyItsFirstCellToAdmission) {
  constexpr std::size_t bytes = 10;
  cache gated(100 * bytes);
  cache always(100 * bytes);
  std::size_t gated_hits = 0, always_hits = 0;
  for (std::uint64_t block = 0; block < 20; ++block) {
    for (int cell = 0; cell < 9; ++cell) {
      for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const key k{block * 60 + seed, 0};
        if (lookup(gated, k, bytes)) ++gated_hits;
        if (always.find(k)) {
          ++always_hits;
        } else {
          always.insert(k, std::make_shared<const std::vector<int>>(), bytes);
        }
      }
    }
  }
  EXPECT_EQ(always_hits, 9600u);
  EXPECT_EQ(gated_hits, 9540u);
  EXPECT_EQ(gated.stats().refused, 60u);
  EXPECT_EQ(always.stats().evictions, 1100u);
  EXPECT_EQ(gated.stats().evictions, always.stats().evictions);
}

TEST(ReplayCacheTest, ConcurrentAdmitFindInsertSurvive) {
  cache c(64 * 32);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < 2000; ++i) {
        // Mostly fresh keys (refusals once full) mixed with a small
        // replayed set (hits that reopen admission).
        const std::uint64_t id = i % 3 == 0 ? static_cast<std::uint64_t>(i % 17)
                                            : 1000 + 4000 * t + i;
        const key k{id, 0};
        if (const auto hit = c.find(k)) {
          EXPECT_EQ(hit->at(0), static_cast<int>(id % 1000)) << "thread " << t;
        } else if (c.admit(k, 32)) {
          c.insert(k,
                   std::make_shared<const std::vector<int>>(
                       std::vector<int>{static_cast<int>(id % 1000)}),
                   32);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = c.stats();
  EXPECT_LE(s.bytes, 64u * 32u);
  EXPECT_GT(s.hits, 0u);
}

TEST(ReplayCacheTest, BudgetFromEnvironment) {
  ::setenv("BACKFI_TEST_CACHE_MB", "3", 1);
  EXPECT_EQ(cache_budget_bytes("BACKFI_TEST_CACHE_MB", 64),
            std::size_t{3} << 20);
  ::setenv("BACKFI_TEST_CACHE_MB", "0", 1);
  EXPECT_EQ(cache_budget_bytes("BACKFI_TEST_CACHE_MB", 64), 0u);
  ::setenv("BACKFI_TEST_CACHE_MB", "garbage", 1);
  EXPECT_EQ(cache_budget_bytes("BACKFI_TEST_CACHE_MB", 64),
            std::size_t{64} << 20);
  // Hostile values fall back to the default instead of being misread:
  // a sign (strtoull would wrap "-1" to an unbounded budget), a MiB count
  // whose byte count overflows (2^44 << 20 wraps to 0, disabling the
  // cache), and a unit suffix ("64MB" is not 64).
  for (const char* hostile : {"-1", "17592186044416", "64MB"}) {
    ::setenv("BACKFI_TEST_CACHE_MB", hostile, 1);
    EXPECT_EQ(cache_budget_bytes("BACKFI_TEST_CACHE_MB", 8),
              std::size_t{8} << 20)
        << hostile;
  }
  // The largest MiB count whose byte count still fits is accepted.
  ::setenv("BACKFI_TEST_CACHE_MB", "17592186044415", 1);
  EXPECT_EQ(cache_budget_bytes("BACKFI_TEST_CACHE_MB", 8),
            std::size_t{17592186044415} << 20);
  ::unsetenv("BACKFI_TEST_CACHE_MB");
  EXPECT_EQ(cache_budget_bytes("BACKFI_TEST_CACHE_MB", 64),
            std::size_t{64} << 20);
}

}  // namespace
}  // namespace backfi::dsp
