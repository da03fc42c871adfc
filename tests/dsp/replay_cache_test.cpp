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
