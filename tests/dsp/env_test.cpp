#include "dsp/env.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>

namespace backfi::dsp {
namespace {

TEST(EnvTest, SizeParsesPlainDigitsOnly) {
  constexpr const char* name = "BACKFI_TEST_ENV_SIZE";
  ::unsetenv(name);
  EXPECT_EQ(env_size(name), std::nullopt);
  ::setenv(name, "", 1);
  EXPECT_EQ(env_size(name), std::nullopt);
  ::setenv(name, "3", 1);
  EXPECT_EQ(env_size(name), 3u);
  ::setenv(name, "0", 1);
  EXPECT_EQ(env_size(name), 0u);
  // Any count that fits a size_t parses; whether it makes sense (this MiB
  // count overflows its byte count) is the caller's check, as in
  // cache_budget_bytes.
  ::setenv(name, "17592186044416", 1);
  EXPECT_EQ(env_size(name), std::size_t{17592186044416});
  ::setenv(name, "18446744073709551615", 1);
  EXPECT_EQ(env_size(name), SIZE_MAX);
  // Hostile values do not parse rather than being misread. strtoul reads
  // "-1" and an overflowing count as ULONG_MAX (256 lanes after the
  // BACKFI_THREADS cap) and accepts a suffix or leading whitespace.
  for (const char* hostile : {"garbage", "-1", "+4", "99999999999999999999999",
                              "18446744073709551616", "64MB", "4abc", " 3",
                              "3 ", "0x10"}) {
    ::setenv(name, hostile, 1);
    EXPECT_EQ(env_size(name), std::nullopt) << '"' << hostile << '"';
  }
  ::unsetenv(name);
}

}  // namespace
}  // namespace backfi::dsp
