// Parsing of the BACKFI_* environment variables.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <system_error>

namespace backfi::dsp {

/// `env_name` as a plain decimal digit string, or nullopt when it is unset,
/// empty or anything else: a sign, whitespace, a unit suffix or a value
/// that overflows size_t does not parse. Every size- or count-valued
/// BACKFI_* variable is read through this one rule.
inline std::optional<std::size_t> env_size(const char* env_name) {
  const char* raw = std::getenv(env_name);
  if (!raw || *raw == '\0') return std::nullopt;
  const char* const last = raw + std::strlen(raw);
  std::size_t value = 0;
  // from_chars into an unsigned type accepts digits only (no sign, no
  // whitespace) and reports overflow instead of wrapping.
  const auto [ptr, ec] = std::from_chars(raw, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

}  // namespace backfi::dsp
