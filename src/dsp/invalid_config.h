// The one message of every rejected config: "<where>: invalid <struct>
// (<reason>)", e.g. "run_receive_chain: invalid receive_chain_config
// (bad_adc_bits)". Each validate_or_throw builds it here.
#pragma once

#include <stdexcept>
#include <string>

namespace backfi::dsp {

[[noreturn]] inline void throw_invalid_config(const char* where,
                                              const char* config_name,
                                              const char* reason) {
  throw std::invalid_argument(std::string(where) + ": invalid " + config_name +
                              " (" + reason + ")");
}

}  // namespace backfi::dsp
