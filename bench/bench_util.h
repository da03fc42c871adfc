// Shared helpers for the reproduction benches: each binary prints the
// paper's rows/series (with `# paper:` reference lines for comparison)
// and then runs google-benchmark timings of the kernels it exercises.
#pragma once

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/collector.h"
#include "obs/probe.h"

namespace backfi::bench {

/// Print a section header for one reproduced table/figure.
inline void print_header(const char* experiment_id, const char* description) {
  std::printf("\n==================================================================\n");
  std::printf("%s — %s\n", experiment_id, description);
  std::printf("==================================================================\n");
}

/// Print a `# paper:` reference annotation under a measured row.
inline void print_paper_reference(const std::string& text) {
  std::printf("# paper: %s\n", text.c_str());
}

/// Throughput pretty-printer: "5.00 Mbps" / "13 Kbps".
inline std::string format_throughput(double bps) {
  char buf[64];
  if (bps >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f Mbps", bps / 1e6);
  } else if (bps >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.0f Kbps", bps / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f bps", bps);
  }
  return buf;
}

/// Print a `# wall-time:` footer line for one measured sweep.
inline void print_wall_time(const std::string& what, double seconds,
                            std::size_t threads) {
  std::printf("# wall-time: %s: %.2f s (%zu thread%s)\n", what.c_str(), seconds,
              threads, threads == 1 ? "" : "s");
}

/// Median of a (copied) sample vector; 0 for empty input.
double median(std::vector<double> values);

/// Telemetry capture for one bench binary. The session owns the root
/// obs::collector the bench threads through its scenario configs, and on
/// finish() exports the merged registry as TELEMETRY_<name>.json and
/// TELEMETRY_<name>.csv next to the working directory (like BENCH_dsp.json)
/// so CI can upload them.
///
/// The BACKFI_TELEMETRY environment variable controls the session:
///   unset / empty  collection on, default file prefix TELEMETRY_<name>
///   "off" / "0"    collection off: collector() is null, finish() is a
///                  no-op returning 0 (the zero-overhead path)
///   anything else  collection on, value used as the output file prefix
class telemetry_session {
 public:
  explicit telemetry_session(std::string name);

  /// Root collector, or null when disabled — pass directly into
  /// scenario_config::collector / decoder_config::collector etc.
  obs::collector* collector() { return collector_.get(); }

  /// Export the artifacts and verify every probe in `required` reported at
  /// least one sample. Returns 0 on success (and always when disabled);
  /// 1 when a file failed to write or a required probe stayed at zero
  /// samples. Bench main() returns this, so CI enforces telemetry
  /// coverage through the exit code alone.
  int finish(std::span<const obs::probe> required);

 private:
  std::string name_;
  std::string prefix_;
  std::unique_ptr<obs::collector> collector_;
};

}  // namespace backfi::bench
