// Export of a metrics_registry to machine-readable artifacts.
//
// JSON is the canonical format: finite doubles are printed with %.17g, so
// the text determines each value exactly and the determinism tests compare
// registries as canonical JSON strings; non-finite doubles (an empty
// capture's -inf dB depth, a NaN sample's statistics) are written as
// null, so the output stays strict JSON. CSV is a flat convenience view
// (one row per metric) for spreadsheet import.
//
// "timing.*" and "runtime.*" metrics are wall-clock or execution-dependent
// measurements and therefore exempt from the bit-identical-across-thread-
// counts contract; json_options lets deterministic comparisons exclude them.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/probe.h"

namespace backfi::obs {

struct json_options {
  bool include_timings = true;  ///< false: drop "timing.*" / "runtime.*" metrics
};

/// Canonical JSON of the registry (metrics in lexicographic name order),
/// one metric per line.
std::string to_json(const metrics_registry& registry,
                    const json_options& options = {});

/// Flat CSV: header row then one row per metric,
/// `kind,name,count,value_or_sum,mean,min,max`.
std::string to_csv(const metrics_registry& registry);

/// Write `contents` to `path`; returns false on I/O failure.
bool write_file(const std::string& path, std::string_view contents);

/// Names of `required` probes that report zero samples (counter value 0,
/// histogram count 0, or a gauge never set) — the "silently disconnected
/// instrumentation" check the CI telemetry job fails on.
std::vector<std::string> zero_sample_probes(const metrics_registry& registry,
                                            std::span<const probe> required);

}  // namespace backfi::obs
