#include "obs/export.h"

#include <cmath>
#include <cstdio>

namespace backfi::obs {

namespace {

// Metrics dropped when include_timings is off: wall-clock spans and the
// runtime.* workspace/reuse diagnostics. Both describe the run, not the
// simulated physics, so deterministic-output comparisons exclude them.
bool is_timing(std::string_view name) {
  return name.starts_with("timing.") || name.starts_with("runtime.");
}

void append_double(std::string& out, double v) {
  char buf[40];
  // %.17g survives a text round trip exactly for IEEE doubles.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

// JSON has no token for inf or nan.
void append_json_double(std::string& out, double v) {
  if (std::isfinite(v)) {
    append_double(out, v);
  } else {
    out += "null";
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string to_json(const metrics_registry& registry,
                    const json_options& options) {
  const char* nl = options.pretty ? "\n" : "";
  const char* ind = options.pretty ? "  " : "";
  const char* ind2 = options.pretty ? "    " : "";
  std::string out;
  out += "{";
  out += nl;
  out += ind;
  out += "\"backfi_telemetry\": 1,";
  out += nl;

  out += ind;
  out += "\"counters\": {";
  out += nl;
  bool first = true;
  for (const auto& [name, c] : registry.counters()) {
    if (!options.include_timings && is_timing(name)) continue;
    if (!first) {
      out += ",";
      out += nl;
    }
    first = false;
    out += ind2;
    append_quoted(out, name);
    out += ": ";
    append_u64(out, c.value);
  }
  out += nl;
  out += ind;
  out += "},";
  out += nl;

  out += ind;
  out += "\"gauges\": {";
  out += nl;
  first = true;
  for (const auto& [name, g] : registry.gauges()) {
    if (!options.include_timings && is_timing(name)) continue;
    if (!g.set) continue;
    if (!first) {
      out += ",";
      out += nl;
    }
    first = false;
    out += ind2;
    append_quoted(out, name);
    out += ": ";
    append_json_double(out, g.value);
  }
  out += nl;
  out += ind;
  out += "},";
  out += nl;

  out += ind;
  out += "\"histograms\": {";
  out += nl;
  first = true;
  for (const auto& [name, h] : registry.histograms()) {
    if (!options.include_timings && is_timing(name)) continue;
    if (!first) {
      out += ",";
      out += nl;
    }
    first = false;
    out += ind2;
    append_quoted(out, name);
    out += ": {\"lo\": ";
    append_json_double(out, h.lo);
    out += ", \"hi\": ";
    append_json_double(out, h.hi);
    out += ", \"count\": ";
    append_u64(out, h.count);
    out += ", \"sum\": ";
    append_json_double(out, h.sum);
    out += ", \"sum_sq\": ";
    append_json_double(out, h.sum_sq);
    out += ", \"min\": ";
    append_json_double(out, h.count > 0 ? h.min_value : 0.0);
    out += ", \"max\": ";
    append_json_double(out, h.count > 0 ? h.max_value : 0.0);
    out += ", \"bins\": [";
    for (std::size_t i = 0; i < histogram::n_bins; ++i) {
      if (i > 0) out += ", ";
      append_u64(out, h.bins[i]);
    }
    out += "]}";
  }
  out += nl;
  out += ind;
  out += "}";
  out += nl;
  out += "}";
  out += nl;
  return out;
}

std::string to_csv(const metrics_registry& registry) {
  std::string out = "kind,name,count,value_or_sum,mean,min,max\n";
  for (const auto& [name, c] : registry.counters()) {
    out += "counter,";
    out += name;
    out += ",1,";
    append_u64(out, c.value);
    out += ",,,\n";
  }
  for (const auto& [name, g] : registry.gauges()) {
    if (!g.set) continue;
    out += "gauge,";
    out += name;
    out += ",1,";
    append_double(out, g.value);
    out += ",,,\n";
  }
  for (const auto& [name, h] : registry.histograms()) {
    out += "histogram,";
    out += name;
    out += ",";
    append_u64(out, h.count);
    out += ",";
    append_double(out, h.sum);
    out += ",";
    append_double(out, h.mean());
    out += ",";
    append_double(out, h.count > 0 ? h.min_value : 0.0);
    out += ",";
    append_double(out, h.count > 0 ? h.max_value : 0.0);
    out += "\n";
  }
  return out;
}

bool write_file(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool wrote =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

std::vector<std::string> zero_sample_probes(const metrics_registry& registry,
                                            std::span<const probe> required) {
  std::vector<std::string> unsampled;
  for (const probe p : required) {
    const probe_info& pi = info(p);
    bool sampled = false;
    switch (pi.kind) {
      case probe_kind::counter: {
        const auto it = registry.counters().find(pi.name);
        sampled = it != registry.counters().end() && it->second.value > 0;
        break;
      }
      case probe_kind::value: {
        const auto it = registry.histograms().find(pi.name);
        sampled = it != registry.histograms().end() && it->second.count > 0;
        break;
      }
      case probe_kind::gauge: {
        const auto it = registry.gauges().find(pi.name);
        sampled = it != registry.gauges().end() && it->second.set;
        break;
      }
    }
    if (!sampled) unsampled.emplace_back(pi.name);
  }
  return unsampled;
}

}  // namespace backfi::obs
