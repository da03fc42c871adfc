#include "obs/export.h"

#include <algorithm>
#include <array>
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

// Every probe in exported-name order, sorted from the catalogue once, at
// compile time. Exports list each kind lexicographically by name whatever
// the catalogue's row order, so adding a row never reorders the others
// (the pinned telemetry digests depend on the order).
constexpr auto kByName = [] {
  std::array<probe, probe_count> order{};
  for (std::size_t i = 0; i < probe_count; ++i)
    order[i] = static_cast<probe>(i);
  std::sort(order.begin(), order.end(), [](probe a, probe b) {
    return std::string_view(to_string(a)) < std::string_view(to_string(b));
  });
  return order;
}();

// Calls f(probe, name) for each probe of `kind`, in name order.
template <typename F>
void for_each_by_name(probe_kind kind, F&& f) {
  for (const probe p : kByName)
    if (info(p).kind == kind) f(p, to_string(p));
}

}  // namespace

std::string to_json(const metrics_registry& registry,
                    const json_options& options) {
  std::string out = "{\n  \"backfi_telemetry\": 1,\n";

  // One object per kind, one metric per line; `close` ends it ("}," or,
  // for the last, "}").
  const auto section = [&](const char* title, probe_kind kind,
                           const char* close, const auto& append_value) {
    out += "  ";
    append_quoted(out, title);
    out += ": {\n";
    bool first = true;
    for_each_by_name(kind, [&](probe p, const char* name) {
      if (!options.include_timings && is_timing(name)) return;
      if (kind == probe_kind::gauge && !registry.gauge_at(p).set) return;
      if (!first) out += ",\n";
      first = false;
      out += "    ";
      append_quoted(out, name);
      out += ": ";
      append_value(p);
    });
    out += "\n  ";
    out += close;
    out += "\n";
  };
  section("counters", probe_kind::counter, "},", [&](probe p) {
    append_u64(out, registry.counter_at(p).value);
  });
  section("gauges", probe_kind::gauge, "},", [&](probe p) {
    append_json_double(out, registry.gauge_at(p).value);
  });
  section("histograms", probe_kind::value, "}", [&](probe p) {
    const histogram& h = registry.histogram_at(p);
    out += "{\"lo\": ";
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
  });
  out += "}\n";
  return out;
}

std::string to_csv(const metrics_registry& registry) {
  std::string out = "kind,name,count,value_or_sum,mean,min,max\n";
  for_each_by_name(probe_kind::counter, [&](probe p, const char* name) {
    out += "counter,";
    out += name;
    out += ",1,";
    append_u64(out, registry.counter_at(p).value);
    out += ",,,\n";
  });
  for_each_by_name(probe_kind::gauge, [&](probe p, const char* name) {
    const gauge& g = registry.gauge_at(p);
    if (!g.set) return;
    out += "gauge,";
    out += name;
    out += ",1,";
    append_double(out, g.value);
    out += ",,,\n";
  });
  for_each_by_name(probe_kind::value, [&](probe p, const char* name) {
    const histogram& h = registry.histogram_at(p);
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
  });
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
    bool sampled = false;
    switch (info(p).kind) {
      case probe_kind::counter:
        sampled = registry.counter_at(p).value > 0;
        break;
      case probe_kind::value:
        sampled = registry.histogram_at(p).count > 0;
        break;
      case probe_kind::gauge:
        sampled = registry.gauge_at(p).set;
        break;
    }
    if (!sampled) unsampled.emplace_back(to_string(p));
  }
  return unsampled;
}

}  // namespace backfi::obs
