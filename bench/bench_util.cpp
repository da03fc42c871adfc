#include "bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "obs/export.h"

namespace backfi::bench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

telemetry_session::telemetry_session(std::string name)
    : name_(std::move(name)) {
  const char* env = std::getenv("BACKFI_TELEMETRY");
  if (env && (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0))
    return;  // disabled: null collector, no artifacts
  prefix_ = (env && env[0] != '\0') ? env : "TELEMETRY_" + name_;
  collector_ = std::make_unique<obs::collector>();
}

int telemetry_session::finish(std::span<const obs::probe> required) {
  if (!collector_) return 0;
  const std::string json_path = prefix_ + ".json";
  const std::string csv_path = prefix_ + ".csv";
  const obs::metrics_registry& registry = collector_->registry();
  int status = 0;
  if (!obs::write_file(json_path, obs::to_json(registry))) {
    std::printf("# telemetry: FAILED to write %s\n", json_path.c_str());
    status = 1;
  }
  if (!obs::write_file(csv_path, obs::to_csv(registry))) {
    std::printf("# telemetry: FAILED to write %s\n", csv_path.c_str());
    status = 1;
  }
  if (status == 0)
    std::printf("# telemetry: wrote %s and %s\n", json_path.c_str(),
                csv_path.c_str());
  for (const std::string& name : obs::zero_sample_probes(registry, required)) {
    std::printf("# telemetry: required probe \"%s\" reported zero samples\n",
                name.c_str());
    status = 1;
  }
  return status;
}

}  // namespace backfi::bench
