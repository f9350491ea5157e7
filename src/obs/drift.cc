#include "obs/drift.h"

#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

namespace dqep {
namespace obs {

void CalibrationDriftMonitor::Fold(TemplateDrift* drift,
                                   double predicted_seconds,
                                   double actual_seconds) {
  ++age_queries_;
  if (predicted_seconds <= 0.0 || actual_seconds <= 0.0) {
    return;
  }
  double ratio = actual_seconds / predicted_seconds;
  drift->last_ratio = ratio;
  if (drift->samples == 0) {
    drift->drift_ratio = ratio;  // seed with the first observation
  } else {
    drift->drift_ratio += kAlpha * (ratio - drift->drift_ratio);
  }
  drift->samples += 1;
}

std::string CalibrationDriftMonitor::RenderPrometheus() const {
  // Copy under the table's lock, format outside it.
  std::vector<std::pair<uint64_t, double>> ratios;
  templates_->ForEach([&](uint64_t fp, const TemplateFacts& facts) {
    if (facts.drift.samples > 0) {
      ratios.emplace_back(fp, facts.drift.drift_ratio);
    }
  });
  std::string out;
  char line[192];
  out += "# HELP dqep_template_drift_ratio EWMA of actual/predicted root "
         "cost per template (1.0 == calibrated).\n";
  out += "# TYPE dqep_template_drift_ratio gauge\n";
  for (const auto& [fp, ratio] : ratios) {
    std::snprintf(line, sizeof(line),
                  "dqep_template_drift_ratio{template=\"0x%016" PRIx64
                  "\"} %.9g\n",
                  fp, ratio);
    out += line;
  }
  out += "# HELP dqep_calibration_age_queries Queries completed since the "
         "server started (the age of the cost model's fit).\n"
         "# TYPE dqep_calibration_age_queries gauge\n"
         "dqep_calibration_age_queries " +
         std::to_string(CalibrationAgeQueries()) + "\n";
  return out;
}

}  // namespace obs
}  // namespace dqep
