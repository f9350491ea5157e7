// Calibration-drift monitor: an always-on comparator between the cost
// model's predicted root cost and the measured execution time of every
// completed query, aggregated per normalized-template fingerprint.
//
// The calibration loop (obs/calibrate.*) fits the model to a logged
// workload once; afterwards nothing tells an operator when the fit has
// gone stale — data grew, the machine changed, a new template arrived.
// This monitor closes that gap: each completed query folds the ratio
// actual_seconds / predicted_seconds into its template's EWMA (in the
// server's obs::TemplateTable), exported as `dqep_template_drift_ratio`
// gauges, plus a global `dqep_calibration_age_queries` gauge of queries
// completed since the server started (it loads no cost profile, so that
// is the fit's age).  A drift ratio parked far from 1.0 (or a large age
// with drifting templates) is the scraper-visible signal that
// `--calibrate` should be re-run.
//
// The ratio, not the difference, is tracked: the model predicts in
// modeled seconds whose scale is exactly what calibration corrects, so
// a scale error shows up as a stable ratio != 1 regardless of query
// size.  Non-positive predictions or actuals are skipped (no signal).
//
// Thread-safety: template state lives under the table's lock; the age
// gauge is an atomic.

#ifndef DQEP_OBS_DRIFT_H_
#define DQEP_OBS_DRIFT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/template_table.h"

namespace dqep {
namespace obs {

class CalibrationDriftMonitor {
 public:
  explicit CalibrationDriftMonitor(TemplateTable* templates)
      : templates_(templates) {}

  CalibrationDriftMonitor(const CalibrationDriftMonitor&) = delete;
  CalibrationDriftMonitor& operator=(const CalibrationDriftMonitor&) = delete;

  /// Folds one completed query into its template's `drift`:
  /// `predicted_seconds` is the start-up resolution's execution-cost
  /// estimate for the chosen plan, `actual_seconds` the measured
  /// execution wall time.  Non-positive values are skipped.  Caller holds
  /// the table's lock (TemplateTable::Touch).
  void Fold(TemplateDrift* drift, double predicted_seconds,
            double actual_seconds);

  /// Queries recorded since construction.
  int64_t CalibrationAgeQueries() const { return age_queries_.load(); }

  /// Prometheus text-format families: `dqep_template_drift_ratio`
  /// gauges labelled template="0x<fp>" and the unlabelled
  /// `dqep_calibration_age_queries` gauge.
  std::string RenderPrometheus() const;

 private:
  /// EWMA smoothing factor: each new sample contributes kAlpha, history
  /// keeps 1 - kAlpha.  0.1 converges to a regime shift in a few dozen
  /// queries while shrugging off single outliers.
  static constexpr double kAlpha = 0.1;

  TemplateTable* const templates_;
  std::atomic<int64_t> age_queries_{0};
};

}  // namespace obs
}  // namespace dqep

#endif  // DQEP_OBS_DRIFT_H_
