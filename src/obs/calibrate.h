// Cost-model calibration from logged executions: the feedback loop.
//
// The query log (obs/querylog.*) records, for every executed operator,
// the model's estimate, its unit-operation counts (CostTerms), and the
// measured seconds.  This pass fits multiplicative corrections to the
// unit constants in SystemConfig so the model's absolute scale matches
// the machine it runs on, and emits them as a CostProfile (JSON) that
// dqep_cli --cost-profile loads back.
//
// Two-stage fit:
//
//   Stage 1 — global scale.  alpha = geometric mean of actual/estimate
//   over plan-root pairs.  Multiplying *every* time constant (including
//   the start-up bookkeeping constants) by alpha multiplies every
//   alternative's cost by exactly alpha, because each cost is a
//   nonnegative combination of the unit constants.  A uniform positive
//   scaling preserves the order of every cost comparison, so every
//   choose-plan decision is provably unchanged.  This stage alone fixes
//   the dominant error: the model's device constants describe the
//   paper's 1989 testbed, not this machine.
//
//   Stage 2 — per-unit least squares (optional refinement).  In
//   alpha-scaled coordinates x_k = u_k / (alpha * u0_k), minimize
//   ||A x - a||^2 + lambda * sum_k (x_k - 1)^2 over per-operator pairs
//   (A[i][k] = quantity of unit k charged by operator i, times
//   alpha * u0_k; a_i = measured exclusive seconds), with a ridge pull
//   toward the global fit.  The multipliers are then clamped into
//   [1/s, s] where s = sqrt(rho) and rho = min over logged decisions of
//   best_other/chosen estimate.  Since every alternative's cost is a
//   nonnegative combination of the units, its recalibrated cost lies in
//   [alpha*C/s, alpha*C*s]; chosen' <= alpha*Cc*s <= alpha*Co/s <=
//   other' for every logged margin, so the trust region keeps all
//   logged decisions invariant by construction.  The per-unit profile
//   is only adopted when every logged operator carried terms and it
//   beats the global fit on root-level error; otherwise the profile
//   degenerates to the pure global scale.
//
// The profile never touches geometry or policy constants, so plan
// shapes, cardinality estimates, and the partial order of interval
// comparisons are unaffected; only the cost scale (and hence the
// decision *margins*, uniformly) changes.

#ifndef DQEP_OBS_CALIBRATE_H_
#define DQEP_OBS_CALIBRATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "cost/system_config.h"
#include "obs/querylog.h"

namespace dqep {
namespace obs {

struct CalibrationOptions {
  /// Ridge strength for the per-unit stage, relative to trace(A^T A)/n.
  double ridge = 1.0e-3;
  /// Allow the per-unit refinement (stage 2); false fits scale only.
  bool allow_per_unit = true;
};

/// Fit outcome plus the evidence: before/after error and regret so the
/// caller (and EXPERIMENTS.md) can show what the feedback bought.
struct CalibrationReport {
  int64_t records = 0;         ///< log records used
  int64_t root_pairs = 0;      ///< (root estimate, root actual) pairs
  int64_t operator_pairs = 0;  ///< per-operator (terms, seconds) pairs
  int64_t decision_count = 0;  ///< logged choose-plan decisions

  double global_scale = 1.0;  ///< stage-1 alpha
  /// Smallest best_other/chosen estimate ratio across logged decisions
  /// (1 when no finite margins were logged).
  double min_decision_margin = 1.0;
  /// Trust-region half-width s = sqrt(min_decision_margin): per-unit
  /// multipliers stay within [global/s, global*s].
  double unit_spread_limit = 1.0;
  bool per_unit_fit_used = false;

  CostProfile profile;

  /// Mean |log10(estimate/actual)| at plan roots, uncalibrated vs. under
  /// `profile` — the headline number.
  double root_error_before = 0.0;
  double root_error_after = 0.0;
  /// Same, over individual operators (exclusive seconds vs. terms cost);
  /// 0 when no operator pairs were available.
  double op_error_before = 0.0;
  double op_error_after = 0.0;
  /// Mean decision regret (chosen actual minus best-other estimate)
  /// before and after rescaling the estimates.
  double mean_regret_before = 0.0;
  double mean_regret_after = 0.0;
};

/// Fits a CostProfile from `records` against `base_config` (the config
/// the logged estimates were computed under).  Fails when the log holds
/// no usable (estimate, actual) root pair.
Result<CalibrationReport> Calibrate(
    const std::vector<QueryRecord>& records,
    const SystemConfig& base_config, const CalibrationOptions& options = {});

/// Human-readable fit summary (multipliers, before/after error, regret).
std::string RenderCalibrationReport(const CalibrationReport& report);

/// The profile as JSON, with fit metadata ("calibration.json").
std::string RenderCostProfileJson(const CalibrationReport& report);

/// Loads a profile written by RenderCostProfileJson.  Unknown keys are
/// ignored; missing multipliers default to 1.  Rejects non-positive or
/// non-finite multipliers.
Result<CostProfile> LoadCostProfile(const std::string& path);

}  // namespace obs
}  // namespace dqep

#endif  // DQEP_OBS_CALIBRATE_H_
