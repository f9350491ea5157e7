// Mid-execution re-optimization: deciding with observed cardinalities.
//
// Paper §7 (future work): "our initial approach has been to handle
// inaccurate expected values by evaluating subplans as part of choose-plan
// decision procedures.  When a subplan has been evaluated into a temporary
// result, its logical and physical properties (e.g., result cardinality
// ...) are known and therefore may contribute to decisions with increased
// confidence."
//
// This module implements that approach for the single-relation frontier:
// before resolving the dynamic plan, each *maximal single-relation
// subplan* (the access-path layer) is evaluated against the database and
// its exact output cardinality recorded; the start-up decision procedure
// then runs with those observed cardinalities as facts, immunizing the
// join-order and join-method choices against selectivity estimation
// errors (e.g. skewed data under a uniform-assumption estimator).

#ifndef DQEP_RUNTIME_ADAPTIVE_H_
#define DQEP_RUNTIME_ADAPTIVE_H_

#include <unordered_map>

#include "common/status.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "physical/plan.h"
#include "runtime/startup.h"
#include "storage/database.h"

namespace dqep {

/// Outcome of observation-assisted resolution.
struct AdaptiveResult {
  /// Final resolution, computed with observed cardinalities.
  StartupResult startup;

  /// Number of single-relation subplans evaluated for observation.
  int64_t observed_subplans = 0;

  /// Physical page reads spent on observation (the cost of the temporary
  /// results; a production system would reuse them for the main
  /// execution).
  int64_t observation_page_reads = 0;

  /// The recorded cardinalities, keyed by plan node.
  std::unordered_map<const PhysNode*, double> observations;
};

/// Resolves `root` like ResolveDynamicPlan, but first executes each
/// maximal single-relation subplan to learn its true cardinality.
/// Requires a fully bound environment and populated tables.  Observation
/// subplans run with `exec_options` (parallel across exec_options.threads
/// workers when > 1).
Result<AdaptiveResult> ResolveWithObservation(
    const PhysNodePtr& root, const CostModel& model, const ParamEnv& env,
    Database& db, const ExecOptions& exec_options = {});

/// As above under a per-query execution context: observation subplans
/// execute through `ctx`, so their materialization is charged against the
/// same memory budget (and spills to the same temp heaps) as the main
/// execution, and cancellation cuts observation short too.
Result<AdaptiveResult> ResolveWithObservation(
    const PhysNodePtr& root, const CostModel& model, const ParamEnv& env,
    Database& db, ExecContext& ctx);

}  // namespace dqep

#endif  // DQEP_RUNTIME_ADAPTIVE_H_
