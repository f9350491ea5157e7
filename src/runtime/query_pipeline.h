// The one query pipeline: SQL text in, rows out — the paper's "compile
// once, then per invocation resolve start-up and execute" (§1, §5).  The
// server's sessions, the shell and the benchmarks all run it and keep
// only what is theirs (admission, reports, output formatting).
//
//   PrepareQuery   plans through the plan cache and resolves every
//                  choose-plan operator under the bindings.
//   ExecuteQuery   drains the resolved plan under the caller's context,
//                  plainly or under the re-optimization driver
//                  (runtime/reopt.h).
//
// A caller that gates execution (the server's admission) does so between
// the two calls.  Re-optimization cuts its suffix queries from the Query
// the plan was compiled from (CachedPlanResult::query), whose ParamIds
// are the bound environment's: no second parse.  Nothing here writes
// estimates into the resolved plan, which shares subtrees with the
// cached plan other sessions resolve; AnnotateRun annotates a clone.

#ifndef DQEP_RUNTIME_QUERY_PIPELINE_H_
#define DQEP_RUNTIME_QUERY_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/reopt_control.h"
#include "physical/plan.h"
#include "runtime/plan_cache.h"
#include "runtime/reopt.h"
#include "runtime/startup.h"
#include "storage/database.h"

namespace dqep {

/// A planned and resolved query, ready to execute.
struct PreparedQuery {
  std::string sql;
  /// What it was planned with and runs against; every pointer in them
  /// must outlive the query and its run.
  CachedPlanRequest request;
  const Database* db = nullptr;
  CachedPlanResult planned;
  StartupResult startup;
  /// Wall seconds of PlanQueryWithCache and of start-up resolution.
  double plan_seconds = 0.0;
  double resolve_seconds = 0.0;

  /// Plan-cache outcome: "hit", "miss", or "off".
  const char* cache_status() const;

  /// (name, value) of every host variable the query references.
  std::vector<std::pair<std::string, int64_t>> HostBindings() const;
};

/// One executed query: the prepared query plus what execution produced.
/// `exec_tree` points into the ExecContext it ran under, which must
/// outlive the run.
struct QueryRun {
  PreparedQuery prepared;
  int32_t threads = 1;
  std::vector<Tuple> rows;
  /// The closed iterator tree of the final execution (counters final).
  std::unique_ptr<BatchIterator> exec_tree;
  /// The executed plan annotated with estimate intervals: set by the
  /// re-optimization driver, or by AnnotateRun for a plain run.
  PhysNodePtr annotated;

  /// Mid-query re-optimization (all empty/zero for a plain run).
  bool reoptimized = false;
  std::vector<ReoptCheckpoint> checkpoints;
  int64_t checkpoints_evaluated = 0;
  int64_t triggers_fired = 0;
  double reopt_seconds = 0.0;

  /// The context's memory and spill readings after execution.
  int64_t peak_memory_bytes = 0;
  int64_t spill_files = 0;
  int64_t spill_tuples = 0;

  /// Wall seconds of build + drain (re-optimization included).
  double exec_seconds = 0.0;
};

/// Plans `sql` (PlanQueryWithCache) and resolves the dynamic plan under
/// the bindings; `request.catalog` must be `db`'s.
Result<PreparedQuery> PrepareQuery(const std::string& sql,
                                   const CachedPlanRequest& request,
                                   const Database& db);

/// Executes `prepared` under `ctx`.  With `reopt` null the resolved plan
/// runs as is; otherwise under ExecuteWithReopt with those options.
/// `live_rows` (nullable) is bumped as rows are produced — per batch on
/// a plain run, once at the end of a re-optimizing one.
Result<QueryRun> ExecuteQuery(PreparedQuery prepared, ExecContext& ctx,
                              const ReoptOptions* reopt,
                              std::atomic<int64_t>* live_rows = nullptr);

/// Sets `run->annotated` if it is still unset: a private clone of the
/// resolved plan annotated under the compile-time environment (point
/// memory grant, parameters unbound), the intervals the optimizer faced.
void AnnotateRun(QueryRun* run);

}  // namespace dqep

#endif  // DQEP_RUNTIME_QUERY_PIPELINE_H_
