#include "runtime/query_pipeline.h"

#include "common/timer.h"
#include "physical/costing.h"
#include "runtime/plan_rewrite.h"

namespace dqep {

const char* PreparedQuery::cache_status() const {
  if (!planned.cache_used) {
    return "off";
  }
  return planned.cache_hit ? "hit" : "miss";
}

std::vector<std::pair<std::string, int64_t>> PreparedQuery::HostBindings()
    const {
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(planned.host_params.size());
  for (const auto& [name, id] : planned.host_params) {
    out.emplace_back(name, planned.bound.ValueOf(id).AsInt64());
  }
  return out;
}

Result<PreparedQuery> PrepareQuery(const std::string& sql,
                                   const CachedPlanRequest& request,
                                   const Database& db) {
  DQEP_CHECK(request.catalog == &db.catalog());
  PreparedQuery prepared;
  prepared.sql = sql;
  prepared.request = request;
  prepared.db = &db;
  WallTimer plan_timer;
  Result<CachedPlanResult> planned = PlanQueryWithCache(sql, request);
  prepared.plan_seconds = plan_timer.ElapsedSeconds();
  if (!planned.ok()) {
    return planned.status();
  }
  prepared.planned = std::move(*planned);

  StartupOptions startup_options;
  startup_options.trace = request.trace;
  WallTimer resolve_timer;
  Result<StartupResult> startup =
      ResolveDynamicPlan(*prepared.planned.program, *request.model,
                         prepared.planned.bound, startup_options);
  prepared.resolve_seconds = resolve_timer.ElapsedSeconds();
  if (!startup.ok()) {
    return startup.status();
  }
  prepared.startup = std::move(*startup);
  return prepared;
}

Result<QueryRun> ExecuteQuery(PreparedQuery prepared, ExecContext& ctx,
                              const ReoptOptions* reopt,
                              std::atomic<int64_t>* live_rows) {
  QueryRun run;
  run.prepared = std::move(prepared);
  run.threads = ctx.options().threads;
  const CachedPlanRequest& request = run.prepared.request;
  const Database& db = *run.prepared.db;
  const CachedPlanResult& planned = run.prepared.planned;
  const PhysNodePtr& resolved = run.prepared.startup.resolved;

  WallTimer exec_timer;
  if (reopt != nullptr) {
    Result<ReoptExecution> executed =
        ExecuteWithReopt(*planned.query, resolved, db, *request.model,
                         planned.bound, ctx, *reopt);
    if (!executed.ok()) {
      return executed.status();
    }
    run.rows = std::move(executed->rows);
    run.exec_tree = std::move(executed->exec_tree);
    run.annotated = std::move(executed->final_plan);
    run.reoptimized = true;
    run.checkpoints = std::move(executed->checkpoints);
    run.checkpoints_evaluated = executed->checkpoints_evaluated;
    run.triggers_fired = executed->triggers_fired;
    run.reopt_seconds = executed->reopt_seconds;
    if (live_rows != nullptr) {
      live_rows->fetch_add(static_cast<int64_t>(run.rows.size()),
                           std::memory_order_relaxed);
    }
  } else {
    Result<std::unique_ptr<BatchIterator>> tree =
        BuildParallelBatchExecutor(resolved, db, planned.bound, ctx);
    if (!tree.ok()) {
      return tree.status();
    }
    // Drained here rather than by DrainRows so `live_rows` advances per
    // batch.
    run.exec_tree = std::move(*tree);
    run.exec_tree->Open();
    TupleBatch batch;
    while (run.exec_tree->Next(&batch)) {
      for (int32_t i = 0; i < batch.num_rows(); ++i) {
        run.rows.push_back(batch.row(i));
      }
      if (live_rows != nullptr) {
        live_rows->fetch_add(batch.num_rows(), std::memory_order_relaxed);
      }
    }
    run.exec_tree->Close();
  }
  run.exec_seconds = exec_timer.ElapsedSeconds();
  run.peak_memory_bytes = ctx.tracker().peak_bytes();
  run.spill_files = ctx.temp_files_created();
  run.spill_tuples = ctx.tuples_spilled();
  return run;
}

void AnnotateRun(QueryRun* run) {
  if (run->annotated != nullptr) {
    return;
  }
  const CachedPlanRequest& request = run->prepared.request;
  run->annotated = ClonePlan(*request.catalog, run->prepared.startup.resolved);
  ParamEnv compile_env(Interval::Point(request.memory_pages));
  AnnotatePlan(*run->annotated, *request.model, compile_env,
               EstimationMode::kInterval);
}

}  // namespace dqep
