#include "runtime/reopt.h"

#include <string>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "physical/costing.h"
#include "runtime/decision_engine.h"
#include "runtime/plan_rewrite.h"

namespace dqep {

namespace {

obs::SharedCounterRef g_checkpoints_metric("runtime.reopt.checkpoints");
obs::SharedCounterRef g_triggers_metric("runtime.reopt.triggers");
obs::SharedCounterRef g_adoptions_metric("runtime.reopt.adoptions");

/// Materialized leaves of `root` outside the `replaced` subtree: earlier
/// captures that must keep their own terms in the suffix query.
void CollectOtherMaterialized(const PhysNode* node, const PhysNode* replaced,
                              std::vector<MaterializedTablePtr>* out) {
  if (node == nullptr || node == replaced) {
    return;
  }
  if (node->kind() == PhysOpKind::kMaterializedScan) {
    for (const MaterializedTablePtr& seen : *out) {
      if (seen == node->materialized()) {
        return;  // shared subplan: one term suffices
      }
    }
    out->push_back(node->materialized());
    return;
  }
  for (const PhysNodePtr& child : node->children()) {
    CollectOtherMaterialized(child.get(), replaced, out);
  }
}

}  // namespace

Result<Query> BuildSuffixQuery(const Query& original,
                               const PhysNodePtr& current,
                               const PhysNode* replaced,
                               const MaterializedTablePtr& table,
                               const Catalog& catalog) {
  DQEP_CHECK(current != nullptr);
  DQEP_CHECK(replaced != nullptr);
  DQEP_CHECK(table != nullptr);
  Query suffix;
  suffix.AddMaterializedTerm(table);
  std::vector<MaterializedTablePtr> others;
  CollectOtherMaterialized(current.get(), replaced, &others);
  for (const MaterializedTablePtr& other : others) {
    suffix.AddMaterializedTerm(other);
  }
  for (const RelationTerm& term : original.terms()) {
    if (term.IsMaterialized()) {
      continue;  // the original user query has no synthetic leaves
    }
    if (table->Covers(term.relation)) {
      continue;
    }
    bool covered = false;
    for (const MaterializedTablePtr& other : others) {
      covered = covered || other->Covers(term.relation);
    }
    if (!covered) {
      suffix.AddTerm(term);
    }
  }
  for (const JoinPredicate& join : original.joins()) {
    int32_t lt = suffix.TermOf(join.left.relation);
    int32_t rt = suffix.TermOf(join.right.relation);
    if (lt < 0 || rt < 0) {
      return Status::Internal("suffix query lost a join endpoint");
    }
    if (lt == rt) {
      continue;  // applied when the intermediate was computed
    }
    suffix.AddJoin(join);
  }
  suffix.SetProjection(current->OutputAttrs(catalog));
  if (original.HasOrderBy()) {
    suffix.SetOrderBy(original.order_by());
  }
  DQEP_RETURN_IF_ERROR(suffix.Validate(catalog));
  return suffix;
}

Result<ReoptExecution> ExecuteWithReopt(const Query& query,
                                        const PhysNodePtr& resolved_plan,
                                        const Database& db,
                                        const CostModel& model,
                                        const ParamEnv& env, ExecContext& ctx,
                                        const ReoptOptions& options) {
  DQEP_CHECK(resolved_plan != nullptr);
  const Catalog& catalog = db.catalog();

  // Private copy: checkpoints read annotations off these nodes, and a
  // shared plan-cache DAG must never be (re-)annotated in place.
  PhysNodePtr current = ClonePlan(catalog, resolved_plan);
  const ParamEnv* est_env =
      options.estimate_env != nullptr ? options.estimate_env : &env;
  AnnotatePlan(*current, model, *est_env, EstimationMode::kInterval);

  ReoptController controller(options.config, &db);
  if (options.config.enabled) {
    // Arming changes plan shape under threads > 1 (breakers leave the
    // exchange chains), so a disabled run leaves the context untouched.
    ctx.set_reopt(&controller);
  }
  auto cleanup = [&controller, &ctx]() {
    controller.ReleaseRetained(&ctx);
    ctx.set_reopt(nullptr);
  };

  DecisionEngine engine(model);
  ReoptExecution out;
  while (true) {
    Result<std::unique_ptr<BatchIterator>> tree =
        BuildParallelBatchExecutor(current, db, env, ctx);
    if (!tree.ok()) {
      cleanup();
      return tree.status();
    }
    std::vector<Tuple> rows = DrainRows(**tree, *current, &ctx);
    if (!controller.pending()) {
      out.rows = std::move(rows);
      out.final_plan = current;
      out.exec_tree = std::move(*tree);
      break;
    }
    // Triggers fire during the Open cascade and cancel the tree before
    // the first root row, so the abandoned attempt emitted nothing.
    DQEP_CHECK(rows.empty());
    int64_t span_start =
        ctx.trace() != nullptr ? ctx.trace()->NowMicros() : 0;
    WallTimer timer;
    const PhysNode* replaced = controller.replaced();
    MaterializedTablePtr table = controller.table();

    // The capture is never wasted: the fallback plan keeps the current
    // join order with the finished subtree read from the capture.
    PhysNodePtr spliced = RewritePlan(
        catalog, current,
        [&](const PhysNode& node,
            const std::vector<PhysNodePtr>&) -> PhysNodePtr {
          return &node == replaced ? PhysNode::MaterializedScan(table)
                                   : nullptr;
        });
    double pre_cost =
        EstimateRoot(*spliced, model, env, EstimationMode::kExpectedValue)
            .cost.hi();
    double post_cost = pre_cost;
    bool adopted = false;

    Result<Query> suffix =
        BuildSuffixQuery(query, current, replaced, table, catalog);
    if (suffix.ok()) {
      Result<DecisionEngine::SuffixPlan> plan = engine.ReoptimizeSuffix(
          *suffix, env, options.optimizer, options.startup);
      if (plan.ok()) {
        post_cost = plan->execution_cost;
        if (post_cost < pre_cost) {
          current = plan->resolved;
          adopted = true;
        }
      }
    }
    if (!adopted) {
      AnnotatePlan(*spliced, model, env, EstimationMode::kExpectedValue);
      current = std::move(spliced);
    }
    double seconds = timer.ElapsedSeconds();
    out.reopt_seconds += seconds;
    ReoptCheckpoint* event = controller.pending_event();
    DQEP_CHECK(event != nullptr);
    event->pre_cost = pre_cost;
    event->post_cost = post_cost;
    event->reopt_seconds = seconds;
    event->adopted = adopted;
    if (ctx.trace() != nullptr) {
      ctx.trace()->EndSpan(
          "reoptimize", "reopt", span_start,
          {{"site", event->op},
           {"actual_rows", std::to_string(event->actual_rows)},
           {"est_lo", std::to_string(event->est_lo)},
           {"est_hi", std::to_string(event->est_hi)},
           {"pre_cost", std::to_string(pre_cost)},
           {"post_cost", std::to_string(post_cost)},
           {"adopted", adopted ? "1" : "0"}});
    }
    controller.ClearPending();
    ctx.ResetCancel();
  }
  out.checkpoints = controller.events();
  out.checkpoints_evaluated = controller.checkpoints_evaluated();
  out.triggers_fired = controller.triggers_fired();
  {
    g_checkpoints_metric.Add(out.checkpoints_evaluated);
    g_triggers_metric.Add(out.triggers_fired);
    int64_t adoptions = 0;
    for (const ReoptCheckpoint& cp : out.checkpoints) {
      adoptions += cp.adopted ? 1 : 0;
    }
    g_adoptions_metric.Add(adoptions);
  }
  cleanup();
  return out;
}

}  // namespace dqep
