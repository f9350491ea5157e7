#include "runtime/adaptive.h"

#include <unordered_set>
#include <vector>

#include "exec/executor.h"

namespace dqep {

namespace {

/// Bitset of base relations referenced by a node's subtree.
uint64_t RelationBit(RelationId relation) {
  DQEP_CHECK_GE(relation, 0);
  DQEP_CHECK_LT(relation, 64);
  return uint64_t{1} << relation;
}

}  // namespace

namespace {

/// Shared implementation; with a non-null `ctx` observation subplans
/// execute through it (budgeted, cancellable), otherwise with
/// `exec_options` on the legacy unbounded path.
Result<AdaptiveResult> ResolveWithObservationImpl(
    const PhysNodePtr& root, const CostModel& model, const ParamEnv& env,
    Database& db, const ExecOptions& exec_options, ExecContext* ctx) {
  DQEP_CHECK(root != nullptr);
  std::vector<const PhysNode*> order = root->TopologicalOrder();

  // Relations touched per node (children precede parents).
  std::unordered_map<const PhysNode*, uint64_t> touched;
  for (const PhysNode* node : order) {
    uint64_t bits = 0;
    if (node->relation() != kInvalidRelation) {
      bits |= RelationBit(node->relation());
    }
    for (const PhysNodePtr& child : node->children()) {
      bits |= touched.at(child.get());
    }
    touched[node] = bits;
  }

  // A node is a maximal single-relation subplan if it touches exactly one
  // relation and feeds a multi-relation parent (or is the root).
  std::unordered_set<const PhysNode*> feeds_multi;
  for (const PhysNode* node : order) {
    if (__builtin_popcountll(touched.at(node)) > 1) {
      for (const PhysNodePtr& child : node->children()) {
        if (__builtin_popcountll(touched.at(child.get())) == 1) {
          feeds_multi.insert(child.get());
        }
      }
    }
  }
  std::vector<const PhysNode*> targets;
  for (const PhysNode* node : order) {
    bool single = __builtin_popcountll(touched.at(node)) == 1;
    if (single && (feeds_multi.count(node) > 0 || node == root.get())) {
      targets.push_back(node);
    }
  }

  // Evaluate each target into a (discarded) temporary result, recording
  // its exact cardinality and the I/O spent.
  AdaptiveResult result;
  // Map raw pointers back to shared_ptrs for execution.
  std::unordered_map<const PhysNode*, PhysNodePtr> shared;
  shared[root.get()] = root;
  for (const PhysNode* node : order) {
    for (const PhysNodePtr& child : node->children()) {
      shared[child.get()] = child;
    }
  }
  for (const PhysNode* target : targets) {
    const PhysNodePtr& subplan = shared.at(target);
    Result<StartupResult> resolved = ResolveDynamicPlan(subplan, model, env);
    if (!resolved.ok()) {
      return resolved.status();
    }
    int64_t reads_before = db.page_store().stats().page_reads;
    Result<std::vector<Tuple>> rows =
        ctx != nullptr ? ExecutePlan(resolved->resolved, db, env, *ctx)
                       : ExecutePlan(resolved->resolved, db, env, exec_options);
    if (!rows.ok()) {
      return rows.status();
    }
    result.observation_page_reads +=
        db.page_store().stats().page_reads - reads_before;
    ++result.observed_subplans;
    double observed = static_cast<double>(rows->size());
    // The observation holds for every plan equivalent to the target:
    // choose-plan alternatives compute the same result, so propagate the
    // cardinality down through nested choose nodes.
    std::vector<const PhysNode*> equivalent = {target};
    while (!equivalent.empty()) {
      const PhysNode* node = equivalent.back();
      equivalent.pop_back();
      result.observations[node] = observed;
      if (node->kind() == PhysOpKind::kChoosePlan) {
        for (const PhysNodePtr& alternative : node->children()) {
          equivalent.push_back(alternative.get());
        }
      }
    }
  }

  StartupOptions options;
  options.observed_cardinalities = &result.observations;
  Result<StartupResult> startup =
      ResolveDynamicPlan(root, model, env, options);
  if (!startup.ok()) {
    return startup.status();
  }
  result.startup = std::move(*startup);
  return result;
}

}  // namespace

Result<AdaptiveResult> ResolveWithObservation(const PhysNodePtr& root,
                                              const CostModel& model,
                                              const ParamEnv& env, Database& db,
                                              const ExecOptions& exec_options) {
  return ResolveWithObservationImpl(root, model, env, db, exec_options,
                                    /*ctx=*/nullptr);
}

Result<AdaptiveResult> ResolveWithObservation(const PhysNodePtr& root,
                                              const CostModel& model,
                                              const ParamEnv& env, Database& db,
                                              ExecContext& ctx) {
  return ResolveWithObservationImpl(root, model, env, db, ctx.options(), &ctx);
}

}  // namespace dqep
