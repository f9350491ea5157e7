// The map-based start-up evaluator, kept as a test oracle for the
// StartupProgram evaluator (runtime/decision_engine.cc).  This is the
// depth-first evaluator the engine ran before start-up programs existed:
// its memo, choices, alternative costs, abort budgets and evaluated set
// are hash maps keyed by node address, and the chosen plan's execution
// cost is a separate EstimateRoot walk.  It shares the cost formulas
// (EstimateNode) and CloneWithChildren with the engine, but none of its
// evaluation or extraction code.
//
// ReferenceResolve reproduces the whole of the former
// DecisionEngine::Resolve, so every StartupResult field the engine
// reports can be compared for exact equality.

#ifndef DQEP_TESTS_REFERENCE_STARTUP_H_
#define DQEP_TESTS_REFERENCE_STARTUP_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "obs/trace.h"
#include "physical/costing.h"
#include "runtime/plan_rewrite.h"
#include "runtime/startup.h"

namespace dqep {
namespace reference {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Depth-first point-cost evaluator with an optional abort budget
/// (start-up branch-and-bound): evaluation of a subtree stops as soon as
/// its accumulated cost exceeds the cheapest complete alternative seen so
/// far.  Completed node evaluations are memoized so shared subplans are
/// costed once.
class StartupEvaluator {
 public:
  StartupEvaluator(const CostModel& model, const ParamEnv& env,
                   const StartupOptions& options)
      : model_(model),
        env_(env),
        branch_and_bound_(options.use_branch_and_bound),
        observed_(options.observed_cardinalities),
        forced_(options.forced_choices),
        trace_(options.trace) {}

  struct EvalOut {
    NodeEstimate estimate;
    bool aborted = false;
  };

  EvalOut Eval(const PhysNode* node, double budget) {
    auto it = memo_.find(node);
    if (it != memo_.end()) {
      return EvalOut{it->second, false};
    }
    if (branch_and_bound_) {
      // A node that already aborted under a budget >= this one will abort
      // again; skip the re-descent.  (Without this, shared subplans inside
      // abandoned alternatives are re-evaluated once per parent budget and
      // the "optimization" costs far more than it saves.)
      auto aborted = abort_budgets_.find(node);
      if (aborted != abort_budgets_.end() && budget <= aborted->second) {
        return EvalOut{NodeEstimate{}, true};
      }
    }
    EvalOut out;
    if (node->kind() == PhysOpKind::kChoosePlan) {
      ++decisions_;
      int64_t span_start = trace_ == nullptr ? 0 : trace_->NowMicros();
      double best = kInf;
      size_t best_index = 0;
      NodeEstimate best_estimate;
      std::vector<double> alt_costs(node->children().size(), kInf);
      for (size_t i = 0; i < node->children().size(); ++i) {
        double alt_budget = branch_and_bound_ ? std::min(budget, best) : kInf;
        EvalOut alt = Eval(node->child(i).get(), alt_budget);
        if (alt.aborted) {
          continue;
        }
        double cost = alt.estimate.cost.lo();
        alt_costs[i] = cost;
        if (cost < best) {
          best = cost;
          best_index = i;
          best_estimate = alt.estimate;
        }
      }
      if (best == kInf) {
        return Abort(node, budget);
      }
      if (forced_ != nullptr) {
        // Replay override: resolve to the requested alternative instead of
        // the cheapest one.  Re-evaluating under an infinite budget revives
        // alternatives that branch-and-bound abandoned above; the memo makes
        // the common (already-evaluated) case free.
        auto forced = forced_->find(node);
        if (forced != forced_->end() &&
            forced->second < node->children().size()) {
          EvalOut alt = Eval(node->child(forced->second).get(), kInf);
          if (!alt.aborted) {
            best_index = forced->second;
            best_estimate = alt.estimate;
            best = alt.estimate.cost.lo();
          }
        }
      }
      choices_[node] = best_index;
      if (trace_ != nullptr) {
        RecordDecisionSpan(node, alt_costs, best_index, span_start);
      }
      alt_costs_[node] = std::move(alt_costs);
      out.estimate.cardinality = best_estimate.cardinality;
      out.estimate.cost =
          best_estimate.cost +
          Interval::Point(model_.config().choose_plan_decision_seconds);
      memo_.emplace(node, out.estimate);
      return out;
    }
    // Regular operator: children first, aborting if the running total
    // exceeds the budget.
    std::vector<NodeEstimate> child_estimates;
    child_estimates.reserve(node->children().size());
    double spent = 0.0;
    for (const PhysNodePtr& child : node->children()) {
      EvalOut child_out = Eval(child.get(), budget - spent);
      if (child_out.aborted) {
        return Abort(node, budget);
      }
      spent += child_out.estimate.cost.lo();
      if (branch_and_bound_ && spent > budget) {
        return Abort(node, budget);
      }
      child_estimates.push_back(child_out.estimate);
    }
    std::vector<const NodeEstimate*> child_ptrs;
    child_ptrs.reserve(child_estimates.size());
    for (const NodeEstimate& estimate : child_estimates) {
      child_ptrs.push_back(&estimate);
    }
    ++evaluations_;
    evaluated_.insert(node);
    out.estimate = EstimateNode(*node, child_ptrs, model_, env_,
                                EstimationMode::kExpectedValue);
    if (observed_ != nullptr) {
      auto observed = observed_->find(node);
      if (observed != observed_->end()) {
        out.estimate.cardinality = Interval::Point(observed->second);
        // For access paths whose cost is a direct function of the rows
        // they produce, the observation corrects the cost as well — this
        // is what lets observed decisions fix a mis-estimated index scan.
        if (node->kind() == PhysOpKind::kFilterBTreeScan) {
          out.estimate.cost =
              Interval::Point(model_.FilterBTreeScanCost(observed->second));
        }
      }
    }
    if (branch_and_bound_ && out.estimate.cost.lo() > budget) {
      return Abort(node, budget);
    }
    memo_.emplace(node, out.estimate);
    return out;
  }

  int64_t evaluations() const { return evaluations_; }
  int64_t decisions() const { return decisions_; }
  int64_t distinct_evaluated() const {
    return static_cast<int64_t>(evaluated_.size());
  }
  const std::unordered_map<const PhysNode*, size_t>& choices() const {
    return choices_;
  }
  std::unordered_map<const PhysNode*, std::vector<double>>&
  mutable_alternative_costs() {
    return alt_costs_;
  }

 private:
  /// One trace span per completed choose-plan decision: each
  /// alternative's resolved point cost plus its compile-time cost
  /// interval (the optimizer's annotation — the ambiguity this decision
  /// just resolved).
  void RecordDecisionSpan(const PhysNode* node,
                          const std::vector<double>& alt_costs,
                          size_t chosen, int64_t span_start) {
    std::vector<std::pair<std::string, std::string>> args;
    args.emplace_back("alternatives", std::to_string(alt_costs.size()));
    args.emplace_back("chosen", std::to_string(chosen));
    for (size_t i = 0; i < alt_costs.size(); ++i) {
      std::string prefix = "alt" + std::to_string(i);
      args.emplace_back(prefix + "_op",
                        PhysOpKindName(node->child(i)->kind()));
      // Alternatives abandoned by branch-and-bound carry an infinite
      // cost, which "%.6g" would render as "inf" — not JSON.  Encode
      // non-finite values as null.
      auto format_cost = [](double v) {
        if (!std::isfinite(v)) {
          return std::string("null");
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return std::string(buf);
      };
      args.emplace_back(prefix + "_resolved_cost", format_cost(alt_costs[i]));
      const Interval& interval = node->child(i)->est_cost();
      args.emplace_back(prefix + "_cost_lo", format_cost(interval.lo()));
      args.emplace_back(prefix + "_cost_hi", format_cost(interval.hi()));
    }
    trace_->AddSpan("choose-plan decision", "resolve", span_start,
                    trace_->NowMicros() - span_start, /*track=*/0,
                    std::move(args));
  }

  /// Records that `node` cannot complete within `budget` and returns the
  /// aborted result.
  EvalOut Abort(const PhysNode* node, double budget) {
    if (budget != kInf) {
      auto [it, inserted] = abort_budgets_.emplace(node, budget);
      if (!inserted && budget > it->second) {
        it->second = budget;
      }
    }
    EvalOut out;
    out.aborted = true;
    return out;
  }

  const CostModel& model_;
  const ParamEnv& env_;
  bool branch_and_bound_;
  const std::unordered_map<const PhysNode*, double>* observed_;
  const std::unordered_map<const PhysNode*, size_t>* forced_;
  obs::TraceSession* trace_;
  std::unordered_map<const PhysNode*, NodeEstimate> memo_;
  std::unordered_map<const PhysNode*, double> abort_budgets_;
  std::unordered_set<const PhysNode*> evaluated_;
  std::unordered_map<const PhysNode*, size_t> choices_;
  std::unordered_map<const PhysNode*, std::vector<double>> alt_costs_;
  int64_t evaluations_ = 0;
  int64_t decisions_ = 0;
};

/// Top-down extraction of the chosen plan: recurses into the chosen
/// alternative of each choose-plan operator only, so the non-chosen
/// subgraphs — most of a dynamic plan DAG — are never visited, let alone
/// rebuilt.  Subtrees containing no decisions are returned as-is (still
/// shared with the dynamic plan), matching RewritePlan's sharing
/// behavior; only ancestors of a replaced choose node are cloned.
class ChosenPlanExtractor {
 public:
  ChosenPlanExtractor(
      const Catalog& catalog,
      const std::unordered_map<const PhysNode*, size_t>& choices)
      : catalog_(catalog), choices_(choices) {}

  PhysNodePtr Extract(const PhysNodePtr& node) {
    auto it = memo_.find(node.get());
    if (it != memo_.end()) {
      return it->second;
    }
    PhysNodePtr result;
    if (node->kind() == PhysOpKind::kChoosePlan) {
      // Every choose node reachable through chosen children completed its
      // decision (its subtree finished evaluation), so the lookup cannot
      // miss — unreachable choose nodes are simply never visited here.
      auto choice = choices_.find(node.get());
      DQEP_CHECK(choice != choices_.end());
      result = Extract(node->child(choice->second));
    } else {
      std::vector<PhysNodePtr> children;
      children.reserve(node->children().size());
      bool changed = false;
      for (const PhysNodePtr& child : node->children()) {
        PhysNodePtr extracted = Extract(child);
        changed = changed || extracted.get() != child.get();
        children.push_back(std::move(extracted));
      }
      result = changed
                   ? CloneWithChildren(catalog_, *node, std::move(children))
                   : node;
    }
    memo_.emplace(node.get(), result);
    return result;
  }

 private:
  const Catalog& catalog_;
  const std::unordered_map<const PhysNode*, size_t>& choices_;
  std::unordered_map<const PhysNode*, PhysNodePtr> memo_;
};


/// All host-variable ids referenced anywhere in the plan DAG (the former
/// PlanParams).
inline std::vector<ParamId> ReferencePlanParams(const PhysNode& root) {
  std::set<ParamId> params;
  for (const PhysNode* node : root.TopologicalOrder()) {
    for (const SelectionPredicate& pred : node->predicates()) {
      if (pred.HasParam()) {
        params.insert(pred.operand.param());
      }
    }
  }
  return std::vector<ParamId>(params.begin(), params.end());
}

/// The former DecisionEngine::Resolve, without the CPU timer.
inline Result<StartupResult> ReferenceResolve(
    const PhysNodePtr& root, const CostModel& model, const ParamEnv& env,
    const StartupOptions& options = {}) {
  DQEP_CHECK(root != nullptr);
  std::vector<ParamId> discovered;
  if (options.plan_params == nullptr) {
    discovered = ReferencePlanParams(*root);
  }
  const std::vector<ParamId>& params =
      options.plan_params != nullptr ? *options.plan_params : discovered;
  if (!env.FullyBound(params)) {
    return Status::InvalidArgument(
        "start-up requires all host variables bound and a point memory "
        "grant");
  }
  int64_t span_start =
      options.trace == nullptr ? 0 : options.trace->NowMicros();
  StartupEvaluator evaluator(model, env, options);
  StartupEvaluator::EvalOut top = evaluator.Eval(root.get(), kInf);
  DQEP_CHECK(!top.aborted);

  const auto& choices = evaluator.choices();
  StartupResult result;
  ChosenPlanExtractor extractor(model.catalog(), choices);
  result.resolved = extractor.Extract(root);
  result.cost_evaluations = evaluator.evaluations();
  result.decisions = evaluator.decisions();
  result.nodes_skipped =
      root->CountNodes() - evaluator.distinct_evaluated();
  result.modeled_cpu_seconds = model.StartupDecisionCost(
      evaluator.evaluations(), evaluator.decisions());
  result.choices = evaluator.choices();
  result.alternative_costs = std::move(evaluator.mutable_alternative_costs());
  // Execution cost of the chosen plan excludes the decision overhead that
  // the top-level cost estimate carries.
  result.execution_cost =
      EstimateRoot(*result.resolved, model, env,
                   EstimationMode::kExpectedValue)
          .cost.lo();
  if (options.trace != nullptr) {
    options.trace->AddSpan(
        "resolve", "startup", span_start,
        options.trace->NowMicros() - span_start, /*track=*/0,
        {{"decisions", std::to_string(result.decisions)},
         {"cost_evaluations", std::to_string(result.cost_evaluations)},
         {"nodes_skipped", std::to_string(result.nodes_skipped)},
         {"execution_cost", std::to_string(result.execution_cost)}});
  }
  return result;
}

}  // namespace reference
}  // namespace dqep

#endif  // DQEP_TESTS_REFERENCE_STARTUP_H_
