#include "runtime/decision_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/trace.h"
#include "physical/costing.h"
#include "runtime/plan_rewrite.h"

namespace dqep {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kNotForced = std::numeric_limits<size_t>::max();

/// Depth-first point-cost evaluator over a StartupProgram, with an
/// optional abort budget (start-up branch-and-bound): evaluation of a
/// subtree stops as soon as its accumulated cost exceeds the cheapest
/// complete alternative seen so far.  Completed node evaluations are
/// memoized by node index so shared subplans are costed once.  All
/// per-resolve state is dense arrays indexed by node (or edge, or
/// choose ordinal); the program itself is shared and read-only.
class ProgramEvaluator {
 public:
  ProgramEvaluator(const StartupProgram& program, const CostModel& model,
                   const ParamEnv& env, const StartupOptions& options)
      : program_(program),
        model_(model),
        env_(env),
        branch_and_bound_(options.use_branch_and_bound),
        trace_(options.trace),
        flags_(program.size(), 0),
        estimates_(program.size()),
        alt_costs_(program.edge_count(), kInf),
        choices_(program.choose_count(), kUndecided) {
    if (branch_and_bound_) {
      abort_budgets_.assign(program.size(), 0.0);
    }
    // Per-node overrides are keyed by node address; translate them to
    // node indices once, by scanning the node array.
    if (options.forced_choices != nullptr) {
      forced_.assign(program.size(), kNotForced);
      for (uint32_t i = 0; i < program.size(); ++i) {
        auto it = options.forced_choices->find(&program.node(i));
        if (it != options.forced_choices->end()) {
          forced_[i] = it->second;
        }
      }
    }
    if (options.observed_cardinalities != nullptr) {
      observed_.assign(program.size(), 0.0);
      for (uint32_t i = 0; i < program.size(); ++i) {
        auto it = options.observed_cardinalities->find(&program.node(i));
        if (it != options.observed_cardinalities->end()) {
          flags_[i] |= kObserved;
          observed_[i] = it->second;
        }
      }
    }
  }

  /// Evaluates node `index` within `budget`; false when it aborted.  On
  /// success the node's estimate is final in estimates_[index].
  bool Eval(uint32_t index, double budget) {
    if ((flags_[index] & kDone) != 0) {
      return true;
    }
    if (branch_and_bound_ && (flags_[index] & kAborted) != 0 &&
        budget <= abort_budgets_[index]) {
      // A node that already aborted under a budget >= this one will abort
      // again; skip the re-descent.  (Without this, shared subplans inside
      // abandoned alternatives are re-evaluated once per parent budget and
      // the "optimization" costs far more than it saves.)
      return false;
    }
    const PhysNode& node = program_.node(index);
    const uint32_t begin = program_.child_begin(index);
    const uint32_t end = program_.child_end(index);
    if (node.kind() == PhysOpKind::kChoosePlan) {
      ++decisions_;
      int64_t span_start = trace_ == nullptr ? 0 : trace_->NowMicros();
      double best = kInf;
      size_t best_index = 0;
      NodeEstimate best_estimate;
      for (uint32_t edge = begin; edge < end; ++edge) {
        double alt_budget = branch_and_bound_ ? std::min(budget, best) : kInf;
        uint32_t alt = program_.child_at(edge);
        if (!Eval(alt, alt_budget)) {
          continue;
        }
        double cost = estimates_[alt].cost.lo();
        alt_costs_[edge] = cost;
        if (cost < best) {
          best = cost;
          best_index = edge - begin;
          best_estimate = estimates_[alt];
        }
      }
      if (best == kInf) {
        return Abort(index, budget);
      }
      if (!forced_.empty() && forced_[index] < end - begin) {
        // Replay override: resolve to the requested alternative instead of
        // the cheapest one.  Re-evaluating under an infinite budget revives
        // alternatives that branch-and-bound abandoned above; the memo makes
        // the common (already-evaluated) case free.
        uint32_t alt = program_.child_at(begin + forced_[index]);
        if (Eval(alt, kInf)) {
          best_index = forced_[index];
          best_estimate = estimates_[alt];
          best = best_estimate.cost.lo();
        }
      }
      choices_[program_.choose_ordinal(index)] = best_index;
      if (trace_ != nullptr) {
        RecordDecisionSpan(node, begin, best_index, span_start);
      }
      estimates_[index].cardinality = best_estimate.cardinality;
      estimates_[index].cost =
          best_estimate.cost +
          Interval::Point(model_.config().choose_plan_decision_seconds);
      flags_[index] |= kDone;
      return true;
    }
    // Regular operator: children first, aborting if the running total
    // exceeds the budget.
    double spent = 0.0;
    for (uint32_t edge = begin; edge < end; ++edge) {
      uint32_t child = program_.child_at(edge);
      if (!Eval(child, budget - spent)) {
        return Abort(index, budget);
      }
      spent += estimates_[child].cost.lo();
      if (branch_and_bound_ && spent > budget) {
        return Abort(index, budget);
      }
    }
    // Children are done, so their estimates are final; the pointer
    // scratch is not reused until EstimateNode returns.
    child_ptrs_.clear();
    for (uint32_t edge = begin; edge < end; ++edge) {
      child_ptrs_.push_back(&estimates_[program_.child_at(edge)]);
    }
    ++evaluations_;
    if ((flags_[index] & kEvaluated) == 0) {
      flags_[index] |= kEvaluated;
      ++distinct_evaluated_;
    }
    NodeEstimate estimate = EstimateNode(node, child_ptrs_, model_, env_,
                                         EstimationMode::kExpectedValue);
    if ((flags_[index] & kObserved) != 0) {
      double observed = observed_[index];
      estimate.cardinality = Interval::Point(observed);
      // For access paths whose cost is a direct function of the rows
      // they produce, the observation corrects the cost as well — this
      // is what lets observed decisions fix a mis-estimated index scan.
      if (node.kind() == PhysOpKind::kFilterBTreeScan) {
        estimate.cost = Interval::Point(model_.FilterBTreeScanCost(observed));
      }
    }
    if (branch_and_bound_ && estimate.cost.lo() > budget) {
      return Abort(index, budget);
    }
    estimates_[index] = estimate;
    flags_[index] |= kDone;
    return true;
  }

  int64_t evaluations() const { return evaluations_; }
  int64_t decisions() const { return decisions_; }
  int64_t distinct_evaluated() const { return distinct_evaluated_; }

  /// Chosen alternative of the choose node with `ordinal`, or kUndecided
  /// when that node never completed a decision.
  size_t choice(int32_t ordinal) const {
    return choices_[static_cast<size_t>(ordinal)];
  }
  static constexpr size_t kUndecided = std::numeric_limits<size_t>::max();

  /// The pointer-keyed maps StartupResult reports, filled once from the
  /// dense state: one entry per choose node that completed a decision.
  void FillResult(StartupResult* result) const {
    result->choices.reserve(program_.choose_count());
    result->alternative_costs.reserve(program_.choose_count());
    for (uint32_t ordinal = 0; ordinal < program_.choose_count(); ++ordinal) {
      if (choices_[ordinal] == kUndecided) {
        continue;
      }
      uint32_t index = program_.choose_node(static_cast<int32_t>(ordinal));
      const PhysNode* node = &program_.node(index);
      result->choices.emplace(node, choices_[ordinal]);
      result->alternative_costs.emplace(
          node,
          std::vector<double>(
              alt_costs_.begin() + program_.child_begin(index),
              alt_costs_.begin() + program_.child_end(index)));
    }
  }

 private:
  enum Flag : uint8_t {
    kDone = 1,       ///< estimate final (memoized)
    kAborted = 2,    ///< aborted at least once; see abort_budgets_
    kEvaluated = 4,  ///< EstimateNode ran at least once
    kObserved = 8,   ///< has an observed cardinality
  };

  /// One trace span per completed choose-plan decision: each
  /// alternative's resolved point cost plus its compile-time cost
  /// interval (the optimizer's annotation — the ambiguity this decision
  /// just resolved).
  void RecordDecisionSpan(const PhysNode& node, uint32_t begin,
                          size_t chosen, int64_t span_start) {
    const size_t alternatives = node.children().size();
    std::vector<std::pair<std::string, std::string>> args;
    args.emplace_back("alternatives", std::to_string(alternatives));
    args.emplace_back("chosen", std::to_string(chosen));
    for (size_t i = 0; i < alternatives; ++i) {
      std::string prefix = "alt" + std::to_string(i);
      args.emplace_back(prefix + "_op", PhysOpKindName(node.child(i)->kind()));
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
      args.emplace_back(prefix + "_resolved_cost",
                        format_cost(alt_costs_[begin + i]));
      const Interval& interval = node.child(i)->est_cost();
      args.emplace_back(prefix + "_cost_lo", format_cost(interval.lo()));
      args.emplace_back(prefix + "_cost_hi", format_cost(interval.hi()));
    }
    trace_->AddSpan("choose-plan decision", "resolve", span_start,
                    trace_->NowMicros() - span_start, /*track=*/0,
                    std::move(args));
  }

  /// Records that node `index` cannot complete within `budget` and
  /// returns false.  Only branch-and-bound consults abort budgets, and
  /// a node's recorded budget only grows: Eval re-descends only under a
  /// budget above it.
  bool Abort(uint32_t index, double budget) {
    if (branch_and_bound_ && budget != kInf) {
      flags_[index] |= kAborted;
      abort_budgets_[index] = budget;
    }
    return false;
  }

  const StartupProgram& program_;
  const CostModel& model_;
  const ParamEnv& env_;
  bool branch_and_bound_;
  obs::TraceSession* trace_;
  std::vector<uint8_t> flags_;                    // per node
  std::vector<NodeEstimate> estimates_;           // per node
  std::vector<double> abort_budgets_;             // per node (B&B only)
  std::vector<size_t> forced_;                    // per node (if forced)
  std::vector<double> observed_;                  // per node (if observed)
  std::vector<double> alt_costs_;                 // per child edge
  std::vector<size_t> choices_;                   // per choose ordinal
  std::vector<const NodeEstimate*> child_ptrs_;   // EstimateNode scratch
  int64_t evaluations_ = 0;
  int64_t decisions_ = 0;
  int64_t distinct_evaluated_ = 0;
};

/// Top-down extraction of the chosen plan: recurses into the chosen
/// alternative of each choose-plan operator only, so the non-chosen
/// subgraphs — most of a dynamic plan DAG — are never visited, let alone
/// rebuilt.  Subtrees containing no decisions are returned as-is (still
/// shared with the dynamic plan), matching RewritePlan's sharing
/// behavior; only ancestors of a replaced choose node are cloned.  The
/// same walk costs the extracted plan bottom-up (EstimateNode on each
/// extracted node, exactly what EstimateRoot over the result computes),
/// which is the chosen plan's execution cost.
class ChosenPlanExtractor {
 public:
  ChosenPlanExtractor(const StartupProgram& program,
                      const ProgramEvaluator& evaluator,
                      const CostModel& model, const ParamEnv& env)
      : program_(program),
        evaluator_(evaluator),
        model_(model),
        env_(env),
        memo_(program.size()) {}

  struct Extracted {
    PhysNodePtr node;  ///< null until extracted
    NodeEstimate estimate;
  };

  /// Extracts node `index`; `self` is the owning pointer to it.
  const Extracted& Extract(uint32_t index, const PhysNodePtr& self) {
    Extracted& out = memo_[index];
    if (out.node != nullptr) {
      return out;
    }
    const PhysNode& node = program_.node(index);
    const uint32_t begin = program_.child_begin(index);
    if (node.kind() == PhysOpKind::kChoosePlan) {
      // Every choose node reachable through chosen children completed its
      // decision (its subtree finished evaluation), so it has a choice —
      // unreachable choose nodes are simply never visited here.
      size_t choice = evaluator_.choice(program_.choose_ordinal(index));
      DQEP_CHECK(choice != ProgramEvaluator::kUndecided);
      out = Extract(program_.child_at(begin + static_cast<uint32_t>(choice)),
                    node.child(choice));
      return out;
    }
    const uint32_t end = program_.child_end(index);
    bool changed = false;
    for (uint32_t edge = begin; edge < end; ++edge) {
      const Extracted& child =
          Extract(program_.child_at(edge), node.child(edge - begin));
      changed = changed || child.node.get() != node.child(edge - begin).get();
    }
    if (changed) {
      std::vector<PhysNodePtr> children;
      children.reserve(end - begin);
      for (uint32_t edge = begin; edge < end; ++edge) {
        children.push_back(memo_[program_.child_at(edge)].node);
      }
      out.node = CloneWithChildren(model_.catalog(), node, std::move(children));
    } else {
      out.node = self;
    }
    child_ptrs_.clear();
    for (uint32_t edge = begin; edge < end; ++edge) {
      child_ptrs_.push_back(&memo_[program_.child_at(edge)].estimate);
    }
    out.estimate = EstimateNode(*out.node, child_ptrs_, model_, env_,
                                EstimationMode::kExpectedValue);
    return out;
  }

 private:
  const StartupProgram& program_;
  const ProgramEvaluator& evaluator_;
  const CostModel& model_;
  const ParamEnv& env_;
  std::vector<Extracted> memo_;  // per node
  std::vector<const NodeEstimate*> child_ptrs_;
};

}  // namespace

Result<StartupResult> DecisionEngine::Resolve(
    const StartupProgram& program, const ParamEnv& env,
    const StartupOptions& options) const {
  const std::vector<ParamId>& params = options.plan_params != nullptr
                                           ? *options.plan_params
                                           : program.params();
  if (!env.FullyBound(params)) {
    return Status::InvalidArgument(
        "start-up requires all host variables bound and a point memory "
        "grant");
  }
  // Thread CPU time: resolution runs on the calling thread, and process
  // CPU time would absorb any concurrently-running workers.
  ThreadCpuTimer timer;
  int64_t span_start =
      options.trace == nullptr ? 0 : options.trace->NowMicros();
  ProgramEvaluator evaluator(program, model_, env, options);
  DQEP_CHECK(evaluator.Eval(program.root_index(), kInf));

  StartupResult result;
  // Execution cost of the chosen plan excludes the decision overhead that
  // the top-level cost estimate carries: it is the extracted plan's own
  // bottom-up estimate.
  ChosenPlanExtractor extractor(program, evaluator, model_, env);
  const ChosenPlanExtractor::Extracted& top =
      extractor.Extract(program.root_index(), program.root());
  result.resolved = top.node;
  result.execution_cost = top.estimate.cost.lo();
  result.measured_cpu_seconds = timer.ElapsedSeconds();
  result.cost_evaluations = evaluator.evaluations();
  result.decisions = evaluator.decisions();
  result.nodes_skipped =
      static_cast<int64_t>(program.size()) - evaluator.distinct_evaluated();
  result.modeled_cpu_seconds = model_.StartupDecisionCost(
      evaluator.evaluations(), evaluator.decisions());
  evaluator.FillResult(&result);
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

Result<DecisionEngine::SuffixPlan> DecisionEngine::ReoptimizeSuffix(
    const Query& suffix, const ParamEnv& env,
    const OptimizerOptions& opt_options, const StartupOptions& options) const {
  // At a runtime checkpoint every host variable is bound, so interval and
  // expected-value estimation coincide; the search degenerates to a
  // traditional point-cost optimization and the resolve step below only
  // clears residual choose-plan operators (if the configured estimation
  // mode still produced any).
  Optimizer optimizer(&model_, opt_options);
  Result<OptimizedPlan> optimized = optimizer.Optimize(suffix, env);
  if (!optimized.ok()) {
    return optimized.status();
  }
  Result<StartupResult> resolved =
      Resolve(StartupProgram(optimized->root), env, options);
  if (!resolved.ok()) {
    return resolved.status();
  }
  SuffixPlan out;
  out.resolved = resolved->resolved;
  out.execution_cost = resolved->execution_cost;
  out.optimize_seconds = optimized->stats.optimize_seconds;
  out.startup = std::move(*resolved);
  // Re-annotate so downstream checkpoints compare against estimates made
  // under the runtime bindings, not whatever the search left behind.
  AnnotatePlan(*out.resolved, model_, env, EstimationMode::kExpectedValue);
  return out;
}

}  // namespace dqep
