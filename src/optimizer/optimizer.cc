#include "optimizer/optimizer.h"

#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"

namespace dqep {

std::string SearchStats::ToString() const {
  std::ostringstream os;
  os << "goals=" << goals << " considered=" << plans_considered
     << " pruned=" << plans_pruned << " dominated=" << plans_dominated
     << " kept=" << frontier_plans
     << " logical_alternatives=" << logical_alternatives
     << " time=" << optimize_seconds << "s";
  return os.str();
}

namespace {

obs::SharedCounterRef g_goals_metric("optimizer.goals");
obs::SharedCounterRef g_considered_metric("optimizer.plans_considered");
obs::SharedCounterRef g_pruned_metric("optimizer.plans_pruned");
obs::SharedCounterRef g_dominated_metric("optimizer.plans_dominated");
obs::SharedCounterRef g_frontier_metric("optimizer.frontier_plans");
obs::SharedCounterRef g_alternatives_metric("optimizer.logical_alternatives");

/// One optimization goal: a relation set plus a required sort order.
struct GoalKey {
  RelSet set;
  SortOrder order;

  friend bool operator==(const GoalKey& a, const GoalKey& b) {
    return a.set == b.set && a.order == b.order;
  }
};

struct GoalKeyHash {
  size_t operator()(const GoalKey& key) const {
    uint64_t h = key.set;
    if (key.order.IsSorted()) {
      const AttrRef& attr = key.order.attr();
      h ^= (static_cast<uint64_t>(attr.relation) << 32) ^
           (static_cast<uint64_t>(static_cast<uint32_t>(attr.column)) + 1);
    }
    // Finalizer from splitmix64: spreads the relation-set bits, which are
    // dense in the low positions, across the whole word.
    h ^= h >> 30;
    h *= UINT64_C(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h *= UINT64_C(0x94d049bb133111eb);
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
};

/// Memoized result of one goal: the frontier of cost-incomparable plans
/// and the goal's materialized (possibly dynamic) plan.
struct Goal {
  std::vector<PhysNodePtr> frontier;
  std::vector<NodeEstimate> estimates;  // parallel to frontier
  PhysNodePtr root;
  NodeEstimate estimate;
};

/// Per-optimization search state: memo table plus statistics.
class SearchContext {
 public:
  SearchContext(const Query& query, const CostModel& model,
                const ParamEnv& env, const OptimizerOptions& options)
      : query_(query), model_(model), env_(env), options_(options) {}

  Result<OptimizedPlan> Run() {
    // Thread CPU time: the search is single-threaded, and process CPU
    // time would absorb concurrent exchange workers of other queries.
    ThreadCpuTimer timer;
    // ORDER BY becomes the root goal's required physical property, the
    // generalization of System R's interesting orders.
    SortOrder root_order = query_.HasOrderBy()
                               ? SortOrder::On(query_.order_by())
                               : SortOrder();
    Result<const Goal*> root = OptimizeGoal(query_.AllTerms(), root_order);
    if (!root.ok()) {
      return root.status();
    }
    OptimizedPlan plan;
    plan.root = (*root)->root;
    plan.cost = (*root)->estimate.cost;
    plan.cardinality = (*root)->estimate.cardinality;
    if (!query_.projection().empty()) {
      plan.root = PhysNode::Project(model_.catalog(), query_.projection(),
                                    plan.root);
      NodeEstimate estimate = Estimate(*plan.root);
      plan.cost = estimate.cost;
      plan.cardinality = estimate.cardinality;
    }
    stats_.logical_alternatives = CountLogicalTrees(query_.AllTerms());
    stats_.optimize_seconds = timer.ElapsedSeconds();
    plan.stats = stats_;
    PublishStats(stats_);
    AnnotatePlan(*plan.root, model_, env_, options_.estimation);
    return plan;
  }

 private:
  /// Mirrors one search's statistics into the process-wide
  /// "optimizer.*" registry metrics (counters accumulate across
  /// optimizations; the histogram buckets per-call latency).
  static void PublishStats(const SearchStats& stats) {
    g_goals_metric.Add(stats.goals);
    g_considered_metric.Add(stats.plans_considered);
    g_pruned_metric.Add(stats.plans_pruned);
    g_dominated_metric.Add(stats.plans_dominated);
    g_frontier_metric.Add(stats.frontier_plans);
    g_alternatives_metric.Add(stats.logical_alternatives);
    obs::MetricsRegistry::Instance()
        .SharedHistogram("optimizer.optimize_us")
        ->Record(static_cast<int64_t>(stats.optimize_seconds * 1e6));
  }

  /// Optimizes (set, order), memoized.
  Result<const Goal*> OptimizeGoal(RelSet set, const SortOrder& order) {
    GoalKey key{set, order};
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      return it->second.get();
    }
    // Goals form a DAG (children are strict subsets; sorted goals depend
    // only on unsorted goals of the same set), so recursion terminates and
    // no in-progress marker is needed.
    auto goal = std::make_unique<Goal>();
    ++stats_.goals;
    Status status = RelSetSize(set) == 1 ? EnumerateLeaf(set, order, goal.get())
                                         : EnumerateJoins(set, order, goal.get());
    if (!status.ok()) {
      return status;
    }
    if (order.IsSorted()) {
      DQEP_RETURN_IF_ERROR(AddSortEnforcer(set, order, goal.get()));
    }
    if (goal->frontier.empty()) {
      return Status::Internal("no plan found for goal (check algorithm "
                              "toggles)");
    }
    DQEP_RETURN_IF_ERROR(Finalize(order, goal.get()));
    stats_.frontier_plans += static_cast<int64_t>(goal->frontier.size());
    const Goal* result = goal.get();
    memo_.emplace(key, std::move(goal));
    return result;
  }

  /// Access-path alternatives for a single-relation goal (paper Figure 1):
  /// file scan + filter, filter-B-tree-scan per indexable predicate, and
  /// B-tree scan + filter where an order is useful.
  Status EnumerateLeaf(RelSet set, const SortOrder& order, Goal* goal) {
    int32_t term_index = RelSetMembers(set).front();
    const RelationTerm& term = query_.term(term_index);
    const Catalog& catalog = model_.catalog();

    // A materialized intermediate has exactly one access path: scan it in
    // captured order.  A sort enforcer handles any required order.
    if (term.IsMaterialized()) {
      Consider(PhysNode::MaterializedScan(term.materialized), order, goal);
      return Status::OK();
    }

    const RelationInfo& relation = catalog.relation(term.relation);

    // 1. File scan (+ filter).
    {
      PhysNodePtr scan = PhysNode::FileScan(catalog, term.relation);
      PhysNodePtr plan = term.predicates.empty()
                             ? scan
                             : PhysNode::Filter(term.predicates, scan);
      Consider(plan, order, goal);
    }

    if (!options_.use_btree_scans) {
      return Status::OK();
    }

    // 2. Filter-B-tree-scan on each indexable predicate; remaining
    //    predicates apply as a residual filter.  The residual vector is
    //    hoisted out of the loop and refilled in place so each indexable
    //    predicate reuses its capacity.
    std::vector<SelectionPredicate> residual;
    residual.reserve(term.predicates.size());
    for (size_t i = 0; i < term.predicates.size(); ++i) {
      const SelectionPredicate& pred = term.predicates[i];
      if (!relation.HasIndexOn(pred.attr.column)) {
        continue;
      }
      PhysNodePtr scan =
          PhysNode::FilterBTreeScan(catalog, term.relation, pred);
      residual.clear();
      for (size_t j = 0; j < term.predicates.size(); ++j) {
        if (j != i) {
          residual.push_back(term.predicates[j]);
        }
      }
      PhysNodePtr plan =
          residual.empty() ? scan : PhysNode::Filter(residual, scan);
      Consider(plan, order, goal);
    }

    // 3. Full B-tree scan (+ filter): useful when it delivers an order —
    //    either the goal's, or the order of a predicate column (the
    //    paper's third physical expression for the selection query).
    for (const IndexInfo& index : relation.indexes()) {
      AttrRef attr{term.relation, index.column};
      bool delivers_goal_order = order.IsSorted() && order.attr() == attr;
      bool covers_predicate = false;
      for (const SelectionPredicate& pred : term.predicates) {
        if (pred.attr == attr) {
          covers_predicate = true;
        }
      }
      if (!delivers_goal_order && !covers_predicate) {
        continue;
      }
      PhysNodePtr scan =
          PhysNode::BTreeScan(catalog, term.relation, index.column);
      PhysNodePtr plan = term.predicates.empty()
                             ? scan
                             : PhysNode::Filter(term.predicates, scan);
      Consider(plan, order, goal);
    }
    return Status::OK();
  }

  /// Join alternatives for a multi-relation goal: every connected ordered
  /// partition (join commutativity and associativity closure: all bushy
  /// trees), with hash-, merge-, and index-join implementations.
  Status EnumerateJoins(RelSet set, const SortOrder& order, Goal* goal) {
    const Catalog& catalog = model_.catalog();
    for (RelSet sub = (set - 1) & set; sub != 0; sub = (sub - 1) & set) {
      RelSet other = set ^ sub;
      if (other == 0 || !IsConnected(sub) || !IsConnected(other) ||
          !query_.Connected(sub, other)) {
        continue;
      }
      std::vector<JoinPredicate> joins = OrientedJoins(sub, other);

      if (options_.use_hash_join) {
        Result<const Goal*> build = OptimizeGoal(sub, SortOrder());
        if (!build.ok()) return build.status();
        Result<const Goal*> probe = OptimizeGoal(other, SortOrder());
        if (!probe.ok()) return probe.status();
        if (!PruneByBound(
                (*build)->estimate.cost.lo() + (*probe)->estimate.cost.lo(),
                goal)) {
          Consider(PhysNode::HashJoin(joins, (*build)->root, (*probe)->root),
                   order, goal);
        }
      }

      if (options_.use_merge_join) {
        const JoinPredicate& key = joins.front();
        Result<const Goal*> left = OptimizeGoal(sub, SortOrder::On(key.left));
        if (!left.ok()) return left.status();
        Result<const Goal*> right =
            OptimizeGoal(other, SortOrder::On(key.right));
        if (!right.ok()) return right.status();
        if (!PruneByBound(
                (*left)->estimate.cost.lo() + (*right)->estimate.cost.lo(),
                goal)) {
          Consider(PhysNode::MergeJoin(joins, (*left)->root, (*right)->root),
                   order, goal);
        }
      }

      if (options_.use_index_join && RelSetSize(other) == 1 &&
          joins.size() == 1) {
        const JoinPredicate& key = joins.front();
        const RelationTerm& inner =
            query_.term(RelSetMembers(other).front());
        // A materialized intermediate has no B-tree to probe.
        if (!inner.IsMaterialized() &&
            catalog.relation(inner.relation).HasIndexOn(key.right.column)) {
          Result<const Goal*> outer = OptimizeGoal(sub, SortOrder());
          if (!outer.ok()) return outer.status();
          if (!PruneByBound((*outer)->estimate.cost.lo(), goal)) {
            Consider(PhysNode::IndexJoin(catalog, key, inner.predicates,
                                         (*outer)->root),
                     order, goal);
          }
        }
      }
    }
    return Status::OK();
  }

  /// Adds the sort enforcer: Sort(attr) over the unsorted goal's plan.
  Status AddSortEnforcer(RelSet set, const SortOrder& order, Goal* goal) {
    Result<const Goal*> input = OptimizeGoal(set, SortOrder());
    if (!input.ok()) {
      return input.status();
    }
    if (!PruneByBound((*input)->estimate.cost.lo(), goal)) {
      Consider(PhysNode::Sort(order.attr(), (*input)->root), order, goal);
    }
    return Status::OK();
  }

  /// Branch-and-bound: returns true (prune) if a candidate whose inputs
  /// alone cost at least `input_cost_lo` cannot beat the cheapest known
  /// upper bound.  With interval costs only lower bounds may be compared
  /// against the bound (paper §3), so pruning is far weaker in dynamic
  /// mode than with point costs.
  bool PruneByBound(double input_cost_lo, const Goal* goal) {
    if (!options_.prune_with_bounds || options_.force_incomparable) {
      return false;
    }
    double bound = UpperBound(*goal);
    if (input_cost_lo > bound) {
      ++stats_.plans_pruned;
      return true;
    }
    return false;
  }

  /// Cheapest guaranteed (upper-bound) cost across the goal's frontier.
  static double UpperBound(const Goal& goal) {
    double bound = std::numeric_limits<double>::infinity();
    for (const NodeEstimate& estimate : goal.estimates) {
      bound = std::min(bound, estimate.cost.hi());
    }
    return bound;
  }

  /// Costs `plan` and inserts it into the goal's frontier unless it is
  /// dominated; evicts plans the candidate dominates.  Plans with
  /// overlapping cost intervals are incomparable and coexist.
  void Consider(const PhysNodePtr& plan, const SortOrder& order, Goal* goal) {
    if (order.IsSorted() && !plan->output_order().Satisfies(order)) {
      return;
    }
    // Keep every considered plan alive for the duration of the search:
    // node_estimates_ is keyed by node address, so letting rejected
    // candidates die would allow a later allocation to reuse the address
    // and alias a stale estimate.
    considered_.push_back(plan);
    ++stats_.plans_considered;
    NodeEstimate estimate = Estimate(*plan);
    if (!options_.force_incomparable) {
      // Single pass: the frontier is mutually incomparable, so by
      // transitivity of the interval partial order a candidate dominated
      // by one member cannot also dominate another — an early return on
      // kGreater/kEqual never strands evictions already performed.
      size_t kept = 0;
      for (size_t i = 0; i < goal->frontier.size(); ++i) {
        PartialOrdering cmp = estimate.cost.Compare(goal->estimates[i].cost);
        if (cmp == PartialOrdering::kGreater || cmp == PartialOrdering::kEqual) {
          // No eviction can have preceded this: a member above the
          // candidate and a member below it would be mutually comparable.
          DQEP_CHECK_EQ(kept, i);
          ++stats_.plans_dominated;
          return;  // An existing plan is never worse; drop the candidate.
        }
        if (cmp == PartialOrdering::kLess) {
          ++stats_.plans_dominated;
          continue;  // Candidate strictly dominates this plan: evict it.
        }
        if (kept != i) {
          goal->frontier[kept] = std::move(goal->frontier[i]);
          goal->estimates[kept] = goal->estimates[i];
        }
        ++kept;
      }
      goal->frontier.resize(kept);
      goal->estimates.resize(kept);
    }
    goal->frontier.push_back(plan);
    goal->estimates.push_back(estimate);
  }

  /// Costs one candidate.  Children that are finalized goal plans hit the
  /// cache; freshly built interior nodes (e.g. the scan under a leaf's
  /// filter) are costed recursively.
  NodeEstimate Estimate(const PhysNode& node) {
    auto cached = node_estimates_.find(&node);
    if (cached != node_estimates_.end()) {
      return cached->second;
    }
    std::vector<NodeEstimate> child_estimates;
    child_estimates.reserve(node.children().size());
    for (const PhysNodePtr& child : node.children()) {
      child_estimates.push_back(Estimate(*child));
    }
    std::vector<const NodeEstimate*> children;
    children.reserve(child_estimates.size());
    for (const NodeEstimate& estimate : child_estimates) {
      children.push_back(&estimate);
    }
    NodeEstimate estimate =
        EstimateNode(node, children, model_, env_, options_.estimation);
    node_estimates_.emplace(&node, estimate);
    return estimate;
  }

  /// Materializes the goal's plan: the single frontier plan, or a
  /// choose-plan operator over the alternatives (paper §3).
  Status Finalize(const SortOrder& order, Goal* goal) {
    if (goal->frontier.size() == 1) {
      goal->root = goal->frontier.front();
      goal->estimate = goal->estimates.front();
      return Status::OK();
    }
    goal->root = PhysNode::ChoosePlan(goal->frontier, order);
    std::vector<const NodeEstimate*> children;
    children.reserve(goal->estimates.size());
    for (const NodeEstimate& estimate : goal->estimates) {
      children.push_back(&estimate);
    }
    goal->estimate =
        EstimateNode(*goal->root, children, model_, env_, options_.estimation);
    node_estimates_.emplace(goal->root.get(), goal->estimate);
    return Status::OK();
  }

  bool IsConnected(RelSet set) {
    auto it = connected_.find(set);
    if (it != connected_.end()) {
      return it->second;
    }
    bool connected = query_.IsConnectedSet(set);
    connected_.emplace(set, connected);
    return connected;
  }

  /// Join predicates between `sub` and `other`, each oriented so that the
  /// left attribute comes from `sub`.
  std::vector<JoinPredicate> OrientedJoins(RelSet sub, RelSet other) {
    std::vector<JoinPredicate> joins = query_.JoinsBetween(sub, other);
    for (JoinPredicate& join : joins) {
      int32_t left_term = query_.TermOf(join.left.relation);
      if (!RelSetContains(sub, left_term)) {
        std::swap(join.left, join.right);
      }
    }
    DQEP_CHECK(!joins.empty());
    return joins;
  }

  /// Number of distinct logical join trees for `set` under commutativity
  /// and associativity (ordered connected partitions).
  double CountLogicalTrees(RelSet set) {
    if (RelSetSize(set) <= 1) {
      return 1.0;
    }
    auto it = tree_counts_.find(set);
    if (it != tree_counts_.end()) {
      return it->second;
    }
    double count = 0.0;
    for (RelSet sub = (set - 1) & set; sub != 0; sub = (sub - 1) & set) {
      RelSet other = set ^ sub;
      if (other == 0 || !IsConnected(sub) || !IsConnected(other) ||
          !query_.Connected(sub, other)) {
        continue;
      }
      count += CountLogicalTrees(sub) * CountLogicalTrees(other);
    }
    tree_counts_.emplace(set, count);
    return count;
  }

  const Query& query_;
  const CostModel& model_;
  const ParamEnv& env_;
  const OptimizerOptions& options_;

  std::unordered_map<GoalKey, std::unique_ptr<Goal>, GoalKeyHash> memo_;
  std::unordered_map<RelSet, bool> connected_;
  std::unordered_map<RelSet, double> tree_counts_;
  /// Compile-time estimates for every node referenced during this search.
  std::unordered_map<const PhysNode*, NodeEstimate> node_estimates_;
  /// Every candidate ever considered (see Consider: pointer-keyed caches
  /// require node addresses to stay stable for the whole search).
  std::vector<PhysNodePtr> considered_;
  SearchStats stats_;
};

}  // namespace

Result<OptimizedPlan> Optimizer::Optimize(const Query& query,
                                          const ParamEnv& env) {
  DQEP_RETURN_IF_ERROR(query.Validate(model_->catalog()));
  SearchContext context(query, *model_, env, options_);
  return context.Run();
}

}  // namespace dqep
