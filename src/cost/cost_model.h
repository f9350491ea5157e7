// The cost model: selectivity estimation and algorithm cost formulas.
//
// Every estimate is an Interval (paper §5).  Under EstimationMode::
// kExpectedValue all intervals are points and the model reduces to a
// traditional optimizer's; under kInterval, unbound parameters expand to
// their full domains and costs become partially ordered.
//
// All cost formulas are monotonically non-decreasing in their cardinality
// arguments and non-increasing in memory, which is what justifies interval
// extension by evaluating the scalar formula at the bounds (paper §5:
// "assuming that cost functions are monotonic in all their arguments").

#ifndef DQEP_COST_COST_MODEL_H_
#define DQEP_COST_COST_MODEL_H_

#include <vector>

#include "catalog/catalog.h"
#include "catalog/histogram.h"
#include "common/interval.h"
#include "cost/param_env.h"
#include "cost/system_config.h"
#include "logical/query.h"

namespace dqep {

/// Quantity decomposition of one cost formula: how many unit operations
/// of each kind the formula charges for.  The scalar cost is the dot
/// product of these quantities with the corresponding unit constants
/// (CostModel::TermsCost), up to floating-point association.
///
/// The calibration pass (obs/calibrate.*) logs the quantities next to
/// measured seconds and re-fits the unit constants by least squares; the
/// scalar formulas above remain the single source of truth for planning
/// (the *Terms methods mirror them, guarded by a differential test).
struct CostTerms {
  double seq_pages = 0.0;     ///< x SystemConfig::SeqPageIoSeconds()
  double random_pages = 0.0;  ///< x random_page_io_seconds
  double tuple_ops = 0.0;     ///< x cpu_tuple_seconds
  double compare_ops = 0.0;   ///< x cpu_compare_seconds
  double hash_ops = 0.0;      ///< x cpu_hash_seconds

  /// Number of fitted unit kinds (the vector dimension of a fit).
  static constexpr int kCount = 5;

  /// Component by index, in the declaration order above.
  double component(int i) const;
  void set_component(int i, double v);

  /// Unit-constant name for component `i` ("seq_page_io", ...).
  static const char* ComponentName(int i);

  CostTerms& operator+=(const CostTerms& other) {
    seq_pages += other.seq_pages;
    random_pages += other.random_pages;
    tuple_ops += other.tuple_ops;
    compare_ops += other.compare_ops;
    hash_ops += other.hash_ops;
    return *this;
  }

  bool IsZero() const {
    return seq_pages == 0.0 && random_pages == 0.0 && tuple_ops == 0.0 &&
           compare_ops == 0.0 && hash_ops == 0.0;
  }
};

/// Selectivity estimation and per-algorithm cost functions.
///
/// Stateless apart from configuration; safe to share across optimizations.
class CostModel {
 public:
  /// `stats` (optional) supplies per-column histograms; literal and
  /// bound-parameter selectivities then come from the data distribution
  /// instead of the uniform assumption.  Not owned; may be null.
  CostModel(const Catalog* catalog, SystemConfig config,
            const StatisticsCatalog* stats = nullptr)
      : catalog_(catalog), config_(config), stats_(stats) {
    DQEP_CHECK(catalog != nullptr);
  }

  const Catalog& catalog() const { return *catalog_; }
  const SystemConfig& config() const { return config_; }
  /// Epoch of the attached statistics (0 without histograms): what a
  /// plan compiled under this model is stamped with in the plan cache.
  uint64_t stats_epoch() const {
    return stats_ == nullptr ? 0 : stats_->epoch();
  }

  // --- Selectivity ---------------------------------------------------------

  /// Selectivity of `attr op value`: from the column's histogram when
  /// statistics are attached, else assuming uniform values over
  /// [0, domain).  A point interval.
  Interval LiteralSelectivity(const AttrRef& attr, CompareOp op,
                              const Value& value) const;

  /// True iff a histogram backs estimates for `attr`.
  bool HasStatisticsFor(const AttrRef& attr) const {
    return stats_ != nullptr && stats_->Has(attr);
  }

  /// Selectivity of a predicate under `env`: literal and bound-parameter
  /// predicates give points; unbound parameters give the configured
  /// expectation (kExpectedValue) or [0, 1] (kInterval).
  Interval Selectivity(const SelectionPredicate& pred, const ParamEnv& env,
                       EstimationMode mode) const;

  /// Product of the selectivities of all of a term's predicates.
  Interval TermSelectivity(const RelationTerm& term, const ParamEnv& env,
                           EstimationMode mode) const;

  /// Selectivity of one equality join predicate:
  /// 1 / max(domain(left), domain(right)) (paper §6).
  double JoinPredicateSelectivity(const JoinPredicate& join) const;

  /// Product over several join predicates.
  double JoinSelectivity(const std::vector<JoinPredicate>& joins) const;

  /// The memory grant under `env`: env's interval, or the expected point if
  /// mode is kExpectedValue and env carries an uncertainty interval.
  Interval MemoryPages(const ParamEnv& env, EstimationMode mode) const;

  /// A literal for `pred`'s column whose selectivity is as close to `sel`
  /// as the integer domain permits.  Used by experiments to map sampled
  /// selectivities to host-variable bindings.
  Value ValueForSelectivity(const SelectionPredicate& pred, double sel) const;

  // --- Geometry helpers ------------------------------------------------------

  /// Number of pages occupied by `tuples` records of `width` bytes.
  double PagesFor(double tuples, double width) const;

  /// Pages of a stored base relation.
  double RelationPages(const RelationInfo& relation) const;

  // --- Algorithm cost formulas (scalar; seconds) -----------------------------
  // Arguments are expected tuple counts (doubles, possibly fractional).

  /// Sequential scan of a stored relation.
  double FileScanCost(double tuples, double width) const;

  /// Full scan through an unclustered B-tree (delivers key order).
  double BTreeFullScanCost(double tuples) const;

  /// B-tree descent plus retrieval of `matching` qualifying records.
  double FilterBTreeScanCost(double matching) const;

  /// Predicate evaluation over `input` tuples.
  double FilterCost(double input) const;

  /// In-memory or external merge sort of `tuples` records of `width` bytes
  /// given `memory_pages` buffer pages.
  double SortCost(double tuples, double width, double memory_pages) const;

  /// Merge join of sorted inputs (no I/O of its own).
  double MergeJoinCost(double left, double right, double output) const;

  /// Hash join building on `build`; spills partitions when the build side
  /// exceeds memory (Grace-style, one partitioning pass).
  double HashJoinCost(double build, double build_width, double probe,
                      double probe_width, double output,
                      double memory_pages) const;

  /// Index nested-loops join: one B-tree probe per outer tuple plus fetches
  /// of `matches_per_outer` inner records.
  double IndexJoinCost(double outer, double matches_per_outer) const;

  /// Start-up CPU model: cost-function evaluations over `num_nodes` plan
  /// nodes plus `num_decisions` choose-plan comparisons.
  double StartupDecisionCost(int64_t num_nodes, int64_t num_decisions) const;

  // --- Quantity decompositions (for calibration) -----------------------------
  // Each *Terms method returns the unit-operation counts of the matching
  // scalar formula, so TermsCost(XTerms(args)) == XCost(args) up to
  // floating-point association (asserted by cost_model_test).

  CostTerms FileScanTerms(double tuples, double width) const;
  CostTerms BTreeFullScanTerms(double tuples) const;
  CostTerms FilterBTreeScanTerms(double matching) const;
  CostTerms FilterTerms(double input) const;
  CostTerms SortTerms(double tuples, double width, double memory_pages) const;
  CostTerms MergeJoinTerms(double left, double right, double output) const;
  CostTerms HashJoinTerms(double build, double build_width, double probe,
                          double probe_width, double output,
                          double memory_pages) const;
  CostTerms IndexJoinTerms(double outer, double matches_per_outer) const;

  /// Dot product of `terms` with the configured unit constants.
  double TermsCost(const CostTerms& terms) const;

 private:
  const Catalog* catalog_;
  SystemConfig config_;
  const StatisticsCatalog* stats_;
};

}  // namespace dqep

#endif  // DQEP_COST_COST_MODEL_H_
