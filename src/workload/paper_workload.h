// The paper's experimental workload (§6).
//
// Relations R1..R10 with cardinalities in [100, 1000], 512-byte records,
// attribute domains of 0.2–1.25 x cardinality, and unclustered B-trees on
// every selection and join attribute.  The five experimental queries are
// chains: Q1 = one relation with one unbound selection; Q2/Q3/Q4/Q5 =
// 2/4/6/10-way joins, one unbound selection per relation.  Selection
// selectivities are the uncertain parameters (drawn U[0, 1] at run-time;
// a traditional optimizer expects 0.05); join selectivities are known
// (|L x R| / max domain).  Optionally the memory grant is uncertain too
// (U[16, 112] pages; expected 64).

#ifndef DQEP_WORKLOAD_PAPER_WORKLOAD_H_
#define DQEP_WORKLOAD_PAPER_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "logical/query.h"
#include "storage/database.h"

namespace dqep {

/// Column positions within each experiment relation.
struct ExperimentColumns {
  static constexpr int32_t kJoinPrev = 0;  ///< "a": joins to predecessor
  static constexpr int32_t kJoinNext = 1;  ///< "b": joins to successor
  static constexpr int32_t kSelect = 2;    ///< "s": unbound selection
  static constexpr int32_t kPayload = 3;   ///< filler to 512 bytes
};

/// The experiment database, catalog, and cost model.
class PaperWorkload {
 public:
  /// Builds the ten-relation database.  `populate` loads synthetic tuples
  /// (needed for execution; cost-only experiments may skip it).
  /// `buffer_pool_pages` bounds the buffer pool, letting execution
  /// experiments emulate the configured memory grant.  `skew_exponent`
  /// shapes the generated value distributions (1.0 = uniform, matching
  /// the estimator's assumption; >1 breaks it — see data_generator.h).
  static Result<std::unique_ptr<PaperWorkload>> Create(
      uint64_t seed, bool populate = true, int32_t buffer_pool_pages = 256,
      double skew_exponent = 1.0);

  Database& db() { return *db_; }
  const Database& db() const { return *db_; }
  const Catalog& catalog() const { return db_->catalog(); }
  const CostModel& model() const { return *model_; }
  const SystemConfig& config() const { return config_; }

  /// The chain query over R1..Rn with one unbound selection per relation
  /// (param ids 0..n-1).  n = 1 yields the paper's Q1.
  Query ChainQuery(int32_t num_relations) const;

  /// SQL text of the chain query over R1..Rn with literal selections
  /// "Ri.s < literals[i-1]" (joins first, then selections).
  static std::string ChainSql(int32_t n, const std::vector<int64_t>& literals);

  /// One selection literal per relation R1..Rn, each at a selectivity
  /// drawn from U[0, max_selectivity).
  std::vector<int64_t> DrawChainLiterals(int32_t n, Rng* rng,
                                         double max_selectivity = 1.0) const;

  /// The paper's five queries: n = 1, 2, 4, 6, 10.
  static const std::vector<int32_t>& PaperQuerySizes();

  /// Compile-time environment: nothing bound; memory expected (point) or
  /// uncertain (interval).
  ParamEnv CompileTimeEnv(bool uncertain_memory) const;

  /// Run-time bindings: every selection parameter set to the value whose
  /// modeled selectivity is `selectivity`; the expected memory grant.
  ParamEnv BindingsAt(const Query& query, double selectivity) const;

  /// Run-time bindings: each selection parameter set to a value whose
  /// selectivity is drawn U[0, 1]; memory drawn U[16, 112] pages when
  /// uncertain, else the expected grant.
  ParamEnv DrawBindings(Rng* rng, const Query& query,
                        bool uncertain_memory) const;

 private:
  PaperWorkload() = default;

  std::unique_ptr<Database> db_;
  SystemConfig config_;
  std::unique_ptr<CostModel> model_;
};

}  // namespace dqep

#endif  // DQEP_WORKLOAD_PAPER_WORKLOAD_H_
