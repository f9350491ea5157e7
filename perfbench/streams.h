// The benchmark's three traffic mixes as seeded query streams.
//
// A stream turns (workload, seed) into a deterministic sequence of SQL
// texts over the paper's R1..R10.  The server only ever sees the text.
// Every text has a dense id; two positions of the stream with the same
// id carry the same text, which is what lets the output check evaluate
// each distinct query once.
//
//   warm_chains     4-, 6- and 10-way chains over R1..Rn (the paper's
//                   Q3/Q4/Q5 shape), one `R_i.s < lit` per relation at
//                   selectivity U[0, 0.02].  A pool of distinct literal
//                   sets is cycled: three templates, so every lookup
//                   after warm-up is a plan-cache hit.
//   cold_templates  every query a template the stream has not produced
//                   before: a 2..6-way chain at a random offset with one
//                   of 125 predicate shapes per relation (five operators
//                   on `s`, each with an optional range predicate on `a`
//                   and on `b`).
//   wide_bindings   Q1 on R1, Q2 on R1,R2 and a 3-way chain on R2..R4,
//                   projecting the `s` columns, with every selection's
//                   selectivity drawn U[0, 1] as in paper section 6
//                   (stratified, so each seed covers the range evenly).
//
// Templates (chain lengths on cold_templates) follow a fixed rotation, so
// every seed runs the same mix and only the literals and shapes vary.

#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cost/cost_model.h"

namespace perfbench {

enum class Workload { kWarmChains, kColdTemplates, kWideBindings };

/// Maps a workload name to its enum; false for an unknown name.
bool ParseWorkload(const std::string& name, Workload* workload);

/// Thread-safe seeded query stream of one workload.
class QueryStream {
 public:
  /// `model` supplies the literal for a drawn selectivity; it must be the
  /// cost model of the database the queries run against.
  QueryStream(Workload workload, uint64_t seed, const dqep::CostModel& model);

  /// The next query of the stream: (distinct-text id, SQL text).
  std::pair<int64_t, std::string> Next();

  /// The text of distinct query `id` (an id Next returned).
  std::string Text(int64_t id) const;

 private:
  /// Appends one new distinct text; callers hold mutex_.
  void GenerateLocked();
  std::string WarmChain();
  std::string ColdTemplate();
  std::string WideBinding();
  int64_t Literal(int32_t relation, int32_t column, dqep::CompareOp op,
                  double selectivity) const;

  const Workload workload_;
  const dqep::CostModel& model_;
  mutable std::mutex mutex_;
  dqep::Rng rng_;
  std::vector<std::string> texts_;
  int64_t position_ = 0;
  /// Templates cold_templates has produced, so none repeats.
  std::unordered_set<std::string> cold_templates_;
  /// wide_bindings: per (template, relation), the order in which the
  /// pool visits the selectivity strata.
  std::vector<std::vector<int64_t>> wide_strata_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
