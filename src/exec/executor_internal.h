// Internals shared by the serial operators (batch_operators.cc) and the
// exchange's morsel pipelines (parallel.cc): predicate binding, B-tree rid
// production, join-slot resolution, and the operator factories the
// exchange instantiates per morsel.

#ifndef DQEP_EXEC_EXECUTOR_INTERNAL_H_
#define DQEP_EXEC_EXECUTOR_INTERNAL_H_

#include <memory>
#include <vector>

#include "exec/executor.h"
#include "storage/table.h"

namespace dqep {
namespace exec_internal {

/// A selection predicate with its operand bound and its attribute resolved
/// to a tuple slot.
struct BoundPredicate {
  int32_t slot = -1;
  CompareOp op = CompareOp::kLt;
  Value value;

  bool Eval(const Tuple& tuple) const {
    return EvalCompare(tuple.value(slot), op, value);
  }
};

/// Resolves an operand to a value (fails on unbound host variables).
Result<Value> ResolveOperand(const Operand& operand, const ParamEnv& env);

/// Binds one predicate against `layout`.
Result<BoundPredicate> BindPredicate(const SelectionPredicate& pred,
                                     const TupleLayout& layout,
                                     const ParamEnv& env);

/// Binds all of `node`'s predicates against `layout`.
Result<std::vector<BoundPredicate>> BindPredicates(
    const std::vector<SelectionPredicate>& predicates,
    const TupleLayout& layout, const ParamEnv& env);

/// RowIds delivered by the B-tree on `column`: the full scan when
/// `predicate` is null, else the range satisfying it (which must compare
/// the indexed column against an int64).
std::vector<RowId> BTreeRids(const Table& table, int32_t column,
                             const BoundPredicate* predicate);

/// Resolves a join's composite key attributes into (left, right) slot
/// pairs — (build, probe) for a hash join — trying both predicate
/// orientations.  A merge join's first pair is its merge key.
Status ResolveJoinSlots(const PhysNode& node, const TupleLayout& left,
                        const TupleLayout& right,
                        std::vector<int32_t>* left_slots,
                        std::vector<int32_t>* right_slots);

/// Composite equality-join key.
using JoinKey = std::vector<int64_t>;

/// Fills `key` from `tuple`'s `slots`, reusing the vector's capacity.
inline void JoinKeyInto(const Tuple& tuple, const std::vector<int32_t>& slots,
                        JoinKey* key) {
  key->clear();
  for (int32_t slot : slots) {
    key->push_back(tuple.value(slot).AsInt64());
  }
}

/// FNV-style combiner over the key's components (hash-table hashing for
/// join build tables; spill partitioning uses the independent mixer in
/// exec/spill.h so map-bucket skew cannot correlate with partition skew).
struct JoinKeyHash {
  size_t operator()(const JoinKey& key) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (int64_t v : key) {
      h ^= std::hash<int64_t>()(static_cast<int64_t>(v)) +
           0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

// --- Parallel execution hooks (see exec/parallel.h) -------------------------

struct ParallelEnv;

/// Builds a batch iterator for `node`.  `ctx` may be null (legacy
/// unbounded execution).  When `parallel` is non-null, subtrees that form
/// parallelizable chains become exchange operators.
Result<std::unique_ptr<BatchIterator>> BuildBatchTree(
    const PhysNode& node, const Database& db, const ParamEnv& env,
    ExecContext* ctx, const ParallelEnv* parallel);

/// Morsel-pipeline operator factories: the exchange operator instantiates
/// one cheap pipeline per morsel from these (all binding already done).
/// Batch file scan over the half-open page range [begin_page, end_page).
std::unique_ptr<BatchIterator> MakeBatchFileScan(const Table* table,
                                                 int64_t begin_page,
                                                 int64_t end_page);

/// Batch fetch of `rids` [begin, end) from the heap, in order.  The rid
/// vector is shared read-only across all morsel pipelines.
std::unique_ptr<BatchIterator> MakeBatchRidScan(
    const Table* table, std::shared_ptr<const std::vector<RowId>> rids,
    size_t begin, size_t end, const char* op_name);

std::unique_ptr<BatchIterator> MakeBatchFilter(
    std::vector<BoundPredicate> predicates,
    std::unique_ptr<BatchIterator> input);

std::unique_ptr<BatchIterator> MakeBatchProject(
    std::vector<int32_t> slots, TupleLayout layout,
    std::unique_ptr<BatchIterator> input);

}  // namespace exec_internal
}  // namespace dqep

#endif  // DQEP_EXEC_EXECUTOR_INTERNAL_H_
