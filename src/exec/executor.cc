// Shared operator plumbing (predicate binding, B-tree rid production,
// join-slot resolution) and the engine's drain entry points.  The
// operators themselves live in batch_operators.cc and parallel.cc.

#include "exec/executor.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "exec/exec_context.h"
#include "exec/executor_internal.h"

namespace dqep {

namespace exec_internal {

Result<Value> ResolveOperand(const Operand& operand, const ParamEnv& env) {
  if (operand.is_literal()) {
    return operand.literal();
  }
  if (!env.IsBound(operand.param())) {
    return Status::InvalidArgument("host variable :p" +
                                   std::to_string(operand.param()) +
                                   " is unbound at execution time");
  }
  return env.ValueOf(operand.param());
}

Result<BoundPredicate> BindPredicate(const SelectionPredicate& pred,
                                     const TupleLayout& layout,
                                     const ParamEnv& env) {
  BoundPredicate bound;
  bound.slot = layout.SlotOf(pred.attr);
  if (bound.slot < 0) {
    return Status::Internal("predicate attribute not present in input");
  }
  bound.op = pred.op;
  Result<Value> value = ResolveOperand(pred.operand, env);
  if (!value.ok()) {
    return value.status();
  }
  bound.value = *value;
  return bound;
}

Result<std::vector<BoundPredicate>> BindPredicates(
    const std::vector<SelectionPredicate>& predicates,
    const TupleLayout& layout, const ParamEnv& env) {
  std::vector<BoundPredicate> bound;
  bound.reserve(predicates.size());
  for (const SelectionPredicate& pred : predicates) {
    Result<BoundPredicate> b = BindPredicate(pred, layout, env);
    if (!b.ok()) {
      return b.status();
    }
    bound.push_back(*b);
  }
  return bound;
}

std::vector<RowId> BTreeRids(const Table& table, int32_t column,
                             const BoundPredicate* predicate) {
  const BTreeIndex& index = table.IndexOn(column);
  if (predicate == nullptr) {
    return index.FullScan();
  }
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  DQEP_CHECK(predicate->value.is_int64());
  int64_t v = predicate->value.AsInt64();
  switch (predicate->op) {
    case CompareOp::kLt:
      return index.ScanBelow(v);
    case CompareOp::kLe:
      return index.RangeScan(kMin, v);
    case CompareOp::kEq:
      return index.Lookup(v);
    case CompareOp::kGe:
      return index.RangeScan(v, kMax);
    case CompareOp::kGt:
      return v == kMax ? std::vector<RowId>() : index.RangeScan(v + 1, kMax);
  }
  return {};
}

Status ResolveJoinSlots(const PhysNode& node, const TupleLayout& left,
                        const TupleLayout& right,
                        std::vector<int32_t>* left_slots,
                        std::vector<int32_t>* right_slots) {
  for (const JoinPredicate& join : node.joins()) {
    int32_t ls = left.SlotOf(join.left);
    int32_t rs = right.SlotOf(join.right);
    if (ls < 0 || rs < 0) {
      // The predicate may be oriented the other way around.
      ls = left.SlotOf(join.right);
      rs = right.SlotOf(join.left);
    }
    if (ls < 0 || rs < 0) {
      return Status::Internal("join attribute missing from inputs");
    }
    left_slots->push_back(ls);
    right_slots->push_back(rs);
  }
  return Status::OK();
}

}  // namespace exec_internal

std::vector<Tuple> DrainRows(BatchIterator& root, const PhysNode& plan,
                             const ExecContext* ctx) {
  // Zero for unannotated plans; capped so a loose upper bound cannot
  // trigger a pathological allocation.
  constexpr double kMaxReserve = 1 << 20;
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(
      std::clamp(plan.est_cardinality().hi(), 0.0, kMaxReserve)));
  root.Open();
  TupleBatch batch;
  while ((ctx == nullptr || !ctx->cancelled()) && root.Next(&batch)) {
    for (int32_t i = 0; i < batch.num_rows(); ++i) {
      rows.push_back(batch.row(i));
    }
  }
  root.Close();
  return rows;
}

Result<std::vector<Tuple>> ExecutePlan(const PhysNodePtr& plan,
                                       const Database& db,
                                       const ParamEnv& env,
                                       const ExecOptions& options) {
  DQEP_CHECK(plan != nullptr);
  Result<std::unique_ptr<BatchIterator>> iter =
      BuildParallelBatchExecutor(plan, db, env, options);
  if (!iter.ok()) {
    return iter.status();
  }
  return DrainRows(**iter, *plan);
}

Result<std::vector<Tuple>> ExecutePlan(const PhysNodePtr& plan,
                                       const Database& db,
                                       const ParamEnv& env, ExecContext& ctx) {
  DQEP_CHECK(plan != nullptr);
  Result<std::unique_ptr<BatchIterator>> iter =
      BuildParallelBatchExecutor(plan, db, env, ctx);
  if (!iter.ok()) {
    return iter.status();
  }
  return DrainRows(**iter, *plan, &ctx);
}

// --- Compatibility for perfbench/ --------------------------------------------

Iterator::Iterator(std::unique_ptr<BatchIterator> input)
    : input_(std::move(input)) {
  layout_ = input_->layout();
  op_name_ = "tuple-from-batch";
}

void Iterator::Open() {
  input_->Open();
  batch_.Clear();
  pos_ = 0;
}

bool Iterator::Next(Tuple* out) {
  if (pos_ >= batch_.num_rows()) {
    if (!input_->Next(&batch_)) {
      return false;
    }
    pos_ = 0;
  }
  out->AssignFrom(batch_.row(pos_++));
  return true;
}

void Iterator::Close() { input_->Close(); }

Result<std::unique_ptr<Iterator>> BuildExecutor(const PhysNodePtr& plan,
                                                const Database& db,
                                                const ParamEnv& env,
                                                ExecContext* ctx) {
  Result<std::unique_ptr<BatchIterator>> iter =
      BuildBatchExecutor(plan, db, env, ctx);
  if (!iter.ok()) {
    return iter.status();
  }
  return std::make_unique<Iterator>(std::move(*iter));
}

}  // namespace dqep
