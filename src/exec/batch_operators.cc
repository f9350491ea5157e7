// The engine's operators and the plan builder.
//
// Every physical operator has one batch-at-a-time implementation here
// (the exchange and its morsel pipelines are in parallel.cc).  Scans
// decode into reused batch row slots and the filter narrows a selection
// vector in place; joins, sort and project fill reused output rows, so
// the steady state allocates little beyond what the operator must keep
// (hash tables, sort runs, a merge join's duplicate group).

#include <algorithm>
#include <utility>

#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/executor_internal.h"
#include "exec/parallel.h"
#include "exec/reopt_control.h"
#include "exec/spill.h"
#include "storage/materialized.h"

namespace dqep {

namespace {

using exec_internal::BindPredicate;
using exec_internal::BindPredicates;
using exec_internal::BoundPredicate;
using exec_internal::BTreeRids;
using exec_internal::ExternalSorter;
using exec_internal::HashJoinState;
using exec_internal::ResolveJoinSlots;
using exec_internal::TrackedTupleBytes;

// --- Scans -----------------------------------------------------------------

class BatchFileScanIter : public BatchIterator {
 public:
  explicit BatchFileScanIter(const Table* table)
      : BatchFileScanIter(table, 0, -1) {}

  /// Scan restricted to the page range [begin_page, end_page); -1 means
  /// the live end of the file.  Morsel pipelines use explicit ranges.
  BatchFileScanIter(const Table* table, int64_t begin_page, int64_t end_page)
      : scanner_(table->heap().CreateScanner(begin_page, end_page)) {
    layout_ = table->layout();
    op_name_ = "batch-file-scan";
  }

  void OpenImpl() override { scanner_.Reset(); }

  void CloseImpl() override { scanner_.Reset(); }

 protected:
  bool NextImpl(TupleBatch* out) override {
    out->Clear();
    scanner_.NextBatch(out);
    return out->size() > 0;
  }

 private:
  HeapFile::Scanner scanner_;
};

/// Batch heap fetch of a pre-computed rid run [begin, end), in order.  The
/// exchange operator computes the full B-tree rid run once at Open and
/// hands each morsel pipeline a slice of it, shared read-only.
class BatchRidScanIter : public BatchIterator {
 public:
  BatchRidScanIter(const Table* table,
                   std::shared_ptr<const std::vector<RowId>> rids,
                   size_t begin, size_t end, const char* op_name)
      : table_(table), rids_(std::move(rids)), begin_(begin), end_(end) {
    layout_ = table->layout();
    op_name_ = op_name;
  }

  void OpenImpl() override { next_ = begin_; }

  void CloseImpl() override {}

 protected:
  bool NextImpl(TupleBatch* out) override {
    out->Clear();
    while (!out->full() && next_ < end_) {
      table_->heap().TupleInto((*rids_)[next_++], &out->AppendRow());
    }
    return out->size() > 0;
  }

 private:
  const Table* table_;
  std::shared_ptr<const std::vector<RowId>> rids_;
  size_t begin_;
  size_t end_;
  size_t next_ = 0;
};

/// Batch B-tree scan, full or bounded by one predicate on the indexed
/// column; fetches heap tuples into reused batch rows.
class BatchBTreeScanIter : public BatchIterator {
 public:
  BatchBTreeScanIter(const Table* table, int32_t column,
                     std::optional<BoundPredicate> predicate)
      : table_(table), column_(column), predicate_(std::move(predicate)) {
    layout_ = table->layout();
    op_name_ =
        predicate_.has_value() ? "batch-filter-btree-scan" : "batch-btree-scan";
  }

  void OpenImpl() override {
    rids_ = BTreeRids(*table_, column_,
                      predicate_.has_value() ? &*predicate_ : nullptr);
    next_ = 0;
  }

  void CloseImpl() override { rids_.clear(); }

 protected:
  bool NextImpl(TupleBatch* out) override {
    out->Clear();
    while (!out->full() && next_ < rids_.size()) {
      table_->heap().TupleInto(rids_[next_++], &out->AppendRow());
    }
    return out->size() > 0;
  }

 private:
  const Table* table_;
  int32_t column_;
  std::optional<BoundPredicate> predicate_;
  std::vector<RowId> rids_;
  size_t next_ = 0;
};

/// Batch scan over a captured mid-query intermediate, in storage order.
class BatchMaterializedScanIter : public BatchIterator {
 public:
  explicit BatchMaterializedScanIter(MaterializedTablePtr table)
      : table_(std::move(table)) {
    layout_ = table_->layout();
    op_name_ = "batch-materialized-scan";
  }

  void OpenImpl() override { reader_.emplace(table_.get()); }

  void CloseImpl() override { reader_.reset(); }

 protected:
  bool NextImpl(TupleBatch* out) override {
    out->Clear();
    while (!out->full()) {
      Tuple& row = out->AppendRow();
      if (!reader_->Next(&row)) {
        out->PopRow();
        break;
      }
    }
    return out->size() > 0;
  }

 private:
  MaterializedTablePtr table_;
  std::optional<MaterializedTable::Reader> reader_;
};

// --- Filter ------------------------------------------------------------------

/// Evaluates predicates by narrowing the batch's selection vector in
/// place — survivors are marked live, never copied.
class BatchFilterIter : public BatchIterator {
 public:
  BatchFilterIter(std::vector<BoundPredicate> predicates,
                  std::unique_ptr<BatchIterator> input)
      : predicates_(std::move(predicates)), input_(std::move(input)) {
    layout_ = input_->layout();
    op_name_ = "batch-filter";
  }

  void OpenImpl() override { input_->Open(); }

  void CloseImpl() override { input_->Close(); }

  std::vector<const ExecNode*> child_nodes() const override {
    return {input_.get()};
  }

 protected:
  bool NextImpl(TupleBatch* out) override {
    while (input_->Next(out)) {
      std::vector<int32_t>* sel = out->MaterializeSelection();
      for (const BoundPredicate& pred : predicates_) {
        size_t kept = 0;
        for (int32_t idx : *sel) {
          if (pred.Eval(out->physical_row(idx))) {
            (*sel)[kept++] = idx;
          }
        }
        sel->resize(kept);
        if (sel->empty()) {
          break;
        }
      }
      if (!sel->empty()) {
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<BoundPredicate> predicates_;
  std::unique_ptr<BatchIterator> input_;
};

// --- Hash join ----------------------------------------------------------------

/// Batch hash join; drains the build side batch-wise into the shared
/// HashJoinState (an unordered_map from key to the rows bearing it —
/// insertion order preserved per key, so output matches the old multimap
/// implementation row for row), then streams concatenated matches into
/// reused output rows.  Under a bounded context the state spills
/// grace-style (see exec/spill.h).
class BatchHashJoinIter : public BatchIterator {
 public:
  BatchHashJoinIter(std::vector<int32_t> build_slots,
                    std::vector<int32_t> probe_slots,
                    std::unique_ptr<BatchIterator> build,
                    std::unique_ptr<BatchIterator> probe, const Database* db,
                    ExecContext* ctx, const PhysNode* plan_node)
      : state_(std::move(build_slots), std::move(probe_slots), db, ctx),
        ctx_(ctx),
        plan_node_(plan_node),
        build_(std::move(build)),
        probe_(std::move(probe)) {
    layout_ = TupleLayout::Concat(build_->layout(), probe_->layout());
    op_name_ = "batch-hash-join";
  }

  void OpenImpl() override {
    build_->Open();
    TupleBatch batch;
    while (build_->Next(&batch)) {
      if (ctx_ != nullptr && ctx_->cancelled()) {
        break;
      }
      for (int32_t i = 0; i < batch.num_rows(); ++i) {
        state_.AddBuild(batch.row(i));
      }
    }
    build_->Close();
    state_.FinishBuild();
    if (ctx_ != nullptr && ctx_->reopt() != nullptr && plan_node_ != nullptr) {
      ctx_->reopt()->CheckpointHashBuild(plan_node_, &state_,
                                         build_->layout(), ctx_);
    }
    probe_->Open();
    if (state_.spilled()) {
      while (probe_->Next(&batch)) {
        if (ctx_ != nullptr && ctx_->cancelled()) {
          break;
        }
        for (int32_t i = 0; i < batch.num_rows(); ++i) {
          state_.AddProbe(batch.row(i));
        }
      }
      state_.FinishProbe();
    }
    matches_ = nullptr;
    match_pos_ = 0;
    probe_batch_.Clear();
    probe_pos_ = 0;
    SyncSpillCounters();
  }

  void CloseImpl() override {
    probe_->Close();
    SyncSpillCounters();
    state_.Reset();
    matches_ = nullptr;
  }

  std::vector<const ExecNode*> child_nodes() const override {
    return {build_.get(), probe_.get()};
  }

 protected:
  bool NextImpl(TupleBatch* out) override {
    out->Clear();
    if (ctx_ != nullptr && ctx_->cancelled()) {
      return false;
    }
    if (state_.spilled()) {
      while (!out->full()) {
        Tuple& row = out->AppendRow();
        if (!state_.NextJoined(&row)) {
          out->PopRow();
          SyncSpillCounters();
          break;
        }
      }
      return out->size() > 0;
    }
    while (!out->full()) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        out->AppendRow().AssignConcat((*matches_)[match_pos_++], probe_tuple_);
        continue;
      }
      if (probe_pos_ >= probe_batch_.num_rows()) {
        if ((ctx_ != nullptr && ctx_->cancelled()) ||
            !probe_->Next(&probe_batch_)) {
          break;
        }
        probe_pos_ = 0;
      }
      probe_tuple_.AssignFrom(probe_batch_.row(probe_pos_++));
      matches_ = state_.Lookup(probe_tuple_);
      match_pos_ = 0;
    }
    return out->size() > 0;
  }

 private:
  void SyncSpillCounters() {
    counters_.spill_files = state_.spill_files();
    counters_.spill_tuples = state_.spill_tuples();
  }

  HashJoinState state_;
  ExecContext* ctx_;
  const PhysNode* plan_node_;
  std::unique_ptr<BatchIterator> build_;
  std::unique_ptr<BatchIterator> probe_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_pos_ = 0;
  TupleBatch probe_batch_;
  int32_t probe_pos_ = 0;
  Tuple probe_tuple_;  // current probe row, storage reused across rows
};

// --- Sort ---------------------------------------------------------------------

/// Batch sort enforcer backed by the ExternalSorter: an in-memory stable
/// sort until the budget forces runs out to temp heaps, then a k-way
/// merge whose output sequence is identical to the in-memory sort.
class BatchSortIter : public BatchIterator {
 public:
  BatchSortIter(int32_t slot, std::unique_ptr<BatchIterator> input,
                const Database* db, ExecContext* ctx,
                const PhysNode* plan_node)
      : sorter_(slot, db, ctx),
        ctx_(ctx),
        plan_node_(plan_node),
        input_(std::move(input)) {
    layout_ = input_->layout();
    op_name_ = "batch-sort";
  }

  void OpenImpl() override {
    sorter_.Reset();
    input_->Open();
    TupleBatch batch;
    while (input_->Next(&batch)) {
      if (ctx_ != nullptr && ctx_->cancelled()) {
        break;
      }
      for (int32_t i = 0; i < batch.num_rows(); ++i) {
        sorter_.Add(batch.row(i));
      }
    }
    input_->Close();
    sorter_.Finish();
    if (ctx_ != nullptr && ctx_->reopt() != nullptr && plan_node_ != nullptr) {
      ctx_->reopt()->CheckpointSort(plan_node_, &sorter_, input_->layout(),
                                    ctx_);
    }
    next_ = 0;
    SyncSpillCounters();
  }

  void CloseImpl() override {
    SyncSpillCounters();
    sorter_.Reset();
  }

  std::vector<const ExecNode*> child_nodes() const override {
    return {input_.get()};
  }

 protected:
  bool NextImpl(TupleBatch* out) override {
    out->Clear();
    if (sorter_.spilled()) {
      while (!out->full()) {
        Tuple& row = out->AppendRow();
        if (!sorter_.Next(&row)) {
          out->PopRow();
          break;
        }
      }
      return out->size() > 0;
    }
    while (!out->full() && next_ < sorter_.rows().size()) {
      out->AppendRow().AssignFrom(sorter_.rows()[next_++]);
    }
    return out->size() > 0;
  }

 private:
  void SyncSpillCounters() {
    counters_.spill_files = sorter_.spill_files();
    counters_.spill_tuples = sorter_.spill_tuples();
  }

  ExternalSorter sorter_;
  ExecContext* ctx_;
  const PhysNode* plan_node_;
  std::unique_ptr<BatchIterator> input_;
  size_t next_ = 0;
};

// --- Project -------------------------------------------------------------------

class BatchProjectIter : public BatchIterator {
 public:
  BatchProjectIter(std::vector<int32_t> slots, TupleLayout layout,
                   std::unique_ptr<BatchIterator> input)
      : slots_(std::move(slots)), input_(std::move(input)) {
    layout_ = std::move(layout);
    op_name_ = "batch-project";
  }

  void OpenImpl() override {
    input_->Open();
    in_batch_.Clear();
    pos_ = 0;
  }

  void CloseImpl() override { input_->Close(); }

  std::vector<const ExecNode*> child_nodes() const override {
    return {input_.get()};
  }

 protected:
  bool NextImpl(TupleBatch* out) override {
    out->Clear();
    while (!out->full()) {
      if (pos_ >= in_batch_.num_rows()) {
        if (!input_->Next(&in_batch_)) {
          break;
        }
        pos_ = 0;
      }
      const Tuple& src = in_batch_.row(pos_++);
      Tuple& dst = out->AppendRow();
      dst.Resize(static_cast<int32_t>(slots_.size()));
      for (size_t j = 0; j < slots_.size(); ++j) {
        dst.mutable_value(static_cast<int32_t>(j))->Assign(
            src.value(slots_[j]));
      }
    }
    return out->size() > 0;
  }

 private:
  std::vector<int32_t> slots_;
  std::unique_ptr<BatchIterator> input_;
  TupleBatch in_batch_;
  int32_t pos_ = 0;
};

// --- Merge join --------------------------------------------------------------

/// Merge join over inputs sorted on the first join predicate; additional
/// join predicates are residual equality checks.
///
/// Streams both inputs batch-wise and buffers only the current right-side
/// duplicate-key group (a left row must rescan the whole right group, so
/// the group is the join's minimum working set; its bytes are accounted
/// against `ctx`).  Output order is left-major within each key.
class BatchMergeJoinIter : public BatchIterator {
 public:
  BatchMergeJoinIter(std::vector<int32_t> left_slots,
                     std::vector<int32_t> right_slots,
                     std::unique_ptr<BatchIterator> left,
                     std::unique_ptr<BatchIterator> right, ExecContext* ctx)
      : left_slots_(std::move(left_slots)),
        right_slots_(std::move(right_slots)),
        ctx_(ctx),
        left_(std::move(left)),
        right_(std::move(right)) {
    layout_ = TupleLayout::Concat(left_->layout(), right_->layout());
    op_name_ = "batch-merge-join";
  }

  void OpenImpl() override {
    left_->Open();
    right_->Open();
    ReleaseGroup();
    group_pos_ = 0;
    left_batch_.Clear();
    left_pos_ = 0;
    left_row_ = nullptr;
    done_ = false;
    right_pos_ = 0;
    right_valid_ = right_->Next(&right_batch_);
  }

  void CloseImpl() override {
    left_->Close();
    right_->Close();
    ReleaseGroup();
    group_pos_ = 0;
  }

  std::vector<const ExecNode*> child_nodes() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  bool NextImpl(TupleBatch* out) override {
    out->Clear();
    if (ctx_ != nullptr && ctx_->cancelled()) {
      return false;
    }
    while (!out->full()) {
      // Emit the current left row against the buffered right group.
      if (group_pos_ < right_group_.size()) {
        const Tuple& rt = right_group_[group_pos_++];
        if (ResidualOk(*left_row_, rt)) {
          out->AppendRow().AssignConcat(*left_row_, rt);
        }
        continue;
      }
      if (!AdvanceLeft()) {
        break;
      }
      int64_t key = left_row_->value(left_slots_[0]).AsInt64();
      if (group_loaded_ && key == group_key_) {
        group_pos_ = 0;  // same key: rescan the buffered group
        continue;
      }
      // Left keys ascend, so a buffered group with a smaller key is dead.
      ReleaseGroup();
      while (right_valid_ && RightKey() < key) {
        AdvanceRight();
      }
      if (!right_valid_) {
        done_ = true;  // all future left keys are >= key too
        break;
      }
      group_pos_ = 0;
      if (RightKey() > key) {
        continue;  // this left key has no matches; advance left
      }
      group_key_ = key;
      group_loaded_ = true;
      while (right_valid_ && RightKey() == key) {
        const Tuple& row = right_batch_.row(right_pos_);
        if (ctx_ != nullptr) {
          int64_t bytes = TrackedTupleBytes(row);
          // The duplicate group is the merge join's minimum working set;
          // it cannot spill, so exceeding the budget here is a forced
          // overflow, not a policy choice.
          if (ctx_->bounded() && ctx_->tracker().WouldExceed(bytes)) {
            ctx_->RecordOverflow();
          }
          ctx_->tracker().Acquire(bytes);
          group_bytes_ += bytes;
        }
        right_group_.push_back(row);
        AdvanceRight();
      }
    }
    return out->size() > 0;
  }

 private:
  /// Points left_row_ at the next left row; false at end of stream.
  bool AdvanceLeft() {
    if (done_) {
      return false;
    }
    if (left_pos_ >= left_batch_.num_rows()) {
      if (!left_->Next(&left_batch_)) {
        done_ = true;
        return false;
      }
      left_pos_ = 0;
    }
    left_row_ = &left_batch_.row(left_pos_++);
    return true;
  }

  void AdvanceRight() {
    if (++right_pos_ >= right_batch_.num_rows()) {
      right_valid_ = right_->Next(&right_batch_);
      right_pos_ = 0;
    }
  }

  int64_t RightKey() const {
    return right_batch_.row(right_pos_).value(right_slots_[0]).AsInt64();
  }

  bool ResidualOk(const Tuple& lt, const Tuple& rt) const {
    for (size_t i = 1; i < left_slots_.size(); ++i) {
      if (!(lt.value(left_slots_[i]) == rt.value(right_slots_[i]))) {
        return false;
      }
    }
    return true;
  }

  void ReleaseGroup() {
    if (ctx_ != nullptr) {
      ctx_->tracker().Release(group_bytes_);
    }
    group_bytes_ = 0;
    right_group_.clear();
    group_loaded_ = false;
  }

  std::vector<int32_t> left_slots_;   // [0] is the merge key
  std::vector<int32_t> right_slots_;
  ExecContext* ctx_;
  std::unique_ptr<BatchIterator> left_;
  std::unique_ptr<BatchIterator> right_;
  TupleBatch left_batch_;
  int32_t left_pos_ = 0;
  const Tuple* left_row_ = nullptr;  // current left row, in left_batch_
  bool done_ = false;
  TupleBatch right_batch_;
  int32_t right_pos_ = 0;  // lookahead past the buffered group
  bool right_valid_ = false;
  std::vector<Tuple> right_group_;
  int64_t group_key_ = 0;
  bool group_loaded_ = false;
  int64_t group_bytes_ = 0;
  size_t group_pos_ = 0;
};

// --- Index join --------------------------------------------------------------

/// Index nested-loops join: probes the inner table's B-tree once per outer
/// row and fetches each match into a reused row, which the residual
/// predicates on the inner table then test.
class BatchIndexJoinIter : public BatchIterator {
 public:
  BatchIndexJoinIter(int32_t outer_slot, const Table* inner,
                     int32_t inner_column, std::vector<BoundPredicate> residual,
                     std::unique_ptr<BatchIterator> outer, ExecContext* ctx)
      : outer_slot_(outer_slot),
        inner_(inner),
        inner_column_(inner_column),
        residual_(std::move(residual)),
        ctx_(ctx),
        outer_(std::move(outer)) {
    layout_ = TupleLayout::Concat(outer_->layout(), inner->layout());
    op_name_ = "batch-index-join";
  }

  void OpenImpl() override {
    outer_->Open();
    outer_batch_.Clear();
    outer_pos_ = 0;
    outer_row_ = nullptr;
    done_ = false;
    matches_.clear();
    match_pos_ = 0;
  }

  void CloseImpl() override {
    outer_->Close();
    matches_.clear();
  }

  std::vector<const ExecNode*> child_nodes() const override {
    return {outer_.get()};
  }

 protected:
  bool NextImpl(TupleBatch* out) override {
    out->Clear();
    if (ctx_ != nullptr && ctx_->cancelled()) {
      return false;
    }
    while (!out->full()) {
      if (match_pos_ < matches_.size()) {
        inner_->heap().TupleInto(matches_[match_pos_++], &inner_row_);
        if (ResidualOk()) {
          out->AppendRow().AssignConcat(*outer_row_, inner_row_);
        }
        continue;
      }
      if (outer_pos_ >= outer_batch_.num_rows()) {
        if (done_ || !outer_->Next(&outer_batch_)) {
          done_ = true;
          break;
        }
        outer_pos_ = 0;
      }
      outer_row_ = &outer_batch_.row(outer_pos_++);
      matches_ = inner_->IndexOn(inner_column_)
                     .Lookup(outer_row_->value(outer_slot_).AsInt64());
      match_pos_ = 0;
    }
    return out->size() > 0;
  }

 private:
  bool ResidualOk() const {
    for (const BoundPredicate& pred : residual_) {
      if (!pred.Eval(inner_row_)) {
        return false;
      }
    }
    return true;
  }

  int32_t outer_slot_;
  const Table* inner_;
  int32_t inner_column_;
  std::vector<BoundPredicate> residual_;
  ExecContext* ctx_;
  std::unique_ptr<BatchIterator> outer_;
  TupleBatch outer_batch_;
  int32_t outer_pos_ = 0;
  const Tuple* outer_row_ = nullptr;  // current outer row, in outer_batch_
  bool done_ = false;
  std::vector<RowId> matches_;
  size_t match_pos_ = 0;
  Tuple inner_row_;  // current match, storage reused across fetches
};

// --- Builder --------------------------------------------------------------------

/// Recursive batch builder.  With a non-null `par`, any parallelizable
/// chain becomes an exchange operator fanning it across worker threads.
/// Under a bounded context hash joins are excluded from exchange chains
/// (a spilling join must run serially so its spill decisions and output
/// order are thread-count-independent); their scan/filter inputs still
/// parallelize.
Result<std::unique_ptr<BatchIterator>> BuildBatch(
    const PhysNode& node, const Database& db, const ParamEnv& env,
    ExecContext* ctx, const exec_internal::ParallelEnv* par) {
  // Armed re-optimization also forces joins onto the consumer thread:
  // checkpoints and capture are single-threaded by contract.
  bool chain_joins =
      ctx == nullptr || (!ctx->bounded() && ctx->reopt() == nullptr);
  if (par != nullptr &&
      exec_internal::IsParallelizableChain(node, chain_joins)) {
    return exec_internal::MakeExchange(node, db, env, *par);
  }
  switch (node.kind()) {
    case PhysOpKind::kFileScan:
      return std::unique_ptr<BatchIterator>(
          std::make_unique<BatchFileScanIter>(&db.table(node.relation())));
    case PhysOpKind::kBTreeScan:
      return std::unique_ptr<BatchIterator>(
          std::make_unique<BatchBTreeScanIter>(&db.table(node.relation()),
                                               node.column(), std::nullopt));
    case PhysOpKind::kMaterializedScan:
      return std::unique_ptr<BatchIterator>(
          std::make_unique<BatchMaterializedScanIter>(node.materialized()));
    case PhysOpKind::kFilterBTreeScan: {
      const Table& table = db.table(node.relation());
      DQEP_CHECK_EQ(node.predicates().size(), 1u);
      Result<BoundPredicate> pred =
          BindPredicate(node.predicates().front(), table.layout(), env);
      if (!pred.ok()) {
        return pred.status();
      }
      return std::unique_ptr<BatchIterator>(
          std::make_unique<BatchBTreeScanIter>(&table, node.column(), *pred));
    }
    case PhysOpKind::kFilter: {
      Result<std::unique_ptr<BatchIterator>> input =
          BuildBatch(*node.child(0), db, env, ctx, par);
      if (!input.ok()) {
        return input.status();
      }
      Result<std::vector<BoundPredicate>> bound =
          BindPredicates(node.predicates(), (*input)->layout(), env);
      if (!bound.ok()) {
        return bound.status();
      }
      return std::unique_ptr<BatchIterator>(std::make_unique<BatchFilterIter>(
          std::move(*bound), std::move(*input)));
    }
    case PhysOpKind::kHashJoin: {
      Result<std::unique_ptr<BatchIterator>> build =
          BuildBatch(*node.child(0), db, env, ctx, par);
      if (!build.ok()) return build.status();
      Result<std::unique_ptr<BatchIterator>> probe =
          BuildBatch(*node.child(1), db, env, ctx, par);
      if (!probe.ok()) return probe.status();
      std::vector<int32_t> build_slots;
      std::vector<int32_t> probe_slots;
      DQEP_RETURN_IF_ERROR(ResolveJoinSlots(node, (*build)->layout(),
                                            (*probe)->layout(), &build_slots,
                                            &probe_slots));
      return std::unique_ptr<BatchIterator>(std::make_unique<BatchHashJoinIter>(
          std::move(build_slots), std::move(probe_slots), std::move(*build),
          std::move(*probe), &db, ctx, &node));
    }
    case PhysOpKind::kMergeJoin: {
      Result<std::unique_ptr<BatchIterator>> left =
          BuildBatch(*node.child(0), db, env, ctx, par);
      if (!left.ok()) return left.status();
      Result<std::unique_ptr<BatchIterator>> right =
          BuildBatch(*node.child(1), db, env, ctx, par);
      if (!right.ok()) return right.status();
      std::vector<int32_t> left_slots;
      std::vector<int32_t> right_slots;
      DQEP_RETURN_IF_ERROR(ResolveJoinSlots(node, (*left)->layout(),
                                            (*right)->layout(), &left_slots,
                                            &right_slots));
      if (left_slots.empty()) {
        return Status::Internal("merge join without a merge key");
      }
      return std::unique_ptr<BatchIterator>(
          std::make_unique<BatchMergeJoinIter>(
              std::move(left_slots), std::move(right_slots),
              std::move(*left), std::move(*right), ctx));
    }
    case PhysOpKind::kIndexJoin: {
      Result<std::unique_ptr<BatchIterator>> outer =
          BuildBatch(*node.child(0), db, env, ctx, par);
      if (!outer.ok()) return outer.status();
      int32_t outer_slot = (*outer)->layout().SlotOf(node.joins().front().left);
      if (outer_slot < 0) {
        return Status::Internal("index join outer key missing from input");
      }
      const Table& inner = db.table(node.relation());
      Result<std::vector<BoundPredicate>> residual =
          BindPredicates(node.predicates(), inner.layout(), env);
      if (!residual.ok()) return residual.status();
      return std::unique_ptr<BatchIterator>(
          std::make_unique<BatchIndexJoinIter>(
              outer_slot, &inner, node.column(), std::move(*residual),
              std::move(*outer), ctx));
    }
    case PhysOpKind::kSort: {
      Result<std::unique_ptr<BatchIterator>> input =
          BuildBatch(*node.child(0), db, env, ctx, par);
      if (!input.ok()) return input.status();
      int32_t slot = (*input)->layout().SlotOf(node.sort_attr());
      if (slot < 0) {
        return Status::Internal("sort attribute missing from input");
      }
      return std::unique_ptr<BatchIterator>(std::make_unique<BatchSortIter>(
          slot, std::move(*input), &db, ctx, &node));
    }
    case PhysOpKind::kProject: {
      Result<std::unique_ptr<BatchIterator>> input =
          BuildBatch(*node.child(0), db, env, ctx, par);
      if (!input.ok()) return input.status();
      std::vector<int32_t> slots;
      TupleLayout layout;
      for (const AttrRef& attr : node.projections()) {
        int32_t slot = (*input)->layout().SlotOf(attr);
        if (slot < 0) {
          return Status::Internal("projected attribute missing from input");
        }
        slots.push_back(slot);
        layout.Append(attr);
      }
      return std::unique_ptr<BatchIterator>(std::make_unique<BatchProjectIter>(
          std::move(slots), std::move(layout), std::move(*input)));
    }
    case PhysOpKind::kChoosePlan:
      return Status::InvalidArgument(
          "plan contains unresolved choose-plan operators; run start-up "
          "resolution (ResolveDynamicPlan) before execution");
  }
  return Status::Internal("unknown operator kind");
}

}  // namespace

namespace exec_internal {

Result<std::unique_ptr<BatchIterator>> BuildBatchTree(
    const PhysNode& node, const Database& db, const ParamEnv& env,
    ExecContext* ctx, const ParallelEnv* parallel) {
  return BuildBatch(node, db, env, ctx, parallel);
}

std::unique_ptr<BatchIterator> MakeBatchFileScan(const Table* table,
                                                 int64_t begin_page,
                                                 int64_t end_page) {
  return std::make_unique<BatchFileScanIter>(table, begin_page, end_page);
}

std::unique_ptr<BatchIterator> MakeBatchRidScan(
    const Table* table, std::shared_ptr<const std::vector<RowId>> rids,
    size_t begin, size_t end, const char* op_name) {
  return std::make_unique<BatchRidScanIter>(table, std::move(rids), begin, end,
                                            op_name);
}

std::unique_ptr<BatchIterator> MakeBatchFilter(
    std::vector<BoundPredicate> predicates,
    std::unique_ptr<BatchIterator> input) {
  return std::make_unique<BatchFilterIter>(std::move(predicates),
                                           std::move(input));
}

std::unique_ptr<BatchIterator> MakeBatchProject(
    std::vector<int32_t> slots, TupleLayout layout,
    std::unique_ptr<BatchIterator> input) {
  return std::make_unique<BatchProjectIter>(std::move(slots), std::move(layout),
                                            std::move(input));
}

}  // namespace exec_internal

Result<std::unique_ptr<BatchIterator>> BuildBatchExecutor(
    const PhysNodePtr& plan, const Database& db, const ParamEnv& env,
    ExecContext* ctx) {
  DQEP_CHECK(plan != nullptr);
  return BuildBatch(*plan, db, env, ctx, /*par=*/nullptr);
}

namespace {

Result<std::unique_ptr<BatchIterator>> BuildParallel(
    const PhysNodePtr& plan, const Database& db, const ParamEnv& env,
    const ExecOptions& options, ExecContext* ctx) {
  DQEP_CHECK(plan != nullptr);
  DQEP_CHECK_GE(options.threads, 1);
  if (options.threads == 1) {
    // Serial: the exact single-threaded batch engine, no pool, no
    // exchanges.
    return BuildBatchExecutor(plan, db, env, ctx);
  }
  exec_internal::ParallelEnv par;
  par.pool = std::make_shared<ThreadPool>(options.threads);
  par.threads = options.threads;
  par.morsel_pages = std::max<int64_t>(options.morsel_pages, 1);
  par.morsel_rids = std::max<int64_t>(options.morsel_rids, 1);
  par.ctx = ctx;
  return BuildBatch(*plan, db, env, ctx, &par);
}

}  // namespace

Result<std::unique_ptr<BatchIterator>> BuildParallelBatchExecutor(
    const PhysNodePtr& plan, const Database& db, const ParamEnv& env,
    const ExecOptions& options) {
  return BuildParallel(plan, db, env, options, /*ctx=*/nullptr);
}

Result<std::unique_ptr<BatchIterator>> BuildParallelBatchExecutor(
    const PhysNodePtr& plan, const Database& db, const ParamEnv& env,
    ExecContext& ctx) {
  return BuildParallel(plan, db, env, ctx.options(), &ctx);
}

}  // namespace dqep
