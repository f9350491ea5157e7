#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "exec/exec_context.h"
#include "exec/executor_internal.h"
#include "exec/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dqep {
namespace exec_internal {
namespace {

obs::SharedCounterRef g_batches_metric("exec.exchange.batches");
obs::SharedCounterRef g_workers_metric("exec.exchange.workers");
obs::SharedCounterRef g_morsels_metric("exec.exchange.morsels");

void Accumulate(const OperatorCounters& src, OperatorCounters* dst) {
  dst->next_calls += src.next_calls;
  dst->tuples += src.tuples;
  dst->batches += src.batches;
  dst->wall_seconds += src.wall_seconds;
  dst->open_seconds += src.open_seconds;
  dst->close_seconds += src.close_seconds;
  dst->cpu_seconds += src.cpu_seconds;
  dst->spill_files += src.spill_files;
  dst->spill_tuples += src.spill_tuples;
}

/// A counters-only stand-in for one chain operator in the profile tree.
/// Worker pipelines are per-morsel and ephemeral, so each worker folds its
/// pipelines' counters into these shared nodes when it finishes.
class ProfileNode : public ExecNode {
 public:
  ProfileNode(const char* name, TupleLayout layout) {
    op_name_ = name;
    layout_ = std::move(layout);
  }

  void SetChildren(std::vector<const ExecNode*> children) {
    children_ = std::move(children);
  }

  void Add(const OperatorCounters& counters) { Accumulate(counters, &counters_); }

  std::vector<const ExecNode*> child_nodes() const override {
    return children_;
  }

 private:
  std::vector<const ExecNode*> children_;
};

/// The build side of a hash join inside an exchange chain, shared by all
/// worker pipelines.  Build(): the build subtree is drained once on the
/// opening thread — partitioning rows by key hash in plan order, so every
/// per-key match list carries the serial engine's insertion order — then
/// the per-partition maps are constructed by parallel pool tasks.  After
/// Build returns the state is immutable; workers only Lookup.
class SharedJoinState {
 public:
  /// `ctx` may be null; a non-null context only tracks the build's bytes
  /// (shared builds never spill — under a *bounded* context the batch
  /// builder keeps hash joins out of exchange chains entirely, so only
  /// track-only contexts reach here).
  SharedJoinState(std::vector<int32_t> build_slots,
                  std::vector<int32_t> probe_slots,
                  std::unique_ptr<BatchIterator> build, ExecContext* ctx)
      : build_slots_(std::move(build_slots)),
        probe_slots_(std::move(probe_slots)),
        build_(std::move(build)),
        ctx_(ctx) {}

  ~SharedJoinState() { Reset(); }

  const TupleLayout& build_layout() const { return build_->layout(); }
  const std::vector<int32_t>& probe_slots() const { return probe_slots_; }

  /// The build subtree, for profile rendering.
  const ExecNode* build_node() const { return build_.get(); }

  void Build(ThreadPool* pool) {
    partitions_.assign(kPartitions, Partition());
    auto rows = std::make_shared<
        std::vector<std::vector<std::pair<JoinKey, Tuple>>>>(kPartitions);
    build_->Open();
    TupleBatch batch;
    JoinKey key;
    while (build_->Next(&batch)) {
      for (int32_t i = 0; i < batch.num_rows(); ++i) {
        const Tuple& tuple = batch.row(i);
        if (ctx_ != nullptr) {
          int64_t bytes = TrackedTupleBytes(tuple);
          ctx_->tracker().Acquire(bytes);
          tracked_bytes_ += bytes;
        }
        JoinKeyInto(tuple, build_slots_, &key);
        (*rows)[JoinKeyHash()(key) % kPartitions].emplace_back(key, tuple);
      }
    }
    build_->Close();
    auto latch = std::make_shared<CountDownLatch>(kPartitions);
    for (size_t p = 0; p < kPartitions; ++p) {
      pool->Submit([this, rows, latch, p] {
        Partition& partition = partitions_[p];
        partition.map.reserve((*rows)[p].size());
        for (auto& [k, tuple] : (*rows)[p]) {
          partition.map[k].push_back(std::move(tuple));
        }
        latch->CountDown();
      });
    }
    latch->Wait();
  }

  void Reset() {
    partitions_.clear();
    if (ctx_ != nullptr) {
      ctx_->tracker().Release(tracked_bytes_);
    }
    tracked_bytes_ = 0;
  }

  /// Matches for `key` in serial insertion order, or nullptr.
  const std::vector<Tuple>* Lookup(const JoinKey& key) const {
    const Partition& partition = partitions_[JoinKeyHash()(key) % kPartitions];
    auto it = partition.map.find(key);
    return it == partition.map.end() ? nullptr : &it->second;
  }

 private:
  static constexpr size_t kPartitions = 32;

  struct Partition {
    std::unordered_map<JoinKey, std::vector<Tuple>, JoinKeyHash> map;
  };

  std::vector<int32_t> build_slots_;
  std::vector<int32_t> probe_slots_;
  std::unique_ptr<BatchIterator> build_;
  ExecContext* ctx_;
  int64_t tracked_bytes_ = 0;
  std::vector<Partition> partitions_;
};

/// Probe-side hash join against a SharedJoinState; one instance per
/// worker pipeline.  Mirrors BatchHashJoinIter's probe phase.
class SharedProbeIter : public BatchIterator {
 public:
  SharedProbeIter(const SharedJoinState* join,
                  std::unique_ptr<BatchIterator> probe)
      : join_(join), probe_(std::move(probe)) {
    layout_ = TupleLayout::Concat(join_->build_layout(), probe_->layout());
    op_name_ = "batch-hash-join";
  }

  void OpenImpl() override {
    probe_->Open();
    matches_ = nullptr;
    match_pos_ = 0;
    probe_batch_.Clear();
    probe_pos_ = 0;
  }

  void CloseImpl() override { probe_->Close(); }

  std::vector<const ExecNode*> child_nodes() const override {
    return {probe_.get()};
  }

 protected:
  bool NextImpl(TupleBatch* out) override {
    out->Clear();
    while (!out->full()) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        out->AppendRow().AssignConcat((*matches_)[match_pos_++], probe_tuple_);
        continue;
      }
      if (probe_pos_ >= probe_batch_.num_rows()) {
        if (!probe_->Next(&probe_batch_)) {
          break;
        }
        probe_pos_ = 0;
      }
      probe_tuple_.AssignFrom(probe_batch_.row(probe_pos_++));
      JoinKeyInto(probe_tuple_, join_->probe_slots(), &key_);
      matches_ = join_->Lookup(key_);
      match_pos_ = 0;
    }
    return out->size() > 0;
  }

 private:
  const SharedJoinState* join_;
  std::unique_ptr<BatchIterator> probe_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_pos_ = 0;
  TupleBatch probe_batch_;
  int32_t probe_pos_ = 0;
  Tuple probe_tuple_;  // current probe row, storage reused across rows
  JoinKey key_;
};

// --- Exchange ----------------------------------------------------------------

/// The scan leaf of a chain, fully bound at build time.
struct LeafSpec {
  const Table* table = nullptr;
  bool use_rids = false;  // false: heap page ranges; true: B-tree rid ranges
  int32_t column = -1;
  std::optional<BoundPredicate> predicate;  // filter-btree-scan bound
  const char* op_name = "batch-file-scan";
};

/// One operator above the leaf, fully bound at build time so per-morsel
/// pipeline construction is allocation-cheap and cannot fail.
struct ChainStage {
  enum class Kind { kFilter, kProject, kProbe };

  Kind kind = Kind::kFilter;
  std::vector<BoundPredicate> predicates;       // kFilter
  std::vector<int32_t> slots;                   // kProject
  std::shared_ptr<SharedJoinState> join;        // kProbe
  TupleLayout out_layout;
  const char* op_name = "";
};

/// A bound chain: leaf plus stages bottom-up.
struct ExchangeSpec {
  LeafSpec leaf;
  std::vector<ChainStage> stages;
  TupleLayout output_layout;
};

class ExchangeIter : public BatchIterator {
 public:
  ExchangeIter(ExchangeSpec spec, ParallelEnv parallel)
      : spec_(std::move(spec)), par_(std::move(parallel)) {
    layout_ = spec_.output_layout;
    op_name_ = "exchange";
    // Profile skeleton mirroring the chain, bottom-up (index 0 = leaf).
    profile_chain_.push_back(std::make_unique<ProfileNode>(
        spec_.leaf.op_name, spec_.leaf.table->layout()));
    for (const ChainStage& stage : spec_.stages) {
      auto node =
          std::make_unique<ProfileNode>(stage.op_name, stage.out_layout);
      std::vector<const ExecNode*> children;
      if (stage.kind == ChainStage::Kind::kProbe) {
        children.push_back(stage.join->build_node());
      }
      children.push_back(profile_chain_.back().get());
      node->SetChildren(std::move(children));
      profile_chain_.push_back(std::move(node));
    }
  }

  ~ExchangeIter() override { Close(); }

  void OpenImpl() override {
    DQEP_CHECK(!open_);
    // Shared join builds run now (sequentially, bottom-up), before any
    // worker exists: build subtrees may themselves contain exchanges.
    for (ChainStage& stage : spec_.stages) {
      if (stage.join != nullptr) {
        stage.join->Build(par_.pool.get());
      }
    }
    if (spec_.leaf.use_rids) {
      const BoundPredicate* pred =
          spec_.leaf.predicate.has_value() ? &*spec_.leaf.predicate : nullptr;
      rids_ = std::make_shared<const std::vector<RowId>>(
          BTreeRids(*spec_.leaf.table, spec_.leaf.column, pred));
      num_morsels_ = (static_cast<int64_t>(rids_->size()) + par_.morsel_rids -
                      1) /
                     par_.morsel_rids;
    } else {
      leaf_pages_ = spec_.leaf.table->heap().NumPages();
      num_morsels_ = (leaf_pages_ + par_.morsel_pages - 1) / par_.morsel_pages;
    }
    num_workers_ = static_cast<int32_t>(std::min<int64_t>(
        par_.threads, std::max<int64_t>(num_morsels_, 1)));
    next_morsel_.store(0, std::memory_order_relaxed);
    queue_ = std::make_shared<BoundedQueue<MorselResult>>(
        static_cast<size_t>(num_workers_) * 2, num_workers_);
    latch_ = std::make_shared<CountDownLatch>(num_workers_);
    next_emit_ = 0;
    pending_.clear();
    ready_.clear();
    open_ = true;
    started_ = false;
  }

  void CloseImpl() override {
    if (!open_) {
      return;
    }
    if (started_) {
      queue_->Cancel();  // unblocks producers mid-Push on early close
      latch_->Wait();    // all worker counters merged past this point
      // Mirror this run's exchange totals into the process-wide registry
      // (delta against the accumulating profile skeleton, so re-opened
      // exchanges don't double-publish).
      int64_t batches = profile_chain_.back()->counters().batches;
      g_batches_metric.Add(batches - published_batches_);
      published_batches_ = batches;
      g_workers_metric.Add(num_workers_);
    }
    queue_.reset();
    latch_.reset();
    pending_.clear();
    ready_.clear();
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      freelist_.clear();
    }
    rids_.reset();
    for (ChainStage& stage : spec_.stages) {
      if (stage.join != nullptr) {
        stage.join->Reset();
      }
    }
    open_ = false;
    started_ = false;
  }

  std::vector<const ExecNode*> child_nodes() const override {
    return {profile_chain_.back().get()};
  }

 protected:
  bool NextImpl(TupleBatch* out) override {
    DQEP_CHECK(open_);
    if (!started_) {
      // Workers launch on first demand, not at Open: a consumer that opens
      // several exchanges before draining them (e.g. a binary operator
      // opening both children) must not have cohorts queued in the pool in
      // an order it does not drain them in.
      StartWorkers();
    }
    while (ready_.empty()) {
      auto it = pending_.find(next_emit_);
      if (it != pending_.end()) {
        for (TupleBatch& batch : it->second) {
          ready_.push_back(std::move(batch));
        }
        pending_.erase(it);
        ++next_emit_;  // a morsel may contribute zero batches; keep going
        continue;
      }
      MorselResult result;
      if (!queue_->Pop(&result)) {
        return false;  // all producers done and drained
      }
      pending_.emplace(result.morsel, std::move(result.batches));
    }
    TupleBatch batch = std::move(ready_.front());
    ready_.pop_front();
    // Hand the filled batch over wholesale and recycle the consumer's old
    // storage for the workers.
    std::swap(*out, batch);
    RecycleBatch(std::move(batch));
    return true;
  }

 private:
  struct MorselResult {
    int64_t morsel = 0;
    std::vector<TupleBatch> batches;
  };

  /// One worker's private pipeline over one morsel.  `nodes` aligns with
  /// profile_chain_ (bottom-up); `top` owns the chain.
  struct Pipeline {
    std::unique_ptr<BatchIterator> top;
    std::vector<BatchIterator*> nodes;
  };

  void StartWorkers() {
    started_ = true;
    for (int32_t w = 0; w < num_workers_; ++w) {
      // Workers keep the queue and latch alive on their own; `this` is
      // not touched after the final CountDown, which Close awaits.
      std::shared_ptr<BoundedQueue<MorselResult>> queue = queue_;
      std::shared_ptr<CountDownLatch> latch = latch_;
      par_.pool->Submit([this, queue, latch, w] {
        WorkerMain(queue.get(), w);
        queue->ProducerDone();
        latch->CountDown();
      });
    }
  }

  void WorkerMain(BoundedQueue<MorselResult>* queue, int32_t worker) {
    obs::TraceSession* trace =
        par_.ctx == nullptr ? nullptr : par_.ctx->trace();
    int64_t track = 0;
    if (trace != nullptr) {
      track = trace->RegisterTrack("worker-" + std::to_string(worker));
    }
    std::vector<OperatorCounters> local(profile_chain_.size());
    int64_t morsels_run = 0;
    while (true) {
      int64_t morsel = next_morsel_.fetch_add(1, std::memory_order_relaxed);
      if (morsel >= num_morsels_) {
        break;
      }
      int64_t span_start = trace == nullptr ? 0 : trace->NowMicros();
      Pipeline pipeline = BuildMorselPipeline(morsel);
      pipeline.top->Open();
      MorselResult result;
      result.morsel = morsel;
      TupleBatch batch = AcquireBatch();
      while (pipeline.top->Next(&batch)) {
        result.batches.push_back(std::move(batch));
        batch = AcquireBatch();
      }
      RecycleBatch(std::move(batch));
      pipeline.top->Close();
      for (size_t i = 0; i < pipeline.nodes.size(); ++i) {
        Accumulate(pipeline.nodes[i]->counters(), &local[i]);
      }
      int64_t rows = pipeline.top->counters().tuples;
      ++morsels_run;
      if (trace != nullptr) {
        trace->AddSpan("morsel", "exchange", span_start,
                       trace->NowMicros() - span_start, track,
                       {{"morsel", std::to_string(morsel)},
                        {"leaf", spec_.leaf.op_name},
                        {"rows", std::to_string(rows)}});
      }
      if (!queue->Push(std::move(result))) {
        break;  // cancelled: consumer closed early
      }
    }
    g_morsels_metric.Add(morsels_run);
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (size_t i = 0; i < profile_chain_.size(); ++i) {
      profile_chain_[i]->Add(local[i]);
    }
  }

  Pipeline BuildMorselPipeline(int64_t morsel) {
    Pipeline pipeline;
    std::unique_ptr<BatchIterator> current;
    if (spec_.leaf.use_rids) {
      size_t begin = static_cast<size_t>(morsel * par_.morsel_rids);
      size_t end =
          std::min(begin + static_cast<size_t>(par_.morsel_rids), rids_->size());
      current = MakeBatchRidScan(spec_.leaf.table, rids_, begin, end,
                                 spec_.leaf.op_name);
    } else {
      int64_t begin = morsel * par_.morsel_pages;
      int64_t end = std::min(begin + par_.morsel_pages, leaf_pages_);
      current = MakeBatchFileScan(spec_.leaf.table, begin, end);
    }
    pipeline.nodes.push_back(current.get());
    for (const ChainStage& stage : spec_.stages) {
      switch (stage.kind) {
        case ChainStage::Kind::kFilter:
          current = MakeBatchFilter(stage.predicates, std::move(current));
          break;
        case ChainStage::Kind::kProject:
          current = MakeBatchProject(stage.slots, stage.out_layout,
                                     std::move(current));
          break;
        case ChainStage::Kind::kProbe:
          current = std::make_unique<SharedProbeIter>(stage.join.get(),
                                                      std::move(current));
          break;
      }
      pipeline.nodes.push_back(current.get());
    }
    pipeline.top = std::move(current);
    return pipeline;
  }

  TupleBatch AcquireBatch() {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (freelist_.empty()) {
      return TupleBatch();
    }
    TupleBatch batch = std::move(freelist_.back());
    freelist_.pop_back();
    return batch;
  }

  void RecycleBatch(TupleBatch&& batch) {
    batch.Clear();
    std::lock_guard<std::mutex> lock(state_mutex_);
    freelist_.push_back(std::move(batch));
  }

  ExchangeSpec spec_;
  ParallelEnv par_;
  /// Chain profile skeleton, bottom-up; [back()] is the chain's top.
  std::vector<std::unique_ptr<ProfileNode>> profile_chain_;

  // Per-Open state.  Written by the consumer in Open before workers start
  // (ThreadPool::Submit orders it) and read-only afterwards, except where
  // noted.
  bool open_ = false;
  bool started_ = false;
  std::shared_ptr<const std::vector<RowId>> rids_;
  int64_t leaf_pages_ = 0;
  int64_t num_morsels_ = 0;
  int32_t num_workers_ = 0;
  int64_t published_batches_ = 0;
  std::atomic<int64_t> next_morsel_{0};
  std::shared_ptr<BoundedQueue<MorselResult>> queue_;
  std::shared_ptr<CountDownLatch> latch_;
  /// Guards the batch freelist and profile-counter merges.
  std::mutex state_mutex_;
  std::vector<TupleBatch> freelist_;

  // Consumer-only reorder state: morsel outputs are emitted strictly in
  // morsel order regardless of arrival order.
  int64_t next_emit_ = 0;
  std::map<int64_t, std::vector<TupleBatch>> pending_;
  std::deque<TupleBatch> ready_;
};

}  // namespace

bool IsParallelizableChain(const PhysNode& node, bool include_hash_joins) {
  switch (node.kind()) {
    case PhysOpKind::kFileScan:
    case PhysOpKind::kBTreeScan:
    case PhysOpKind::kFilterBTreeScan:
      return true;
    case PhysOpKind::kFilter:
    case PhysOpKind::kProject:
      return IsParallelizableChain(*node.child(0), include_hash_joins);
    case PhysOpKind::kHashJoin:
      return include_hash_joins &&
             IsParallelizableChain(*node.child(1), include_hash_joins);
    default:
      return false;
  }
}

Result<std::unique_ptr<BatchIterator>> MakeExchange(
    const PhysNode& root, const Database& db, const ParamEnv& env,
    const ParallelEnv& parallel) {
  // Walk the chain top-down to the scan leaf.
  std::vector<const PhysNode*> path;
  const PhysNode* node = &root;
  while (true) {
    path.push_back(node);
    PhysOpKind kind = node->kind();
    if (kind == PhysOpKind::kFileScan || kind == PhysOpKind::kBTreeScan ||
        kind == PhysOpKind::kFilterBTreeScan) {
      break;
    }
    DQEP_CHECK(kind == PhysOpKind::kFilter || kind == PhysOpKind::kProject ||
               kind == PhysOpKind::kHashJoin);
    node = kind == PhysOpKind::kHashJoin ? node->child(1).get()
                                         : node->child(0).get();
  }

  const PhysNode& leaf_node = *path.back();
  const Table& table = db.table(leaf_node.relation());
  ExchangeSpec spec;
  spec.leaf.table = &table;
  switch (leaf_node.kind()) {
    case PhysOpKind::kFileScan:
      spec.leaf.op_name = "batch-file-scan";
      break;
    case PhysOpKind::kBTreeScan:
      spec.leaf.use_rids = true;
      spec.leaf.column = leaf_node.column();
      spec.leaf.op_name = "batch-btree-scan";
      break;
    case PhysOpKind::kFilterBTreeScan: {
      spec.leaf.use_rids = true;
      spec.leaf.column = leaf_node.column();
      spec.leaf.op_name = "batch-filter-btree-scan";
      DQEP_CHECK_EQ(leaf_node.predicates().size(), 1u);
      Result<BoundPredicate> pred =
          BindPredicate(leaf_node.predicates().front(), table.layout(), env);
      if (!pred.ok()) {
        return pred.status();
      }
      spec.leaf.predicate = *pred;
      break;
    }
    default:
      return Status::Internal("exchange chain has a non-scan leaf");
  }

  // Bind the stages bottom-up, tracking the evolving layout.
  TupleLayout layout = table.layout();
  for (auto it = path.rbegin() + 1; it != path.rend(); ++it) {
    const PhysNode& stage_node = **it;
    ChainStage stage;
    switch (stage_node.kind()) {
      case PhysOpKind::kFilter: {
        Result<std::vector<BoundPredicate>> bound =
            BindPredicates(stage_node.predicates(), layout, env);
        if (!bound.ok()) {
          return bound.status();
        }
        stage.kind = ChainStage::Kind::kFilter;
        stage.predicates = std::move(*bound);
        stage.out_layout = layout;
        stage.op_name = "batch-filter";
        break;
      }
      case PhysOpKind::kProject: {
        std::vector<int32_t> slots;
        TupleLayout projected;
        for (const AttrRef& attr : stage_node.projections()) {
          int32_t slot = layout.SlotOf(attr);
          if (slot < 0) {
            return Status::Internal("projected attribute missing from input");
          }
          slots.push_back(slot);
          projected.Append(attr);
        }
        stage.kind = ChainStage::Kind::kProject;
        stage.slots = std::move(slots);
        layout = projected;
        stage.out_layout = std::move(projected);
        stage.op_name = "batch-project";
        break;
      }
      case PhysOpKind::kHashJoin: {
        Result<std::unique_ptr<BatchIterator>> build =
            BuildBatchTree(*stage_node.child(0), db, env, parallel.ctx,
                           &parallel);
        if (!build.ok()) {
          return build.status();
        }
        std::vector<int32_t> build_slots;
        std::vector<int32_t> probe_slots;
        DQEP_RETURN_IF_ERROR(ResolveJoinSlots(stage_node, (*build)->layout(),
                                              layout, &build_slots,
                                              &probe_slots));
        stage.kind = ChainStage::Kind::kProbe;
        stage.join = std::make_shared<SharedJoinState>(
            std::move(build_slots), std::move(probe_slots), std::move(*build),
            parallel.ctx);
        layout = TupleLayout::Concat(stage.join->build_layout(), layout);
        stage.out_layout = layout;
        stage.op_name = "batch-hash-join";
        break;
      }
      default:
        return Status::Internal("non-chain operator inside exchange chain");
    }
    spec.stages.push_back(std::move(stage));
  }
  spec.output_layout = layout;
  return std::unique_ptr<BatchIterator>(
      std::make_unique<ExchangeIter>(std::move(spec), parallel));
}

}  // namespace exec_internal
}  // namespace dqep
