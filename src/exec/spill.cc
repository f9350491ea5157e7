#include "exec/spill.h"

#include "obs/trace.h"

#include <algorithm>
#include <utility>

namespace dqep {
namespace exec_internal {

namespace {

// Grace-join partition fan-out per recursion level, and the depth at
// which an oversized partition is loaded anyway (forced progress; only
// reachable with pathological key skew, and counted by overflow_loads).
constexpr size_t kSpillFanout = 16;
constexpr int32_t kMaxRepartitionDepth = 4;

/// splitmix64 finalizer: a strong mixer independent of JoinKeyHash.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

size_t SpillPartitionOf(const JoinKey& key, int32_t depth, size_t fanout) {
  uint64_t h = Mix64(0x5bd1e995u + static_cast<uint64_t>(depth));
  for (int64_t v : key) {
    h = Mix64(h ^ Mix64(static_cast<uint64_t>(v)));
  }
  return static_cast<size_t>(h % fanout);
}

// --- SpillFile ---------------------------------------------------------------

SpillFile::SpillFile(const Database* db, ExecContext* ctx,
                     SpillCounters* counters)
    : heap_(db->CreateTempHeap()), ctx_(ctx), counters_(counters) {
  DQEP_CHECK(counters != nullptr);
}

void SpillFile::Append(const Tuple& tuple) {
  if (num_tuples_ == 0) {
    ++counters_->files;
    if (ctx_ != nullptr) {
      ctx_->RecordTempFile();
    }
  }
  heap_->Append(tuple);
  ++num_tuples_;
  int64_t bytes = TrackedTupleBytes(tuple);
  tracked_bytes_ += bytes;
  max_tuple_bytes_ = std::max(max_tuple_bytes_, bytes);
  ++counters_->tuples;
  if (ctx_ != nullptr) {
    ctx_->RecordSpill(1, bytes);
  }
}

// --- HashJoinState -----------------------------------------------------------

HashJoinState::HashJoinState(std::vector<int32_t> build_slots,
                             std::vector<int32_t> probe_slots,
                             const Database* db, ExecContext* ctx)
    : build_slots_(std::move(build_slots)),
      probe_slots_(std::move(probe_slots)),
      db_(db),
      ctx_(ctx) {
  DQEP_CHECK(db != nullptr);
}

HashJoinState::~HashJoinState() { Reset(); }

std::unique_ptr<SpillFile> HashJoinState::NewSpillFile() {
  return std::make_unique<SpillFile>(db_, ctx_, &counters_);
}

void HashJoinState::AddBuild(const Tuple& tuple) {
  ++build_rows_;
  if (!spilled_) {
    int64_t bytes = TrackedTupleBytes(tuple);
    if (ctx_ != nullptr && ctx_->bounded() &&
        ctx_->tracker().WouldExceed(bytes)) {
      SpillBuildTable();
    } else {
      if (ctx_ != nullptr) {
        ctx_->tracker().Acquire(bytes);
      }
      table_bytes_ += bytes;
      table_acquired_bytes_ += bytes;
      JoinKeyInto(tuple, build_slots_, &scratch_key_);
      table_[scratch_key_].push_back(tuple);
      return;
    }
  }
  JoinKeyInto(tuple, build_slots_, &scratch_key_);
  build_parts_[SpillPartitionOf(scratch_key_, 0, kSpillFanout)]->Append(tuple);
}

void HashJoinState::SpillBuildTable() {
  obs::SpanScope span(ctx_ == nullptr ? nullptr : ctx_->trace(),
                      "spill build-table", "spill");
  span.AddArg("keys", static_cast<int64_t>(table_.size()));
  spilled_ = true;
  build_parts_.clear();
  for (size_t i = 0; i < kSpillFanout; ++i) {
    build_parts_.push_back(NewSpillFile());
  }
  // Flush the table into partitions.  Map iteration order only affects
  // how different keys interleave within a partition file, which the
  // partition-wise probe never observes: per-key row order is arrival
  // order both here (per-key vectors) and for rows added after the flush.
  for (const auto& [key, rows] : table_) {
    SpillFile& file = *build_parts_[SpillPartitionOf(key, 0, kSpillFanout)];
    for (const Tuple& tuple : rows) {
      file.Append(tuple);
    }
  }
  ReleaseTable();
}

void HashJoinState::FinishBuild() {
  if (!spilled_) {
    return;
  }
  probe_parts_.clear();
  for (size_t i = 0; i < kSpillFanout; ++i) {
    probe_parts_.push_back(NewSpillFile());
  }
}

void HashJoinState::ExportBuildRows(
    const std::function<void(const Tuple&)>& sink) const {
  if (!spilled_) {
    // Map iteration order is not deterministic across runs; export keys
    // in sorted order (lexicographic over the key vector), rows within a
    // key in arrival order.  Any fixed order works — parity only needs
    // the same order for the same input at every thread count.
    std::vector<const Table::value_type*> entries;
    entries.reserve(table_.size());
    for (const auto& entry : table_) {
      entries.push_back(&entry);
    }
    std::sort(entries.begin(), entries.end(),
              [](const Table::value_type* a, const Table::value_type* b) {
                return a->first < b->first;
              });
    for (const Table::value_type* entry : entries) {
      for (const Tuple& tuple : entry->second) {
        sink(tuple);
      }
    }
    return;
  }
  // Spilled build: partition files in partition order (deterministic —
  // partitioning depends only on the key stream).
  for (const std::unique_ptr<SpillFile>& part : build_parts_) {
    if (part == nullptr || part->num_tuples() == 0) {
      continue;
    }
    SpillFile::Scanner scan = part->CreateScanner();
    Tuple tuple;
    while (scan.Next(&tuple)) {
      sink(tuple);
    }
  }
}

const std::vector<Tuple>* HashJoinState::Lookup(const Tuple& probe) {
  DQEP_CHECK(!spilled_);
  JoinKeyInto(probe, probe_slots_, &scratch_key_);
  auto it = table_.find(scratch_key_);
  return it == table_.end() ? nullptr : &it->second;
}

void HashJoinState::AddProbe(const Tuple& tuple) {
  DQEP_CHECK(spilled_);
  JoinKeyInto(tuple, probe_slots_, &scratch_key_);
  size_t p = SpillPartitionOf(scratch_key_, 0, kSpillFanout);
  if (build_parts_[p]->num_tuples() == 0) {
    return;  // no build rows can match; skip the write
  }
  probe_parts_[p]->Append(tuple);
}

void HashJoinState::FinishProbe() {
  DQEP_CHECK(spilled_);
  for (size_t i = 0; i < kSpillFanout; ++i) {
    Job job;
    job.build = std::move(build_parts_[i]);
    job.probe = std::move(probe_parts_[i]);
    job.depth = 0;
    jobs_.push_back(std::move(job));
  }
  build_parts_.clear();
  probe_parts_.clear();
  job_open_ = false;
  matches_ = nullptr;
  // Reserve the largest partition's working set for the whole pass, now,
  // while downstream operators hold (at most) very little.  Without the
  // reservation a downstream consumer (e.g. an external sort buffering
  // our output) absorbs whatever CloseJob releases between partitions,
  // and each next load finds ever less headroom — repartitioning ever
  // deeper until forced loads break the budget.  With it, loads draw on
  // the credit and downstream growth stops at budget - reserve.
  //
  // An eighth of the budget is deliberately left out of the reservation
  // so downstream consumers always keep a spill-sized working set of
  // their own; partitions larger than the reservation are repartitioned.
  // The reservation is also what makes the partition pass deterministic:
  // load-vs-repartition below compares against reserve_bytes_ alone,
  // never against the live tracker, so the partition structure — and
  // with it the spilled join's output order — cannot depend on how a
  // concurrent consumer's buffering interleaves (which differs with
  // the thread count).
  if (ctx_ != nullptr && ctx_->bounded()) {
    int64_t max_partition = 0;
    for (const Job& job : jobs_) {
      if (job.probe->num_tuples() > 0) {
        max_partition = std::max(max_partition, job.build->tracked_bytes());
      }
    }
    int64_t slack = ctx_->tracker().budget_bytes() / 8;
    int64_t avail = ctx_->tracker().available_bytes();
    reserve_bytes_ =
        std::max<int64_t>(0, std::min(max_partition, avail - slack));
    ctx_->tracker().Acquire(reserve_bytes_);
  }
}

void HashJoinState::LoadBuildPartition(SpillFile& build, int32_t depth) {
  (void)depth;
  int64_t bytes = build.tracked_bytes();
  // The reservation credit covers the load up to its size; only the
  // excess (an oversized partition at the depth limit) is a fresh
  // acquisition.
  table_acquired_bytes_ = bytes - std::min(bytes, reserve_bytes_);
  if (ctx_ != nullptr && table_acquired_bytes_ > 0) {
    ctx_->tracker().Acquire(table_acquired_bytes_);
  }
  table_bytes_ = bytes;
  table_.clear();
  SpillFile::Scanner scan = build.CreateScanner();
  Tuple tuple;
  while (scan.Next(&tuple)) {
    JoinKeyInto(tuple, build_slots_, &scratch_key_);
    table_[scratch_key_].push_back(tuple);
  }
}

bool HashJoinState::LoadBuildBlock() {
  DQEP_CHECK(block_mode_);
  table_.clear();
  table_bytes_ = 0;
  for (;;) {
    if (!have_pending_build_) {
      if (!build_scanner_->Next(&pending_build_)) {
        break;
      }
      have_pending_build_ = true;
    }
    int64_t bytes = TrackedTupleBytes(pending_build_);
    if (!table_.empty() && table_bytes_ + bytes > reserve_bytes_) {
      break;  // block full; the pending row starts the next block
    }
    table_bytes_ += bytes;
    JoinKeyInto(pending_build_, build_slots_, &scratch_key_);
    table_[scratch_key_].push_back(pending_build_);
    have_pending_build_ = false;
  }
  // The reservation credit covers the block; only a single row wider
  // than the whole credit forces a fresh acquisition.
  table_acquired_bytes_ = table_bytes_ - std::min(table_bytes_, reserve_bytes_);
  if (table_acquired_bytes_ > 0) {
    ++overflow_loads_;
    if (ctx_ != nullptr) {
      ctx_->RecordOverflow();
      ctx_->tracker().Acquire(table_acquired_bytes_);
    }
  }
  return !table_.empty();
}

void HashJoinState::RepartitionJob(Job job) {
  obs::SpanScope span(ctx_ == nullptr ? nullptr : ctx_->trace(),
                      "spill repartition", "spill");
  int32_t depth = job.depth + 1;
  span.AddArg("depth", static_cast<int64_t>(depth));
  span.AddArg("build_tuples", job.build->num_tuples());
  span.AddArg("probe_tuples", job.probe->num_tuples());
  std::vector<Job> subs(kSpillFanout);
  for (Job& sub : subs) {
    sub.build = NewSpillFile();
    sub.probe = NewSpillFile();
    sub.depth = depth;
  }
  Tuple tuple;
  {
    SpillFile::Scanner scan = job.build->CreateScanner();
    while (scan.Next(&tuple)) {
      JoinKeyInto(tuple, build_slots_, &scratch_key_);
      subs[SpillPartitionOf(scratch_key_, depth, kSpillFanout)]
          .build->Append(tuple);
    }
  }
  {
    SpillFile::Scanner scan = job.probe->CreateScanner();
    while (scan.Next(&tuple)) {
      JoinKeyInto(tuple, probe_slots_, &scratch_key_);
      Job& sub = subs[SpillPartitionOf(scratch_key_, depth, kSpillFanout)];
      if (sub.build->num_tuples() > 0) {
        sub.probe->Append(tuple);
      }
    }
  }
  // Free the parent pair before the sub-jobs run.
  job.build.reset();
  job.probe.reset();
  // Sub-jobs run next, in partition order, ahead of later siblings.
  for (size_t i = kSpillFanout; i-- > 0;) {
    jobs_.push_front(std::move(subs[i]));
  }
}

bool HashJoinState::StartNextJob() {
  while (!jobs_.empty()) {
    if (ctx_ != nullptr && ctx_->cancelled()) {
      return false;
    }
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    if (job.build->num_tuples() == 0 || job.probe->num_tuples() == 0) {
      continue;  // the pair frees its pages here
    }
    // Deterministic load-vs-repartition: a partition loads iff the
    // reservation covers it.  Deliberately not a live-tracker check —
    // see the FinishProbe comment.
    int64_t need = job.build->tracked_bytes();
    bool fits =
        ctx_ == nullptr || !ctx_->bounded() || need <= reserve_bytes_;
    if (!fits && job.depth < kMaxRepartitionDepth) {
      RepartitionJob(std::move(job));
      continue;
    }
    current_job_ = std::move(job);
    if (!fits) {
      // Oversized even at the depth limit (key skew defeats splitting):
      // block nested loops — reservation-sized build blocks, one probe
      // rescan per block.  Memory stays bounded; I/O pays for it.
      block_mode_ = true;
      build_scanner_.emplace(current_job_.build->CreateScanner());
      have_pending_build_ = false;
      bool loaded = LoadBuildBlock();
      DQEP_CHECK(loaded);  // the build file is non-empty
    } else {
      LoadBuildPartition(*current_job_.build, current_job_.depth);
    }
    probe_scanner_.emplace(current_job_.probe->CreateScanner());
    job_open_ = true;
    return true;
  }
  ReleaseReservation();  // all partitions joined; hand the credit back
  return false;
}

void HashJoinState::CloseJob() {
  probe_scanner_.reset();  // scanners go before the files they read
  build_scanner_.reset();
  block_mode_ = false;
  have_pending_build_ = false;
  current_job_.build.reset();
  current_job_.probe.reset();
  ReleaseTable();
  job_open_ = false;
  matches_ = nullptr;
}

bool HashJoinState::NextJoined(Tuple* out) {
  for (;;) {
    if (ctx_ != nullptr && ctx_->cancelled()) {
      return false;
    }
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      out->AssignConcat((*matches_)[match_pos_++], probe_tuple_);
      return true;
    }
    matches_ = nullptr;
    if (job_open_) {
      if (probe_scanner_->Next(&probe_tuple_)) {
        JoinKeyInto(probe_tuple_, probe_slots_, &scratch_key_);
        auto it = table_.find(scratch_key_);
        if (it != table_.end()) {
          matches_ = &it->second;
          match_pos_ = 0;
        }
        continue;
      }
      if (block_mode_) {
        // Probe exhausted against this block; load the next build block
        // and rescan the probe file, or finish the job.
        ReleaseTable();
        if (LoadBuildBlock()) {
          probe_scanner_.emplace(current_job_.probe->CreateScanner());
          continue;
        }
      }
      CloseJob();
    }
    if (!StartNextJob()) {
      return false;
    }
  }
}

void HashJoinState::ReleaseTable() {
  if (ctx_ != nullptr) {
    ctx_->tracker().Release(table_acquired_bytes_);
  }
  table_bytes_ = 0;
  table_acquired_bytes_ = 0;
  table_.clear();
}

void HashJoinState::ReleaseReservation() {
  if (ctx_ != nullptr && reserve_bytes_ > 0) {
    ctx_->tracker().Release(reserve_bytes_);
  }
  reserve_bytes_ = 0;
}

void HashJoinState::Reset() {
  probe_scanner_.reset();
  build_scanner_.reset();
  block_mode_ = false;
  have_pending_build_ = false;
  current_job_.build.reset();
  current_job_.probe.reset();
  jobs_.clear();
  build_parts_.clear();
  probe_parts_.clear();
  ReleaseTable();
  ReleaseReservation();
  spilled_ = false;
  job_open_ = false;
  matches_ = nullptr;
  match_pos_ = 0;
  build_rows_ = 0;
}

// --- ExternalSorter ----------------------------------------------------------

ExternalSorter::ExternalSorter(int32_t slot, const Database* db,
                               ExecContext* ctx)
    : slot_(slot), db_(db), ctx_(ctx) {
  DQEP_CHECK(db != nullptr);
}

ExternalSorter::~ExternalSorter() { Reset(); }

void ExternalSorter::Add(const Tuple& tuple) {
  DQEP_CHECK(!finished_);
  ++num_rows_;
  int64_t bytes = TrackedTupleBytes(tuple);
  if (ctx_ != nullptr && ctx_->bounded() &&
      ctx_->tracker().WouldExceed(bytes)) {
    if (!rows_.empty()) {
      SpillRun();
    }
    if (ctx_->tracker().WouldExceed(bytes)) {
      // Not even one row fits the headroom the rest of the pipeline
      // leaves us; forced progress.
      ++overflow_loads_;
      ctx_->RecordOverflow();
    }
  }
  if (ctx_ != nullptr) {
    ctx_->tracker().Acquire(bytes);
  }
  rows_bytes_ += bytes;
  rows_.push_back(tuple);
}

void ExternalSorter::SpillRun() {
  obs::SpanScope span(ctx_ == nullptr ? nullptr : ctx_->trace(),
                      "spill sort-run", "spill");
  span.AddArg("rows", static_cast<int64_t>(rows_.size()));
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Tuple& a, const Tuple& b) {
                     return RowLess(a, b);
                   });
  Run run;
  run.file = std::make_unique<SpillFile>(db_, ctx_, &counters_);
  for (const Tuple& tuple : rows_) {
    run.file->Append(tuple);
  }
  runs_.push_back(std::move(run));
  if (ctx_ != nullptr) {
    ctx_->tracker().Release(rows_bytes_);
  }
  rows_bytes_ = 0;
  rows_.clear();
}

void ExternalSorter::Finish() {
  DQEP_CHECK(!finished_);
  finished_ = true;
  if (runs_.empty()) {
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Tuple& a, const Tuple& b) {
                       return RowLess(a, b);
                     });
    return;
  }
  if (!rows_.empty()) {
    SpillRun();
  }
  PreMergeToFit();
  OpenFinalMerge();
}

void ExternalSorter::ExportSorted(
    const std::function<void(const Tuple&)>& sink) {
  DQEP_CHECK(finished_);
  if (!spilled()) {
    for (const Tuple& tuple : rows_) {
      sink(tuple);
    }
    return;
  }
  Tuple tuple;
  while (Next(&tuple)) {
    sink(tuple);
  }
}

int64_t ExternalSorter::HeadBytes(size_t count) const {
  int64_t bytes = 0;
  for (size_t i = 0; i < count; ++i) {
    bytes += runs_[i].file->max_tuple_bytes();
  }
  return bytes;
}

void ExternalSorter::PreMergeToFit() {
  if (ctx_ == nullptr || !ctx_->bounded()) {
    return;
  }
  while (runs_.size() > 2 &&
         ctx_->tracker().WouldExceed(HeadBytes(runs_.size()))) {
    // Merge the longest prefix of runs whose heads fit (at least two).
    size_t count = 2;
    int64_t cost = HeadBytes(2);
    while (count < runs_.size() &&
           !ctx_->tracker().WouldExceed(
               cost + runs_[count].file->max_tuple_bytes())) {
      cost += runs_[count].file->max_tuple_bytes();
      ++count;
    }
    MergePrefix(count);
  }
}

void ExternalSorter::MergePrefix(size_t count) {
  obs::SpanScope span(ctx_ == nullptr ? nullptr : ctx_->trace(),
                      "spill merge-runs", "spill");
  span.AddArg("runs", static_cast<int64_t>(count));
  int64_t cost = HeadBytes(count);
  if (ctx_ != nullptr) {
    if (ctx_->tracker().WouldExceed(cost)) {
      ++overflow_loads_;  // even a two-way merge does not fit
      ctx_->RecordOverflow();
    }
    ctx_->tracker().Acquire(cost);
  }
  std::vector<Cursor> cursors(count);
  for (size_t i = 0; i < count; ++i) {
    cursors[i].scanner.emplace(runs_[i].file->CreateScanner());
    cursors[i].valid = cursors[i].scanner->Next(&cursors[i].head);
  }
  Run merged;
  merged.file = std::make_unique<SpillFile>(db_, ctx_, &counters_);
  for (;;) {
    int best = -1;
    for (size_t i = 0; i < count; ++i) {
      // Strict less, so equal keys resolve to the lower-numbered (earlier)
      // run — the stability invariant.
      if (cursors[i].valid &&
          (best < 0 || RowLess(cursors[i].head,
                               cursors[static_cast<size_t>(best)].head))) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) {
      break;
    }
    Cursor& cursor = cursors[static_cast<size_t>(best)];
    merged.file->Append(cursor.head);
    cursor.valid = cursor.scanner->Next(&cursor.head);
  }
  cursors.clear();  // scanners go before the inputs free their pages
  runs_.erase(runs_.begin(), runs_.begin() + static_cast<int64_t>(count));
  runs_.insert(runs_.begin(), std::move(merged));
  if (ctx_ != nullptr) {
    ctx_->tracker().Release(cost);
  }
}

void ExternalSorter::OpenFinalMerge() {
  heads_bytes_ = HeadBytes(runs_.size());
  if (ctx_ != nullptr) {
    if (ctx_->tracker().WouldExceed(heads_bytes_)) {
      ++overflow_loads_;
      ctx_->RecordOverflow();
    }
    ctx_->tracker().Acquire(heads_bytes_);
  }
  cursors_.clear();
  cursors_.resize(runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    cursors_[i].scanner.emplace(runs_[i].file->CreateScanner());
    cursors_[i].valid = cursors_[i].scanner->Next(&cursors_[i].head);
  }
}

bool ExternalSorter::Next(Tuple* out) {
  DQEP_CHECK(finished_);
  if (ctx_ != nullptr && ctx_->cancelled()) {
    return false;
  }
  int best = -1;
  for (size_t i = 0; i < cursors_.size(); ++i) {
    if (cursors_[i].valid &&
        (best < 0 || RowLess(cursors_[i].head,
                             cursors_[static_cast<size_t>(best)].head))) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) {
    // End of stream: hand the merge heads back now rather than at Close,
    // so a downstream operator still consuming other inputs gets the
    // headroom.  (Run files stay until Reset; spilled() must not flip.)
    cursors_.clear();
    if (ctx_ != nullptr && heads_bytes_ > 0) {
      ctx_->tracker().Release(heads_bytes_);
    }
    heads_bytes_ = 0;
    return false;
  }
  Cursor& cursor = cursors_[static_cast<size_t>(best)];
  out->AssignFrom(cursor.head);
  cursor.valid = cursor.scanner->Next(&cursor.head);
  return true;
}

void ExternalSorter::Reset() {
  cursors_.clear();  // scanners go before the runs free their pages
  runs_.clear();
  if (ctx_ != nullptr) {
    ctx_->tracker().Release(rows_bytes_ + heads_bytes_);
  }
  rows_bytes_ = 0;
  heads_bytes_ = 0;
  rows_.clear();
  finished_ = false;
  num_rows_ = 0;
}

}  // namespace exec_internal
}  // namespace dqep
