// Budget-aware operator state: tracked tuple sizing, temp-heap spill
// files, the grace hash-join state, and the external merge sorter.
//
// Spill decisions — and therefore output row sequences — are identical at
// every thread count (spilling joins and sorts always run on the consumer
// thread; see exec/parallel.h for how bounded contexts keep them out of
// exchange chains).
//
// Budget semantics: the MemoryTracker accounts state that scales with
// input size — hash-table tuples, sort rows, loaded partitions, merge
// heads.  O(1) per-operator scratch (batch buffers, key vectors, rid
// runs) is not tracked, mirroring how real engines charge work_mem.
// Every tracked Acquire is preceded by a check that chooses spilling
// instead, with forced-progress exceptions (a partition still too large
// at the recursion depth limit, merge heads that cannot fit even
// pairwise, a sort row arriving with zero headroom); those overflow
// events are counted — locally and on the ExecContext — so tests can
// assert they never fire at the budgets under test.  The grace join's
// load-vs-repartition choice compares against a per-pass reservation
// (HashJoinState::FinishProbe) rather than the live tracker, so the
// partition structure cannot depend on concurrent consumers' buffering.

#ifndef DQEP_EXEC_SPILL_H_
#define DQEP_EXEC_SPILL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "exec/exec_context.h"
#include "exec/executor_internal.h"
#include "storage/database.h"
#include "storage/materialized.h"
#include "storage/temp_heap.h"

namespace dqep {
namespace exec_internal {

/// Deterministic model of a materialized tuple's resident bytes — the one
/// mid-query captures use too (storage/materialized.h).  A model rather
/// than allocator truth so that spill points depend only on the logical
/// tuple stream, never on capacity or allocation accidents — which is
/// what makes runs at every thread count spill identically.
inline int64_t TrackedTupleBytes(const Tuple& tuple) {
  return MaterializedTupleBytes(tuple);
}

/// Partition of `key` at recursion `depth`: an independent split at every
/// depth (so an oversized partition re-splits productively), and
/// independent of JoinKeyHash (so map-bucket skew cannot correlate with
/// partition skew).
size_t SpillPartitionOf(const JoinKey& key, int32_t depth, size_t fanout);

/// Per-operator spill totals, owned by the operator state and updated by
/// its SpillFiles; mirrored into OperatorCounters for profiles.  `files`
/// counts files that received at least one tuple (a pre-created partition
/// that stays empty allocates no pages and is not a spill).
struct SpillCounters {
  int64_t files = 0;
  int64_t tuples = 0;
};

/// One temp heap file plus the accounting the spill operators need: the
/// tracked byte total and row count of what was appended, reported to the
/// ExecContext and the owning operator's SpillCounters as it is written.
/// The file stores tuples of any width (storage/temp_heap.h) and writes
/// them with no buffer-pool lock per tuple; a scanner reads it back
/// through the pool, one fetch per page.
class SpillFile {
 public:
  SpillFile(const Database* db, ExecContext* ctx, SpillCounters* counters);

  void Append(const Tuple& tuple);

  /// Logical tuples appended.
  int64_t num_tuples() const { return num_tuples_; }
  int64_t tracked_bytes() const { return tracked_bytes_; }
  int64_t max_tuple_bytes() const { return max_tuple_bytes_; }

  using Scanner = TempHeap::Scanner;

  Scanner CreateScanner() const { return heap_->CreateScanner(); }

 private:
  std::unique_ptr<TempHeap> heap_;
  ExecContext* ctx_;
  SpillCounters* counters_;
  int64_t num_tuples_ = 0;
  int64_t tracked_bytes_ = 0;
  int64_t max_tuple_bytes_ = 0;
};

/// Hash-join build/probe state with a grace-style spill path.
///
/// In-memory fast path: build rows go into an unordered_map from join key
/// to the rows bearing it (insertion order preserved per key), and the
/// caller streams probe rows through Lookup — behavior and output order
/// identical to the historical in-memory join.
///
/// Spill path: the moment the tracked build size would exceed the budget,
/// the table is flushed into kFanout partition files (paired probe
/// partition files are written during the probe drain), and partitions
/// are then joined one at a time: a partition whose build side fits loads
/// into the in-memory table and its probe file streams against it; one
/// that does not fit is recursively re-split with a fresh hash salt.  A
/// partition still oversized at the depth limit (rows of one hot join key
/// co-partition at every depth, so key skew can defeat any split) falls
/// back to block nested loops: its build file is processed in
/// reservation-sized blocks, rescanning the probe file once per block, so
/// memory stays bounded even then.  Output is therefore partition-major —
/// a different order from the in-memory join, but deterministic, and
/// identical across thread counts.
class HashJoinState {
 public:
  HashJoinState(std::vector<int32_t> build_slots,
                std::vector<int32_t> probe_slots, const Database* db,
                ExecContext* ctx);
  ~HashJoinState();

  HashJoinState(const HashJoinState&) = delete;
  HashJoinState& operator=(const HashJoinState&) = delete;

  // Build phase: feed every build row, then FinishBuild.
  void AddBuild(const Tuple& tuple);
  void FinishBuild();

  /// Build rows fed since the last Reset — the actual cardinality a
  /// runtime checkpoint compares against the optimizer's interval.
  int64_t build_rows() const { return build_rows_; }

  /// Streams every build row to `sink` in a deterministic order, without
  /// disturbing the join state.  Only valid between FinishBuild and the
  /// probe phase.  In-memory tables export key-sorted (per-key arrival
  /// order preserved); spilled builds export partition-major.  Used by
  /// mid-query re-optimization to capture the finished build side as a
  /// materialized leaf.
  void ExportBuildRows(const std::function<void(const Tuple&)>& sink) const;

  /// True once the build side went over budget; decided by FinishBuild
  /// time and stable until Reset.
  bool spilled() const { return spilled_; }

  /// In-memory fast path (only when !spilled()): rows matching `probe`'s
  /// key in build-arrival order, or nullptr.
  const std::vector<Tuple>* Lookup(const Tuple& probe);

  // Spill path (only when spilled()): feed every probe row, then
  // FinishProbe, then drain NextJoined.
  void AddProbe(const Tuple& tuple);
  void FinishProbe();

  /// Produces the next joined row (build ++ probe) into `out`, reusing
  /// its storage; false at end of stream or on cancellation.
  bool NextJoined(Tuple* out);

  /// Releases the table, all temp files, and all tracked memory; the
  /// state may be reused for a fresh build.  Spill counters are
  /// cumulative across resets, matching OperatorCounters semantics.
  void Reset();

  int64_t spill_files() const { return counters_.files; }
  int64_t spill_tuples() const { return counters_.tuples; }

  /// Forced-progress acquisitions past the reservation (a single build
  /// row wider than the whole working-set credit).  Zero in healthy runs.
  int64_t overflow_loads() const { return overflow_loads_; }

 private:
  using Table = std::unordered_map<JoinKey, std::vector<Tuple>, JoinKeyHash>;

  /// A build/probe partition pair awaiting its join pass.
  struct Job {
    std::unique_ptr<SpillFile> build;
    std::unique_ptr<SpillFile> probe;
    int32_t depth = 0;
  };

  std::unique_ptr<SpillFile> NewSpillFile();
  void SpillBuildTable();
  void LoadBuildPartition(SpillFile& build, int32_t depth);
  bool LoadBuildBlock();
  void RepartitionJob(Job job);
  bool StartNextJob();
  void CloseJob();
  void ReleaseTable();
  void ReleaseReservation();

  const std::vector<int32_t> build_slots_;
  const std::vector<int32_t> probe_slots_;
  const Database* db_;
  ExecContext* ctx_;

  Table table_;
  int64_t table_bytes_ = 0;
  /// Bytes of the current table Acquired beyond the reservation credit.
  int64_t table_acquired_bytes_ = 0;
  /// Working-set credit held for the whole partition pass (see
  /// FinishProbe): the largest partition's bytes, Acquired once while the
  /// rest of the pipeline is quiescent, so downstream operators cannot
  /// starve partition loads into the repartition spiral.
  int64_t reserve_bytes_ = 0;
  bool spilled_ = false;

  // Depth-0 partition files, indexed by SpillPartitionOf(key, 0).
  std::vector<std::unique_ptr<SpillFile>> build_parts_;
  std::vector<std::unique_ptr<SpillFile>> probe_parts_;

  // Partition-wise join pass.
  std::deque<Job> jobs_;
  Job current_job_;
  bool job_open_ = false;
  std::optional<SpillFile::Scanner> probe_scanner_;
  Tuple probe_tuple_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_pos_ = 0;

  // Block-nested-loop fallback for a partition oversized at the depth
  // limit: the build file is consumed block by block through this
  // scanner, and the probe file is rescanned for each block.
  bool block_mode_ = false;
  std::optional<SpillFile::Scanner> build_scanner_;
  Tuple pending_build_;
  bool have_pending_build_ = false;

  JoinKey scratch_key_;
  SpillCounters counters_;
  int64_t overflow_loads_ = 0;
  int64_t build_rows_ = 0;
};

/// Sort accumulator with an external merge-sort spill path.
///
/// In-memory fast path: rows accumulate and Finish stable-sorts them;
/// the caller streams rows() — exactly the historical sort.
///
/// Spill path: whenever the next row would exceed the budget, the
/// accumulated rows are stable-sorted and written out as a run; Finish
/// pre-merges runs (k-way, budget-sized fan-in) until every run's merge
/// head fits in memory at once, then Next streams the final merge.  Ties
/// break toward the lower-numbered run, and runs are formed and merged in
/// arrival order, so the output sequence — including equal-key order — is
/// byte-identical to the in-memory stable sort.
class ExternalSorter {
 public:
  ExternalSorter(int32_t slot, const Database* db, ExecContext* ctx);
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  void Add(const Tuple& tuple);
  void Finish();

  /// Rows fed since the last Reset — the actual cardinality a runtime
  /// checkpoint compares against the optimizer's interval.
  int64_t num_rows() const { return num_rows_; }

  /// Streams the fully sorted output to `sink`.  Only valid right after
  /// Finish; the spilled path drains the final merge, so the sorter is
  /// exhausted afterwards (callers abandon it — mid-query re-optimization
  /// captures the output as a materialized leaf and splices a new plan).
  void ExportSorted(const std::function<void(const Tuple&)>& sink);

  bool spilled() const { return !runs_.empty(); }

  /// In-memory fast path (only when !spilled()): all rows, sorted.
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Spill path: streams the merged output; false at end of stream or on
  /// cancellation.
  bool Next(Tuple* out);

  /// Releases rows, runs, and tracked memory; reusable after.  Spill
  /// counters are cumulative across resets.
  void Reset();

  int64_t spill_files() const { return counters_.files; }
  int64_t spill_tuples() const { return counters_.tuples; }

  /// Forced-progress merges whose heads exceeded the budget.  Zero in
  /// healthy runs.
  int64_t overflow_loads() const { return overflow_loads_; }

 private:
  struct Run {
    std::unique_ptr<SpillFile> file;
  };

  /// Merge cursor over one run during a merge pass.
  struct Cursor {
    std::optional<SpillFile::Scanner> scanner;
    Tuple head;
    bool valid = false;
  };

  bool RowLess(const Tuple& a, const Tuple& b) const {
    return a.value(slot_) < b.value(slot_);
  }

  void SpillRun();
  void PreMergeToFit();
  void MergePrefix(size_t count);
  void OpenFinalMerge();
  int64_t HeadBytes(size_t count) const;

  const int32_t slot_;
  const Database* db_;
  ExecContext* ctx_;

  std::vector<Tuple> rows_;
  int64_t rows_bytes_ = 0;

  std::vector<Run> runs_;
  bool finished_ = false;

  std::vector<Cursor> cursors_;
  int64_t heads_bytes_ = 0;

  SpillCounters counters_;
  int64_t overflow_loads_ = 0;
  int64_t num_rows_ = 0;
};

}  // namespace exec_internal
}  // namespace dqep

#endif  // DQEP_EXEC_SPILL_H_
