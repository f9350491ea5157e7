// The process-wide metrics registry: named counters, gauges, and
// log-bucketed histograms behind one thread-safe surface.
//
// Before this registry every subsystem grew its own ad-hoc atomics
// (BufferPool hit/miss counters, MemoryTracker usage, ExchangeIter
// profile merges, optimizer SearchStats) with no common naming scheme and
// no way to snapshot them together.  The registry unifies them without
// changing their semantics:
//
//   * A *metric* is a name plus a kind (counter / gauge / max-gauge /
//     histogram).  Names are dotted paths, e.g.
//     "storage.bufferpool.hits" — see README "Observability" for the
//     catalog.
//   * A *cell* is one owner's atomic slice of a metric.  Components own
//     their cells (BufferPool owns its hit cell), so per-instance
//     accessors keep their exact historical behavior — `pool.hits()`
//     reads the pool's own cell, never another pool's — while
//     `MetricsRegistry::Snapshot()` aggregates all cells of a metric into
//     the process-wide view.
//   * Cell handles are RAII: destroying a handle folds a counter cell's
//     value into the metric's retired total (process totals stay
//     monotonic across component lifetimes) and drops gauge cells (a
//     destroyed tracker no longer "uses" memory).
//
// Thread-safety: cell updates are lock-free relaxed atomics, safe from
// any thread; registry structure (metric creation, handle churn,
// snapshots) takes a mutex.  The registry is a singleton so that every
// layer — storage, exec, optimizer, CLI, tests — reports into one
// namespace; `ResetForTest` restores a pristine registry between tests.

#ifndef DQEP_OBS_METRICS_H_
#define DQEP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"

namespace dqep {
namespace obs {

/// Aggregation behavior of one named metric.
enum class MetricKind {
  kCounter,   ///< monotonic sum over cells (+ retired total)
  kGauge,     ///< current sum over live cells (retired cells drop out)
  kGaugeMax,  ///< maximum over cells, retained across cell retirement
  kHistogram, ///< log2-bucketed value distribution, summed over cells
};

const char* MetricKindName(MetricKind kind);

/// One owner's atomic slice of a counter or gauge metric.  Updates are
/// relaxed atomics: safe from any thread, sampled without locks.
class Cell {
 public:
  /// Returns the post-add value (gauges used as usage meters need it).
  int64_t Add(int64_t delta) {
    return value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }

  /// CAS-maximum, for kGaugeMax cells (e.g. peak watermarks).
  void RecordMax(int64_t value) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !value_.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// One owner's slice of a histogram metric.  Values land in bucket
/// floor(log2(v)) + 1 (v <= 0 lands in bucket 0), so bucket b spans
/// [2^(b-1), 2^b).  Units are the recorder's choice; the catalog names
/// them (e.g. "..._us" for microseconds).
class HistogramCell {
 public:
  static constexpr int32_t kBuckets = 64;

  void Record(int64_t value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket(int32_t b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }

  /// Bucket index for `value` (exposed for tests).
  static int32_t BucketOf(int64_t value);

  /// Zeroes count, sum, and every bucket (for MetricsRegistry::ResetAll).
  void Reset();

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
};

class MetricsRegistry;

/// RAII ownership of one cell.  Movable; the destructor retires the cell
/// (folding counters into the metric's retired total).  A default-
/// constructed handle is empty and ignores updates — this keeps callers
/// unconditional in contexts where the registry is deliberately bypassed.
class CellHandle {
 public:
  CellHandle() = default;
  CellHandle(CellHandle&& other) noexcept { *this = std::move(other); }
  CellHandle& operator=(CellHandle&& other) noexcept;
  CellHandle(const CellHandle&) = delete;
  CellHandle& operator=(const CellHandle&) = delete;
  ~CellHandle();

  int64_t Add(int64_t delta) {
    return cell_ == nullptr ? 0 : cell_->Add(delta);
  }
  void Set(int64_t value) {
    if (cell_ != nullptr) {
      cell_->Set(value);
    }
  }
  void RecordMax(int64_t value) {
    if (cell_ != nullptr) {
      cell_->RecordMax(value);
    }
  }
  int64_t value() const { return cell_ == nullptr ? 0 : cell_->value(); }
  void Reset() {
    if (cell_ != nullptr) {
      cell_->Reset();
    }
  }

 private:
  friend class MetricsRegistry;
  CellHandle(MetricsRegistry* registry, size_t metric_index, Cell* cell)
      : registry_(registry), metric_index_(metric_index), cell_(cell) {}

  MetricsRegistry* registry_ = nullptr;
  size_t metric_index_ = 0;
  Cell* cell_ = nullptr;
};

/// RAII ownership of one histogram cell; same semantics as CellHandle.
class HistogramHandle {
 public:
  HistogramHandle() = default;
  HistogramHandle(HistogramHandle&& other) noexcept {
    *this = std::move(other);
  }
  HistogramHandle& operator=(HistogramHandle&& other) noexcept;
  HistogramHandle(const HistogramHandle&) = delete;
  HistogramHandle& operator=(const HistogramHandle&) = delete;
  ~HistogramHandle();

  void Record(int64_t value) {
    if (cell_ != nullptr) {
      cell_->Record(value);
    }
  }
  int64_t count() const { return cell_ == nullptr ? 0 : cell_->count(); }
  int64_t sum() const { return cell_ == nullptr ? 0 : cell_->sum(); }

 private:
  friend class MetricsRegistry;
  HistogramHandle(MetricsRegistry* registry, size_t metric_index,
                  HistogramCell* cell)
      : registry_(registry), metric_index_(metric_index), cell_(cell) {}

  MetricsRegistry* registry_ = nullptr;
  size_t metric_index_ = 0;
  HistogramCell* cell_ = nullptr;
};

/// Aggregated value of one metric at snapshot time.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;      ///< counter/gauge/max aggregate
  int64_t count = 0;      ///< histogram: number of recorded values
  int64_t sum = 0;        ///< histogram: sum of recorded values
  /// Histogram: (bucket index, count) for every non-empty bucket.
  std::vector<std::pair<int32_t, int64_t>> buckets;

  /// Histogram quantile estimate from the log2 buckets, linearly
  /// interpolated within the covering bucket: the continuous rank
  /// p * count lands in bucket b (spanning [2^(b-1), 2^b)), and the
  /// estimate positions itself inside that span by the rank's fraction
  /// of the bucket's count — monotone in p and far less quantized than
  /// the bucket upper bound, at most one power of two of slack still.
  /// Bucket 0 (values <= 0) reports 0.  Returns 0 for an empty
  /// histogram.
  int64_t Percentile(double p) const;
};

/// The interpolation behind MetricValue::Percentile, reusable by other
/// log2-bucketed histograms (e.g. the flight recorder's per-template
/// stats).  `buckets` is the sparse (bucket index, count) list in
/// ascending index order with HistogramCell::BucketOf semantics;
/// `count` is the total sample count.  Returns 0.0 when count <= 0.
double Log2BucketPercentile(
    const std::vector<std::pair<int32_t, int64_t>>& buckets, int64_t count,
    double p);

/// The singleton registry.  See the header comment for the model.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Creates a new cell under `name`.  Every call returns a distinct cell
  /// (one per owning component instance); the registry aggregates them.
  /// The metric's kind is fixed by the first use of the name (aborts on a
  /// kind mismatch — two subsystems fighting over a name is a bug).
  CellHandle NewCounter(const std::string& name);
  CellHandle NewGauge(const std::string& name);
  CellHandle NewGaugeMax(const std::string& name);
  HistogramHandle NewHistogram(const std::string& name);

  /// Process-wide shared cells for call-site metrics: one cell per name,
  /// created on first use, never retired.  For code without a natural
  /// owning instance (the optimizer, start-up resolution, spill passes).
  Cell* SharedCounter(const std::string& name);
  Cell* SharedGaugeMax(const std::string& name);
  HistogramCell* SharedHistogram(const std::string& name);

  /// Aggregated view of every metric, sorted by name.
  std::map<std::string, MetricValue> Snapshot() const;

  /// Rendered snapshot: one aligned line per metric.
  std::string RenderText() const;

  /// Rendered snapshot as a JSON object {"name": {...}, ...}.
  std::string RenderJson() const;

  /// Zeroes every counter, max-gauge, and histogram — live cells and
  /// retired totals alike — so the next snapshot counts from now
  /// (`\metrics reset` in the shell).  Plain gauges are left alone: they
  /// mirror current state (e.g. memory in use), which resetting would
  /// falsify.  Metrics and handles all stay registered.
  void ResetAll();

  /// Drops every metric and cell.  Outstanding handles stay valid (their
  /// cells are kept alive, just detached); only tests should call this.
  void ResetForTest();

  /// Bumped by ResetForTest: a shared cell cached under an older
  /// generation is detached and must be looked up again.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  friend class CellHandle;
  friend class HistogramHandle;

  struct Metric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    /// Live cells, including the shared cell when one exists.  Never
    /// shrinks except through handle retirement.
    std::vector<std::unique_ptr<Cell>> cells;
    std::vector<std::unique_ptr<HistogramCell>> histogram_cells;
    Cell* shared_cell = nullptr;
    HistogramCell* shared_histogram = nullptr;
    /// Folded-in totals of retired counter cells / max of retired
    /// max-gauge cells.
    int64_t retired = 0;
    /// Retired histogram totals.
    int64_t retired_count = 0;
    int64_t retired_sum = 0;
    std::array<int64_t, HistogramCell::kBuckets> retired_buckets{};
  };

  MetricsRegistry() = default;

  Metric& MetricFor(const std::string& name, MetricKind kind);
  void Retire(size_t metric_index, Cell* cell);
  void Retire(size_t metric_index, HistogramCell* cell);

  mutable std::mutex mutex_;
  /// Index-stable storage: handles refer to metrics by index.
  std::vector<std::unique_ptr<Metric>> metrics_;
  std::map<std::string, size_t> by_name_;
  /// Cells detached by ResetForTest, kept alive for outstanding handles.
  std::vector<std::unique_ptr<Cell>> orphans_;
  std::vector<std::unique_ptr<HistogramCell>> orphan_histograms_;
  std::atomic<uint64_t> generation_{0};
};

/// A shared counter (MetricsRegistry::SharedCounter) looked up by name
/// once and then bumped with one relaxed add — for per-query call sites
/// without an owning instance.  Constant-initialized, so it can be a
/// namespace-scope static.  It looks the name up again after
/// ResetForTest; a bump racing that reset may land in the detached cell.
class SharedCounterRef {
 public:
  explicit constexpr SharedCounterRef(const char* name) : name_(name) {}

  void Add(int64_t delta);

 private:
  const char* name_;
  std::atomic<Cell*> cell_{nullptr};
  std::atomic<uint64_t> generation_{0};
};

}  // namespace obs
}  // namespace dqep

#endif  // DQEP_OBS_METRICS_H_
