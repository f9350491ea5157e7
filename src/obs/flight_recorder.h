// Slow-query flight recorder: an always-on, fixed-size ring of the last
// N completed query summaries, plus per-template rolling latency stats.
//
// Every completed query deposits a FlightRecord (template fingerprint,
// bindings, per-operator est-vs-actual rows, choose-plan decision count
// and regret, re-opt checkpoint counts, admission grant wait).  The
// recorder folds the sample into its template's rolling log2-bucket
// latency histogram and decides whether the query was *slow*:
//
//   * threshold rule — latency breached the configured --slow-query-ms;
//   * p99 rule — no threshold configured (or not breached), but the
//     template has enough history and this sample exceeded the
//     template's rolling p99.
//
// Slow queries get a full diagnosis bundle — one JSON file holding the
// query metadata, the EXPLAIN ANALYZE JSON, and a synthesized Chrome
// trace of the operator tree — written to a spool directory, so the
// evidence survives the ring's eviction and the server's restart.
//
// "Rolling" is approximated by halving every template's histogram once
// its count passes a decay threshold: old traffic fades geometrically,
// so a template whose latency regime shifts re-learns its p99 within
// ~one decay window instead of never.
//
// Thread-safety: one mutex guards the ring and the template table; the
// critical sections are pointer pushes and integer folds.  Bundle I/O
// happens outside the lock.  Records are shared_ptr<const ...>, so
// readers (`\slow`, the exporter) hold snapshots that outlive eviction.

#ifndef DQEP_OBS_FLIGHT_RECORDER_H_
#define DQEP_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace dqep {
namespace obs {

struct FlightRecorderOptions {
  /// Ring capacity in records.
  size_t capacity = 64;

  /// Absolute slow threshold in milliseconds; <= 0 disables the
  /// threshold rule (the p99 rule still applies).
  double slow_query_ms = 0.0;

  /// Directory for slow-query bundles; empty disables spooling (slow
  /// queries are still flagged in the ring).
  std::string spool_dir;

  /// Minimum per-template sample count before the rolling-p99 rule can
  /// flag a query — below it there is no p99 worth trusting.
  int64_t min_template_samples = 32;

  /// Halve the template histogram once its count reaches this many
  /// samples (the "rolling" decay window).
  int64_t decay_every = 1024;

  /// Retain at most this many slow-query bundles in the spool dir; when
  /// a new bundle pushes past the cap the oldest (by spool order) is
  /// unlinked.  0 (default) keeps every bundle — PR-9 behavior.
  /// Rotation happens outside the recorder's main lock, off the
  /// sessions' hot path.
  size_t max_spool_bundles = 0;
};

/// One operator row of a completed query, est-vs-actual (a flattened
/// AnalyzeRow kOperator — the recorder keeps no plan pointers, so a
/// record stays valid after the plan is gone).
struct OperatorSample {
  std::string op;
  int depth = 0;
  double est_cost_lo = 0.0;
  double est_cost_hi = 0.0;
  double est_rows_lo = 0.0;
  double est_rows_hi = 0.0;
  double actual_seconds = 0.0;
  int64_t actual_rows = 0;
  bool have_actual = false;
};

/// One completed query.  The caller fills everything up to `slow`; the
/// recorder assigns `sequence` and the slow verdict / bundle path.
struct FlightRecord {
  int64_t sequence = 0;
  int64_t session_id = 0;
  uint64_t fingerprint = 0;
  std::string query;          ///< the SQL as received
  std::string template_text;  ///< normalized template ("" if unparsed)
  std::string cache;          ///< plan-cache outcome: hit/miss/off/""
  double seconds = 0.0;       ///< end-to-end wall seconds
  double grant_wait_seconds = 0.0;
  int64_t rows = 0;
  int64_t peak_memory_bytes = 0;
  int64_t decisions = 0;      ///< choose-plan decisions resolved
  double regret_seconds = 0.0;
  int64_t reopt_checkpoints = 0;
  int64_t reopt_triggers = 0;
  int64_t reopt_adoptions = 0;
  std::vector<std::pair<std::string, std::string>> bindings;
  std::vector<OperatorSample> operators;

  // Filled in by the recorder:
  bool slow = false;
  std::string slow_reason;  ///< "threshold" or "template-p99"
  std::string bundle_path;  ///< spooled bundle, "" when not written
};

/// Rolling per-template aggregate, as returned by snapshots.
struct TemplateStatsView {
  uint64_t fingerprint = 0;
  std::string template_text;
  int64_t count = 0;
  int64_t sum_us = 0;
  std::vector<std::pair<int32_t, int64_t>> buckets;  ///< latency us, log2
  int64_t decisions = 0;
  double regret_seconds = 0.0;
  int64_t reopt_triggers = 0;
  int64_t reopt_adoptions = 0;
  int64_t slow_count = 0;

  double PercentileUs(double p) const {
    return Log2BucketPercentile(buckets, count, p);
  }
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Folds the sample into its template's stats, decides slow-ness,
  /// spools a bundle when warranted, and appends to the ring.  Returns
  /// the finished (immutable) record.  `render_analyze` (nullable)
  /// renders the query's EXPLAIN ANALYZE JSON; it is called only when a
  /// bundle is written, before Record returns.
  std::shared_ptr<const FlightRecord> Record(
      FlightRecord record,
      const std::function<std::string()>& render_analyze = nullptr);

  /// Newest-first snapshot of up to `n` ring entries.
  std::vector<std::shared_ptr<const FlightRecord>> Recent(size_t n) const;

  /// Every template's rolling stats, sorted by fingerprint.
  std::vector<TemplateStatsView> TemplateStats() const;

  /// One template's stats; count == 0 in the result means "unknown".
  TemplateStatsView StatsFor(uint64_t fingerprint) const;

  /// `\slow [n]`: newest-first text rendering of recent records.
  std::string RenderRecentText(size_t n) const;

  /// Newest-first JSON array of recent records (the exporter's /slow).
  std::string RenderRecentJson(size_t n) const;

  /// `\stats template <fp>` / `\stats [p99|regret]`: per-template text
  /// rendering.  With `fingerprint` == 0 renders the one-line summary
  /// of every template, sorted by rolling p99 descending (or signed
  /// cumulative regret descending when `sort_by_regret`); otherwise the
  /// full detail of one.
  std::string RenderTemplateStatsText(uint64_t fingerprint,
                                      bool sort_by_regret = false) const;

  /// Deposits one alert line (e.g. an SLO burn-rate fire/resolve) into
  /// a bounded in-memory journal, so `\alerts` can show recent
  /// transitions next to the live burn rates.
  void NoteAlert(const std::string& line);

  /// Newest-first text rendering of up to `n` journalled alert lines.
  std::string RenderAlertsText(size_t n) const;

  /// Prometheus text-format families for the exporter: per-template
  /// latency histograms (seconds), query/decision/regret/re-opt
  /// counters, and the rolling p99 gauge, labelled
  /// template="0x<fingerprint>".
  std::string RenderPrometheusTemplates() const;

  const FlightRecorderOptions& options() const { return options_; }

 private:
  struct TemplateEntry {
    std::string text;
    int64_t count = 0;
    int64_t sum_us = 0;
    /// Non-zero log2 latency buckets, ascending: a template seen a few
    /// times holds a few pairs, not HistogramCell::kBuckets counters.
    std::vector<std::pair<int32_t, int64_t>> buckets;
    int64_t decisions = 0;
    double regret_seconds = 0.0;
    int64_t reopt_triggers = 0;
    int64_t reopt_adoptions = 0;
    int64_t slow_count = 0;
    int64_t decay_credit = 0;  ///< samples since the last halving
  };

  TemplateStatsView ViewOf(uint64_t fingerprint,
                           const TemplateEntry& entry) const;
  std::string BundleJson(const FlightRecord& record,
                         const std::string& analyze_json) const;
  bool WriteBundle(const FlightRecord& record,
                   const std::function<std::string()>& render_analyze,
                   std::string* path) const;

  /// Registers a freshly written bundle and unlinks the oldest ones
  /// beyond max_spool_bundles.  Guarded by spool_mutex_, never the main
  /// lock — rotation I/O must not stall depositing sessions.
  void RotateSpool(const std::string& path);

  const FlightRecorderOptions options_;
  mutable std::mutex mutex_;
  int64_t next_sequence_ = 1;
  std::deque<std::shared_ptr<const FlightRecord>> ring_;
  std::map<uint64_t, TemplateEntry> templates_;
  std::deque<std::string> alerts_;  ///< bounded alert journal

  mutable std::mutex spool_mutex_;
  std::deque<std::string> spool_paths_;  ///< oldest-first bundle paths

  Cell* recorded_ = nullptr;  ///< obs.flight.recorded
  Cell* slow_ = nullptr;      ///< obs.flight.slow
  Cell* bundles_ = nullptr;   ///< obs.flight.bundles
  Cell* rotated_ = nullptr;   ///< obs.flight.bundles_rotated
};

}  // namespace obs
}  // namespace dqep

#endif  // DQEP_OBS_FLIGHT_RECORDER_H_
