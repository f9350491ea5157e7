// Slow-query flight recorder: an always-on, fixed-size ring of the last
// N completed queries, plus per-template rolling latency stats.
//
// Every completed query deposits its obs::QueryRecord (obs/querylog.h) —
// the one per-query record the query log renders too: template
// fingerprint, bindings, per-operator est-vs-actual rows, choose-plan
// decisions with regret, re-opt counts, admission grant wait.  The
// recorder folds it into its template's rolling log2-bucket latency
// histogram and decides whether the query was *slow*:
//
//   * threshold rule — latency breached the configured --slow-query-ms;
//   * p99 rule — no threshold configured (or not breached), but the
//     template has enough history and this sample exceeded the
//     template's rolling p99.
//
// Slow queries get a full diagnosis bundle — one JSON file holding the
// record's JSON as "meta" (the query-log line, plus the recorder's
// verdict: sequence, slow reason, bundle path), the EXPLAIN ANALYZE
// JSON, and a synthesized Chrome trace of the operator tree — written to
// a spool directory, so the evidence survives the ring's eviction and
// the server's restart.  `/slow` renders each ring entry the same way.
//
// "Rolling" is approximated by halving every template's histogram once
// its count passes a decay threshold: old traffic fades geometrically,
// so a template whose latency regime shifts re-learns its p99 within
// ~one decay window instead of never.
//
// Thread-safety: the template stats live under the lock of the server's
// bounded obs::TemplateTable; one mutex guards the ring and the alert
// journal.  The critical sections are pointer pushes and integer folds;
// bundle I/O happens outside both.  Records are shared_ptr<const ...>,
// so readers (`\slow`, the exporter) hold snapshots that outlive eviction.

#ifndef DQEP_OBS_FLIGHT_RECORDER_H_
#define DQEP_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/template_table.h"

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

/// One ring entry: a completed query's record plus the recorder's own
/// verdict on it.
struct FlightEntry {
  std::shared_ptr<const QueryRecord> record;
  int64_t sequence = 0;
  std::string slow_reason;  ///< "threshold", "template-p99", "" if not slow
  std::string bundle_path;  ///< spooled bundle, "" when not written

  bool slow() const { return !slow_reason.empty(); }
};

/// Rolling per-template aggregate, as returned by snapshots.
struct TemplateStatsView : TemplateLatency {
  explicit TemplateStatsView(uint64_t fp = 0,
                             const TemplateLatency& stats = {})
      : TemplateLatency(stats), fingerprint(fp) {}

  uint64_t fingerprint;

  double PercentileUs(double p) const {
    return Log2BucketPercentile(buckets, count, p);
  }
  double MeanMs() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_us) / count / 1e3;
  }
};

class FlightRecorder {
 public:
  /// Template stats live in `templates`; the ring and spool live here.
  FlightRecorder(FlightRecorderOptions options, TemplateTable* templates);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Judges `record` against its template's history (the slow verdict),
  /// then folds it into `stats`.  Returns the slow reason ("" if not
  /// slow).  Caller holds the table's lock (TemplateTable::Touch).
  std::string Fold(TemplateLatency* stats, const QueryRecord& record) const;

  /// Spools a bundle when `slow_reason` is set and appends the record to
  /// the ring; returns the ring entry.  `render_analyze` (nullable)
  /// renders the query's EXPLAIN ANALYZE JSON; it is called only when a
  /// bundle is written, before Deposit returns.
  FlightEntry Deposit(
      std::shared_ptr<const QueryRecord> record, std::string slow_reason,
      const std::function<std::string()>& render_analyze = nullptr);

  /// Newest-first snapshot of up to `n` ring entries.
  std::vector<FlightEntry> Recent(size_t n) const;

  /// Every held template's rolling stats, sorted by fingerprint.
  std::vector<TemplateStatsView> TemplateStats() const;

  /// One template's stats; count == 0 in the result means "unknown".
  TemplateStatsView StatsFor(uint64_t fingerprint) const;

  /// `\slow [n]`: newest-first text rendering of recent records.
  std::string RenderRecentText(size_t n) const;

  /// Newest-first JSON array of recent entries (the exporter's /slow),
  /// each rendered as a bundle's "meta" is.
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

 private:
  std::string BundleJson(const FlightEntry& entry,
                         const std::string& analyze_json) const;
  /// Writes `entry`'s bundle and sets its path; clears it on failure.
  bool WriteBundle(FlightEntry* entry,
                   const std::function<std::string()>& render_analyze) const;

  /// Registers a freshly written bundle and unlinks the oldest ones
  /// beyond max_spool_bundles.  Guarded by spool_mutex_, never the main
  /// lock — rotation I/O must not stall depositing sessions.
  void RotateSpool(const std::string& path);

  const FlightRecorderOptions options_;
  TemplateTable* const templates_;
  mutable std::mutex mutex_;  ///< guards the ring and the alert journal
  std::atomic<int64_t> next_sequence_{1};
  std::deque<FlightEntry> ring_;
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
