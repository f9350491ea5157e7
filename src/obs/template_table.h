// The server's one per-template table, keyed by normalized-template
// fingerprint: the flight recorder's latency stats, the drift EWMA, the
// admission cost EWMA and the SLO burn-rate scope share one entry, and one
// lookup and one lock per served query (server::SharedEngine::RecordQuery).
// Each value struct is plain data; its fold and renderers live with the
// consumer named on it.  At most kTemplateTableCapacity templates are
// held; a new one evicts the least recently seen, so distinct templates
// without end hold bounded state and export bounded series.  A recency
// list plus a hash index make lookup, touch (splice to the back) and
// eviction (pop the front) O(1).  One mutex guards everything; Touch,
// Find and ForEach run the caller's function under it.

#ifndef DQEP_OBS_TEMPLATE_TABLE_H_
#define DQEP_OBS_TEMPLATE_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dqep {
namespace obs {

/// 32x the default plan cache: every cacheable template keeps its history.
inline constexpr size_t kTemplateTableCapacity = 4096;

/// The flight recorder's rolling latency stats (obs/flight_recorder.cc).
struct TemplateLatency {
  std::string template_text;
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

/// The calibration-drift monitor's EWMA (obs/drift.cc).
struct TemplateDrift {
  double drift_ratio = 1.0;  ///< EWMA of actual / predicted seconds
  int64_t samples = 0;       ///< samples folded in (skipped ones not)
  double last_ratio = 1.0;   ///< last raw (unsmoothed) ratio
};

/// One sliding window of an SLO burn-rate scope (obs/alerts.cc).
struct SloWindow {
  std::deque<std::pair<double, bool>> events;  ///< (when, bad)
  int64_t bad = 0;
};

/// The server's or one template's SLO burn-rate scope (obs/alerts.cc).
struct SloScope {
  SloWindow fast;
  SloWindow slow;
  bool firing = false;
};

struct TemplateFacts {
  TemplateLatency latency;
  TemplateDrift drift;
  /// Admission's EWMA of measured execution seconds (server/admission.cc).
  std::optional<double> cost_seconds;
  /// Null until an SLO folds the template: an empty deque still allocates.
  std::unique_ptr<SloScope> slo;
};

class TemplateTable {
 public:
  TemplateTable() { index_.reserve(kTemplateTableCapacity); }

  TemplateTable(const TemplateTable&) = delete;
  TemplateTable& operator=(const TemplateTable&) = delete;

  /// Marks `fingerprint` most recently seen (inserting fresh facts, and
  /// evicting when full, if it is new) and returns `fn(facts)`.
  template <typename Fn>
  decltype(auto) Touch(uint64_t fingerprint, Fn&& fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    return fn(SeenLocked(fingerprint));
  }

  /// Runs `fn(facts)` if `fingerprint` is held, without changing its
  /// recency.  Returns whether it was held.
  template <typename Fn>
  bool Find(uint64_t fingerprint, Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(fingerprint);
    if (it != index_.end()) {
      fn(static_cast<const TemplateFacts&>(it->second->second));
    }
    return it != index_.end();
  }

  /// Runs `fn(fingerprint, facts)` for every template, by fingerprint.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const Entry*> sorted;
    sorted.reserve(recency_.size());
    for (const Entry& entry : recency_) {
      sorted.push_back(&entry);
    }
    std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
      return a->first < b->first;
    });
    for (const Entry* entry : sorted) {
      fn(entry->first, entry->second);
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
  }

 private:
  using Entry = std::pair<uint64_t, TemplateFacts>;

  TemplateFacts& SeenLocked(uint64_t fingerprint);

  mutable std::mutex mutex_;
  std::list<Entry> recency_;  ///< least recently seen first
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace obs
}  // namespace dqep

#endif  // DQEP_OBS_TEMPLATE_TABLE_H_
