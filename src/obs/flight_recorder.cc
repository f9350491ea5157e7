#include "obs/flight_recorder.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "obs/trace.h"

namespace dqep {
namespace obs {

namespace {

// mkdir -p: creates every missing component of `path` (best-effort; the
// final WriteBundle fopen reports the real failure if any).
void EnsureDir(const std::string& path) {
  if (path.empty()) {
    return;
  }
  std::string prefix;
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t slash = path.find('/', pos);
    if (slash == std::string::npos) {
      slash = path.size();
    }
    prefix = path.substr(0, slash);
    if (!prefix.empty() && prefix != "/") {
      ::mkdir(prefix.c_str(), 0755);
    }
    pos = slash + 1;
  }
}

int64_t MicrosOf(double seconds) {
  double us = seconds * 1e6;
  if (us <= 0.0) {
    return 0;
  }
  if (us >= 9.0e18) {
    return int64_t{1} << 62;
  }
  return static_cast<int64_t>(us + 0.5);
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(std::move(options)) {
  auto& registry = MetricsRegistry::Instance();
  recorded_ = registry.SharedCounter("obs.flight.recorded");
  slow_ = registry.SharedCounter("obs.flight.slow");
  bundles_ = registry.SharedCounter("obs.flight.bundles");
  rotated_ = registry.SharedCounter("obs.flight.bundles_rotated");
  if (!options_.spool_dir.empty()) {
    EnsureDir(options_.spool_dir);
    if (options_.max_spool_bundles > 0) {
      // Seed the rotation queue with bundles left by a previous run, so
      // the retention cap holds across restarts.  Names embed the
      // sequence number, so lexicographic order is spool order.
      std::vector<std::string> existing;
      if (DIR* dir = ::opendir(options_.spool_dir.c_str())) {
        while (struct dirent* entry = ::readdir(dir)) {
          std::string name = entry->d_name;
          if (name.rfind("slow-", 0) == 0 &&
              name.size() > 5 + std::string(".json").size() &&
              name.compare(name.size() - 5, 5, ".json") == 0) {
            existing.push_back(options_.spool_dir + "/" + name);
          }
        }
        ::closedir(dir);
      }
      std::sort(existing.begin(), existing.end());
      for (std::string& path : existing) {
        spool_paths_.push_back(std::move(path));
      }
      while (spool_paths_.size() > options_.max_spool_bundles) {
        if (std::remove(spool_paths_.front().c_str()) == 0) {
          rotated_->Add(1);
        }
        spool_paths_.pop_front();
      }
    }
  }
}

std::shared_ptr<const FlightRecord> FlightRecorder::Record(
    FlightRecord record,
    const std::function<std::string()>& render_analyze) {
  const int64_t latency_us = MicrosOf(record.seconds);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    record.sequence = next_sequence_++;
    TemplateEntry& entry = templates_[record.fingerprint];
    if (entry.text.empty() && !record.template_text.empty()) {
      entry.text = record.template_text;
    }

    // Slow verdict comes BEFORE folding the new sample, so the sample
    // is judged against the history it arrived into.
    if (options_.slow_query_ms > 0.0 &&
        record.seconds * 1e3 >= options_.slow_query_ms) {
      record.slow = true;
      record.slow_reason = "threshold";
    } else if (entry.count >= options_.min_template_samples) {
      double p99_us = Log2BucketPercentile(entry.buckets, entry.count, 0.99);
      if (static_cast<double>(latency_us) > p99_us) {
        record.slow = true;
        record.slow_reason = "template-p99";
      }
    }

    entry.count += 1;
    entry.sum_us += latency_us;
    const int32_t bucket = HistogramCell::BucketOf(latency_us);
    auto it = std::lower_bound(
        entry.buckets.begin(), entry.buckets.end(), bucket,
        [](const std::pair<int32_t, int64_t>& b, int32_t v) {
          return b.first < v;
        });
    if (it == entry.buckets.end() || it->first != bucket) {
      it = entry.buckets.emplace(it, bucket, 0);
    }
    it->second += 1;
    entry.decisions += record.decisions;
    entry.regret_seconds += record.regret_seconds;
    entry.reopt_triggers += record.reopt_triggers;
    entry.reopt_adoptions += record.reopt_adoptions;
    if (record.slow) {
      entry.slow_count += 1;
    }
    if (++entry.decay_credit >= options_.decay_every) {
      entry.decay_credit = 0;
      int64_t kept = 0;
      for (auto& b : entry.buckets) {
        b.second /= 2;
        kept += b.second;
      }
      std::erase_if(entry.buckets,
                    [](const auto& b) { return b.second == 0; });
      // Keep sum/count consistent with the halved buckets so the mean
      // stays meaningful; regret and the monotone counters are not
      // decayed (they are lifetime totals).
      entry.sum_us = entry.count == 0 ? 0 : entry.sum_us * kept / entry.count;
      entry.count = kept;
    }
  }

  recorded_->Add(1);
  if (record.slow) {
    slow_->Add(1);
    if (!options_.spool_dir.empty()) {
      // Bundle I/O stays outside the lock: a slow disk must not stall
      // the sessions racing to deposit their own records.
      std::string path;
      if (WriteBundle(record, render_analyze, &path)) {
        record.bundle_path = path;
        bundles_->Add(1);
        RotateSpool(path);
      }
    }
  }

  auto shared = std::make_shared<const FlightRecord>(std::move(record));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.push_back(shared);
    while (ring_.size() > options_.capacity) {
      ring_.pop_front();
    }
  }
  return shared;
}

void FlightRecorder::RotateSpool(const std::string& path) {
  std::vector<std::string> victims;
  {
    std::lock_guard<std::mutex> lock(spool_mutex_);
    spool_paths_.push_back(path);
    if (options_.max_spool_bundles == 0) {
      return;
    }
    while (spool_paths_.size() > options_.max_spool_bundles) {
      victims.push_back(std::move(spool_paths_.front()));
      spool_paths_.pop_front();
    }
  }
  for (const std::string& victim : victims) {
    if (std::remove(victim.c_str()) == 0) {
      rotated_->Add(1);
    }
  }
}

void FlightRecorder::NoteAlert(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  alerts_.push_back(line);
  while (alerts_.size() > 128) {
    alerts_.pop_front();
  }
}

std::string FlightRecorder::RenderAlertsText(size_t n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (alerts_.empty()) {
    return "no alert transitions recorded\n";
  }
  std::string out;
  size_t take = std::min(n, alerts_.size());
  for (size_t i = 0; i < take; ++i) {
    out += alerts_[alerts_.size() - 1 - i];
    out += "\n";
  }
  return out;
}

std::vector<std::shared_ptr<const FlightRecord>> FlightRecorder::Recent(
    size_t n) const {
  std::vector<std::shared_ptr<const FlightRecord>> out;
  std::lock_guard<std::mutex> lock(mutex_);
  size_t take = std::min(n, ring_.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ring_[ring_.size() - 1 - i]);
  }
  return out;
}

TemplateStatsView FlightRecorder::ViewOf(uint64_t fingerprint,
                                         const TemplateEntry& entry) const {
  TemplateStatsView view;
  view.fingerprint = fingerprint;
  view.template_text = entry.text;
  view.count = entry.count;
  view.sum_us = entry.sum_us;
  view.buckets = entry.buckets;
  view.decisions = entry.decisions;
  view.regret_seconds = entry.regret_seconds;
  view.reopt_triggers = entry.reopt_triggers;
  view.reopt_adoptions = entry.reopt_adoptions;
  view.slow_count = entry.slow_count;
  return view;
}

std::vector<TemplateStatsView> FlightRecorder::TemplateStats() const {
  std::vector<TemplateStatsView> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(templates_.size());
  for (const auto& [fp, entry] : templates_) {
    out.push_back(ViewOf(fp, entry));
  }
  return out;
}

TemplateStatsView FlightRecorder::StatsFor(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = templates_.find(fingerprint);
  if (it == templates_.end()) {
    TemplateStatsView view;
    view.fingerprint = fingerprint;
    return view;
  }
  return ViewOf(fingerprint, it->second);
}

std::string FlightRecorder::RenderRecentText(size_t n) const {
  auto records = Recent(n);
  if (records.empty()) {
    return "flight recorder: no completed queries yet\n";
  }
  std::string out;
  char line[512];
  for (const auto& rp : records) {
    const FlightRecord& r = *rp;
    std::snprintf(line, sizeof(line),
                  "#%" PRId64 " session=%" PRId64 " fp=0x%016" PRIx64
                  " %.3fms rows=%" PRId64 " cache=%s wait=%.3fms"
                  " decisions=%" PRId64 " regret=%+.6fs reopt=%" PRId64
                  "/%" PRId64 "/%" PRId64 "%s%s\n",
                  r.sequence, r.session_id, r.fingerprint, r.seconds * 1e3,
                  r.rows, r.cache.empty() ? "-" : r.cache.c_str(),
                  r.grant_wait_seconds * 1e3, r.decisions, r.regret_seconds,
                  r.reopt_checkpoints, r.reopt_triggers, r.reopt_adoptions,
                  r.slow ? " SLOW:" : "",
                  r.slow ? r.slow_reason.c_str() : "");
    out += line;
    std::snprintf(line, sizeof(line), "  sql: %.200s\n", r.query.c_str());
    out += line;
    if (!r.bundle_path.empty()) {
      std::snprintf(line, sizeof(line), "  bundle: %s\n",
                    r.bundle_path.c_str());
      out += line;
    }
    for (const auto& op : r.operators) {
      std::snprintf(line, sizeof(line),
                    "  %*s%s est_cost=[%.4f,%.4f] est_rows=[%.0f,%.0f]"
                    " actual=%.4fs rows=%" PRId64 "%s\n",
                    op.depth * 2, "", op.op.c_str(), op.est_cost_lo,
                    op.est_cost_hi, op.est_rows_lo, op.est_rows_hi,
                    op.actual_seconds, op.actual_rows,
                    op.have_actual ? "" : " (no actuals)");
      out += line;
    }
  }
  return out;
}

std::string FlightRecorder::RenderRecentJson(size_t n) const {
  auto records = Recent(n);
  std::string out = "[";
  char buf[256];
  bool first = true;
  for (const auto& rp : records) {
    const FlightRecord& r = *rp;
    if (!first) {
      out += ",";
    }
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n  {\"sequence\": %" PRId64 ", \"session\": %" PRId64
                  ", \"fingerprint\": \"0x%016" PRIx64 "\",",
                  r.sequence, r.session_id, r.fingerprint);
    out += buf;
    out += " \"query\": \"" + JsonEscape(r.query) + "\",";
    std::snprintf(buf, sizeof(buf),
                  " \"seconds\": %.6f, \"rows\": %" PRId64
                  ", \"grant_wait_seconds\": %.6f, \"decisions\": %" PRId64
                  ", \"regret_seconds\": %.6f, \"reopt_triggers\": %" PRId64
                  ", \"slow\": %s,",
                  r.seconds, r.rows, r.grant_wait_seconds, r.decisions,
                  r.regret_seconds, r.reopt_triggers,
                  r.slow ? "true" : "false");
    out += buf;
    out += " \"slow_reason\": \"" + JsonEscape(r.slow_reason) + "\",";
    out += " \"bundle\": \"" + JsonEscape(r.bundle_path) + "\"}";
  }
  out += first ? "]" : "\n]";
  return out;
}

std::string FlightRecorder::RenderTemplateStatsText(
    uint64_t fingerprint, bool sort_by_regret) const {
  std::string out;
  char line[512];
  if (fingerprint == 0) {
    auto all = TemplateStats();
    if (all.empty()) {
      return "flight recorder: no templates yet\n";
    }
    // Worst-first, so the template an operator should drill into is the
    // first line: rolling p99 by default, signed cumulative regret with
    // `\stats regret`.  Fingerprint breaks ties deterministically.
    std::stable_sort(all.begin(), all.end(),
                     [&](const TemplateStatsView& a,
                         const TemplateStatsView& b) {
                       double ka = sort_by_regret ? a.regret_seconds
                                                  : a.PercentileUs(0.99);
                       double kb = sort_by_regret ? b.regret_seconds
                                                  : b.PercentileUs(0.99);
                       if (ka != kb) {
                         return ka > kb;
                       }
                       return a.fingerprint < b.fingerprint;
                     });
    std::snprintf(line, sizeof(line), "%zu templates, sorted by %s:\n",
                  all.size(), sort_by_regret ? "regret" : "p99");
    out += line;
    for (const auto& t : all) {
      double mean_ms =
          t.count == 0 ? 0.0
                       : static_cast<double>(t.sum_us) /
                             static_cast<double>(t.count) / 1e3;
      std::snprintf(line, sizeof(line),
                    "template 0x%016" PRIx64 " count=%" PRId64
                    " mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms"
                    " regret=%+.6fs slow=%" PRId64 "\n",
                    t.fingerprint, t.count, mean_ms,
                    t.PercentileUs(0.50) / 1e3, t.PercentileUs(0.95) / 1e3,
                    t.PercentileUs(0.99) / 1e3, t.regret_seconds,
                    t.slow_count);
      out += line;
    }
    return out;
  }
  TemplateStatsView t = StatsFor(fingerprint);
  if (t.count == 0 && t.template_text.empty()) {
    std::snprintf(line, sizeof(line),
                  "no stats for template 0x%016" PRIx64 "\n", fingerprint);
    return line;
  }
  double mean_ms = t.count == 0 ? 0.0
                                : static_cast<double>(t.sum_us) /
                                      static_cast<double>(t.count) / 1e3;
  std::snprintf(line, sizeof(line), "template    0x%016" PRIx64 "\n",
                t.fingerprint);
  out += line;
  std::snprintf(line, sizeof(line), "sql         %.300s\n",
                t.template_text.c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "latency     count=%" PRId64 " mean=%.3fms p50=%.3fms"
                " p95=%.3fms p99=%.3fms\n",
                t.count, mean_ms, t.PercentileUs(0.50) / 1e3,
                t.PercentileUs(0.95) / 1e3, t.PercentileUs(0.99) / 1e3);
  out += line;
  std::snprintf(line, sizeof(line),
                "decisions   %" PRId64 " regret=%+.6fs\n", t.decisions,
                t.regret_seconds);
  out += line;
  std::snprintf(line, sizeof(line),
                "reopt       triggers=%" PRId64 " adoptions=%" PRId64 "\n",
                t.reopt_triggers, t.reopt_adoptions);
  out += line;
  std::snprintf(line, sizeof(line), "slow        %" PRId64 "\n",
                t.slow_count);
  out += line;
  return out;
}

std::string FlightRecorder::RenderPrometheusTemplates() const {
  auto all = TemplateStats();
  std::string out;
  char line[256];
  char label[64];
  out += "# HELP dqep_template_latency_seconds Query latency by "
         "normalized-template fingerprint.\n";
  out += "# TYPE dqep_template_latency_seconds histogram\n";
  for (const auto& t : all) {
    std::snprintf(label, sizeof(label), "{template=\"0x%016" PRIx64 "\"",
                  t.fingerprint);
    int64_t cumulative = 0;
    for (const auto& [b, c] : t.buckets) {
      cumulative += c;
      // Bucket b spans [2^(b-1), 2^b) microseconds.
      double le = b <= 0 ? 0.0
                         : static_cast<double>(int64_t{1} << b) / 1e6;
      std::snprintf(line, sizeof(line),
                    "dqep_template_latency_seconds_bucket%s,le=\"%.9g\"} "
                    "%" PRId64 "\n",
                    label, le, cumulative);
      out += line;
    }
    std::snprintf(line, sizeof(line),
                  "dqep_template_latency_seconds_bucket%s,le=\"+Inf\"} "
                  "%" PRId64 "\n",
                  label, t.count);
    out += line;
    std::snprintf(line, sizeof(line),
                  "dqep_template_latency_seconds_sum%s} %.9g\n", label,
                  static_cast<double>(t.sum_us) / 1e6);
    out += line;
    std::snprintf(line, sizeof(line),
                  "dqep_template_latency_seconds_count%s} %" PRId64 "\n",
                  label, t.count);
    out += line;
  }

  struct CounterFamily {
    const char* name;
    const char* help;
  };
  static constexpr CounterFamily kCounters[] = {
      {"dqep_template_queries_total", "Completed queries per template."},
      {"dqep_template_decisions_total",
       "Choose-plan decisions resolved per template."},
      {"dqep_template_reopt_triggers_total",
       "Mid-query re-optimizations triggered per template."},
      {"dqep_template_reopt_adoptions_total",
       "Re-optimized plans adopted per template."},
      {"dqep_template_slow_total", "Slow-flagged queries per template."},
  };
  for (const auto& fam : kCounters) {
    out += "# HELP ";
    out += fam.name;
    out += " ";
    out += fam.help;
    out += "\n# TYPE ";
    out += fam.name;
    out += " counter\n";
    for (const auto& t : all) {
      int64_t value = 0;
      if (fam.name == std::string("dqep_template_queries_total")) {
        value = t.count;
      } else if (fam.name == std::string("dqep_template_decisions_total")) {
        value = t.decisions;
      } else if (fam.name ==
                 std::string("dqep_template_reopt_triggers_total")) {
        value = t.reopt_triggers;
      } else if (fam.name ==
                 std::string("dqep_template_reopt_adoptions_total")) {
        value = t.reopt_adoptions;
      } else {
        value = t.slow_count;
      }
      std::snprintf(line, sizeof(line),
                    "%s{template=\"0x%016" PRIx64 "\"} %" PRId64 "\n",
                    fam.name, t.fingerprint, value);
      out += line;
    }
  }

  // Gauge, not counter: per-query regret is signed (a choose-plan pick
  // can beat the predicted best), so the cumulative sum is not
  // monotone and must not claim counter semantics.
  out += "# HELP dqep_template_regret_seconds Cumulative choose-plan "
         "regret per template.\n";
  out += "# TYPE dqep_template_regret_seconds gauge\n";
  for (const auto& t : all) {
    std::snprintf(line, sizeof(line),
                  "dqep_template_regret_seconds{template=\"0x%016" PRIx64
                  "\"} %.9g\n",
                  t.fingerprint, t.regret_seconds);
    out += line;
  }

  out += "# HELP dqep_template_p99_seconds Rolling p99 latency per "
         "template (interpolated log2 buckets).\n";
  out += "# TYPE dqep_template_p99_seconds gauge\n";
  for (const auto& t : all) {
    std::snprintf(line, sizeof(line),
                  "dqep_template_p99_seconds{template=\"0x%016" PRIx64
                  "\"} %.9g\n",
                  t.fingerprint, t.PercentileUs(0.99) / 1e6);
    out += line;
  }
  return out;
}

std::string FlightRecorder::BundleJson(const FlightRecord& record,
                                       const std::string& analyze_json) const {
  std::string out = "{\n  \"meta\": {";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\n    \"sequence\": %" PRId64 ",\n    \"session\": %" PRId64
                ",\n    \"fingerprint\": \"0x%016" PRIx64 "\",",
                record.sequence, record.session_id, record.fingerprint);
  out += buf;
  out += "\n    \"query\": \"" + JsonEscape(record.query) + "\",";
  out += "\n    \"template\": \"" + JsonEscape(record.template_text) + "\",";
  out += "\n    \"cache\": \"" + JsonEscape(record.cache) + "\",";
  std::snprintf(buf, sizeof(buf),
                "\n    \"seconds\": %.6f,\n    \"grant_wait_seconds\": %.6f,"
                "\n    \"rows\": %" PRId64
                ",\n    \"peak_memory_bytes\": %" PRId64
                ",\n    \"decisions\": %" PRId64
                ",\n    \"regret_seconds\": %.6f,",
                record.seconds, record.grant_wait_seconds, record.rows,
                record.peak_memory_bytes, record.decisions,
                record.regret_seconds);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\n    \"reopt_checkpoints\": %" PRId64
                ",\n    \"reopt_triggers\": %" PRId64
                ",\n    \"reopt_adoptions\": %" PRId64 ",",
                record.reopt_checkpoints, record.reopt_triggers,
                record.reopt_adoptions);
  out += buf;
  out += "\n    \"slow_reason\": \"" + JsonEscape(record.slow_reason) + "\",";
  out += "\n    \"bindings\": {";
  bool first = true;
  for (const auto& [k, v] : record.bindings) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "\"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
  }
  out += "}\n  },\n";

  // EXPLAIN ANALYZE, verbatim (already JSON).
  out += "  \"analyze\": ";
  out += analyze_json.empty() ? "null" : analyze_json;
  out += ",\n";

  // A Chrome trace synthesized from the operator rows: pre-order depth
  // walk, each child span laid inside its parent's remaining budget
  // (inclusive timings, so children consume the parent's span).
  out += "  \"trace\": {\"traceEvents\": [";
  struct Frame {
    int depth;
    int64_t end_us;
    int64_t cursor_us;
  };
  std::vector<Frame> stack;
  first = true;
  for (const auto& op : record.operators) {
    int64_t dur = MicrosOf(op.actual_seconds);
    while (!stack.empty() && stack.back().depth >= op.depth) {
      stack.pop_back();
    }
    int64_t start = 0;
    if (!stack.empty()) {
      start = stack.back().cursor_us;
      dur = std::min(dur, std::max<int64_t>(0, stack.back().end_us - start));
      stack.back().cursor_us = start + dur;
    }
    if (!first) {
      out += ",";
    }
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n    {\"name\": \"%s\", \"cat\": \"operator\", \"ph\": "
                  "\"X\", \"ts\": %" PRId64 ", \"dur\": %" PRId64
                  ", \"pid\": 1, \"tid\": 0, \"args\": {\"rows\": %" PRId64
                  "}}",
                  JsonEscape(op.op).c_str(), start, dur, op.actual_rows);
    out += buf;
    stack.push_back(Frame{op.depth, start + dur, start});
  }
  out += first ? "]}" : "\n  ]}";
  out += "\n}\n";
  return out;
}

bool FlightRecorder::WriteBundle(
    const FlightRecord& record,
    const std::function<std::string()>& render_analyze,
    std::string* path) const {
  char name[128];
  std::snprintf(name, sizeof(name), "slow-%06" PRId64 "-0x%016" PRIx64
                ".json",
                record.sequence, record.fingerprint);
  std::string full = options_.spool_dir + "/" + name;
  std::string json =
      BundleJson(record, render_analyze ? render_analyze() : std::string());
  FILE* f = std::fopen(full.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int rc = std::fclose(f);
  if (written != json.size() || rc != 0) {
    return false;
  }
  *path = std::move(full);
  return true;
}

}  // namespace obs
}  // namespace dqep
