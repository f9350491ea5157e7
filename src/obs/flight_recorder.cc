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

/// One ring entry as JSON: the record's JSON (its query-log line) plus
/// the recorder's verdict.  Each /slow item, and a bundle's "meta".
std::string EntryJson(const FlightEntry& entry) {
  std::string out = RenderQueryRecordJson(*entry.record);
  out.pop_back();
  out += ", \"sequence\": " + std::to_string(entry.sequence);
  out += entry.slow() ? ", \"slow\": true" : ", \"slow\": false";
  out += ", \"slow_reason\": \"" + JsonEscape(entry.slow_reason) + "\"";
  out += ", \"bundle\": \"" + JsonEscape(entry.bundle_path) + "\"}";
  return out;
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

FlightRecorder::FlightRecorder(FlightRecorderOptions options,
                               TemplateTable* templates)
    : options_(std::move(options)), templates_(templates) {
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

std::string FlightRecorder::Fold(TemplateLatency* stats,
                                 const QueryRecord& r) const {
  const int64_t latency_us = MicrosOf(r.total_seconds);
  if (stats->template_text.empty() && !r.query_template.empty()) {
    stats->template_text = r.query_template;
  }

  // Slow verdict comes BEFORE folding the new sample, so the sample
  // is judged against the history it arrived into.
  std::string slow_reason;
  if (options_.slow_query_ms > 0.0 &&
      r.total_seconds * 1e3 >= options_.slow_query_ms) {
    slow_reason = "threshold";
  } else if (stats->count >= options_.min_template_samples) {
    double p99_us = Log2BucketPercentile(stats->buckets, stats->count, 0.99);
    if (static_cast<double>(latency_us) > p99_us) {
      slow_reason = "template-p99";
    }
  }

  stats->count += 1;
  stats->sum_us += latency_us;
  const int32_t bucket = HistogramCell::BucketOf(latency_us);
  auto it = std::lower_bound(
      stats->buckets.begin(), stats->buckets.end(), bucket,
      [](const std::pair<int32_t, int64_t>& b, int32_t v) {
        return b.first < v;
      });
  if (it == stats->buckets.end() || it->first != bucket) {
    it = stats->buckets.emplace(it, bucket, 0);
  }
  it->second += 1;
  stats->decisions += r.decision_count;
  stats->regret_seconds += r.RegretSeconds();
  stats->reopt_triggers += r.reopt_triggers;
  stats->reopt_adoptions += r.reopt_adoptions;
  if (!slow_reason.empty()) {
    stats->slow_count += 1;
  }
  if (++stats->decay_credit >= options_.decay_every) {
    stats->decay_credit = 0;
    int64_t kept = 0;
    for (auto& b : stats->buckets) {
      b.second /= 2;
      kept += b.second;
    }
    std::erase_if(stats->buckets,
                  [](const auto& b) { return b.second == 0; });
    // Keep sum/count consistent with the halved buckets so the mean
    // stays meaningful; regret and the monotone counters are not
    // decayed (they are lifetime totals).
    stats->sum_us =
        stats->count == 0 ? 0 : stats->sum_us * kept / stats->count;
    stats->count = kept;
  }
  return slow_reason;
}

FlightEntry FlightRecorder::Deposit(
    std::shared_ptr<const QueryRecord> record, std::string slow_reason,
    const std::function<std::string()>& render_analyze) {
  FlightEntry finished;
  finished.sequence = next_sequence_++;
  finished.record = std::move(record);
  finished.slow_reason = std::move(slow_reason);
  recorded_->Add(1);
  if (finished.slow()) {
    slow_->Add(1);
    if (!options_.spool_dir.empty()) {
      // Bundle I/O stays outside the lock: a slow disk must not stall
      // the sessions racing to deposit their own records.
      if (WriteBundle(&finished, render_analyze)) {
        bundles_->Add(1);
        RotateSpool(finished.bundle_path);
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.push_back(finished);
    while (ring_.size() > options_.capacity) {
      ring_.pop_front();
    }
  }
  return finished;
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

std::vector<FlightEntry> FlightRecorder::Recent(size_t n) const {
  std::vector<FlightEntry> out;
  std::lock_guard<std::mutex> lock(mutex_);
  size_t take = std::min(n, ring_.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ring_[ring_.size() - 1 - i]);
  }
  return out;
}

std::vector<TemplateStatsView> FlightRecorder::TemplateStats() const {
  std::vector<TemplateStatsView> out;
  templates_->ForEach([&](uint64_t fp, const TemplateFacts& facts) {
    if (facts.latency.count > 0) {  // not just another consumer's entry
      out.emplace_back(fp, facts.latency);
    }
  });
  return out;
}

TemplateStatsView FlightRecorder::StatsFor(uint64_t fingerprint) const {
  TemplateStatsView view(fingerprint);
  templates_->Find(fingerprint, [&](const TemplateFacts& facts) {
    view = TemplateStatsView(fingerprint, facts.latency);
  });
  return view;
}

std::string FlightRecorder::RenderRecentText(size_t n) const {
  auto records = Recent(n);
  if (records.empty()) {
    return "flight recorder: no completed queries yet\n";
  }
  std::string out;
  char line[512];
  for (const FlightEntry& e : records) {
    const QueryRecord& r = *e.record;
    std::snprintf(line, sizeof(line),
                  "#%" PRId64 " session=%" PRId64 " fp=0x%016" PRIx64
                  " %.3fms rows=%" PRId64 " cache=%s wait=%.3fms"
                  " decisions=%" PRId64 " regret=%+.6fs reopt=%" PRId64
                  "/%" PRId64 "/%" PRId64 "%s%s\n",
                  e.sequence, r.session_id, r.query_hash,
                  r.total_seconds * 1e3, r.result_rows,
                  r.plan_cache.empty() ? "-" : r.plan_cache.c_str(),
                  r.grant_wait_seconds * 1e3, r.decision_count,
                  r.RegretSeconds(), r.reopt_checkpoints, r.reopt_triggers,
                  r.reopt_adoptions, e.slow() ? " SLOW:" : "",
                  e.slow_reason.c_str());
    out += line;
    std::snprintf(line, sizeof(line), "  sql: %.200s\n", r.query.c_str());
    out += line;
    if (!e.bundle_path.empty()) {
      std::snprintf(line, sizeof(line), "  bundle: %s\n",
                    e.bundle_path.c_str());
      out += line;
    }
    for (const QueryOperator& op : r.operators) {
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
  std::string out = "[";
  for (const FlightEntry& e : Recent(n)) {
    out += out.size() == 1 ? "\n  " : ",\n  ";
    out += EntryJson(e);
  }
  out += out.size() == 1 ? "]" : "\n]";
  return out;
}

std::string FlightRecorder::RenderTemplateStatsText(
    uint64_t fingerprint, bool sort_by_regret) const {
  std::string out;
  char line[1024];
  if (fingerprint == 0) {
    auto all = TemplateStats();
    if (all.empty()) {
      return "flight recorder: no templates yet\n";
    }
    // Worst-first, so the template an operator should drill into is the
    // first line: rolling p99 by default, signed cumulative regret with
    // `\stats regret`.  The stable sort keeps fingerprint order on ties.
    auto key = [&](const TemplateStatsView& t) {
      return sort_by_regret ? t.regret_seconds : t.PercentileUs(0.99);
    };
    std::stable_sort(all.begin(), all.end(), [&](const auto& a, const auto& b) {
      return key(a) > key(b);
    });
    std::snprintf(line, sizeof(line), "%zu templates, sorted by %s:\n",
                  all.size(), sort_by_regret ? "regret" : "p99");
    out += line;
    for (const auto& t : all) {
      std::snprintf(line, sizeof(line),
                    "template 0x%016" PRIx64 " count=%" PRId64
                    " mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms"
                    " regret=%+.6fs slow=%" PRId64 "\n",
                    t.fingerprint, t.count, t.MeanMs(),
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
  std::snprintf(line, sizeof(line),
                "template    0x%016" PRIx64 "\nsql         %.300s\n"
                "latency     count=%" PRId64 " mean=%.3fms p50=%.3fms"
                " p95=%.3fms p99=%.3fms\n"
                "decisions   %" PRId64 " regret=%+.6fs\n"
                "reopt       triggers=%" PRId64 " adoptions=%" PRId64 "\n"
                "slow        %" PRId64 "\n",
                t.fingerprint, t.template_text.c_str(), t.count, t.MeanMs(),
                t.PercentileUs(0.50) / 1e3, t.PercentileUs(0.95) / 1e3,
                t.PercentileUs(0.99) / 1e3, t.decisions, t.regret_seconds,
                t.reopt_triggers, t.reopt_adoptions, t.slow_count);
  return line;
}

std::string FlightRecorder::RenderPrometheusTemplates() const {
  auto all = TemplateStats();
  std::string out;
  char line[512];
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
                  "%" PRId64 "\ndqep_template_latency_seconds_sum%s} %.9g\n"
                  "dqep_template_latency_seconds_count%s} %" PRId64 "\n",
                  label, t.count, label, static_cast<double>(t.sum_us) / 1e6,
                  label, t.count);
    out += line;
  }

  // One sample per template and family: `name{template="0x..."} value`.
  auto family = [&](const char* name, const char* type, const char* help,
                    auto value) {
    out += std::string("# HELP ") + name + " " + help + "\n# TYPE " + name +
           " " + type + "\n";
    for (const auto& t : all) {
      std::snprintf(line, sizeof(line), "%s{template=\"0x%016" PRIx64 "\"} ",
                    name, t.fingerprint);
      out += line;
      out += value(t);
      out += "\n";
    }
  };
  auto real = [&line](double v) {
    std::snprintf(line, sizeof(line), "%.9g", v);
    return std::string(line);
  };
  using View = TemplateStatsView;
  family("dqep_template_queries_total", "counter",
         "Completed queries per template.",
         [](const View& t) { return std::to_string(t.count); });
  family("dqep_template_decisions_total", "counter",
         "Choose-plan decisions resolved per template.",
         [](const View& t) { return std::to_string(t.decisions); });
  family("dqep_template_reopt_triggers_total", "counter",
         "Mid-query re-optimizations triggered per template.",
         [](const View& t) { return std::to_string(t.reopt_triggers); });
  family("dqep_template_reopt_adoptions_total", "counter",
         "Re-optimized plans adopted per template.",
         [](const View& t) { return std::to_string(t.reopt_adoptions); });
  family("dqep_template_slow_total", "counter",
         "Slow-flagged queries per template.",
         [](const View& t) { return std::to_string(t.slow_count); });
  // Gauge, not counter: per-query regret is signed (a choose-plan pick
  // can beat the predicted best), so the cumulative sum is not
  // monotone and must not claim counter semantics.
  family("dqep_template_regret_seconds", "gauge",
         "Cumulative choose-plan regret per template.",
         [&](const View& t) { return real(t.regret_seconds); });
  family("dqep_template_p99_seconds", "gauge",
         "Rolling p99 latency per template (interpolated log2 buckets).",
         [&](const View& t) { return real(t.PercentileUs(0.99) / 1e6); });
  return out;
}

std::string FlightRecorder::BundleJson(const FlightEntry& entry,
                                       const std::string& analyze_json) const {
  std::string out = "{\n  \"meta\": " + EntryJson(entry) + ",\n";

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
  char buf[256];
  bool first = true;
  for (const QueryOperator& op : entry.record->operators) {
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
    FlightEntry* entry,
    const std::function<std::string()>& render_analyze) const {
  char name[128];
  std::snprintf(name, sizeof(name), "slow-%06" PRId64 "-0x%016" PRIx64
                ".json",
                entry->sequence, entry->record->query_hash);
  entry->bundle_path = options_.spool_dir + "/" + name;
  std::string json =
      BundleJson(*entry, render_analyze ? render_analyze() : std::string());
  FILE* f = std::fopen(entry->bundle_path.c_str(), "w");
  size_t written = 0;
  int rc = -1;
  if (f != nullptr) {
    written = std::fwrite(json.data(), 1, json.size(), f);
    rc = std::fclose(f);
  }
  if (written != json.size() || rc != 0) {
    entry->bundle_path.clear();
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace dqep
