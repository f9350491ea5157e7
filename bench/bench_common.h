// Shared scaffolding for the bench binaries.
//
// The paper experiments (bench/paper_bench) run the five paper queries
// (Q1, Q2=2-way, Q3=4-way, Q4=6-way, Q5=10-way), in the two uncertainty
// settings (selectivities only / selectivities + memory), over N = 100
// random run-time bindings, exactly as in paper §6.  Every bench's
// `--json` output is one unified document, printed by PrintBenchDocument:
//
//   {"bench":   "<name>",
//    "config":  {...},     // per-bench settings
//    "rows":    [{...}],   // one flat object per measurement
//    "metrics": {...}}     // MetricsRegistry snapshot after the run

#ifndef DQEP_BENCH_BENCH_COMMON_H_
#define DQEP_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/text_table.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/lifecycle.h"
#include "workload/paper_workload.h"

namespace dqep::bench {

inline constexpr uint64_t kWorkloadSeed = 42;
inline constexpr uint64_t kBindingSeed = 7;
inline constexpr int kNumInvocations = 100;  // N in the paper

/// One experimental configuration: a paper query plus the uncertainty
/// setting.  `uncertain_vars` is the x-axis of Figures 4-8.
struct QueryPoint {
  int32_t num_relations = 0;
  bool uncertain_memory = false;
  int32_t uncertain_vars = 0;
  int32_t query_index = 0;  // 1-based paper query number
};

/// The ten (query, setting) points of the paper's figures.
inline std::vector<QueryPoint> PaperQueryPoints() {
  std::vector<QueryPoint> points;
  const std::vector<int32_t>& sizes = PaperWorkload::PaperQuerySizes();
  for (bool memory : {false, true}) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      QueryPoint point;
      point.num_relations = sizes[i];
      point.uncertain_memory = memory;
      point.uncertain_vars = sizes[i] + (memory ? 1 : 0);
      point.query_index = static_cast<int32_t>(i) + 1;
      points.push_back(point);
    }
  }
  return points;
}

/// The process-wide metrics snapshot as JSON, re-indented to nest as the
/// "metrics" member of a bench document.
inline std::string MetricsJson() {
  std::string out;
  for (char c : obs::MetricsRegistry::Instance().RenderJson()) {
    out += c;
    if (c == '\n') {
      out += "  ";
    }
  }
  return out;
}

/// One flat JSON object built member by member, e.g. a row of the
/// unified document: `JsonObject().Str("name", n).Num("qps", q)`.
/// Non-finite numbers are written as null (obs/json_util.h).
class JsonObject {
 public:
  JsonObject& Str(std::string_view key, std::string_view value) {
    return Raw(key, "\"" + obs::JsonEscape(std::string(value)) + "\"");
  }
  JsonObject& Num(std::string_view key, double value) {
    return Raw(key, obs::JsonNumber(value));
  }
  JsonObject& Int(std::string_view key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(std::string_view key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  template <typename Container>
  JsonObject& Array(std::string_view key, const Container& values) {
    std::string items;
    for (const auto& value : values) {
      items += (items.empty() ? "" : ", ") +
               obs::JsonNumber(static_cast<double>(value));
    }
    return Raw(key, "[" + items + "]");
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "\"" : ", \"";
    body_ += obs::JsonEscape(std::string(key));
    body_ += "\": ";
    body_ += json;
    return *this;
  }

  std::string body_;
};

/// Prints the unified bench document to stdout.  The metrics snapshot is
/// taken here, last, so it reflects the whole run.
inline void PrintBenchDocument(std::string_view bench,
                               const JsonObject& config,
                               const std::vector<JsonObject>& rows) {
  std::printf("{\n  \"bench\": \"%s\",\n  \"config\": %s,\n  \"rows\": [\n",
              obs::JsonEscape(std::string(bench)).c_str(),
              config.json().c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("    %s%s\n", rows[i].json().c_str(),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n  \"metrics\": %s\n}\n", MetricsJson().c_str());
}

/// Builds the shared workload or aborts with a diagnostic.
inline std::unique_ptr<PaperWorkload> MustCreateWorkload(
    bool populate = false, int32_t buffer_pool_pages = 256,
    double skew_exponent = 1.0) {
  auto workload = PaperWorkload::Create(kWorkloadSeed, populate,
                                        buffer_pool_pages, skew_exponent);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload creation failed: %s\n",
                 workload.status().ToString().c_str());
    std::abort();
  }
  return std::move(*workload);
}

/// Compiles one query in one mode or aborts.
inline CompiledQuery MustCompile(const PaperWorkload& workload,
                                 const Query& query,
                                 const OptimizerOptions& options,
                                 bool uncertain_memory) {
  auto compiled = CompileQuery(query, workload.model(), options,
                               workload.CompileTimeEnv(uncertain_memory));
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 compiled.status().ToString().c_str());
    std::abort();
  }
  return std::move(*compiled);
}

inline std::string SettingName(bool uncertain_memory) {
  return uncertain_memory ? "sel+mem" : "sel";
}

}  // namespace dqep::bench

#endif  // DQEP_BENCH_BENCH_COMMON_H_
