// Shared scaffolding for the paper-experiment bench binaries.
//
// Every figure/table binary runs the five paper queries (Q1, Q2=2-way,
// Q3=4-way, Q4=6-way, Q5=10-way), in the two uncertainty settings
// (selectivities only / selectivities + memory), over N = 100 random
// run-time bindings, exactly as in paper §6.

#ifndef DQEP_BENCH_BENCH_COMMON_H_
#define DQEP_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/text_table.h"
#include "obs/metrics.h"
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

/// Builds the shared workload or aborts with a diagnostic.
inline std::unique_ptr<PaperWorkload> MustCreateWorkload(
    bool populate = false) {
  auto workload = PaperWorkload::Create(kWorkloadSeed, populate);
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
