// Shared `--json` output schema for the bench binaries.  Every bench
// emits one document of the same shape:
//
//   {"bench":   "<micro|parallel|memory>",
//    "config":  {...},     // machine facts and per-bench settings
//    "rows":    [{...}],   // one flat object per measurement
//    "metrics": {...}}     // MetricsRegistry snapshot after the run
//
// micro_bench and parallel_bench are google-benchmark binaries and get
// the shape from UnifiedJsonReporter + RunUnifiedBenchmarkMain below.
// memory_bench has no google-benchmark dependency, so it prints the same
// shape by hand (and must not include this header).

#ifndef DQEP_BENCH_UNIFIED_REPORT_H_
#define DQEP_BENCH_UNIFIED_REPORT_H_

#include <benchmark/benchmark.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace dqep::bench {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// google-benchmark reporter emitting the unified document.  Rows carry
/// the run name, iteration count, adjusted real/cpu time in the run's
/// time unit, the label, and every user counter, all flattened into one
/// object so downstream tooling needs no per-bench schema.
class UnifiedJsonReporter : public benchmark::BenchmarkReporter {
 public:
  explicit UnifiedJsonReporter(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  bool ReportContext(const Context& context) override {
    std::ostream& out = GetOutputStream();
    out << "{\n  \"bench\": \"" << JsonEscape(bench_) << "\",\n";
    out << "  \"config\": {\"num_cpus\": " << context.cpu_info.num_cpus
        << ", \"cycles_per_second\": " << context.cpu_info.cycles_per_second
        << ", \"build\": \""
#ifdef NDEBUG
        << "release"
#else
        << "debug"
#endif
        << "\"},\n  \"rows\": [";
    return true;
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    std::ostream& out = GetOutputStream();
    for (const Run& run : runs) {
      out << (first_ ? "\n" : ",\n");
      first_ = false;
      out << "    {\"name\": \"" << JsonEscape(run.benchmark_name())
          << "\", \"iterations\": " << run.iterations
          << ", \"real_time\": " << run.GetAdjustedRealTime()
          << ", \"cpu_time\": " << run.GetAdjustedCPUTime()
          << ", \"time_unit\": \"" << benchmark::GetTimeUnitString(run.time_unit)
          << "\"";
      if (!run.report_label.empty()) {
        out << ", \"label\": \"" << JsonEscape(run.report_label) << "\"";
      }
      for (const auto& [name, counter] : run.counters) {
        out << ", \"" << JsonEscape(name) << "\": " << counter.value;
      }
      out << "}";
    }
  }

  void Finalize() override {
    std::ostream& out = GetOutputStream();
    out << "\n  ],\n  \"metrics\": "
        << MetricsJson()
        << "\n}\n";
  }

 private:
  std::string bench_;
  bool first_ = true;
};

/// Shared main() body for the google-benchmark binaries: `--json`
/// selects the unified reporter; every other flag passes through.
inline int RunUnifiedBenchmarkMain(int argc, char** argv,
                                   const char* bench_name) {
  bool json = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  if (json) {
    UnifiedJsonReporter reporter(bench_name);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace dqep::bench

#endif  // DQEP_BENCH_UNIFIED_REPORT_H_
