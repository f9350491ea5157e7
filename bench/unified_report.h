// `--json` output for the google-benchmark binaries (micro_bench,
// parallel_bench): UnifiedJsonReporter prints the unified bench document
// described in bench/bench_common.h, and RunUnifiedBenchmarkMain is their
// shared main() body.

#ifndef DQEP_BENCH_UNIFIED_REPORT_H_
#define DQEP_BENCH_UNIFIED_REPORT_H_

#include <benchmark/benchmark.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace dqep::bench {

/// google-benchmark reporter emitting the unified document.  Rows carry
/// the run name, iteration count, adjusted real/cpu time in the run's
/// time unit, the label, and every user counter, all flattened into one
/// object so downstream tooling needs no per-bench schema.
class UnifiedJsonReporter : public benchmark::BenchmarkReporter {
 public:
  explicit UnifiedJsonReporter(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  bool ReportContext(const Context& context) override {
#ifdef NDEBUG
    const char* build = "release";
#else
    const char* build = "debug";
#endif
    JsonObject config;
    config.Int("num_cpus", context.cpu_info.num_cpus)
        .Num("cycles_per_second", context.cpu_info.cycles_per_second)
        .Str("build", build);
    GetOutputStream() << "{\n  \"bench\": \"" << obs::JsonEscape(bench_)
                      << "\",\n  \"config\": " << config.json()
                      << ",\n  \"rows\": [";
    return true;
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    std::ostream& out = GetOutputStream();
    for (const Run& run : runs) {
      JsonObject row;
      row.Str("name", run.benchmark_name())
          .Int("iterations", run.iterations)
          .Num("real_time", run.GetAdjustedRealTime())
          .Num("cpu_time", run.GetAdjustedCPUTime())
          .Str("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      if (!run.report_label.empty()) {
        row.Str("label", run.report_label);
      }
      for (const auto& [name, counter] : run.counters) {
        row.Num(name, counter.value);
      }
      out << (first_ ? "\n    " : ",\n    ") << row.json();
      first_ = false;
    }
  }

  void Finalize() override {
    GetOutputStream() << "\n  ],\n  \"metrics\": " << MetricsJson()
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
