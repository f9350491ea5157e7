// perfbench_client — the served-query benchmark.
//
//   perfbench_client --server=BIN --workdir=DIR --workload=NAME --seed=N
//                    --seconds=S --trace=0|1
//
// Starts the dqep_server binary BIN with its default options on a unix
// socket in DIR (several times, to time set-up), drives it with a closed
// loop of kConnections connections and no think time, checks every reply
// against an independent evaluation, and prints a report whose last line
// is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace=0 reports the end-to-end metrics of a `seconds` window.
// --trace=1 splits `seconds` between the server (registry counters over
// the wire, post-reply time) and the traced in-process replay
// (traced.h), and reports the per-layer metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client.h"
#include "streams.h"
#include "traced.h"
#include "workload/paper_workload.h"

namespace perfbench {
namespace {

/// Closed-loop connections; also the traced replay's worker count.
constexpr int kConnections = 4;
/// Untimed queries before the window: compiles the pooled templates,
/// fills the 128-entry plan cache on cold_templates and settles the
/// buffer pool.
constexpr int64_t kWarmupQueries = 256;
/// Server starts per run; setup_s is their median.
constexpr int kSetupRuns = 21;
/// Latency percentiles come from chunks of at least this many
/// consecutive completions, so each p99 has ten samples beyond it.
constexpr int64_t kChunk = 1000;
/// qps comes from time slices of this length.
constexpr double kSliceSeconds = 1.0;
/// The paper's database (program set-up, not the benchmark's seed).
constexpr uint64_t kWorkloadSeed = 42;

struct Args {
  std::string server;
  std::string workdir;
  std::string workload_name;
  Workload workload = Workload::kWarmChains;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--server") {
      args->server = value;
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--workload") {
      args->workload_name = value;
      if (!ParseWorkload(value, &args->workload)) {
        return false;
      }
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_seed && !args->server.empty() && !args->workdir.empty() &&
         !args->workload_name.empty() && args->seconds > 0;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Client-observed timings of one window.  Outside load on a shared
/// machine comes in bursts of a few seconds, so each statistic is a
/// median over parts of the window: qps over time slices, the latency
/// percentiles over chunks of consecutive completions (each chunk with
/// ten or more samples beyond its p99).
struct Timings {
  int64_t samples = 0;  ///< completed queries
  int64_t chunks = 0;
  double qps = 0.0;     ///< median slice rate
  double p50_ms = 0.0;  ///< median chunk p50
  double p99_ms = 0.0;  ///< median chunk p99
};

Timings Summarize(const std::vector<Sample>& samples, double window) {
  std::vector<const Sample*> done;
  for (const Sample& sample : samples) {
    if (sample.ok) {
      done.push_back(&sample);
    }
  }
  std::sort(done.begin(), done.end(), [](const Sample* a, const Sample* b) {
    return a->done_s < b->done_s;
  });
  Timings timings;
  timings.samples = static_cast<int64_t>(done.size());
  const auto slices = std::max<size_t>(
      1, static_cast<size_t>(std::floor(window / kSliceSeconds)));
  const double slice = window / static_cast<double>(slices);
  // A slice's rate is measured between its first and last completion, so
  // it is not rounded to whole queries per slice.
  std::vector<std::vector<double>> done_in(slices);
  for (const Sample* sample : done) {
    const auto s = static_cast<size_t>(sample->done_s / slice);
    if (s < slices) {
      done_in[s].push_back(sample->done_s);
    }
  }
  std::vector<double> rates;
  for (const std::vector<double>& times : done_in) {
    const double span = times.size() < 2 ? 0.0 : times.back() - times.front();
    rates.push_back(span > 0 ? static_cast<double>(times.size() - 1) / span
                             : static_cast<double>(times.size()) / slice);
  }
  timings.qps = Median(std::move(rates));
  timings.chunks = std::max<int64_t>(1, timings.samples / kChunk);
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (int64_t c = 0; c < timings.chunks; ++c) {
    std::vector<double> latencies;
    for (int64_t i = c * timings.samples / timings.chunks;
         i < (c + 1) * timings.samples / timings.chunks; ++i) {
      latencies.push_back(done[static_cast<size_t>(i)]->latency_s * 1e3);
    }
    p50s.push_back(Quantile(latencies, 0.50));
    p99s.push_back(Quantile(std::move(latencies), 0.99));
  }
  timings.p50_ms = Median(std::move(p50s));
  timings.p99_ms = Median(std::move(p99s));
  return timings;
}

int Run(const Args& args) {
  auto database = dqep::PaperWorkload::Create(kWorkloadSeed, /*populate=*/true);
  if (!database.ok()) {
    std::fprintf(stderr, "database: %s\n",
                 database.status().ToString().c_str());
    return 1;
  }
  QueryStream stream(args.workload, args.seed, (*database)->model());
  const std::string socket = args.workdir + "/server.sock";
  const std::string log = args.workdir + "/server.log";
  std::remove(log.c_str());

  // Set-up: start the server several times; the last one serves the run.
  ServerProcess server;
  std::vector<double> setups;
  std::string error;
  for (int i = 0; i < kSetupRuns; ++i) {
    if (i > 0) {
      server.Stop();
    }
    if (!server.Start(args.server, socket, log, &error)) {
      std::fprintf(stderr, "server start: %s\n", error.c_str());
      return 1;
    }
    setups.push_back(server.setup_seconds());
  }

  std::vector<std::unique_ptr<dqep::server::LineChannel>> channels;
  if (!Connect(socket, kConnections, &channels, &error)) {
    std::fprintf(stderr, "connect: %s\n", error.c_str());
    return 1;
  }
  LoadResult warmup = RunClosedLoop(channels, &stream, kWarmupQueries, 0.0);
  Counters before;
  Counters after;
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  bool counters_ok = FetchCounters(channels[0].get(), &before);
  LoadResult load = RunClosedLoop(channels, &stream, 0, window);
  counters_ok = counters_ok && FetchCounters(channels[0].get(), &after);
  channels.clear();
  const double peak_rss_mb = server.Stop();
  if (!counters_ok || warmup.broken_connections + load.broken_connections > 0) {
    std::fprintf(stderr, "lost the server mid-run; see %s\n", log.c_str());
    return 1;
  }

  // Every reply, warm-up included, against the independent evaluation.
  std::vector<Sample> all = warmup.samples;
  all.insert(all.end(), load.samples.begin(), load.samples.end());
  std::string first_mismatch;
  const int64_t failed = CheckOutputs(all, stream, database->get(),
                                      kConnections, &first_mismatch);
  const int64_t attempted = static_cast<int64_t>(all.size());
  if (failed > 0) {
    std::fprintf(stderr, "%lld mismatched replies; first: %s\n",
                 static_cast<long long>(failed), first_mismatch.c_str());
  }

  const Timings timings = Summarize(load.samples, window);
  std::vector<double> post_reply;
  for (const Sample& sample : load.samples) {
    if (sample.ok) {
      post_reply.push_back(sample.latency_s - sample.server_s);
    }
  }
  std::printf("perfbench %s seed=%llu: %d connections, closed loop, %.1f s "
              "window, %lld queries completed\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), kConnections,
              load.wall_seconds, static_cast<long long>(timings.samples));
  std::printf("  error_rate = %.6g ratio (%lld failed or mismatched of %lld "
              "replies checked)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed), static_cast<long long>(attempted));

  std::vector<Metric> metrics;
  if (!args.trace) {
    if (timings.samples < kChunk) {
      std::fprintf(stderr,
                   "warning: only %lld queries completed; p99 has fewer "
                   "than ten samples beyond it\n",
                   static_cast<long long>(timings.samples));
    }
    metrics = {
        {"qps", timings.qps, "1/s"},
        {"p50_ms", timings.p50_ms, "ms"},
        {"p99_ms", timings.p99_ms, "ms"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    std::printf("  %lld samples; qps: median of %.0f s slices; p50/p99: "
                "medians over %lld chunks of >= %lld queries; setup_s: "
                "median of %d server starts\n",
                static_cast<long long>(timings.samples), kSliceSeconds,
                static_cast<long long>(timings.chunks),
                static_cast<long long>(kChunk), kSetupRuns);
  } else {
    // A registry metric's growth over the window (a histogram's count or
    // sum with `field`).
    auto delta = [&](const char* name,
                     int64_t Counter::*field = &Counter::value) {
      auto read = [&](const Counters& counters) {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second.*field;
      };
      return static_cast<double>(read(after) - read(before));
    };
    const double queries = static_cast<double>(load.samples.size());
    const double hits = delta("runtime.plancache.hits");
    const double misses = delta("runtime.plancache.misses");
    const double pool_hits = delta("storage.bufferpool.hits");
    const double pool_misses = delta("storage.bufferpool.misses");
    metrics = {
        {"plan_cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"plan_cache.evictions_per_query",
         Ratio(delta("runtime.plancache.evictions"), queries), "count"},
        {"optimizer.plans_considered_per_miss",
         Ratio(delta("optimizer.plans_considered"), misses), "count"},
        {"startup.decisions_per_resolve",
         Ratio(delta("runtime.startup.decisions"),
               delta("runtime.startup.resolves")),
         "count"},
        {"admission.wait_us",
         Ratio(delta("server.admission.wait_us", &Counter::sum),
               delta("server.admission.wait_us", &Counter::count)),
         "us"},
        {"exec.spill_bytes_per_query", Ratio(delta("exec.spill.bytes"), queries),
         "bytes"},
        {"storage.pool_misses_per_query", Ratio(pool_misses, queries), "count"},
        {"storage.pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses),
         "ratio"},
        {"server.post_reply_us", Median(post_reply) * 1e6, "us"},
    };
    const TracedResult traced = RunTraced(
        args.workload, args.seed, kWarmupQueries, args.seconds / 2,
        kConnections, database->get(),
        args.workdir + "/spans_" + args.workload_name + ".json");
    if (traced.failed > 0) {
      std::fprintf(stderr, "traced replay: %lld queries failed\n",
                   static_cast<long long>(traced.failed));
      return 1;
    }
    metrics.insert(metrics.end(), traced.metrics.begin(),
                   traced.metrics.end());
    metrics.push_back(
        {"trace.overhead_ratio", Ratio(traced.qps, timings.qps), "ratio"});
    std::printf("  traced replay: %lld queries, %.1f qps (untraced server "
                "%.1f qps); largest self time: %s\n",
                static_cast<long long>(traced.queries), traced.qps, timings.qps,
                traced.heaviest_layer.c_str());
  }

  for (const Metric& metric : metrics) {
    std::printf("  %-36s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<long long>(attempted), static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --server=BIN --workdir=DIR --workload=NAME "
                 "--seed=N --seconds=S --trace=0|1\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
