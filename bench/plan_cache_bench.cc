// Plan-cache amortization sweep (beyond the paper): how much of the
// per-query planning cost (normalize + parse + optimize + bind — never
// execution) does the parameterized dynamic-plan cache recover as the
// workload's template repeat rate rises?
//
// The paper's economics assume a dynamic plan is compiled once and
// executed many times (§1, §5); the cache is what makes that assumption
// hold for ad-hoc SQL text.  Each sweep point replays the same mixed
// query stream twice — once through DynamicPlanCache, once through the
// plain pipeline — so the comparison is query-for-query fair.  The
// stream draws, with probability equal to the repeat rate, one of the
// five paper chain templates (Q1, 2-, 4-, 6-, 10-way) with *fresh
// random literals*, so every repeat exercises template sharing, not
// text-identical replay; the remainder are synthetic never-seen-before
// template variants (distinct predicate-shape encodings) that can only
// miss.
//
// Acceptance tie-in: at a 90% repeat rate the cache-on median planning
// time must be >= 5x below cache-off ("median_speedup" in the rows).
//
// Output is a JSON document on stdout in the unified bench schema
// ({bench, config, rows, metrics} — see bench/unified_report.h); the
// committed copy lives in BENCH_plan_cache.json (regeneration:
// `build/bench/plan_cache_bench --json > BENCH_plan_cache.json`).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "runtime/plan_cache.h"

namespace dqep::bench {
namespace {

const double kRepeatRates[] = {0.0, 0.5, 0.9, 0.99};
constexpr int kQueriesPerRate = 120;
constexpr size_t kCacheCapacity = 256;

/// A never-before-seen template: `variant_id` deterministically encodes,
/// per relation, the selection column/op shape (base-100 digits: the "s"
/// op from {<=, >, >=, =} — never the base template's "<" — times an
/// optional extra predicate on "a" and on "b").  Distinct ids yield
/// distinct normalized templates, so these queries can only miss.
std::string ColdSql(int32_t n, uint64_t variant_id, Rng* rng) {
  static const char* kOps[] = {"<=", ">", ">=", "="};
  static const char* kOptOps[] = {"", "<", "<=", ">", ">="};
  std::string sql = "SELECT * FROM ";
  for (int32_t i = 1; i <= n; ++i) {
    if (i > 1) {
      sql += ", ";
    }
    sql += "R" + std::to_string(i);
  }
  sql += " WHERE ";
  bool first = true;
  for (int32_t i = 1; i < n; ++i) {
    if (!first) {
      sql += " AND ";
    }
    first = false;
    sql += "R" + std::to_string(i) + ".b = R" + std::to_string(i + 1) + ".a";
  }
  for (int32_t i = 1; i <= n; ++i) {
    uint64_t digit = variant_id % 100;  // 4 * 5 * 5 shapes per relation
    variant_id /= 100;
    std::string rel = "R" + std::to_string(i);
    if (!first) {
      sql += " AND ";
    }
    first = false;
    sql += rel + ".s " + kOps[digit % 4] + " " +
           std::to_string(rng->NextInt(0, 1 << 20));
    digit /= 4;
    const char* a_op = kOptOps[digit % 5];
    digit /= 5;
    const char* b_op = kOptOps[digit % 5];
    if (*a_op != '\0') {
      sql += " AND " + rel + ".a " + a_op + " " +
             std::to_string(rng->NextInt(0, 1 << 20));
    }
    if (*b_op != '\0') {
      sql += " AND " + rel + ".b " + b_op + " " +
             std::to_string(rng->NextInt(0, 1 << 20));
    }
  }
  // Ids past the per-relation digit space (reachable only at small n)
  // distinguish themselves by predicate count — literal values cannot,
  // since normalization lifts them out of the template.  "=" on a join
  // column is a shape the digit encoding never emits, so the suffix can
  // never alias a digit-encoded template.
  for (; variant_id > 0; --variant_id) {
    sql += " AND R1.a = " + std::to_string(rng->NextInt(0, 1 << 20));
  }
  return sql;
}

struct PassResult {
  std::vector<double> wall_seconds;  // per query
  std::vector<double> cpu_seconds;
  double total_seconds = 0.0;
  int64_t hits = 0;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Plans every query in `sqls`, timing each round trip through
/// PlanQueryWithCache (with or without a cache).
PassResult RunPass(const PaperWorkload& workload,
                   const std::vector<std::string>& sqls,
                   DynamicPlanCache* cache) {
  PassResult pass;
  CachedPlanRequest request;
  request.catalog = &workload.catalog();
  request.model = &workload.model();
  request.cache = cache;
  WallTimer total;
  for (const std::string& sql : sqls) {
    WallTimer wall;
    ThreadCpuTimer cpu;
    auto planned = PlanQueryWithCache(sql, request);
    pass.wall_seconds.push_back(wall.ElapsedSeconds());
    pass.cpu_seconds.push_back(cpu.ElapsedSeconds());
    if (!planned.ok()) {
      std::fprintf(stderr, "planning failed: %s\n  %s\n",
                   planned.status().ToString().c_str(), sql.c_str());
      std::abort();
    }
    if (planned->cache_hit) {
      ++pass.hits;
    }
  }
  pass.total_seconds = total.ElapsedSeconds();
  return pass;
}

void Run() {
  std::unique_ptr<PaperWorkload> workload =
      MustCreateWorkload(/*populate=*/false);
  const std::vector<int32_t>& sizes = PaperWorkload::PaperQuerySizes();

  std::printf("{\n  \"bench\": \"plan_cache\",\n");
  std::printf(
      "  \"config\": {\"queries_per_rate\": %d, \"cache_capacity\": %zu, "
      "\"workload_seed\": %llu, \"binding_seed\": %llu, "
      "\"repeat_rates\": [",
      kQueriesPerRate, kCacheCapacity,
      static_cast<unsigned long long>(kWorkloadSeed),
      static_cast<unsigned long long>(kBindingSeed));
  for (size_t i = 0; i < std::size(kRepeatRates); ++i) {
    std::printf("%s%.2f", i ? ", " : "", kRepeatRates[i]);
  }
  std::printf("]},\n  \"rows\": [\n");

  uint64_t cold_variant = 1;  // never reused across the whole sweep
  for (size_t ri = 0; ri < std::size(kRepeatRates); ++ri) {
    double rate = kRepeatRates[ri];
    // One shared stream per rate so cache-on and cache-off plan exactly
    // the same query texts in the same order.
    Rng rng(kBindingSeed + ri);
    std::vector<std::string> sqls;
    sqls.reserve(kQueriesPerRate);
    for (int i = 0; i < kQueriesPerRate; ++i) {
      int32_t n = sizes[static_cast<size_t>(
          rng.NextInt(0, static_cast<int64_t>(sizes.size()) - 1))];
      if (rng.NextDouble() < rate) {
        sqls.push_back(
            PaperWorkload::ChainSql(n, workload->DrawChainLiterals(n, &rng)));
      } else {
        sqls.push_back(ColdSql(n, cold_variant++, &rng));
      }
    }

    DynamicPlanCache cache(kCacheCapacity);
    PassResult on = RunPass(*workload, sqls, &cache);
    PassResult off = RunPass(*workload, sqls, nullptr);

    double on_median = Median(on.wall_seconds);
    double off_median = Median(off.wall_seconds);
    for (int pass = 0; pass < 2; ++pass) {
      const PassResult& result = pass == 0 ? on : off;
      bool last = ri + 1 == std::size(kRepeatRates) && pass == 1;
      std::printf(
          "    {\"name\": \"plan_cache/repeat_%.0f/cache_%s\", "
          "\"time_unit\": \"ns\", \"real_time\": %.1f, \"cpu_time\": %.1f, "
          "\"mean_real_time\": %.1f, \"total_s\": %.6f, \"queries\": %d, "
          "\"hit_rate\": %.4f, \"median_speedup\": %.2f}%s\n",
          rate * 100.0, pass == 0 ? "on" : "off",
          Median(result.wall_seconds) * 1e9,
          Median(result.cpu_seconds) * 1e9,
          Mean(result.wall_seconds) * 1e9, result.total_seconds,
          kQueriesPerRate,
          static_cast<double>(result.hits) / kQueriesPerRate,
          pass == 0 && on_median > 0.0 ? off_median / on_median : 1.0,
          last ? "" : ",");
    }
  }

  // Metrics snapshot last, so it reflects the whole sweep (plan-cache
  // counters included).
  std::printf("  ],\n  \"metrics\": %s\n}\n", MetricsJson().c_str());
}

}  // namespace
}  // namespace dqep::bench

int main(int argc, char** argv) {
  // Output is always the unified JSON document; `--json` is accepted so
  // the bench binaries share one CLI convention.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) {
      std::fprintf(stderr, "unknown flag: %s (only --json is accepted)\n",
                   argv[i]);
      return 1;
    }
  }
  dqep::bench::Run();
  return 0;
}
