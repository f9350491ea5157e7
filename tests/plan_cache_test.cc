// Tests for the parameterized dynamic-plan cache (runtime/plan_cache.h)
// and the normalization / parameterization passes it keys on.
//
// The correctness contract under test: a cache hit must be behaviorally
// indistinguishable from a cold compile — byte-identical result rows
// at every thread count — and a stale
// entry (compiled under another statistics epoch than the querying
// model's) must never be served, not even once.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "runtime/plan_cache.h"
#include "runtime/query_pipeline.h"
#include "runtime/startup.h"
#include "sql/normalize.h"
#include "sql/parser.h"
#include "storage/analyze.h"
#include "tests/reference_eval.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

// ---------------------------------------------------------------------------
// Normalization
// ---------------------------------------------------------------------------

TEST(NormalizeTest, LiteralVariantsShareOneTemplate) {
  auto a = NormalizeQuery("SELECT * FROM R1 WHERE R1.s < 10");
  auto b = NormalizeQuery("SELECT * FROM R1 WHERE R1.s < 97");
  auto c = NormalizeQuery("select  *  from R1 where R1.s<97");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->template_text, "SELECT * FROM R1 WHERE R1.s < ?");
  EXPECT_EQ(a->template_text, b->template_text);
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  EXPECT_EQ(b->fingerprint, c->fingerprint);
  ASSERT_EQ(a->literals.size(), 1u);
  EXPECT_EQ(a->literals[0], 10);
  EXPECT_EQ(b->literals[0], 97);
}

TEST(NormalizeTest, DistinctShapesGetDistinctFingerprints) {
  auto lt = NormalizeQuery("SELECT * FROM R1 WHERE R1.s < 10");
  auto eq = NormalizeQuery("SELECT * FROM R1 WHERE R1.s = 10");
  auto host = NormalizeQuery("SELECT * FROM R1 WHERE R1.s < :v");
  auto join = NormalizeQuery("SELECT * FROM R1, R2 WHERE R1.b = R2.a");
  ASSERT_TRUE(lt.ok());
  ASSERT_TRUE(eq.ok());
  ASSERT_TRUE(host.ok());
  ASSERT_TRUE(join.ok());
  EXPECT_NE(lt->fingerprint, eq->fingerprint);
  EXPECT_NE(lt->fingerprint, host->fingerprint);
  EXPECT_NE(lt->fingerprint, join->fingerprint);
  // Host variables keep their names: :v and :w are different templates
  // (they bind through \set state, not through the literal channel).
  auto host_w = NormalizeQuery("SELECT * FROM R1 WHERE R1.s < :w");
  ASSERT_TRUE(host_w.ok());
  EXPECT_NE(host->fingerprint, host_w->fingerprint);
  EXPECT_TRUE(host->literals.empty());
}

TEST(NormalizeTest, IdentifierCaseIsPreserved) {
  // Catalog lookup is case-sensitive, so "r1" and "R1" must not share a
  // cache slot — only keywords canonicalize.
  auto upper = NormalizeQuery("SELECT * FROM R1 WHERE R1.s < 5");
  auto lower = NormalizeQuery("SELECT * FROM r1 WHERE r1.s < 5");
  ASSERT_TRUE(upper.ok());
  ASSERT_TRUE(lower.ok());
  EXPECT_NE(upper->fingerprint, lower->fingerprint);
}

TEST(NormalizeTest, FingerprintIsFnv1aOfTemplate) {
  auto norm = NormalizeQuery("SELECT * FROM R1, R2 WHERE R1.b = R2.a "
                             "AND R1.s < 123 AND R2.s < 45");
  ASSERT_TRUE(norm.ok());
  EXPECT_EQ(norm->fingerprint, Fnv1a64(norm->template_text));
  ASSERT_EQ(norm->literals.size(), 2u);
  EXPECT_EQ(norm->literals[0], 123);
  EXPECT_EQ(norm->literals[1], 45);
}

TEST(NormalizeTest, UnlexableTextFails) {
  EXPECT_FALSE(NormalizeQuery("SELECT * FROM R1 WHERE R1.s < $$$").ok());
}

// ---------------------------------------------------------------------------
// Parameterized parse
// ---------------------------------------------------------------------------

class PlanCacheWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto workload = PaperWorkload::Create(/*seed=*/42, /*populate=*/true);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  std::string ChainSql(int32_t n, Rng* rng) const {
    return PaperWorkload::ChainSql(n, workload_->DrawChainLiterals(n, rng));
  }

  CachedPlanRequest Request(DynamicPlanCache* cache) const {
    CachedPlanRequest request;
    request.catalog = &workload_->catalog();
    request.model = &workload_->model();
    request.cache = cache;
    return request;
  }

  std::unique_ptr<PaperWorkload> workload_;
};

TEST_F(PlanCacheWorkloadTest, ParameterizedParseLiftsEveryLiteral) {
  auto parsed = ParseQueryParameterized(
      "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < 10 AND R2.s < 20",
      workload_->catalog());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->params.empty());
  ASSERT_EQ(parsed->lifted_params.size(), 2u);
  EXPECT_EQ(parsed->lifted_values, (std::vector<int64_t>{10, 20}));
  // Lifted order matches the normalizer's literal order, so
  // lifted_params[i] binds NormalizedQuery::literals[i].
  auto norm = NormalizeQuery(
      "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < 10 AND R2.s < 20");
  ASSERT_TRUE(norm.ok());
  EXPECT_EQ(norm->literals, parsed->lifted_values);
}

TEST_F(PlanCacheWorkloadTest, ParameterIdsAreDenseAcrossHostAndLifted) {
  auto parsed = ParseQueryParameterized(
      "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < :v AND R2.s < 20",
      workload_->catalog());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->params.size(), 1u);
  ASSERT_EQ(parsed->lifted_params.size(), 1u);
  std::vector<bool> seen(2, false);
  seen[static_cast<size_t>(parsed->params.begin()->second)] = true;
  seen[static_cast<size_t>(parsed->lifted_params[0])] = true;
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);
  // Plain parse is unchanged: literals stay literals.
  auto plain = ParseQuery(
      "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < :v AND R2.s < 20",
      workload_->catalog());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->lifted_params.empty());
}

// ---------------------------------------------------------------------------
// Cache mechanics
// ---------------------------------------------------------------------------

DynamicPlanCache::Entry MakeEntry(uint64_t fingerprint,
                                  double memory_pages = 64.0,
                                  uint64_t stats_epoch = 0) {
  DynamicPlanCache::Entry entry;
  entry.fingerprint = fingerprint;
  entry.memory_pages = memory_pages;
  entry.stats_epoch = stats_epoch;
  return entry;
}

TEST(PlanCacheTest, LookupMissesThenHitsAfterInsert) {
  DynamicPlanCache cache(4);
  EXPECT_EQ(cache.Lookup(7, 64.0, 0), nullptr);
  cache.Insert(MakeEntry(7));
  auto entry = cache.Lookup(7, 64.0, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->fingerprint, 7u);
  // The memory grant is part of the key: same template compiled under a
  // different grant is a different plan.
  EXPECT_EQ(cache.Lookup(7, 32.0, 0), nullptr);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.size, 1u);
}

TEST(PlanCacheTest, LruEvictionDropsColdestEntry) {
  DynamicPlanCache cache(2);
  cache.Insert(MakeEntry(1));
  cache.Insert(MakeEntry(2));
  ASSERT_NE(cache.Lookup(1, 64.0, 0), nullptr);  // touch 1: 2 is now coldest
  cache.Insert(MakeEntry(3));
  EXPECT_NE(cache.Lookup(1, 64.0, 0), nullptr);
  EXPECT_NE(cache.Lookup(3, 64.0, 0), nullptr);
  EXPECT_EQ(cache.Lookup(2, 64.0, 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(PlanCacheTest, CapacityZeroDisablesCaching) {
  DynamicPlanCache cache(0);
  cache.Insert(MakeEntry(1));
  EXPECT_EQ(cache.Lookup(1, 64.0, 0), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(PlanCacheTest, EpochBumpSweepsAndRejectsStaleInserts) {
  DynamicPlanCache cache(4);
  cache.Insert(MakeEntry(1));
  cache.SetStatsEpoch(5);
  EXPECT_EQ(cache.Lookup(1, 64.0, 0), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1);
  // An entry compiled before the bump (stamped with the old epoch) must
  // not enter the cache after it.
  cache.Insert(MakeEntry(2, 64.0, /*stats_epoch=*/0));
  EXPECT_EQ(cache.Lookup(2, 64.0, 0), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
  // Stamped with the current epoch it caches normally, and serves only a
  // query planned under that epoch's model.
  cache.Insert(MakeEntry(2, 64.0, /*stats_epoch=*/5));
  EXPECT_EQ(cache.Lookup(2, 64.0, 0), nullptr);
  EXPECT_NE(cache.Lookup(2, 64.0, 5), nullptr);
}

TEST(PlanCacheTest, ClearDropsEverything) {
  DynamicPlanCache cache(4);
  cache.Insert(MakeEntry(1));
  cache.Insert(MakeEntry(2));
  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().invalidations, 2);
  EXPECT_EQ(cache.Lookup(1, 64.0, 0), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end: hit parity with the cold path, Q1..Q5
// ---------------------------------------------------------------------------

TEST_F(PlanCacheWorkloadTest, HitIsByteIdenticalToColdAcrossThreads) {
  Rng rng(/*seed=*/7);
  for (int32_t n : PaperWorkload::PaperQuerySizes()) {
    SCOPED_TRACE("chain size " + std::to_string(n));
    DynamicPlanCache cache(16);
    CachedPlanRequest request = Request(&cache);

    std::string sql = ChainSql(n, &rng);
    auto cold = PrepareQuery(sql, request, workload_->db());
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_TRUE(cold->planned.cache_used);
    EXPECT_FALSE(cold->planned.cache_hit);
    auto hit = PrepareQuery(sql, request, workload_->db());
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(hit->planned.cache_hit);
    // A hit returns the very same immutable plan DAG, not a copy.
    EXPECT_EQ(cold->planned.root.get(), hit->planned.root.get());

    // Re-binding the template with fresh literals must also hit.
    std::string sql2 = ChainSql(n, &rng);
    auto hit2 = PrepareQuery(sql2, request, workload_->db());
    ASSERT_TRUE(hit2.ok());
    ASSERT_TRUE(hit2->planned.cache_hit) << sql2;
    auto parsed2 = ParseQuery(sql2, workload_->catalog());
    ASSERT_TRUE(parsed2.ok());
    std::vector<Tuple> expected = Canonicalize(
        ReferenceEval(parsed2->query, workload_->db(), ParamEnv()));

    for (int32_t threads : {1, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ExecOptions options;
      options.threads = threads;
      ExecContext ctx_cold(options), ctx_hit(options), ctx2(options);
      // Start-up re-runs per execution; cold and hit resolve the same
      // DAG under the same bindings and must execute byte-identically.
      auto rows_cold = ExecuteQuery(*cold, ctx_cold, nullptr);
      auto rows_hit = ExecuteQuery(*hit, ctx_hit, nullptr);
      ASSERT_TRUE(rows_cold.ok());
      ASSERT_TRUE(rows_hit.ok());
      EXPECT_EQ(rows_cold->rows, rows_hit->rows);

      // The re-bound hit must compute what the naive reference evaluator
      // computes for the new literals.
      auto run2 = ExecuteQuery(*hit2, ctx2, nullptr);
      ASSERT_TRUE(run2.ok()) << run2.status().ToString();
      EXPECT_EQ(Canonicalize(ToReferenceOrder(run2->rows,
                                              run2->exec_tree->layout(),
                                              parsed2->query,
                                              workload_->db())),
                expected);
    }
  }
}

TEST_F(PlanCacheWorkloadTest, CacheOffMatchesHistoricalPipeline) {
  Rng rng(/*seed=*/11);
  std::string sql = ChainSql(2, &rng);
  auto prepared = PrepareQuery(sql, Request(nullptr), workload_->db());
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->planned.cache_used);
  ExecContext ctx((ExecOptions()));
  auto run = ExecuteQuery(std::move(*prepared), ctx, nullptr);
  ASSERT_TRUE(run.ok());
  auto parsed = ParseQuery(sql, workload_->catalog());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(Canonicalize(ToReferenceOrder(run->rows, run->exec_tree->layout(),
                                          parsed->query, workload_->db())),
            Canonicalize(
                ReferenceEval(parsed->query, workload_->db(), ParamEnv())));
}

TEST_F(PlanCacheWorkloadTest, HostVariablesBindThroughTheCache) {
  DynamicPlanCache cache(4);
  CachedPlanRequest request = Request(&cache);
  std::map<std::string, int64_t> bindings{{"v", 300}};
  request.host_bindings = &bindings;
  const std::string sql = "SELECT * FROM R1 WHERE R1.s < :v AND R1.a < 900";
  auto cold = PrepareQuery(sql, request, workload_->db());
  ASSERT_TRUE(cold.ok());
  auto hit = PrepareQuery(sql, request, workload_->db());
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->planned.cache_hit);
  ExecContext ctx_cold((ExecOptions())), ctx_hit((ExecOptions()));
  auto rows_cold = ExecuteQuery(std::move(*cold), ctx_cold, nullptr);
  auto rows_hit = ExecuteQuery(std::move(*hit), ctx_hit, nullptr);
  ASSERT_TRUE(rows_cold.ok());
  ASSERT_TRUE(rows_hit.ok());
  EXPECT_EQ(rows_cold->rows, rows_hit->rows);
  // An unbound host variable fails identically on hit and cold paths.
  bindings.erase("v");
  auto unbound = PlanQueryWithCache(sql, request);
  ASSERT_FALSE(unbound.ok());
  EXPECT_NE(unbound.status().message().find("host variable :v is unbound"),
            std::string::npos);
}

/// The sorted text of every row `prepared` returns.
std::vector<std::string> RowText(PreparedQuery prepared, const Database& db) {
  ExecContext ctx((ExecOptions()));
  auto run = ExecuteQuery(std::move(prepared), ctx, nullptr);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  std::vector<std::string> text;
  if (run.ok()) {
    for (const Tuple& row : run->rows) {
      text.push_back(row.ToString());
    }
  }
  std::sort(text.begin(), text.end());
  return text;
}

// SELECT * lists every FROM relation's columns in FROM order, whatever
// join order start-up picks: the cache-off, cold-cache and cached plans
// and every forced choose-plan alternative print the same row text.
TEST_F(PlanCacheWorkloadTest, SelectStarColumnsFollowFromOrder) {
  Rng rng(/*seed=*/13);
  const std::vector<std::string> queries = {
      "SELECT * FROM R9, R10 WHERE R9.b = R10.a AND R9.s >= 418 AND "
      "R9.b <= 226 AND R10.s > 760 AND R10.a >= 17",
      PaperWorkload::ChainSql(4, workload_->DrawChainLiterals(4, &rng))};
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    auto off = PrepareQuery(sql, Request(nullptr), workload_->db());
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    const std::vector<std::string> expected = RowText(*off, workload_->db());
    ASSERT_FALSE(expected.empty());

    DynamicPlanCache cache(4);
    auto cold = PrepareQuery(sql, Request(&cache), workload_->db());
    auto hit = PrepareQuery(sql, Request(&cache), workload_->db());
    ASSERT_TRUE(cold.ok() && hit.ok());
    ASSERT_TRUE(hit->planned.cache_hit);
    EXPECT_EQ(RowText(*cold, workload_->db()), expected);
    EXPECT_EQ(RowText(*hit, workload_->db()), expected);

    int64_t forced_runs = 0;
    for (const PreparedQuery* prepared : {&*off, &*hit}) {
      for (const PhysNode* node : prepared->planned.root->TopologicalOrder()) {
        if (node->kind() != PhysOpKind::kChoosePlan) {
          continue;
        }
        for (size_t alt = 0; alt < node->children().size(); ++alt) {
          std::unordered_map<const PhysNode*, size_t> force{{node, alt}};
          StartupOptions options;
          options.forced_choices = &force;
          auto startup =
              ResolveDynamicPlan(prepared->planned.root, workload_->model(),
                                 prepared->planned.bound, options);
          ASSERT_TRUE(startup.ok()) << startup.status().ToString();
          PreparedQuery forced = *prepared;
          forced.startup = std::move(*startup);
          EXPECT_EQ(RowText(std::move(forced), workload_->db()), expected)
              << "alternative " << alt << " of a choose-plan node";
          ++forced_runs;
        }
      }
    }
    EXPECT_GT(forced_runs, 0);
  }
}

// ---------------------------------------------------------------------------
// Invalidation end-to-end: zero stale hits
// ---------------------------------------------------------------------------

TEST_F(PlanCacheWorkloadTest, AnalyzeInvalidatesWithZeroStaleHits) {
  DynamicPlanCache cache(8);
  CachedPlanRequest request = Request(&cache);
  Rng rng(/*seed=*/13);
  std::string sql = ChainSql(2, &rng);
  auto cold = PlanQueryWithCache(sql, request);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(PlanQueryWithCache(sql, request)->cache_hit);

  // ANALYZE: histograms change the estimator, so every cached plan is
  // stale.  Not a single further hit may be served from the old entry.
  StatisticsCatalog stats = AnalyzeDatabase(workload_->db());
  ASSERT_GT(stats.epoch(), 0u);
  cache.SetStatsEpoch(stats.epoch());
  CostModel stats_model(&workload_->catalog(), workload_->config(), &stats);
  request.model = &stats_model;
  int64_t hits_before = cache.stats().hits;
  auto replanned = PlanQueryWithCache(sql, request);
  ASSERT_TRUE(replanned.ok());
  EXPECT_FALSE(replanned->cache_hit);
  EXPECT_EQ(cache.stats().hits, hits_before);
  EXPECT_GE(cache.stats().invalidations, 1);
  // The re-compiled entry (stamped with the new epoch) serves hits again.
  EXPECT_TRUE(PlanQueryWithCache(sql, request)->cache_hit);

  // A second ANALYZE: same discipline on the next epoch.
  StatisticsCatalog restats = AnalyzeDatabase(workload_->db());
  ASSERT_GT(restats.epoch(), stats.epoch());
  cache.SetStatsEpoch(restats.epoch());
  CostModel restats_model(&workload_->catalog(), workload_->config(),
                          &restats);
  request.model = &restats_model;
  hits_before = cache.stats().hits;
  auto after_swap = PlanQueryWithCache(sql, request);
  ASSERT_TRUE(after_swap.ok());
  EXPECT_FALSE(after_swap->cache_hit);
  EXPECT_EQ(cache.stats().hits, hits_before);
  EXPECT_TRUE(PlanQueryWithCache(sql, request)->cache_hit);
}

// A compile that straddles the estimator swap: planned under the base
// model, inserted after the cache moved to the histogram epoch.  The
// entry carries its model's epoch, so the cache refuses it.
TEST_F(PlanCacheWorkloadTest, OldModelPlanInsertedAfterTheSwapIsRefused) {
  DynamicPlanCache cache(8);
  CachedPlanRequest request = Request(&cache);
  Rng rng(/*seed=*/17);
  const std::string sql = ChainSql(2, &rng);
  StatisticsCatalog stats = AnalyzeDatabase(workload_->db());
  CostModel stats_model(&workload_->catalog(), workload_->config(), &stats);
  ASSERT_EQ(request.model->stats_epoch(), 0u);
  ASSERT_EQ(stats_model.stats_epoch(), stats.epoch());
  cache.SetStatsEpoch(stats.epoch());

  auto straddled = PlanQueryWithCache(sql, request);
  ASSERT_TRUE(straddled.ok());
  EXPECT_FALSE(straddled->cache_hit);
  EXPECT_EQ(cache.stats().inserts, 0);
  EXPECT_EQ(cache.stats().size, 0u);

  // The new model compiles its own entry; the old model never hits it.
  request.model = &stats_model;
  EXPECT_FALSE(PlanQueryWithCache(sql, request)->cache_hit);
  EXPECT_TRUE(PlanQueryWithCache(sql, request)->cache_hit);
  request.model = &workload_->model();
  EXPECT_FALSE(PlanQueryWithCache(sql, request)->cache_hit);
  EXPECT_EQ(cache.stats().size, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency (run under TSan by tools/run_checks.sh)
// ---------------------------------------------------------------------------

TEST(PlanCacheConcurrencyTest, ConcurrentLookupInsertInvalidateIsClean) {
  DynamicPlanCache cache(8);
  constexpr int kThreads = 4;
  constexpr int kIters = 800;
  std::atomic<int64_t> hits{0};
  // The statistics epoch the workers plan under; a worker that runs
  // ANALYZE moves it and then the cache.
  std::atomic<uint64_t> epoch{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &hits, &epoch, t] {
      Rng rng(static_cast<uint64_t>(1000 + t));
      for (int i = 0; i < kIters; ++i) {
        uint64_t fingerprint =
            static_cast<uint64_t>(rng.NextInt(0, 15));
        const uint64_t planned_epoch = epoch.load();
        auto entry = cache.Lookup(fingerprint, 64.0, planned_epoch);
        if (entry != nullptr) {
          hits.fetch_add(1, std::memory_order_relaxed);
          // Entries are shared_ptr<const Entry>: safe to read fields
          // while another thread evicts or clears.
          EXPECT_EQ(entry->fingerprint, fingerprint);
          // Zero stale hits: an entry of another epoch never serves.
          EXPECT_EQ(entry->stats_epoch, planned_epoch);
          continue;
        }
        DynamicPlanCache::Entry fresh;
        fresh.fingerprint = fingerprint;
        fresh.memory_pages = 64.0;
        fresh.stats_epoch = planned_epoch;
        cache.Insert(std::move(fresh));
        if (i % 97 == 0) {
          cache.SetStatsEpoch(epoch.fetch_add(1) + 1);
        }
        if (i % 131 == 0) {
          cache.Clear();
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_GT(hits.load(), 0);
  PlanCacheStats stats = cache.stats();
  EXPECT_LE(stats.size, stats.capacity);
  EXPECT_EQ(stats.hits, hits.load());
}

}  // namespace
}  // namespace dqep
