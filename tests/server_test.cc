// Tests for the multi-session query server (src/server/*): admission
// control units (memory-grant pool FIFO/timeout, cost throttle, template
// cost EWMA), the annotation-safety ClonePlan contract under concurrent
// sessions (a TSan regression), concurrent query-log appends, and
// socket-level integration — basic queries, shared-cache hits across
// sessions, concurrent-vs-serial result parity, polite admission
// rejections, and graceful SIGTERM shutdown mid-stream.

#include <dirent.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "obs/analyze.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "physical/costing.h"
#include "runtime/plan_cache.h"
#include "runtime/plan_rewrite.h"
#include "runtime/query_pipeline.h"
#include "runtime/startup.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/normalize.h"
#include "tests/server_fixture.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace server {
namespace {

using obs::JsonValue;
using std::chrono::milliseconds;

/// Member `key` of a parsed object, or a null value when absent.
const JsonValue& At(const JsonValue& value, const std::string& key) {
  static const JsonValue kNull;
  const JsonValue* member = value.Find(key);
  return member != nullptr ? *member : kNull;
}

// ---------------------------------------------------------------------------
// MemoryGrantPool

TEST(MemoryGrantPoolTest, GrantsAndReleases) {
  MemoryGrantPool pool(100);
  EXPECT_EQ(pool.Acquire(60, milliseconds(0)), AdmitOutcome::kAdmitted);
  EXPECT_EQ(pool.available_pages(), 40);
  EXPECT_EQ(pool.Acquire(40, milliseconds(0)), AdmitOutcome::kAdmitted);
  EXPECT_EQ(pool.available_pages(), 0);
  pool.Release(60);
  pool.Release(40);
  EXPECT_EQ(pool.available_pages(), 100);
  EXPECT_EQ(pool.peak_granted_pages(), 100);
}

TEST(MemoryGrantPoolTest, TooLargeRejectsImmediately) {
  MemoryGrantPool pool(100);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(pool.Acquire(101, milliseconds(5000)), AdmitOutcome::kTooLarge);
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(1000));
  EXPECT_EQ(pool.available_pages(), 100);
}

TEST(MemoryGrantPoolTest, TimeoutRejectsPolitely) {
  MemoryGrantPool pool(100);
  ASSERT_EQ(pool.Acquire(100, milliseconds(0)), AdmitOutcome::kAdmitted);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(pool.Acquire(10, milliseconds(100)), AdmitOutcome::kTimeout);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, milliseconds(90));
  pool.Release(100);
  // The pool is whole again and a later Acquire succeeds.
  EXPECT_EQ(pool.Acquire(10, milliseconds(0)), AdmitOutcome::kAdmitted);
}

TEST(MemoryGrantPoolTest, SmallNewcomerCannotLeapfrogQueuedLargeAsk) {
  MemoryGrantPool pool(100);
  ASSERT_EQ(pool.Acquire(90, milliseconds(0)), AdmitOutcome::kAdmitted);

  // Waiter 1 asks for 50 (does not fit behind the 90-page grant); waiter
  // 2 — started strictly later — asks for 10, which *would* fit in the 10
  // spare pages but must not leapfrog waiter 1: FIFO is the
  // anti-starvation guarantee.
  std::thread w1([&] {
    ASSERT_EQ(pool.Acquire(50, milliseconds(10000)),
              AdmitOutcome::kAdmitted);
    pool.Release(50);
  });
  while (pool.queued_total() < 1) {
    std::this_thread::yield();
  }
  std::thread w2([&] {
    ASSERT_EQ(pool.Acquire(10, milliseconds(10000)),
              AdmitOutcome::kAdmitted);
    pool.Release(10);
  });
  while (pool.queued_total() < 2) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(milliseconds(50));
  // Waiter 2's 10 pages were NOT granted out of order: the spare 10
  // pages are still free.
  EXPECT_EQ(pool.available_pages(), 10);
  pool.Release(90);
  w1.join();
  w2.join();
  EXPECT_EQ(pool.available_pages(), 100);
}

TEST(MemoryGrantPoolTest, ReleaseAdmitsWaitersInArrivalOrder) {
  MemoryGrantPool pool(100);
  ASSERT_EQ(pool.Acquire(90, milliseconds(0)), AdmitOutcome::kAdmitted);

  std::atomic<bool> w1_admitted{false};
  std::atomic<bool> w1_release{false};
  std::atomic<bool> w2_admitted{false};
  std::thread w1([&] {
    ASSERT_EQ(pool.Acquire(50, milliseconds(10000)),
              AdmitOutcome::kAdmitted);
    w1_admitted.store(true);
    while (!w1_release.load()) {
      std::this_thread::yield();
    }
    pool.Release(50);
  });
  while (pool.queued_total() < 1) {
    std::this_thread::yield();
  }
  // Waiter 2's 60-page ask cannot coexist with waiter 1's 50, so the
  // handoff order is observable: releasing the 90-page grant admits
  // waiter 1 alone, and only waiter 1's release admits waiter 2.
  std::thread w2([&] {
    ASSERT_EQ(pool.Acquire(60, milliseconds(10000)),
              AdmitOutcome::kAdmitted);
    w2_admitted.store(true);
    pool.Release(60);
  });
  while (pool.queued_total() < 2) {
    std::this_thread::yield();
  }
  pool.Release(90);
  while (!w1_admitted.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(w2_admitted.load());  // still queued behind waiter 1
  w1_release.store(true);
  w1.join();
  w2.join();
  EXPECT_TRUE(w2_admitted.load());
  EXPECT_EQ(pool.available_pages(), 100);
  EXPECT_EQ(pool.queued_total(), 2);
}

TEST(MemoryGrantPoolTest, ShutdownWakesWaiters) {
  MemoryGrantPool pool(10);
  ASSERT_EQ(pool.Acquire(10, milliseconds(0)), AdmitOutcome::kAdmitted);
  std::thread waiter([&] {
    EXPECT_EQ(pool.Acquire(5, milliseconds(60000)), AdmitOutcome::kShutdown);
  });
  while (pool.queued_total() < 1) {
    std::this_thread::yield();
  }
  pool.Shutdown();
  waiter.join();
  EXPECT_EQ(pool.Acquire(1, milliseconds(0)), AdmitOutcome::kShutdown);
}

// ---------------------------------------------------------------------------
// CostThrottle

TEST(CostThrottleTest, DisabledAdmitsInstantly) {
  CostThrottle throttle(0.0, 1.0);
  EXPECT_FALSE(throttle.enabled());
  EXPECT_EQ(throttle.Acquire(1e9, milliseconds(0)), AdmitOutcome::kAdmitted);
}

TEST(CostThrottleTest, DebtDelaysNextAdmission) {
  // 100 seconds-of-work per wall second, bucket of 0.5 s: the first
  // admission charges 5 s of cost into debt (-4.5 s), which refills in
  // ~45 ms — the second admission must wait roughly that long.
  CostThrottle throttle(100.0, 0.5);
  ASSERT_EQ(throttle.Acquire(5.0, milliseconds(0)), AdmitOutcome::kAdmitted);
  EXPECT_LT(throttle.tokens(), 0.0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(throttle.Acquire(0.1, milliseconds(5000)),
            AdmitOutcome::kAdmitted);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, milliseconds(20));
}

TEST(CostThrottleTest, SaturationTimesOut) {
  // Refill is glacial: the debt from the first admission cannot clear
  // within the deadline, so the second one times out.
  CostThrottle throttle(1e-6, 0.001);
  ASSERT_EQ(throttle.Acquire(10.0, milliseconds(0)),
            AdmitOutcome::kAdmitted);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(throttle.Acquire(0.1, milliseconds(100)), AdmitOutcome::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(2000));
}

// ---------------------------------------------------------------------------
// Template cost EWMA (AdmissionController over its template table)

TEST(TemplateCostTest, EwmaAndFallback) {
  AdmissionController admission{AdmissionConfig{}};
  EXPECT_DOUBLE_EQ(admission.EstimateSeconds(7, 3.5), 3.5);  // never executed
  admission.RecordExecution(7, 1.0);
  EXPECT_DOUBLE_EQ(admission.EstimateSeconds(7, 3.5), 1.0);
  admission.RecordExecution(7, 2.0);  // EWMA alpha 0.3: 1.0 + 0.3 * (2.0 - 1.0)
  EXPECT_NEAR(admission.EstimateSeconds(7, 0.0), 1.3, 1e-9);
  EXPECT_EQ(admission.templates().size(), 1u);
}

TEST(TemplateCostTest, SeedFromQueryLog) {
  std::string path = ::testing::TempDir() + "/seed_qlog.jsonl";
  {
    obs::QueryLogWriter writer;
    ASSERT_TRUE(writer.Open(path));
    obs::QueryRecord record;
    record.query = "SELECT * FROM R1 WHERE R1.s < 10";
    record.query_hash = 99;
    record.actual_seconds = 0.25;
    ASSERT_TRUE(writer.Append(record));
    record.actual_seconds = 0.35;
    ASSERT_TRUE(writer.Append(record));
    // A v3 line carries the execution wall the live EWMA folds.
    record.query_hash = 7;
    record.exec_seconds = 0.5;
    ASSERT_TRUE(writer.Append(record));
    writer.Close();
  }
  AdmissionController admission{AdmissionConfig{}};
  EXPECT_EQ(admission.SeedFromLog(path), 3);
  // 0.25, then EWMA toward 0.35: 0.25 + 0.3 * 0.1 = 0.28.
  EXPECT_NEAR(admission.EstimateSeconds(99, 0.0), 0.28, 1e-9);
  EXPECT_NEAR(admission.EstimateSeconds(7, 0.0), 0.5, 1e-9);
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// AdmissionController

TEST(AdmissionControllerTest, TicketReleasesPagesOnDestruction) {
  AdmissionConfig config;
  config.pool_pages = 100;
  config.timeout_ms = 1000;
  AdmissionController controller(config);
  {
    AdmitResult result = controller.Admit(1, 80, 0.0);
    ASSERT_EQ(result.outcome, AdmitOutcome::kAdmitted);
    EXPECT_EQ(controller.pool()->available_pages(), 20);
  }
  EXPECT_EQ(controller.pool()->available_pages(), 100);
}

TEST(AdmissionControllerTest, TooLargeCarriesMessage) {
  AdmissionConfig config;
  config.pool_pages = 64;
  AdmissionController controller(config);
  AdmitResult result = controller.Admit(1, 4096, 0.0);
  EXPECT_EQ(result.outcome, AdmitOutcome::kTooLarge);
  EXPECT_NE(result.message.find("4096"), std::string::npos);
  EXPECT_NE(result.message.find("64"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Protocol framing

TEST(ProtocolTest, StatusLineRoundTrip) {
  QueryResponse response;
  ASSERT_TRUE(
      ParseStatusLine("@ok rows=42 seconds=0.125000 cache=hit", &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.row_count, 42);
  EXPECT_DOUBLE_EQ(response.seconds, 0.125);
  EXPECT_EQ(response.cache, "hit");

  std::string ok_line = FormatOkLine(7, 0.5, "miss");
  ASSERT_TRUE(
      ParseStatusLine(ok_line.substr(0, ok_line.size() - 1), &response));
  EXPECT_EQ(response.row_count, 7);
  EXPECT_EQ(response.cache, "miss");

  ASSERT_TRUE(ParseStatusLine("@err out of pages", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "out of pages");

  EXPECT_FALSE(ParseStatusLine("*some row", &response));
  // Newlines are flattened out of error messages (framing safety).
  EXPECT_EQ(FormatErrLine("a\nb"), "@err a b\n");
}

// ---------------------------------------------------------------------------
// ClonePlan + annotation safety

std::string ChainSql(int32_t n, int64_t literal) {
  return PaperWorkload::ChainSql(n, std::vector<int64_t>(n, literal));
}

void CollectNodes(const PhysNode* node, std::set<const PhysNode*>* out) {
  if (!out->insert(node).second) {
    return;
  }
  for (const PhysNodePtr& child : node->children()) {
    CollectNodes(child.get(), out);
  }
}

void ExpectSameStructure(const PhysNode& a, const PhysNode& b) {
  ASSERT_EQ(a.kind(), b.kind());
  ASSERT_EQ(a.children().size(), b.children().size());
  for (size_t i = 0; i < a.children().size(); ++i) {
    ExpectSameStructure(*a.children()[i], *b.children()[i]);
  }
}

TEST(ClonePlanTest, DeepCopyPreservesStructureAndSharing) {
  auto workload = PaperWorkload::Create(/*seed=*/42, /*populate=*/false);
  ASSERT_TRUE(workload.ok());
  CachedPlanRequest request;
  request.catalog = &(*workload)->catalog();
  request.model = &(*workload)->model();
  request.cache = nullptr;
  Result<CachedPlanResult> planned =
      PlanQueryWithCache(ChainSql(4, 500), request);
  ASSERT_TRUE(planned.ok());

  PhysNodePtr clone = ClonePlan((*workload)->catalog(), planned->root);
  std::set<const PhysNode*> original_nodes;
  std::set<const PhysNode*> clone_nodes;
  CollectNodes(planned->root.get(), &original_nodes);
  CollectNodes(clone.get(), &clone_nodes);

  // Every node is fresh (no pointer appears in both DAGs) ...
  for (const PhysNode* node : clone_nodes) {
    EXPECT_EQ(original_nodes.count(node), 0u);
  }
  // ... sharing is preserved (same number of distinct nodes) ...
  EXPECT_EQ(original_nodes.size(), clone_nodes.size());
  // ... and the shape is identical.
  ExpectSameStructure(*planned->root, *clone);

  // The clone takes annotations (the whole point of making it).
  ParamEnv env(Interval::Point(64.0));
  AnnotatePlan(*clone, (*workload)->model(), env, EstimationMode::kInterval);
  EXPECT_GT(clone->est_cost().hi(), 0.0);
}

// The TSan regression for the plan cache's multi-session caveat:
// concurrent sessions share one cached dynamic plan, each resolving it
// and annotating a *private clone* with a different memory grant.
// Annotating the shared DAG instead would be a data race (SetEstimates
// is a mutable-const write) — run under -DDQEP_SANITIZE=thread to prove
// the private-copy protocol is clean.
TEST(ClonePlanTest, ConcurrentSessionsAnnotatePrivateClones) {
  auto workload = PaperWorkload::Create(/*seed=*/42, /*populate=*/false);
  ASSERT_TRUE(workload.ok());
  DynamicPlanCache cache(16);
  const std::string sql = ChainSql(3, 400);

  constexpr int kThreads = 4;
  constexpr int kIterations = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        CachedPlanRequest request;
        request.catalog = &(*workload)->catalog();
        request.model = &(*workload)->model();
        request.cache = &cache;
        Result<CachedPlanResult> planned = PlanQueryWithCache(sql, request);
        if (!planned.ok()) {
          failures.fetch_add(1);
          return;
        }
        Result<StartupResult> startup = ResolveDynamicPlan(
            planned->root, (*workload)->model(), planned->bound);
        if (!startup.ok()) {
          failures.fetch_add(1);
          return;
        }
        // Each session's "EXPLAIN ANALYZE": annotate a private clone
        // under a session-specific environment.
        PhysNodePtr clone =
            ClonePlan((*workload)->catalog(), startup->resolved);
        ParamEnv env(Interval::Point(16.0 + 16.0 * t));
        AnnotatePlan(*clone, (*workload)->model(), env,
                     EstimationMode::kInterval);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(cache.stats().hits, 1);
}

// ---------------------------------------------------------------------------
// Query log under concurrency

TEST(QueryLogConcurrencyTest, ParallelAppendsProduceWholeLines) {
  std::string path = ::testing::TempDir() + "/concurrent_qlog.jsonl";
  ::unlink(path.c_str());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    obs::QueryLogWriter writer;
    ASSERT_TRUE(writer.Open(path));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&writer, t] {
        for (int i = 0; i < kPerThread; ++i) {
          obs::QueryRecord record;
          record.query = "SELECT * FROM R1 WHERE R1.s < " +
                         std::to_string(t * 1000 + i);
          record.query_hash =
              static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i);
          record.actual_seconds = 0.001 * (i + 1);
          record.result_rows = i;
          ASSERT_TRUE(writer.Append(record));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    writer.Close();
  }
  int64_t skipped = 0;
  Result<std::vector<obs::QueryRecord>> records =
      obs::LoadQueryLog(path, &skipped);
  ASSERT_TRUE(records.ok());
  // Every line parses (none torn or interleaved) and all records landed.
  EXPECT_EQ(skipped, 0);
  EXPECT_EQ(records->size(),
            static_cast<size_t>(kThreads) * kPerThread);
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Socket-level integration

/// No memory grant is held, no spill heap is live and no buffer-pool
/// frame is pinned (registry gauges).
void ExpectNothingHeld() {
  const auto snapshot = obs::MetricsRegistry::Instance().Snapshot();
  for (const char* gauge : {"server.pool.pages_in_use",
                            "storage.tempheap.live",
                            "storage.bufferpool.pinned"}) {
    auto it = snapshot.find(gauge);
    EXPECT_EQ(it == snapshot.end() ? 0 : it->second.value, 0) << gauge;
  }
}

TEST(ServerIntegrationTest, BasicQueryAndSharedCacheAcrossSessions) {
  ServerOptions options;
  options.sessions = 2;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());

  auto conn1 = fixture.Connect();
  ASSERT_NE(conn1, nullptr);
  QueryResponse ping = RoundTrip(conn1.get(), "\\ping");
  ASSERT_TRUE(ping.ok);
  ASSERT_EQ(ping.rows.size(), 1u);
  EXPECT_EQ(ping.rows[0], "pong");

  QueryResponse first =
      RoundTrip(conn1.get(), "SELECT * FROM R1 WHERE R1.s < 300");
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.cache, "miss");
  EXPECT_EQ(static_cast<size_t>(first.row_count), first.rows.size());
  EXPECT_GT(first.row_count, 0);

  // A *different* connection, *different* literal, same template: the
  // shared cache serves the compiled plan.
  auto conn2 = fixture.Connect();
  ASSERT_NE(conn2, nullptr);
  QueryResponse second =
      RoundTrip(conn2.get(), "SELECT * FROM R1 WHERE R1.s < 700");
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.cache, "hit");
  EXPECT_NE(second.row_count, first.row_count);  // literals really differ

  fixture.StopAndJoin();
  EXPECT_EQ(fixture.exit_code(), 0);
}

TEST(ServerIntegrationTest, ConcurrentSessionsMatchSerialResults) {
  // Serial ground truth: the embedded engine, no cache, one thread.
  auto workload = PaperWorkload::Create(/*seed=*/42, /*populate=*/true);
  ASSERT_TRUE(workload.ok());
  const std::vector<int32_t> sizes = {1, 2, 4, 6, 10};  // the paper's Q1-Q5
  std::vector<std::string> sqls;
  std::vector<std::vector<std::string>> expected;
  for (int32_t n : sizes) {
    sqls.push_back(ChainSql(n, 600));
    CachedPlanRequest request;
    request.catalog = &(*workload)->catalog();
    request.model = &(*workload)->model();
    Result<PreparedQuery> prepared =
        PrepareQuery(sqls.back(), request, (*workload)->db());
    ASSERT_TRUE(prepared.ok());
    // Execute under the same bounded 64-page context the server gives its
    // sessions: spill decisions (and thus row order) depend on the budget.
    std::unique_ptr<ExecContext> ctx =
        MakeExecContext(prepared->planned.bound, (*workload)->config());
    Result<QueryRun> run = ExecuteQuery(std::move(*prepared), *ctx, nullptr);
    ASSERT_TRUE(run.ok());
    std::vector<std::string> rows;
    for (const Tuple& row : run->rows) {
      rows.push_back(row.ToString());
    }
    expected.push_back(std::move(rows));
  }

  ServerOptions options;
  options.sessions = 4;
  options.pool_pages = 1024;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());

  // 4 concurrent client sessions, each running every query at session
  // thread counts 1 and 4 — results must be byte-identical to serial.
  constexpr int kClients = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = fixture.Connect();
      if (conn == nullptr) {
        mismatches.fetch_add(1);
        return;
      }
      for (int32_t threads : {1, 4}) {
        QueryResponse set_threads = RoundTrip(
            conn.get(), "\\threads " + std::to_string(threads));
        if (!set_threads.ok) {
          mismatches.fetch_add(1);
          return;
        }
        for (size_t q = 0; q < sqls.size(); ++q) {
          QueryResponse response = RoundTrip(conn.get(), sqls[q]);
          if (!response.ok || response.rows != expected[q]) {
            ADD_FAILURE() << "client " << c << " threads " << threads
                          << " query " << q << " mismatch (ok="
                          << response.ok << " error=" << response.error
                          << " rows=" << response.rows.size() << " vs "
                          << expected[q].size() << ")";
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_EQ(mismatches.load(), 0);

  fixture.StopAndJoin();
  EXPECT_EQ(fixture.exit_code(), 0);
}

TEST(ServerIntegrationTest, GrantTooLargeIsPoliteProtocolError) {
  ServerOptions options;
  options.sessions = 1;
  options.pool_pages = 64;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());

  auto conn = fixture.Connect();
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(RoundTrip(conn.get(), "\\mem 4096").ok);
  QueryResponse response =
      RoundTrip(conn.get(), "SELECT * FROM R1 WHERE R1.s < 300");
  ASSERT_FALSE(response.ok);
  EXPECT_NE(response.error.find("admission"), std::string::npos);
  EXPECT_NE(response.error.find("exceeds"), std::string::npos);
  ExpectNothingHeld();

  // The connection survives the rejection: a fitting grant works.
  ASSERT_TRUE(RoundTrip(conn.get(), "\\mem 32").ok);
  QueryResponse retry =
      RoundTrip(conn.get(), "SELECT * FROM R1 WHERE R1.s < 300");
  EXPECT_TRUE(retry.ok) << retry.error;
  ExpectNothingHeld();
}

TEST(ServerIntegrationTest, ParseAndBindingErrorsLeakNothing) {
  ServerOptions options;
  options.sessions = 1;
  options.pool_pages = 64;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());

  auto conn = fixture.Connect();
  ASSERT_NE(conn, nullptr);
  for (const char* reopt : {"\\reopt off", "\\reopt on"}) {
    SCOPED_TRACE(reopt);
    ASSERT_TRUE(RoundTrip(conn.get(), reopt).ok);
    QueryResponse parse_error = RoundTrip(conn.get(), "SELEC * FROM R1");
    EXPECT_FALSE(parse_error.ok);
    ExpectNothingHeld();
    QueryResponse unbound =
        RoundTrip(conn.get(), "SELECT * FROM R1 WHERE R1.s < :nope");
    EXPECT_FALSE(unbound.ok);
    EXPECT_NE(unbound.error.find("unbound"), std::string::npos)
        << unbound.error;
    ExpectNothingHeld();
    QueryResponse good =
        RoundTrip(conn.get(), "SELECT * FROM R1 WHERE R1.s < 300");
    EXPECT_TRUE(good.ok) << good.error;
    ExpectNothingHeld();
  }
}

// The memory grant ends with execution, not with the reply: a client
// that does not read a large reply must not keep the pages its session
// holds while blocked writing, or every queued query stalls behind it.
TEST(ServerIntegrationTest, GrantIsReleasedBeforeTheReplyIsRead) {
  ServerOptions options;
  options.sessions = 2;
  options.pool_pages = 64;  // exactly one session grant
  options.admission_timeout_ms = 1000;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());

  auto slow = fixture.Connect();
  auto fast = fixture.Connect();
  ASSERT_NE(slow, nullptr);
  ASSERT_NE(fast, nullptr);
  // An unfiltered 3-way join: about a megabyte of rows, far more than
  // both socket buffers hold, so the session blocks writing the reply.
  ASSERT_TRUE(slow->WriteAll(
      "SELECT * FROM R1, R2, R3 WHERE R1.b = R2.a AND R2.b = R3.a\n"));
  // Wait until the slow query is past execution (its `\top` phase is
  // "log", where it stays while the write blocks).
  bool executed = false;
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(20000);
  while (!executed && std::chrono::steady_clock::now() < deadline) {
    QueryResponse top = RoundTrip(fast.get(), "\\top");
    ASSERT_TRUE(top.ok) << top.error;
    for (const std::string& row : top.rows) {
      executed = executed || (row.find(" log ") != std::string::npos &&
                              row.find("R3") != std::string::npos);
    }
    if (!executed) {
      std::this_thread::sleep_for(milliseconds(10));
    }
  }
  ASSERT_TRUE(executed);

  // Nothing has been read from the slow connection yet.
  QueryResponse other =
      RoundTrip(fast.get(), "SELECT * FROM R1 WHERE R1.s < 300");
  EXPECT_TRUE(other.ok) << other.error;

  QueryResponse big;
  ASSERT_TRUE(slow->ReadResponse(&big));
  ASSERT_TRUE(big.ok) << big.error;
  EXPECT_GT(big.row_count, 0);
  ExpectNothingHeld();
}

TEST(ServerIntegrationTest, ThrottleSaturationTimesOutNotHangs) {
  ServerOptions options;
  options.sessions = 1;
  options.admission_timeout_ms = 200;
  // Glacial refill: the first query's cost becomes unpayable debt.
  options.throttle_rate = 1e-9;
  options.throttle_burst = 0.001;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());

  auto conn = fixture.Connect();
  ASSERT_NE(conn, nullptr);
  QueryResponse first =
      RoundTrip(conn.get(), "SELECT * FROM R1 WHERE R1.s < 300");
  ASSERT_TRUE(first.ok) << first.error;  // burst admits the first query
  const auto start = std::chrono::steady_clock::now();
  QueryResponse second =
      RoundTrip(conn.get(), "SELECT * FROM R1 WHERE R1.s < 301");
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(second.ok);
  EXPECT_NE(second.error.find("admission"), std::string::npos);
  // A rejection, not a hang: bounded by the timeout plus slack.
  EXPECT_LT(waited, milliseconds(5000));
  EXPECT_GE(waited, milliseconds(150));
}

/// Every data line of `response`, newline-joined.
std::string JoinRows(const std::vector<std::string>& rows) {
  std::string text;
  for (const std::string& row : rows) {
    text += row + "\n";
  }
  return text;
}

/// The value of registry counter `name` (0 when absent).
int64_t CounterValue(const char* name) {
  const auto snapshot = obs::MetricsRegistry::Instance().Snapshot();
  auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second.value;
}

// The shell's commands live in the session, so they answer over any
// connection exactly as they do in the embedded shell.
TEST(ServerIntegrationTest, ShellCommandsAnswerOverTheWire) {
  ServerOptions options;
  options.sessions = 1;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());
  auto conn = fixture.Connect();
  ASSERT_NE(conn, nullptr);

  QueryResponse tables = RoundTrip(conn.get(), "\\tables");
  ASSERT_TRUE(tables.ok) << tables.error;
  ASSERT_EQ(tables.rows.size(), 10u);
  EXPECT_EQ(tables.rows[0].rfind("R1(", 0), 0u) << tables.rows[0];
  EXPECT_NE(tables.rows[0].find(" s* "), std::string::npos);

  // \explain: the plans print, then the unbound variable fails.
  const std::string sql = "SELECT * FROM R1 WHERE R1.s < :v";
  QueryResponse unbound = RoundTrip(conn.get(), "\\explain " + sql);
  EXPECT_FALSE(unbound.ok);
  EXPECT_NE(unbound.error.find(":v is unbound"), std::string::npos);
  EXPECT_NE(JoinRows(unbound.rows).find("--- dynamic plan"),
            std::string::npos);
  ASSERT_TRUE(RoundTrip(conn.get(), "\\set v 300").ok);
  QueryResponse explain = RoundTrip(conn.get(), "\\explain " + sql);
  ASSERT_TRUE(explain.ok) << explain.error;
  for (const char* header :
       {"--- static plan", "--- dynamic plan", "--- chosen at start-up"}) {
    EXPECT_NE(JoinRows(explain.rows).find(header), std::string::npos)
        << header;
  }

  // \analyze SELECT: the EXPLAIN ANALYZE report, then exactly the rows a
  // plain run returns.
  QueryResponse plain = RoundTrip(conn.get(), sql);
  ASSERT_TRUE(plain.ok) << plain.error;
  ASSERT_GT(plain.row_count, 0);
  QueryResponse analyzed = RoundTrip(conn.get(), "\\analyze " + sql);
  ASSERT_TRUE(analyzed.ok) << analyzed.error;
  EXPECT_EQ(analyzed.row_count, plain.row_count);
  ASSERT_GT(analyzed.rows.size(), plain.rows.size());
  const size_t report_lines = analyzed.rows.size() - plain.rows.size();
  EXPECT_NE(analyzed.rows[0].find("est_cost[lo,hi]"), std::string::npos);
  EXPECT_EQ(std::vector<std::string>(analyzed.rows.begin() + report_lines,
                                     analyzed.rows.end()),
            plain.rows);

  // \analyze json: the report lines are one JSON document.
  QueryResponse json = RoundTrip(conn.get(), "\\analyze json " + sql);
  ASSERT_TRUE(json.ok) << json.error;
  ASSERT_GT(json.rows.size(), plain.rows.size());
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(
      JoinRows(std::vector<std::string>(
          json.rows.begin(), json.rows.end() - plain.row_count)),
      &doc, &error))
      << error;
  EXPECT_FALSE(At(doc, "operators").items.empty());
  EXPECT_EQ(At(doc, "plan_cache").string_value, "hit");
  EXPECT_FALSE(RoundTrip(conn.get(), "\\analyze json").ok);

  // \profile on: per-operator counters and the memory line of the
  // session's enforced 64-page grant precede the rows.
  EXPECT_FALSE(RoundTrip(conn.get(), "\\profile maybe").ok);
  ASSERT_TRUE(RoundTrip(conn.get(), "\\profile on").ok);
  QueryResponse profiled = RoundTrip(conn.get(), sql);
  ASSERT_TRUE(profiled.ok) << profiled.error;
  ASSERT_GT(profiled.rows.size(), plain.rows.size());
  const std::vector<std::string> profile(
      profiled.rows.begin(), profiled.rows.end() - plain.row_count);
  EXPECT_NE(profile.front().find("next_calls"), std::string::npos);
  EXPECT_EQ(profile.back().rfind("memory: peak ", 0), 0u);
  EXPECT_NE(profile.back().find("(64 pages)"), std::string::npos);
  ASSERT_TRUE(RoundTrip(conn.get(), "\\profile off").ok);
  EXPECT_EQ(RoundTrip(conn.get(), sql).rows, plain.rows);

  // \metrics reset zeroes the process-wide counters.
  EXPECT_FALSE(RoundTrip(conn.get(), "\\metrics bogus").ok);
  ASSERT_GT(CounterValue("server.session.queries"), 0);
  ASSERT_TRUE(RoundTrip(conn.get(), "\\metrics reset").ok);
  EXPECT_EQ(CounterValue("server.session.queries"), 0);
  ASSERT_TRUE(RoundTrip(conn.get(), sql).ok);
  EXPECT_EQ(CounterValue("server.session.queries"), 1);

  // The stricter argument checks hold for the moved commands too.
  EXPECT_FALSE(RoundTrip(conn.get(), "\\reopt on 0.5").ok);
  EXPECT_FALSE(RoundTrip(conn.get(), "\\cache bogus").ok);
}

// The embedded shell's transport: a server without a listener serves a
// session attached over a socketpair, and destroying the server drains
// it.
TEST(ServerIntegrationTest, AttachedSocketpairIsServedWithoutAListener) {
  ServerOptions options;
  options.sessions = 1;
  auto server = std::make_unique<DqepServer>(options);
  std::string error;
  ASSERT_TRUE(server->Start(&error)) << error;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  server->Attach(fds[0]);
  LineChannel channel(fds[1]);
  QueryResponse response =
      RoundTrip(&channel, "SELECT * FROM R1 WHERE R1.s < 300");
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_GT(response.row_count, 0);
  server.reset();
  QueryResponse after;
  EXPECT_FALSE(channel.ReadResponse(&after));
}

// The query log's buffer-pool fields are filled by the session: a cold
// file scan touches pages, so hits + misses cannot be zero.
TEST(ServerIntegrationTest, QueryLogRecordsBufferPoolTraffic) {
  const std::string log_path = ::testing::TempDir() + "/pool_qlog.jsonl";
  ::unlink(log_path.c_str());
  ServerOptions options;
  options.sessions = 1;
  options.query_log_path = log_path;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());
  auto conn = fixture.Connect();
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(RoundTrip(conn.get(), "SELECT * FROM R1 WHERE R1.s < 300").ok);
  conn.reset();
  fixture.StopAndJoin();
  int64_t skipped = 0;
  Result<std::vector<obs::QueryRecord>> records =
      obs::LoadQueryLog(log_path, &skipped);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_GT((*records)[0].pool_hits + (*records)[0].pool_misses, 0);
  ::unlink(log_path.c_str());
}

// A bare \analyze swaps the whole engine to histogram estimates while
// two sessions keep querying: every reply keeps its rows, and once the
// swap is done no plan of the base model's epoch is left to hit.
TEST(ServerIntegrationTest, HistogramSwapRacesQueriesWithZeroStaleHits) {
  ServerOptions options;
  options.sessions = 3;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());
  auto conn = fixture.Connect();
  ASSERT_NE(conn, nullptr);
  std::vector<std::string> sqls;
  for (int64_t literal : {100, 400, 700}) {
    sqls.push_back("SELECT * FROM R1 WHERE R1.s < " + std::to_string(literal));
    sqls.push_back("SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R2.s < 500 "
                   "AND R1.s < " + std::to_string(literal));
  }
  // Plan choice may change under the histograms, and with it row order.
  auto sorted_rows = [](QueryResponse response) {
    std::sort(response.rows.begin(), response.rows.end());
    return response.rows;
  };
  std::vector<std::vector<std::string>> expected;
  for (const std::string& sql : sqls) {
    QueryResponse response = RoundTrip(conn.get(), sql);
    ASSERT_TRUE(response.ok) << response.error;
    expected.push_back(sorted_rows(std::move(response)));
  }
  const uint64_t base_epoch =
      fixture.server().engine()->model.load()->stats_epoch();

  std::atomic<bool> swapped{false};
  std::atomic<int> replies{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> racers;
  for (int r = 0; r < 2; ++r) {
    racers.emplace_back([&] {
      auto racer = fixture.Connect();
      if (racer == nullptr) {
        mismatches.fetch_add(1);
        return;
      }
      // Keep racing for two full rounds past the swap.
      for (int after_swap = 0; after_swap < 2;) {
        const bool swap_seen = swapped.load();
        for (size_t q = 0; q < sqls.size(); ++q) {
          QueryResponse response = RoundTrip(racer.get(), sqls[q]);
          if (!response.ok || sorted_rows(response) != expected[q]) {
            ADD_FAILURE() << sqls[q] << ": " << response.error;
            mismatches.fetch_add(1);
          }
          replies.fetch_add(1);
        }
        after_swap += swap_seen ? 1 : 0;
      }
    });
  }
  while (replies.load() < 8) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  QueryResponse analyze = RoundTrip(conn.get(), "\\analyze");
  ASSERT_TRUE(analyze.ok) << analyze.error;
  swapped.store(true);
  for (std::thread& racer : racers) {
    racer.join();
  }
  EXPECT_EQ(mismatches.load(), 0);

  const uint64_t stats_epoch =
      fixture.server().engine()->model.load()->stats_epoch();
  ASSERT_NE(stats_epoch, base_epoch);
  // A second \analyze keeps the one histogram model.
  ASSERT_TRUE(RoundTrip(conn.get(), "\\analyze").ok);
  EXPECT_EQ(fixture.server().engine()->model.load()->stats_epoch(),
            stats_epoch);
  DynamicPlanCache* cache = fixture.server().plan_cache();
  EXPECT_GE(cache->stats().invalidations, 2);
  for (const std::string& sql : sqls) {
    Result<NormalizedQuery> normalized = NormalizeQuery(sql);
    ASSERT_TRUE(normalized.ok());
    EXPECT_EQ(cache->Lookup(normalized->fingerprint, 64.0, base_epoch),
              nullptr)
        << sql;
    EXPECT_NE(cache->Lookup(normalized->fingerprint, 64.0, stats_epoch),
              nullptr)
        << sql;
  }
}

TEST(ServerIntegrationTest, SigtermDrainsMidStreamAndFlushesLog) {
  const std::string log_path = ::testing::TempDir() + "/shutdown_qlog.jsonl";
  ::unlink(log_path.c_str());
  ServerOptions options;
  options.sessions = 2;
  options.pool_pages = 1024;
  options.query_log_path = log_path;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());
  DqepServer::InstallSignalHandlers(&fixture.server());

  // A client hammering queries while the signal lands mid-stream.
  std::atomic<bool> saw_shutdown{false};
  std::atomic<int> completed{0};
  std::thread client([&] {
    auto conn = fixture.Connect();
    if (conn == nullptr) {
      return;
    }
    for (int i = 0; i < 10000; ++i) {
      if (!conn->WriteAll("SELECT * FROM R1, R2 WHERE R1.b = R2.a AND "
                          "R1.s < 900 AND R2.s < 900\n")) {
        break;  // connection shut down by the drain
      }
      QueryResponse response;
      if (!conn->ReadResponse(&response)) {
        break;
      }
      if (response.ok) {
        completed.fetch_add(1);
      } else {
        // Cancellation or drain refusal — a polite error either way.
        saw_shutdown.store(true);
        break;
      }
    }
  });
  // Let some queries complete, then deliver a real SIGTERM.
  while (completed.load() < 3) {
    std::this_thread::yield();
  }
  ::raise(SIGTERM);
  client.join();
  fixture.StopAndJoin();
  // The cancelled query returned its grant and its spill heaps.
  ExpectNothingHeld();

  // Clean exit code and a log in which every line is whole.
  EXPECT_EQ(fixture.exit_code(), 0);
  int64_t skipped = 0;
  Result<std::vector<obs::QueryRecord>> records =
      obs::LoadQueryLog(log_path, &skipped);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(skipped, 0);
  EXPECT_GE(static_cast<int>(records->size()), completed.load() - 1);
  ::unlink(log_path.c_str());
}

// ---------------------------------------------------------------------------
// Telemetry: Prometheus renderer, exporter endpoint, flight recorder,
// and the live-introspection commands

/// Recursively deletes a directory tree (spool cleanup).
void RemoveTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") {
        continue;
      }
      const std::string full = dir + "/" + name;
      if (::unlink(full.c_str()) != 0) {
        RemoveTree(full);
      }
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

std::string ReadWholeFile(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return out;
  }
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out.append(chunk, n);
  }
  std::fclose(f);
  return out;
}

struct HttpResponse {
  int status = 0;
  std::string body;
};

/// One raw HTTP/1.0 exchange against the exporter; reads to EOF (the
/// exporter answers Connection: close).
HttpResponse HttpGet(int port, const std::string& request_line) {
  HttpResponse out;
  std::string error;
  const int fd = ConnectTcp(port, &error);
  EXPECT_GE(fd, 0) << error;
  if (fd < 0) {
    return out;
  }
  const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
  size_t written = 0;
  while (written < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + written, request.size() - written);
    if (n <= 0) {
      break;
    }
    written += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    raw.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t space = raw.find(' ');
  if (space != std::string::npos) {
    out.status = std::atoi(raw.c_str() + space + 1);
  }
  const size_t sep = raw.find("\r\n\r\n");
  if (sep != std::string::npos) {
    out.body = raw.substr(sep + 4);
  }
  return out;
}

TEST(PrometheusRenderTest, NamesSuffixesAndCumulativeBuckets) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetForTest();
  obs::CellHandle hits = registry.NewCounter("test.prom.hits");
  hits.Add(7);
  obs::CellHandle depth = registry.NewGauge("test.prom.depth");
  depth.Add(3);
  obs::HistogramHandle lat = registry.NewHistogram("test.prom.lat_us");
  lat.Record(1);
  lat.Record(1000);
  lat.Record(3000000);
  const std::string text = obs::RenderPrometheusText(registry.Snapshot());

  EXPECT_EQ(obs::PrometheusName("server.query.latency_us"),
            "dqep_server_query_latency_us");
  EXPECT_NE(text.find("# TYPE dqep_test_prom_hits_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dqep_test_prom_hits_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dqep_test_prom_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("dqep_test_prom_depth 3\n"), std::string::npos);
  // Microsecond histograms convert to Prometheus base seconds; the raw
  // _us name must not leak out.
  EXPECT_NE(text.find("# TYPE dqep_test_prom_lat_seconds histogram\n"),
            std::string::npos);
  EXPECT_EQ(text.find("dqep_test_prom_lat_us"), std::string::npos);
  EXPECT_NE(text.find("dqep_test_prom_lat_seconds_count 3\n"),
            std::string::npos);

  // Bucket lines are cumulative, monotone, and end at the +Inf count.
  int64_t last = 0;
  size_t buckets_seen = 0;
  size_t pos = 0;
  const std::string prefix = "dqep_test_prom_lat_seconds_bucket{le=\"";
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    const size_t space = text.find(' ', pos);
    ASSERT_NE(space, std::string::npos);
    const int64_t value = std::atoll(text.c_str() + space + 1);
    EXPECT_GE(value, last);
    last = value;
    ++buckets_seen;
    pos = space;
  }
  EXPECT_GE(buckets_seen, 4u);  // three value buckets plus +Inf
  EXPECT_EQ(last, 3);
}

TEST(MetricsExporterTest, ServesMetricsJsonSlowAndHttpErrors) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.ResetForTest();
  obs::CellHandle counter = registry.NewCounter("test.exporter.pings");
  counter.Add(5);

  obs::MetricsExporterOptions options;
  options.port = 0;  // ephemeral
  options.extra_families = [] {
    return std::string("# TYPE dqep_test_extra gauge\ndqep_test_extra 1\n");
  };
  options.slow_json = [] { return std::string("[]"); };
  obs::MetricsExporter exporter;
  std::string error;
  ASSERT_TRUE(exporter.Start(options, &error)) << error;
  ASSERT_GT(exporter.port(), 0);

  HttpResponse metrics = HttpGet(exporter.port(), "GET /metrics HTTP/1.0");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("dqep_test_exporter_pings_total 5"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("dqep_test_extra 1"), std::string::npos);

  HttpResponse json = HttpGet(exporter.port(), "GET /metrics.json HTTP/1.0");
  EXPECT_EQ(json.status, 200);
  JsonValue parsed;
  EXPECT_TRUE(obs::ParseJson(json.body, &parsed));

  HttpResponse slow = HttpGet(exporter.port(), "GET /slow HTTP/1.0");
  EXPECT_EQ(slow.status, 200);
  EXPECT_EQ(slow.body, "[]");

  EXPECT_EQ(HttpGet(exporter.port(), "GET /nope HTTP/1.0").status, 404);
  EXPECT_EQ(HttpGet(exporter.port(), "POST /metrics HTTP/1.0").status, 405);

  // The exporter counts its own scrapes; a later scrape exports them.
  HttpResponse again = HttpGet(exporter.port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(again.body.find("dqep_obs_exporter_scrapes_total"),
            std::string::npos);
  exporter.Stop();
  EXPECT_EQ(exporter.port(), 0);
}

/// A flight-recorder deposit: one record of `fingerprint` taking
/// `seconds` end to end.
std::shared_ptr<const obs::QueryRecord> Completed(uint64_t fingerprint,
                                                  double seconds,
                                                  std::string query = "") {
  auto record = std::make_shared<obs::QueryRecord>();
  record->query_hash = fingerprint;
  record->total_seconds = seconds;
  record->query = std::move(query);
  return record;
}

/// Folds and deposits one record, the recorder's share of
/// SharedEngine::RecordQuery.
obs::FlightEntry Record(
    obs::FlightRecorder* recorder, obs::TemplateTable* templates,
    std::shared_ptr<const obs::QueryRecord> record,
    const std::function<std::string()>& render_analyze = nullptr) {
  std::string slow_reason =
      templates->Touch(record->query_hash, [&](obs::TemplateFacts& facts) {
        return recorder->Fold(&facts.latency, *record);
      });
  return recorder->Deposit(std::move(record), std::move(slow_reason),
                           render_analyze);
}

TEST(FlightRecorderTest, RingEvictsOldestAndThresholdRuleFlags) {
  obs::FlightRecorderOptions options;
  options.capacity = 4;
  options.slow_query_ms = 50.0;
  obs::TemplateTable templates;
  obs::FlightRecorder recorder(options, &templates);
  for (int i = 0; i < 10; ++i) {
    // The last query breaches 50 ms.
    obs::FlightEntry finished = Record(&recorder, &templates, Completed(
        0xabc, i == 9 ? 0.100 : 0.001, "SELECT " + std::to_string(i)));
    ASSERT_NE(finished.record, nullptr);
    EXPECT_EQ(finished.sequence, i + 1);
    if (i == 9) {
      EXPECT_TRUE(finished.slow());
      EXPECT_EQ(finished.slow_reason, "threshold");
      EXPECT_TRUE(finished.bundle_path.empty());  // no spool configured
    } else {
      EXPECT_FALSE(finished.slow());
    }
  }
  auto recent = recorder.Recent(100);
  ASSERT_EQ(recent.size(), 4u);  // capped at the ring capacity
  EXPECT_EQ(recent.front().sequence, 10);  // newest first
  EXPECT_EQ(recent.back().sequence, 7);
  obs::TemplateStatsView stats = recorder.StatsFor(0xabc);
  EXPECT_EQ(stats.count, 10);
  EXPECT_EQ(stats.slow_count, 1);
  EXPECT_NE(recorder.RenderRecentText(2).find("SLOW:threshold"),
            std::string::npos);
}

TEST(FlightRecorderTest, TemplateP99RuleNeedsHistory) {
  obs::FlightRecorderOptions options;
  options.capacity = 8;
  options.min_template_samples = 32;
  obs::TemplateTable templates;
  obs::FlightRecorder recorder(options, &templates);

  // The same 1-second outlier: not slow while the template has no
  // history, slow once 32+ samples establish a much faster p99.
  EXPECT_FALSE(Record(&recorder, &templates, Completed(1, 1.0)).slow());
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(Record(&recorder, &templates, Completed(1, 0.001)).slow());
  }
  obs::FlightEntry flagged = Record(&recorder, &templates, Completed(1, 1.0));
  EXPECT_TRUE(flagged.slow());
  EXPECT_EQ(flagged.slow_reason, "template-p99");

  // A different template with no history never trips the p99 rule.
  EXPECT_FALSE(Record(&recorder, &templates, Completed(2, 1.0)).slow());
}

TEST(FlightRecorderTest, SlowBundleIsValidTraceAndAnalyzeJson) {
  char tmpl[] = "/tmp/dqepspoolXXXXXX";
  const std::string dir = ::mkdtemp(tmpl);
  obs::FlightRecorderOptions options;
  options.capacity = 4;
  options.slow_query_ms = 1.0;
  options.spool_dir = dir + "/nested";  // the recorder mkdir -p's it
  obs::TemplateTable templates;
  obs::FlightRecorder recorder(options, &templates);

  obs::QueryRecord record;
  record.session_id = 3;
  record.query_hash = 0xdeadbeef;
  record.query = "SELECT * FROM R1 WHERE R1.s < 10";
  record.query_template = "SELECT * FROM R1 WHERE R1.s < :p0";
  record.plan_cache = "hit";
  record.total_seconds = 0.5;
  record.result_rows = 42;
  record.bindings.emplace_back("v", 300);
  obs::QueryOperator parent;
  parent.op = "sort";
  parent.depth = 0;
  parent.actual_seconds = 0.4;
  parent.actual_rows = 42;
  parent.have_actual = true;
  obs::QueryOperator child;
  child.op = "index-scan(R1)";
  child.depth = 1;
  child.actual_seconds = 0.3;
  child.actual_rows = 42;
  child.have_actual = true;
  record.operators = {parent, child};
  auto finished = Record(&recorder, &templates, 
      std::make_shared<obs::QueryRecord>(std::move(record)),
      [] { return std::string("{\"rows\": []}"); });
  ASSERT_TRUE(finished.slow());
  ASSERT_FALSE(finished.bundle_path.empty());

  const std::string text = ReadWholeFile(finished.bundle_path);
  ASSERT_FALSE(text.empty());
  JsonValue bundle;
  ASSERT_TRUE(obs::ParseJson(text, &bundle));
  EXPECT_EQ(At(At(bundle, "meta"), "query").string_value,
            "SELECT * FROM R1 WHERE R1.s < 10");
  EXPECT_EQ(At(At(bundle, "meta"), "slow_reason").string_value, "threshold");
  EXPECT_EQ(At(At(At(bundle, "meta"), "bindings"), "v").number, 300);
  EXPECT_TRUE(At(bundle, "analyze").is_object());
  const JsonValue& events = At(At(bundle, "trace"), "traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.items.size(), 2u);
  EXPECT_EQ(At(events.items[0], "name").string_value, "sort");
  // The child span nests inside its parent's budget.
  EXPECT_LE(At(events.items[1], "ts").number +
                At(events.items[1], "dur").number,
            At(events.items[0], "ts").number +
                At(events.items[0], "dur").number);
  RemoveTree(dir);
}

/// `a` and `b` agree within the query log's 9 significant digits.
void ExpectLogNear(double a, double b) {
  EXPECT_NEAR(a, b, 1e-8 * std::max(1.0, std::fabs(b)));
}

TEST(ServerIntegrationTest, QueryLogAndFlightRecordShareOneAnalyzeWalk) {
  // With the query log and the flight recorder on, a served query feeds
  // both from one analyze walk, and the log line, the ring entry and the
  // spooled bundle's meta all carry the same facts.
  const std::string log_path = ::testing::TempDir() + "/one_walk_qlog.jsonl";
  ::unlink(log_path.c_str());
  char spool_tmpl[] = "/tmp/dqepspoolXXXXXX";
  const std::string spool = ::mkdtemp(spool_tmpl);
  ServerOptions options;
  options.sessions = 1;
  options.query_log_path = log_path;
  options.flight_recorder_capacity = 8;
  options.slow_query_ms = 0.000001;  // every query spools a bundle
  options.slow_spool_dir = spool;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());
  auto conn = fixture.Connect();
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(RoundTrip(conn.get(), "\\set v 400").ok);
  constexpr int kQueries = 3;
  const int64_t walks_before = obs::AnalyzeWalkCount();
  for (int i = 0; i < kQueries; ++i) {
    // The reply is written after the log and flight records.
    QueryResponse response = RoundTrip(
        conn.get(), "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < :v "
                    "AND R2.s < " + std::to_string(300 + 100 * i));
    ASSERT_TRUE(response.ok) << response.error;
  }
  EXPECT_EQ(obs::AnalyzeWalkCount() - walks_before, kQueries);
  conn.reset();
  fixture.StopAndJoin();
  int64_t skipped = 0;
  Result<std::vector<obs::QueryRecord>> records =
      obs::LoadQueryLog(log_path, &skipped);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(static_cast<int>(records->size()), kQueries);
  std::vector<obs::FlightEntry> ring =
      fixture.server().flight_recorder()->Recent(8);
  ASSERT_EQ(static_cast<int>(ring.size()), kQueries);
  for (int i = 0; i < kQueries; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const obs::QueryRecord& logged = (*records)[static_cast<size_t>(i)];
    const obs::FlightEntry& entry = ring[static_cast<size_t>(kQueries - 1 - i)];
    const obs::QueryRecord& held = *entry.record;
    EXPECT_EQ(logged.query, held.query);
    EXPECT_NE(logged.query_hash, 0u);
    EXPECT_EQ(logged.query_hash, held.query_hash);
    EXPECT_FALSE(logged.query_template.empty());
    EXPECT_EQ(logged.query_template, held.query_template);
    EXPECT_EQ(logged.plan_cache, i == 0 ? "miss" : "hit");
    EXPECT_EQ(logged.plan_cache, held.plan_cache);
    EXPECT_EQ(logged.bindings, held.bindings);
    ASSERT_EQ(logged.bindings.size(), 1u);
    EXPECT_EQ(logged.bindings[0].second, 400);
    EXPECT_GT(logged.decision_count, 0);
    EXPECT_EQ(logged.decision_count, held.decision_count);
    EXPECT_EQ(logged.result_rows, held.result_rows);
    ASSERT_FALSE(logged.operators.empty());
    ASSERT_EQ(logged.operators.size(), held.operators.size());
    for (size_t k = 0; k < logged.operators.size(); ++k) {
      ExpectLogNear(logged.operators[k].est_rows_lo,
                    held.operators[k].est_rows_lo);
      ExpectLogNear(logged.operators[k].est_rows_hi,
                    held.operators[k].est_rows_hi);
      EXPECT_EQ(logged.operators[k].actual_rows,
                held.operators[k].actual_rows);
    }

    // The bundle's meta is the same JSON as the log line.
    ASSERT_TRUE(entry.slow());
    ASSERT_FALSE(entry.bundle_path.empty());
    JsonValue bundle;
    ASSERT_TRUE(obs::ParseJson(ReadWholeFile(entry.bundle_path), &bundle));
    const JsonValue& meta = At(bundle, "meta");
    EXPECT_EQ(At(meta, "sequence").number, entry.sequence);
    EXPECT_EQ(At(meta, "slow_reason").string_value, "threshold");
    EXPECT_EQ(std::strtoull(At(meta, "query_hash").string_value.c_str(),
                            nullptr, 16),
              logged.query_hash);
    EXPECT_EQ(At(meta, "query_template").string_value, logged.query_template);
    EXPECT_EQ(At(meta, "plan_cache").string_value, logged.plan_cache);
    EXPECT_EQ(At(At(meta, "bindings"), "v").number, 400);
    EXPECT_EQ(At(meta, "decision_count").number, logged.decision_count);
    EXPECT_EQ(At(meta, "result_rows").number, logged.result_rows);
    const JsonValue& ops = At(meta, "operators");
    ASSERT_EQ(ops.items.size(), logged.operators.size());
    for (size_t k = 0; k < ops.items.size(); ++k) {
      EXPECT_EQ(At(ops.items[k], "est_rows_lo").number,
                logged.operators[k].est_rows_lo);
      EXPECT_EQ(At(ops.items[k], "est_rows_hi").number,
                logged.operators[k].est_rows_hi);
      EXPECT_EQ(At(ops.items[k], "actual_rows").number,
                logged.operators[k].actual_rows);
    }
  }
  ::unlink(log_path.c_str());
  RemoveTree(spool);
}

TEST(ServerIntegrationTest, TelemetryEndpointIntrospectionAndSlowBundle) {
  char spool_tmpl[] = "/tmp/dqepspoolXXXXXX";
  const std::string spool = ::mkdtemp(spool_tmpl);
  ServerOptions options;
  options.sessions = 2;
  options.pool_pages = 256;
  options.metrics_port = 0;          // ephemeral
  options.slow_query_ms = 0.000001;  // every query breaches the threshold
  options.slow_spool_dir = spool;
  options.flight_recorder_capacity = 16;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());
  ASSERT_GT(fixture.server().metrics_port(), 0);

  auto conn = fixture.Connect();
  ASSERT_NE(conn, nullptr);
  QueryResponse q1 =
      RoundTrip(conn.get(), "SELECT * FROM R1 WHERE R1.s < 300");
  ASSERT_TRUE(q1.ok) << q1.error;
  QueryResponse q2 =
      RoundTrip(conn.get(), "SELECT * FROM R1 WHERE R1.s < 500");
  ASSERT_TRUE(q2.ok) << q2.error;

  // \top: header, one row per live session, and the admission footer.
  QueryResponse top = RoundTrip(conn.get(), "\\top");
  ASSERT_TRUE(top.ok) << top.error;
  ASSERT_GE(top.rows.size(), 2u);
  EXPECT_NE(top.rows[0].find("session"), std::string::npos);
  EXPECT_NE(top.rows[0].find("wait-ms"), std::string::npos);
  bool saw_pool = false;
  for (const std::string& row : top.rows) {
    saw_pool = saw_pool || row.find("pool:") != std::string::npos;
  }
  EXPECT_TRUE(saw_pool);

  // \slow: both queries were flagged and spooled.
  QueryResponse slow = RoundTrip(conn.get(), "\\slow 4");
  ASSERT_TRUE(slow.ok) << slow.error;
  std::string joined;
  for (const std::string& row : slow.rows) {
    joined += row + "\n";
  }
  EXPECT_NE(joined.find("SLOW:threshold"), std::string::npos);
  EXPECT_NE(joined.find("bundle: "), std::string::npos);

  // Lift the fingerprint out of \slow and ask \stats about it.
  const size_t fp_pos = joined.find("fp=0x");
  ASSERT_NE(fp_pos, std::string::npos);
  const std::string fp = joined.substr(fp_pos + 3, 18);
  QueryResponse stats = RoundTrip(conn.get(), "\\stats template " + fp);
  ASSERT_TRUE(stats.ok) << stats.error;
  joined.clear();
  for (const std::string& row : stats.rows) {
    joined += row + "\n";
  }
  EXPECT_NE(joined.find("latency"), std::string::npos);
  EXPECT_NE(joined.find("count=2"), std::string::npos);

  QueryResponse all_stats = RoundTrip(conn.get(), "\\stats");
  ASSERT_TRUE(all_stats.ok) << all_stats.error;
  ASSERT_FALSE(all_stats.rows.empty());
  EXPECT_NE(all_stats.rows[0].find("template"), std::string::npos);

  // \metrics json returns one parseable JSON document.
  QueryResponse mjson = RoundTrip(conn.get(), "\\metrics json");
  ASSERT_TRUE(mjson.ok) << mjson.error;
  joined.clear();
  for (const std::string& row : mjson.rows) {
    joined += row + "\n";
  }
  JsonValue parsed;
  EXPECT_TRUE(obs::ParseJson(joined, &parsed));

  // Bad arguments are polite protocol errors, not closed connections.
  EXPECT_FALSE(RoundTrip(conn.get(), "\\metrics bogus").ok);
  EXPECT_FALSE(RoundTrip(conn.get(), "\\stats template zzz").ok);
  EXPECT_FALSE(RoundTrip(conn.get(), "\\slow 0").ok);

  // Scrape the exposition endpoint: the server catalog plus the flight
  // recorder's per-template families.
  HttpResponse metrics =
      HttpGet(fixture.server().metrics_port(), "GET /metrics HTTP/1.0");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("dqep_server_session_queries_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("dqep_server_query_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(
      metrics.body.find("dqep_server_admission_queue_wait_seconds_count"),
      std::string::npos);
  EXPECT_NE(metrics.body.find("dqep_obs_flight_recorded_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("dqep_template_latency_seconds_bucket{"
                              "template=\"" +
                              fp + "\""),
            std::string::npos);

  // /slow: recent records as JSON, newest first, with bundle paths.
  HttpResponse slow_json =
      HttpGet(fixture.server().metrics_port(), "GET /slow HTTP/1.0");
  EXPECT_EQ(slow_json.status, 200);
  JsonValue slow_parsed;
  ASSERT_TRUE(obs::ParseJson(slow_json.body, &slow_parsed));
  ASSERT_TRUE(slow_parsed.is_array());
  ASSERT_GE(slow_parsed.items.size(), 2u);
  EXPECT_TRUE(At(slow_parsed.items[0], "slow").bool_value);

  // The spooled bundle is one valid JSON document holding the analyze
  // report and a non-empty Chrome trace.
  const std::string bundle_path =
      At(slow_parsed.items[0], "bundle").string_value;
  ASSERT_FALSE(bundle_path.empty());
  const std::string bundle_text = ReadWholeFile(bundle_path);
  ASSERT_FALSE(bundle_text.empty());
  JsonValue bundle;
  ASSERT_TRUE(obs::ParseJson(bundle_text, &bundle));
  EXPECT_EQ(At(At(bundle, "meta"), "slow_reason").string_value, "threshold");
  EXPECT_TRUE(At(bundle, "analyze").is_object());
  const JsonValue& events = At(At(bundle, "trace"), "traceEvents");
  ASSERT_TRUE(events.is_array());
  EXPECT_FALSE(events.items.empty());

  fixture.StopAndJoin();
  EXPECT_EQ(fixture.exit_code(), 0);
  RemoveTree(spool);
}

// The telemetry TSan regression: concurrent sessions deposit query-log
// lines and flight records while a scraper thread hammers /metrics and
// /slow and an in-process reader snapshots the recorder — every log
// line must still read back whole (no torn tail).
TEST(TelemetryConcurrencyTest, QueriesRaceScrapesRecorderAndLog) {
  const std::string log_path = ::testing::TempDir() + "/telemetry_qlog.jsonl";
  ::unlink(log_path.c_str());
  char spool_tmpl[] = "/tmp/dqepspoolXXXXXX";
  const std::string spool = ::mkdtemp(spool_tmpl);
  ServerOptions options;
  options.sessions = 4;
  options.query_log_path = log_path;
  options.metrics_port = 0;
  options.slow_query_ms = 0.001;  // everything slow: maximal bundle traffic
  options.slow_spool_dir = spool;
  options.flight_recorder_capacity = 8;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.started());
  const int metrics_port = fixture.server().metrics_port();
  ASSERT_GT(metrics_port, 0);

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) {
      HttpGet(metrics_port, "GET /metrics HTTP/1.0");
      HttpGet(metrics_port, "GET /slow HTTP/1.0");
      fixture.server().flight_recorder()->Recent(4);
      fixture.server().flight_recorder()->TemplateStats();
      std::this_thread::sleep_for(milliseconds(2));
    }
  });

  constexpr int kClients = 3;
  constexpr int kQueries = 15;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = fixture.Connect();
      if (conn == nullptr) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kQueries; ++i) {
        QueryResponse response = RoundTrip(
            conn.get(), "SELECT * FROM R1 WHERE R1.s < " +
                            std::to_string(200 + c * 100 + i));
        if (!response.ok) {
          failures.fetch_add(1);
          return;
        }
        if (!RoundTrip(conn.get(), "\\top").ok ||
            !RoundTrip(conn.get(), "\\slow 2").ok) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  stop.store(true);
  scraper.join();
  EXPECT_EQ(failures.load(), 0);
  fixture.StopAndJoin();
  EXPECT_EQ(fixture.exit_code(), 0);

  // The torn-tail regression: every concurrently-appended line parses.
  int64_t skipped = 0;
  Result<std::vector<obs::QueryRecord>> records =
      obs::LoadQueryLog(log_path, &skipped);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(skipped, 0);
  EXPECT_EQ(records->size(), static_cast<size_t>(kClients) * kQueries);
  ::unlink(log_path.c_str());
  RemoveTree(spool);
}

}  // namespace
}  // namespace server
}  // namespace dqep
