// The parameterized dynamic-plan cache: optimize once, execute many.
//
// The paper's economics (§1, §5) are that a dynamic plan is compiled
// *once* and reused across many executions, paying only the cheap
// start-up-time decision procedure per run.  Without a cache the CLI
// re-parses and re-optimizes every query text, even one seen seconds
// earlier — the compile cost is never amortized.  This module closes
// that gap: a bounded, thread-safe map from a normalized
// query fingerprint (sql/normalize.h: literals lifted to '?', keywords
// canonicalized, whitespace collapsed) to the compiled dynamic plan plus
// its interval cost metadata.  "R1.s < 10" and "R1.s < 97" share one
// cached plan; the lifted literals become start-up bindings, and the
// choose-plan operators inside the cached plan re-decide per execution —
// the paper's mechanism doing exactly what it was designed for.
//
// Entry identity and staleness:
//   * Key = (template fingerprint, compile-time memory grant).  The
//     grant enters compile-time costing as a point, so plans compiled
//     under different grants are different plans.
//   * Entries are stamped with the statistics epoch of the cost model
//     they were compiled under (CostModel::stats_epoch, stamped on its
//     StatisticsCatalog by AnalyzeDatabase; 0 without histograms), read
//     from that model itself rather than from the cache, so a compile
//     that straddles an estimator swap cannot enter under the new epoch.
//     SetStatsEpoch sweeps every entry of another epoch, Insert refuses
//     one, and a lookup hits only an entry of the querying model's
//     epoch: a changed cost model would pick different plans, so zero
//     stale hits is a correctness invariant, not a quality goal.  A
//     calibration profile is applied before the cache exists, so it
//     needs no epoch of its own.
//
// Concurrency: lookups take a shared lock; LRU touch is a relaxed
// atomic tick so readers never write shared structure.  Insert, the
// epoch swap, clear, and eviction take the exclusive lock.  Returned entries
// are shared_ptr<const Entry>, so eviction never frees a plan that a
// concurrent execution still holds.  Plan DAGs themselves are immutable
// (physical/plan.h) including the *annotation* channel
// (PhysNode::SetEstimates via AnnotatePlan): after Insert, nothing may
// write estimates into a cached DAG or any plan sharing subtrees with
// it.  Consumers that need annotated plans (EXPLAIN ANALYZE, the query
// log) annotate a ClonePlan deep copy (runtime/plan_rewrite.h) — this is
// what makes concurrent server sessions race-free on shared entries.
//
// Each entry also keeps the parameterized Query its plan was compiled
// from: mid-query re-optimization (runtime/reopt.h) cuts its suffix
// queries from it, under the same bound environment as the plan, so a
// cache hit needs no second parse.
//
// Each entry also carries its plan's StartupProgram
// (runtime/startup_program.h), the start-up decision procedure compiled
// once: built on the miss path outside the cache lock, in the same walk
// that collects the plan's host variables, and shared read-only by every
// hit's resolution.  A hit therefore pays only the per-binding cost
// arithmetic, never a walk of the DAG's structure.
//
// Observability: every operation feeds both the internal stats() (the
// \cache shell command) and the MetricsRegistry counters
// runtime.plancache.{hits,misses,inserts,evictions,invalidations} plus
// the runtime.plancache.size gauge.

#ifndef DQEP_RUNTIME_PLAN_CACHE_H_
#define DQEP_RUNTIME_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "cost/param_env.h"
#include "logical/query.h"
#include "physical/plan.h"
#include "runtime/startup_program.h"

namespace dqep {
namespace obs {
class TraceSession;
}  // namespace obs

class Catalog;

/// Aggregate counters of one cache instance (monotonic; survive Clear).
struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t evictions = 0;
  /// Entries dropped because the statistics epoch moved (ANALYZE) or the
  /// cache was cleared explicitly.
  int64_t invalidations = 0;
  size_t size = 0;
  size_t capacity = 0;

  /// One line: "plan cache: size/capacity entries; N hits, ...".
  std::string ToString() const;
};

/// Bounded, thread-safe cache of compiled dynamic plans.
class DynamicPlanCache {
 public:
  /// One compiled template plan.  Immutable after Insert except for the
  /// atomic hit/recency counters.
  struct Entry {
    uint64_t fingerprint = 0;
    std::string template_text;
    /// Compile-time memory grant (pages) the plan was optimized under —
    /// part of the key.
    double memory_pages = 0.0;

    /// The dynamic plan DAG, choose-plan operators intact.
    PhysNodePtr root;
    /// The parameterized Query `root` was compiled from; its ParamIds are
    /// the ones host_params and literal_params bind.
    std::shared_ptr<const Query> query;
    /// Compile-time interval estimates (the ambiguity start-up resolves).
    Interval cost;
    Interval cardinality;

    /// Host-variable name -> ParamId, from the parameterized parse.
    std::vector<std::pair<std::string, ParamId>> host_params;
    /// Synthetic ParamId per lifted literal, in template-'?' order:
    /// literal_params[i] binds NormalizedQuery::literals[i].
    std::vector<ParamId> literal_params;
    /// The start-up program compiled from `root` (its params() are every
    /// host variable the plan references); every hit resolves over it.
    std::shared_ptr<const StartupProgram> program;

    /// Statistics epoch of the model the plan was compiled under (see
    /// header comment).
    uint64_t stats_epoch = 0;

    /// Wall seconds parse+optimize cost when this entry was built — what
    /// every subsequent hit saves.
    double optimize_seconds = 0.0;

    /// Times this entry served a lookup.
    mutable std::atomic<int64_t> hits{0};
    /// Recency tick for LRU eviction (larger = more recent).
    mutable std::atomic<uint64_t> last_used{0};

    Entry() = default;
    // The atomic counters delete the implicit move operations; Insert
    // moves a caller-built Entry into shared ownership, so restore them
    // by value-copying the (still single-owner) counters.
    Entry(Entry&& other) noexcept
        : fingerprint(other.fingerprint),
          template_text(std::move(other.template_text)),
          memory_pages(other.memory_pages),
          root(std::move(other.root)),
          query(std::move(other.query)),
          cost(other.cost),
          cardinality(other.cardinality),
          host_params(std::move(other.host_params)),
          literal_params(std::move(other.literal_params)),
          program(std::move(other.program)),
          stats_epoch(other.stats_epoch),
          optimize_seconds(other.optimize_seconds),
          hits(other.hits.load(std::memory_order_relaxed)),
          last_used(other.last_used.load(std::memory_order_relaxed)) {}
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  static constexpr size_t kDefaultCapacity = 128;

  explicit DynamicPlanCache(size_t capacity = kDefaultCapacity);

  /// Returns the entry for (fingerprint, memory_pages) compiled under
  /// `stats_epoch` — the querying model's — or null (counted as a
  /// miss).  Touches LRU.
  EntryPtr Lookup(uint64_t fingerprint, double memory_pages,
                  uint64_t stats_epoch);

  /// Inserts `entry` (fails silently when capacity is 0 or the entry's
  /// epoch is not the cache's — a plan compiled against statistics that
  /// changed mid-compile must not be served).  Evicts the least recently
  /// used entry at capacity.  Returns the shared entry actually cached
  /// (or the input wrapped uncached, so callers proceed uniformly).
  EntryPtr Insert(Entry entry);

  /// ANALYZE ran: adopt the statistics catalog's epoch and sweep every
  /// entry compiled under another one.  Publish the model first.
  void SetStatsEpoch(uint64_t epoch);

  /// Drops every entry (counted as invalidations).  Epoch unchanged.
  void Clear();

  PlanCacheStats stats() const;

 private:
  struct Key {
    uint64_t fingerprint;
    double memory_pages;
    bool operator<(const Key& other) const {
      if (fingerprint != other.fingerprint) {
        return fingerprint < other.fingerprint;
      }
      return memory_pages < other.memory_pages;
    }
  };

  /// Unlink stale / least-recently-used excess entries into `removed`
  /// and return how many; callers hold the exclusive lock and destroy
  /// `removed` after releasing it.
  int64_t SweepStaleLocked(std::vector<EntryPtr>* removed);
  int64_t EvictToCapacityLocked(std::vector<EntryPtr>* removed);

  /// Registry updates for entries already unlinked; called without the
  /// lock (the registry takes its own mutex).
  static void ReportEvictions(int64_t evicted, size_t size);
  static void ReportInvalidations(int64_t dropped, size_t size);

  mutable std::shared_mutex mutex_;
  std::map<Key, std::shared_ptr<Entry>> entries_;
  const size_t capacity_;
  uint64_t stats_epoch_ = 0;
  std::atomic<uint64_t> use_tick_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> invalidations_{0};
};

/// One cache-aware planning round: everything between "SQL text arrived"
/// and "ready for start-up resolution" — the first step of the query
/// pipeline (runtime/query_pipeline.h), so the hot path the tests and
/// benches measure is the shipped hot path.
struct CachedPlanRequest {
  const Catalog* catalog = nullptr;
  const CostModel* model = nullptr;
  /// Null disables caching entirely (plain parse, literals stay
  /// literals — byte-identical to the pre-cache pipeline).
  DynamicPlanCache* cache = nullptr;
  double memory_pages = 64.0;
  /// Host-variable bindings (\set state); null means none.
  const std::map<std::string, int64_t>* host_bindings = nullptr;
  /// Optional tracing: emits one "plan-cache" consult span (hit/miss)
  /// plus the usual parse/optimize spans on the miss path.
  obs::TraceSession* trace = nullptr;
};

struct CachedPlanResult {
  /// The dynamic plan (cached or freshly compiled).
  PhysNodePtr root;
  /// The Query `root` was compiled from — parameterized when a cache was
  /// consulted — whose ParamIds are the ones `bound` binds.
  std::shared_ptr<const Query> query;
  /// Compile-time interval cost of `root`.
  Interval cost;
  /// Fully bound environment (memory grant + lifted literals + host
  /// variables), ready for ResolveDynamicPlan.
  ParamEnv bound;
  bool cache_used = false;  ///< a cache was consulted
  bool cache_hit = false;
  uint64_t fingerprint = 0;
  std::string template_text;
  /// Host variables the query references (name -> ParamId) — what the
  /// caller's bindings were matched against.
  std::vector<std::pair<std::string, ParamId>> host_params;
  /// The start-up program of `root` — the cached entry's on a hit, built
  /// with the plan otherwise.  Resolve with ResolveDynamicPlan(*program,
  /// ...).
  std::shared_ptr<const StartupProgram> program;
  /// program->params(): every host variable the plan references.
  std::vector<ParamId> plan_params;
  /// Wall seconds spent in each phase (zero when skipped).
  double normalize_seconds = 0.0;
  double parse_seconds = 0.0;
  double optimize_seconds = 0.0;
};

/// Plans `sql` through the cache when one is supplied: normalize ->
/// lookup -> (on miss) parameterized parse + dynamic optimize + insert
/// -> bind literals and host variables.  Without a cache: plain parse +
/// optimize + bind, exactly the historical pipeline.
Result<CachedPlanResult> PlanQueryWithCache(const std::string& sql,
                                            const CachedPlanRequest& request);

}  // namespace dqep

#endif  // DQEP_RUNTIME_PLAN_CACHE_H_
