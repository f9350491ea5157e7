#include "runtime/plan_cache.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "runtime/startup.h"
#include "sql/normalize.h"
#include "sql/parser.h"

namespace dqep {

namespace {

/// Mirrors an internal counter bump into the process-wide registry.
void BumpMetric(const char* name, int64_t delta = 1) {
  obs::MetricsRegistry::Instance().SharedCounter(name)->Add(delta);
}

void SetSizeGauge(size_t size) {
  obs::MetricsRegistry::Instance()
      .SharedGaugeMax("runtime.plancache.size")
      ->Set(static_cast<int64_t>(size));
}

std::string HexFingerprint(uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fingerprint);
  return buf;
}

}  // namespace

std::string PlanCacheStats::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "plan cache: %zu/%zu entries; %" PRId64 " hits, %" PRId64
                " misses, %" PRId64 " inserts, %" PRId64 " evictions, %" PRId64
                " invalidations",
                size, capacity, hits, misses, inserts, evictions,
                invalidations);
  return buf;
}

DynamicPlanCache::DynamicPlanCache(size_t capacity) : capacity_(capacity) {}

DynamicPlanCache& DynamicPlanCache::Instance() {
  static DynamicPlanCache* instance = new DynamicPlanCache();
  return *instance;
}

DynamicPlanCache::EntryPtr DynamicPlanCache::Lookup(uint64_t fingerprint,
                                                    double memory_pages) {
  EntryPtr hit;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = entries_.find(Key{fingerprint, memory_pages});
    if (it != entries_.end() &&
        it->second->stats_epoch == stats_epoch_ &&
        it->second->profile_epoch == profile_epoch_) {
      // LRU touch and hit count are relaxed atomics: readers never write
      // shared map structure, so concurrent lookups stay shared-locked.
      it->second->last_used.store(
          use_tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      it->second->hits.fetch_add(1, std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit = it->second;
    }
  }
  if (hit != nullptr) {
    BumpMetric("runtime.plancache.hits");
    return hit;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  BumpMetric("runtime.plancache.misses");
  return nullptr;
}

// Every mutator below unlinks entries under the exclusive lock but
// destroys them — and reports metrics, whose registry takes its own
// mutex — only after releasing it: a cached plan DAG can be large, and
// lookups wait on the lock.

DynamicPlanCache::EntryPtr DynamicPlanCache::Insert(Entry entry) {
  auto shared = std::make_shared<Entry>(std::move(entry));
  shared->last_used.store(
      use_tick_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  std::vector<EntryPtr> removed;
  int64_t evicted = 0;
  size_t size = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    // A plan compiled against statistics or a cost profile that changed
    // while it was being compiled must not be served to anyone else.
    if (capacity_ == 0 || shared->stats_epoch != stats_epoch_ ||
        shared->profile_epoch != profile_epoch_) {
      return shared;
    }
    std::shared_ptr<Entry>& slot =
        entries_[Key{shared->fingerprint, shared->memory_pages}];
    if (slot != nullptr) {
      removed.push_back(std::move(slot));
    }
    slot = shared;
    inserts_.fetch_add(1, std::memory_order_relaxed);
    evicted = EvictToCapacityLocked(&removed);
    size = entries_.size();
  }
  BumpMetric("runtime.plancache.inserts");
  ReportEvictions(evicted, size);
  return shared;
}

std::pair<uint64_t, uint64_t> DynamicPlanCache::epochs() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return {stats_epoch_, profile_epoch_};
}

void DynamicPlanCache::SetStatsEpoch(uint64_t epoch) {
  std::vector<EntryPtr> removed;
  int64_t dropped = 0;
  size_t size = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (epoch == stats_epoch_) {
      return;
    }
    stats_epoch_ = epoch;
    dropped = SweepStaleLocked(&removed);
    size = entries_.size();
  }
  ReportInvalidations(dropped, size);
}

void DynamicPlanCache::BumpProfileEpoch() {
  std::vector<EntryPtr> removed;
  int64_t dropped = 0;
  size_t size = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    ++profile_epoch_;
    dropped = SweepStaleLocked(&removed);
    size = entries_.size();
  }
  ReportInvalidations(dropped, size);
}

void DynamicPlanCache::Clear() {
  decltype(entries_) removed;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    removed.swap(entries_);
    invalidations_.fetch_add(static_cast<int64_t>(removed.size()),
                             std::memory_order_relaxed);
  }
  ReportInvalidations(static_cast<int64_t>(removed.size()), 0);
}

void DynamicPlanCache::set_capacity(size_t capacity) {
  std::vector<EntryPtr> removed;
  int64_t evicted = 0;
  size_t size = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    capacity_ = capacity;
    evicted = EvictToCapacityLocked(&removed);
    size = entries_.size();
  }
  ReportEvictions(evicted, size);
}

PlanCacheStats DynamicPlanCache::stats() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  PlanCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.size = entries_.size();
  stats.capacity = capacity_;
  return stats;
}

int64_t DynamicPlanCache::SweepStaleLocked(std::vector<EntryPtr>* removed) {
  int64_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second->stats_epoch != stats_epoch_ ||
        it->second->profile_epoch != profile_epoch_) {
      removed->push_back(std::move(it->second));
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

int64_t DynamicPlanCache::EvictToCapacityLocked(
    std::vector<EntryPtr>* removed) {
  int64_t evicted = 0;
  while (entries_.size() > capacity_) {
    // O(n) scan for the minimum recency tick: capacity is small (tens to
    // hundreds) and eviction runs only on insert-at-capacity, so a scan
    // beats maintaining an ordered recency structure under the shared-
    // lock read path.
    auto victim = entries_.begin();
    uint64_t victim_tick = victim->second->last_used.load();
    for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
      uint64_t tick = it->second->last_used.load();
      if (tick < victim_tick) {
        victim = it;
        victim_tick = tick;
      }
    }
    removed->push_back(std::move(victim->second));
    entries_.erase(victim);
    ++evicted;
  }
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

void DynamicPlanCache::ReportEvictions(int64_t evicted, size_t size) {
  if (evicted > 0) {
    BumpMetric("runtime.plancache.evictions", evicted);
  }
  SetSizeGauge(size);
}

void DynamicPlanCache::ReportInvalidations(int64_t dropped, size_t size) {
  if (dropped > 0) {
    BumpMetric("runtime.plancache.invalidations", dropped);
  }
  SetSizeGauge(size);
}

namespace {

/// Binds every host variable named in `host_params` from the caller's
/// bindings, failing like the shell always has on an unbound variable.
Status BindHostParams(
    const std::vector<std::pair<std::string, ParamId>>& host_params,
    const std::map<std::string, int64_t>* host_bindings, ParamEnv* bound) {
  for (const auto& [name, id] : host_params) {
    const int64_t* value = nullptr;
    if (host_bindings != nullptr) {
      auto it = host_bindings->find(name);
      if (it != host_bindings->end()) {
        value = &it->second;
      }
    }
    if (value == nullptr) {
      return Status::InvalidArgument("host variable :" + name +
                                     " is unbound; use \\set " + name +
                                     " <int>");
    }
    bound->Bind(id, Value(*value));
  }
  return Status::OK();
}

}  // namespace

Result<CachedPlanResult> PlanQueryWithCache(const std::string& sql,
                                            const CachedPlanRequest& request) {
  DQEP_CHECK(request.catalog != nullptr);
  DQEP_CHECK(request.model != nullptr);
  CachedPlanResult result;
  result.bound = ParamEnv(Interval::Point(request.memory_pages));
  ParamEnv compile_env(Interval::Point(request.memory_pages));

  // --- Cache consult -----------------------------------------------------
  NormalizedQuery normalized;
  bool use_cache = request.cache != nullptr;
  if (use_cache) {
    WallTimer normalize_timer;
    Result<NormalizedQuery> norm = NormalizeQuery(sql);
    result.normalize_seconds = normalize_timer.ElapsedSeconds();
    if (!norm.ok()) {
      // Lexically broken text cannot be fingerprinted; fall through to
      // the plain path so the parse error surfaces unchanged.
      use_cache = false;
    } else {
      normalized = std::move(*norm);
      result.fingerprint = normalized.fingerprint;
      result.template_text = normalized.template_text;
    }
  }
  if (use_cache) {
    result.cache_used = true;
    obs::SpanScope consult(request.trace, "plan-cache", "query");
    consult.AddArg("fingerprint", HexFingerprint(normalized.fingerprint));
    DynamicPlanCache::EntryPtr entry =
        request.cache->Lookup(normalized.fingerprint, request.memory_pages);
    if (entry != nullptr &&
        entry->literal_params.size() == normalized.literals.size()) {
      consult.AddArg("result", "hit");
      consult.AddArg("saved_optimize_s", entry->optimize_seconds);
      result.cache_hit = true;
      result.root = entry->root;
      result.query = entry->query;
      result.cost = entry->cost;
      result.host_params = entry->host_params;
      result.plan_params = entry->plan_params;
      for (size_t i = 0; i < entry->literal_params.size(); ++i) {
        result.bound.Bind(entry->literal_params[i],
                          Value(normalized.literals[i]));
      }
      DQEP_RETURN_IF_ERROR(BindHostParams(entry->host_params,
                                          request.host_bindings,
                                          &result.bound));
      return result;
    }
    consult.AddArg("result", "miss");
  }

  // --- Miss (or cache off): parse and optimize ---------------------------
  WallTimer compile_timer;
  int64_t parse_start =
      request.trace == nullptr ? 0 : request.trace->NowMicros();
  Result<ParsedQuery> parsed =
      use_cache ? ParseQueryParameterized(sql, *request.catalog)
                : ParseQuery(sql, *request.catalog);
  if (request.trace != nullptr) {
    request.trace->EndSpan("parse", "query", parse_start);
  }
  WallTimer optimize_timer;
  result.parse_seconds = compile_timer.ElapsedSeconds();
  if (!parsed.ok()) {
    return parsed.status();
  }
  auto epochs = use_cache ? request.cache->epochs()
                          : std::pair<uint64_t, uint64_t>{0, 0};
  Optimizer optimizer(request.model, OptimizerOptions::Dynamic());
  int64_t optimize_start =
      request.trace == nullptr ? 0 : request.trace->NowMicros();
  Result<OptimizedPlan> plan = optimizer.Optimize(parsed->query, compile_env);
  result.optimize_seconds = optimize_timer.ElapsedSeconds();
  if (!plan.ok()) {
    return plan.status();
  }
  if (request.trace != nullptr) {
    request.trace->EndSpan(
        "optimize", "query", optimize_start,
        {{"nodes", std::to_string(plan->root->CountNodes())},
         {"choose_nodes", std::to_string(plan->root->CountChooseNodes())}});
  }
  result.root = plan->root;
  result.cost = plan->cost;
  result.query = std::make_shared<const Query>(std::move(parsed->query));

  if (use_cache) {
    DynamicPlanCache::Entry entry;
    entry.fingerprint = normalized.fingerprint;
    entry.template_text = normalized.template_text;
    entry.memory_pages = request.memory_pages;
    entry.root = plan->root;
    entry.query = result.query;
    entry.cost = plan->cost;
    entry.cardinality = plan->cardinality;
    entry.host_params.assign(parsed->params.begin(), parsed->params.end());
    entry.literal_params = parsed->lifted_params;
    entry.plan_params = PlanParams(*plan->root);
    result.plan_params = entry.plan_params;
    entry.stats_epoch = epochs.first;
    entry.profile_epoch = epochs.second;
    entry.optimize_seconds = compile_timer.ElapsedSeconds();
    request.cache->Insert(std::move(entry));
    for (size_t i = 0; i < parsed->lifted_params.size(); ++i) {
      result.bound.Bind(parsed->lifted_params[i],
                        Value(parsed->lifted_values[i]));
    }
  }
  result.host_params.assign(parsed->params.begin(), parsed->params.end());
  DQEP_RETURN_IF_ERROR(
      BindHostParams(result.host_params, request.host_bindings, &result.bound));
  return result;
}

}  // namespace dqep
