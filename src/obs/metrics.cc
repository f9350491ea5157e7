#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <utility>

namespace dqep {
namespace obs {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kGaugeMax:
      return "gauge_max";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

int32_t HistogramCell::BucketOf(int64_t value) {
  if (value <= 0) {
    return 0;
  }
  // floor(log2(value)) + 1, capped at the last bucket.
  int32_t b = 64 - static_cast<int32_t>(
                       __builtin_clzll(static_cast<uint64_t>(value)));
  return b < kBuckets ? b : kBuckets - 1;
}

void HistogramCell::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
}

double Log2BucketPercentile(
    const std::vector<std::pair<int32_t, int64_t>>& buckets, int64_t count,
    double p) {
  if (count <= 0) {
    return 0.0;
  }
  const double target = p * static_cast<double>(count);
  int64_t cumulative = 0;
  for (const auto& [b, c] : buckets) {
    const int64_t before = cumulative;
    cumulative += c;
    if (static_cast<double>(cumulative) < target) {
      continue;
    }
    if (b <= 0) {
      return 0.0;
    }
    if (b >= HistogramCell::kBuckets - 1) {
      // The overflow bucket has no finite upper bound to interpolate to.
      return static_cast<double>(int64_t{1} << 62);
    }
    const double lo = static_cast<double>(int64_t{1} << (b - 1));
    const double hi = static_cast<double>(int64_t{1} << b);
    double fraction =
        c > 0 ? (target - static_cast<double>(before)) / static_cast<double>(c)
              : 1.0;
    fraction = std::min(1.0, std::max(0.0, fraction));
    return lo + fraction * (hi - lo);
  }
  return 0.0;
}

int64_t MetricValue::Percentile(double p) const {
  return static_cast<int64_t>(Log2BucketPercentile(buckets, count, p) + 0.5);
}

void HistogramCell::Record(int64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[static_cast<size_t>(BucketOf(value))].fetch_add(
      1, std::memory_order_relaxed);
}

CellHandle& CellHandle::operator=(CellHandle&& other) noexcept {
  if (this != &other) {
    if (registry_ != nullptr) {
      registry_->Retire(metric_index_, cell_);
    }
    registry_ = other.registry_;
    metric_index_ = other.metric_index_;
    cell_ = other.cell_;
    other.registry_ = nullptr;
    other.cell_ = nullptr;
  }
  return *this;
}

CellHandle::~CellHandle() {
  if (registry_ != nullptr) {
    registry_->Retire(metric_index_, cell_);
  }
}

HistogramHandle& HistogramHandle::operator=(HistogramHandle&& other) noexcept {
  if (this != &other) {
    if (registry_ != nullptr) {
      registry_->Retire(metric_index_, cell_);
    }
    registry_ = other.registry_;
    metric_index_ = other.metric_index_;
    cell_ = other.cell_;
    other.registry_ = nullptr;
    other.cell_ = nullptr;
  }
  return *this;
}

HistogramHandle::~HistogramHandle() {
  if (registry_ != nullptr) {
    registry_->Retire(metric_index_, cell_);
  }
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Metric& MetricsRegistry::MetricFor(const std::string& name,
                                                    MetricKind kind) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    Metric& m = *metrics_[it->second];
    // Two subsystems disagreeing on a name's kind is a programming bug.
    DQEP_CHECK_EQ(static_cast<int>(m.kind), static_cast<int>(kind));
    return m;
  }
  metrics_.push_back(std::make_unique<Metric>());
  Metric& m = *metrics_.back();
  m.name = name;
  m.kind = kind;
  by_name_.emplace(name, metrics_.size() - 1);
  return m;
}

CellHandle MetricsRegistry::NewCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Metric& m = MetricFor(name, MetricKind::kCounter);
  m.cells.push_back(std::make_unique<Cell>());
  return CellHandle(this, by_name_[name], m.cells.back().get());
}

CellHandle MetricsRegistry::NewGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Metric& m = MetricFor(name, MetricKind::kGauge);
  m.cells.push_back(std::make_unique<Cell>());
  return CellHandle(this, by_name_[name], m.cells.back().get());
}

CellHandle MetricsRegistry::NewGaugeMax(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Metric& m = MetricFor(name, MetricKind::kGaugeMax);
  m.cells.push_back(std::make_unique<Cell>());
  return CellHandle(this, by_name_[name], m.cells.back().get());
}

HistogramHandle MetricsRegistry::NewHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Metric& m = MetricFor(name, MetricKind::kHistogram);
  m.histogram_cells.push_back(std::make_unique<HistogramCell>());
  return HistogramHandle(this, by_name_[name], m.histogram_cells.back().get());
}

Cell* MetricsRegistry::SharedCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Metric& m = MetricFor(name, MetricKind::kCounter);
  if (m.shared_cell == nullptr) {
    m.cells.push_back(std::make_unique<Cell>());
    m.shared_cell = m.cells.back().get();
  }
  return m.shared_cell;
}

Cell* MetricsRegistry::SharedGaugeMax(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Metric& m = MetricFor(name, MetricKind::kGaugeMax);
  if (m.shared_cell == nullptr) {
    m.cells.push_back(std::make_unique<Cell>());
    m.shared_cell = m.cells.back().get();
  }
  return m.shared_cell;
}

HistogramCell* MetricsRegistry::SharedHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Metric& m = MetricFor(name, MetricKind::kHistogram);
  if (m.shared_histogram == nullptr) {
    m.histogram_cells.push_back(std::make_unique<HistogramCell>());
    m.shared_histogram = m.histogram_cells.back().get();
  }
  return m.shared_histogram;
}

void MetricsRegistry::Retire(size_t metric_index, Cell* cell) {
  if (cell == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // After ResetForTest the cell lives in orphans_; just drop it there.
  for (size_t i = 0; i < orphans_.size(); ++i) {
    if (orphans_[i].get() == cell) {
      orphans_.erase(orphans_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
  DQEP_CHECK_LT(metric_index, metrics_.size());
  Metric& m = *metrics_[metric_index];
  for (size_t i = 0; i < m.cells.size(); ++i) {
    if (m.cells[i].get() != cell) {
      continue;
    }
    if (m.kind == MetricKind::kCounter) {
      m.retired += cell->value();
    } else if (m.kind == MetricKind::kGaugeMax) {
      m.retired = std::max(m.retired, cell->value());
    }
    // Plain gauges just drop out of the sum.
    m.cells.erase(m.cells.begin() + static_cast<ptrdiff_t>(i));
    return;
  }
  DQEP_CHECK(false && "cell not found in metric");
}

void MetricsRegistry::Retire(size_t metric_index, HistogramCell* cell) {
  if (cell == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < orphan_histograms_.size(); ++i) {
    if (orphan_histograms_[i].get() == cell) {
      orphan_histograms_.erase(orphan_histograms_.begin() +
                               static_cast<ptrdiff_t>(i));
      return;
    }
  }
  DQEP_CHECK_LT(metric_index, metrics_.size());
  Metric& m = *metrics_[metric_index];
  for (size_t i = 0; i < m.histogram_cells.size(); ++i) {
    if (m.histogram_cells[i].get() != cell) {
      continue;
    }
    m.retired_count += cell->count();
    m.retired_sum += cell->sum();
    for (int32_t b = 0; b < HistogramCell::kBuckets; ++b) {
      m.retired_buckets[static_cast<size_t>(b)] += cell->bucket(b);
    }
    m.histogram_cells.erase(m.histogram_cells.begin() +
                            static_cast<ptrdiff_t>(i));
    return;
  }
  DQEP_CHECK(false && "histogram cell not found in metric");
}

std::map<std::string, MetricValue> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, MetricValue> out;
  for (const auto& mp : metrics_) {
    const Metric& m = *mp;
    MetricValue v;
    v.kind = m.kind;
    if (m.kind == MetricKind::kHistogram) {
      v.count = m.retired_count;
      v.sum = m.retired_sum;
      std::array<int64_t, HistogramCell::kBuckets> buckets =
          m.retired_buckets;
      for (const auto& c : m.histogram_cells) {
        v.count += c->count();
        v.sum += c->sum();
        for (int32_t b = 0; b < HistogramCell::kBuckets; ++b) {
          buckets[static_cast<size_t>(b)] += c->bucket(b);
        }
      }
      for (int32_t b = 0; b < HistogramCell::kBuckets; ++b) {
        if (buckets[static_cast<size_t>(b)] != 0) {
          v.buckets.emplace_back(b, buckets[static_cast<size_t>(b)]);
        }
      }
    } else if (m.kind == MetricKind::kGaugeMax) {
      v.value = m.retired;
      for (const auto& c : m.cells) {
        v.value = std::max(v.value, c->value());
      }
    } else {
      v.value = m.kind == MetricKind::kCounter ? m.retired : 0;
      for (const auto& c : m.cells) {
        v.value += c->value();
      }
    }
    out.emplace(m.name, std::move(v));
  }
  return out;
}

std::string MetricsRegistry::RenderText() const {
  auto snap = Snapshot();
  size_t width = 0;
  for (const auto& [name, value] : snap) {
    width = std::max(width, name.size());
  }
  std::string out;
  char line[256];
  for (const auto& [name, value] : snap) {
    if (value.kind == MetricKind::kHistogram) {
      double mean = value.count == 0
                        ? 0.0
                        : static_cast<double>(value.sum) /
                              static_cast<double>(value.count);
      std::snprintf(line, sizeof(line),
                    "%-*s  histogram  count=%" PRId64 " sum=%" PRId64
                    " mean=%.1f p50=%" PRId64 " p95=%" PRId64
                    " p99=%" PRId64 "\n",
                    static_cast<int>(width), name.c_str(), value.count,
                    value.sum, mean, value.Percentile(0.50),
                    value.Percentile(0.95), value.Percentile(0.99));
    } else {
      std::snprintf(line, sizeof(line), "%-*s  %-9s  %" PRId64 "\n",
                    static_cast<int>(width), name.c_str(),
                    MetricKindName(value.kind), value.value);
    }
    out += line;
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  auto snap = Snapshot();
  std::string out = "{";
  bool first = true;
  char buf[128];
  for (const auto& [name, value] : snap) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n  \"" + name + "\": {\"kind\": \"";
    out += MetricKindName(value.kind);
    out += "\"";
    if (value.kind == MetricKind::kHistogram) {
      std::snprintf(buf, sizeof(buf),
                    ", \"count\": %" PRId64 ", \"sum\": %" PRId64
                    ", \"p50\": %" PRId64 ", \"p95\": %" PRId64
                    ", \"p99\": %" PRId64 ", \"buckets\": {",
                    value.count, value.sum, value.Percentile(0.50),
                    value.Percentile(0.95), value.Percentile(0.99));
      out += buf;
      bool first_bucket = true;
      for (const auto& [b, c] : value.buckets) {
        if (!first_bucket) {
          out += ", ";
        }
        first_bucket = false;
        std::snprintf(buf, sizeof(buf), "\"%d\": %" PRId64, b, c);
        out += buf;
      }
      out += "}}";
    } else {
      std::snprintf(buf, sizeof(buf), ", \"value\": %" PRId64 "}",
                    value.value);
      out += buf;
    }
  }
  out += first ? "}" : "\n}";
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& mp : metrics_) {
    Metric& m = *mp;
    if (m.kind != MetricKind::kGauge) {
      for (auto& c : m.cells) {
        c->Reset();
      }
      m.retired = 0;
    }
    for (auto& c : m.histogram_cells) {
      c->Reset();
    }
    m.retired_count = 0;
    m.retired_sum = 0;
    m.retired_buckets.fill(0);
  }
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& mp : metrics_) {
    for (auto& c : mp->cells) {
      orphans_.push_back(std::move(c));
    }
    for (auto& c : mp->histogram_cells) {
      orphan_histograms_.push_back(std::move(c));
    }
  }
  metrics_.clear();
  by_name_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

void SharedCounterRef::Add(int64_t delta) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  const uint64_t generation = registry.generation();
  Cell* cell = cell_.load(std::memory_order_acquire);
  if (cell == nullptr ||
      generation_.load(std::memory_order_relaxed) != generation) {
    cell = registry.SharedCounter(name_);
    generation_.store(generation, std::memory_order_relaxed);
    cell_.store(cell, std::memory_order_release);
  }
  cell->Add(delta);
}

}  // namespace obs
}  // namespace dqep
