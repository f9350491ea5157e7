// Tests for the server's one per-template table (src/obs/template_table.*):
// exact least-recently-seen eviction against a reference model, the cap
// holding under 10^4 distinct templates pushed through
// SharedEngine::RecordQuery (table size and every /metrics template
// family), a recurring template's facts surviving a flood of cold ones,
// and concurrent folds and renders (run it under TSan).

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/alerts.h"
#include "obs/drift.h"
#include "obs/flight_recorder.h"
#include "obs/querylog.h"
#include "obs/template_table.h"
#include "server/admission.h"
#include "server/session.h"

namespace dqep {
namespace {

using obs::TemplateFacts;
using obs::TemplateTable;

TEST(TemplateTableTest, MatchesReferenceLruModel) {
  constexpr size_t kCapacity = obs::kTemplateTableCapacity;
  TemplateTable table;
  std::list<uint64_t> lru;          // model: least recently seen first
  std::map<uint64_t, double> held;  // model: fingerprint -> stored value
  Rng rng(7);
  int touches = 0;
  int evictions = 0;
  for (int op = 0; op < 20000; ++op) {
    // Fingerprints from a range 3x the capacity: touches of held
    // templates, inserts into free slots and evicting inserts all occur.
    const uint64_t fp = static_cast<uint64_t>(
        rng.NextInt(1, static_cast<int64_t>(3 * kCapacity)));
    const double value = static_cast<double>(op);
    if (rng.NextInt(0, 3) == 0) {
      // Find: reads without changing recency.
      double seen = -1.0;
      bool found = table.Find(fp, [&](const TemplateFacts& facts) {
        seen = facts.cost_seconds.value_or(-2.0);
      });
      auto it = held.find(fp);
      ASSERT_EQ(found, it != held.end()) << "op " << op;
      if (found) {
        ASSERT_EQ(seen, it->second) << "op " << op;
      }
    } else {
      auto it = held.find(fp);
      uint64_t evicted = 0;
      if (it != held.end()) {
        lru.remove(fp);
        ++touches;
      } else if (held.size() == kCapacity) {
        ++evictions;
        evicted = lru.front();
        lru.pop_front();
        held.erase(evicted);
      }
      lru.push_back(fp);
      const bool was_held = it != held.end();
      const double old_value = was_held ? it->second : 0.0;
      bool fresh = false;
      double stale = 0.0;
      table.Touch(fp, [&](TemplateFacts& facts) {
        // A new template (possibly in an evicted one's slot) must start
        // from nothing.
        fresh = !facts.cost_seconds.has_value() &&
                facts.latency.count == 0 &&
                facts.latency.template_text.empty() &&
                facts.drift.samples == 0 && facts.slo == nullptr;
        stale = facts.cost_seconds.value_or(0.0);
        facts.cost_seconds = value;
        facts.latency.count = op + 1;
        facts.latency.template_text = "t" + std::to_string(fp);
        facts.drift.samples = op + 1;
        facts.slo = std::make_unique<obs::SloScope>();
      });
      held[fp] = value;
      ASSERT_EQ(fresh, !was_held) << "op " << op;
      if (was_held) {
        ASSERT_EQ(stale, old_value) << "op " << op;
      }
      if (evicted != 0) {
        ASSERT_FALSE(table.Find(evicted, [](const TemplateFacts&) {}))
            << "op " << op << " kept " << evicted;
      }
    }
    ASSERT_EQ(table.size(), held.size()) << "op " << op;
    if (op % 1000 == 0 || op == 19999) {
      // Every held template is there with its own facts, in
      // fingerprint order.
      std::vector<std::pair<uint64_t, double>> visited;
      table.ForEach([&](uint64_t f, const TemplateFacts& facts) {
        visited.emplace_back(f, *facts.cost_seconds);
        EXPECT_EQ(facts.latency.template_text, "t" + std::to_string(f));
      });
      const std::vector<std::pair<uint64_t, double>> expected(held.begin(),
                                                              held.end());
      ASSERT_EQ(visited, expected) << "op " << op;
    }
  }
  // The draw exercised every case: re-touches, inserts and evictions.
  EXPECT_GT(touches, 1000);
  EXPECT_GT(evictions, 1000);
}

// ---------------------------------------------------------------------
// Every per-template consumer wired the way the server wires them, fed
// through SharedEngine::RecordQuery.

obs::FlightRecorderOptions RecorderOptions() {
  obs::FlightRecorderOptions options;
  options.capacity = 8;
  return options;
}

obs::SloBurnOptions SloOptions(std::function<double()> clock) {
  obs::SloBurnOptions options;
  options.slo_seconds = 0.0005;  // every 1 ms query breaches
  options.slo_target = 0.99;
  options.clock = std::move(clock);
  return options;
}

struct Consumers {
  explicit Consumers(std::function<double()> clock = nullptr,
                     obs::SloBurnTracker::AlertHook hook = nullptr)
      : admission(server::AdmissionConfig{}),
        flight(RecorderOptions(), &admission.templates()),
        drift(&admission.templates()),
        slo(SloOptions(std::move(clock)), &admission.templates(),
            std::move(hook)) {
    engine.admission = &admission;
    engine.flight = &flight;
    engine.drift = &drift;
    engine.slo = &slo;
  }

  /// One served query of template `fp`.
  void Serve(uint64_t fp, double exec_seconds = 0.001) {
    auto record = std::make_shared<obs::QueryRecord>();
    record->query_hash = fp;
    record->query_template = "SELECT * FROM R1 WHERE R1.s < :p0 -- " +
                             std::to_string(fp);
    record->exec_seconds = exec_seconds;
    record->total_seconds = exec_seconds;
    record->predicted_cost = exec_seconds / 2.0;  // drift ratio 2
    engine.RecordQuery(std::move(record), nullptr);
  }

  std::string Metrics() const {
    return flight.RenderPrometheusTemplates() + drift.RenderPrometheus() +
           slo.RenderPrometheus();
  }

  server::AdmissionController admission;
  obs::FlightRecorder flight;
  obs::CalibrationDriftMonitor drift;
  obs::SloBurnTracker slo;
  server::SharedEngine engine;
};

/// Distinct template labels per metric family in an exposition payload
/// (histogram suffixes folded into their family; the SLO server scope
/// is not a template).
std::map<std::string, std::set<std::string>> TemplatesPerFamily(
    const std::string& text) {
  std::map<std::string, std::set<std::string>> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t brace = line.find('{');
    if (brace == std::string::npos) {
      continue;
    }
    std::string family = line.substr(0, brace);
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0 &&
          family.rfind("dqep_template_latency_seconds", 0) == 0) {
        family.resize(family.size() - s.size());
      }
    }
    size_t label = line.find("0x", brace);
    if (label == std::string::npos) {
      continue;  // scope="server"
    }
    out[family].insert(line.substr(label, 18));
  }
  return out;
}

TEST(TemplateTableServerTest, TenThousandTemplatesStayWithinTheCap) {
  Consumers consumers;
  constexpr uint64_t kTemplates = 10000;
  for (uint64_t fp = 1; fp <= kTemplates; ++fp) {
    consumers.Serve(fp);
    ASSERT_LE(consumers.admission.templates().size(),
              obs::kTemplateTableCapacity);
  }
  EXPECT_EQ(consumers.admission.templates().size(),
            obs::kTemplateTableCapacity);
  EXPECT_EQ(consumers.drift.CalibrationAgeQueries(),
            static_cast<int64_t>(kTemplates));

  auto families = TemplatesPerFamily(consumers.Metrics());
  for (const char* family :
       {"dqep_template_latency_seconds", "dqep_template_queries_total",
        "dqep_template_decisions_total", "dqep_template_reopt_triggers_total",
        "dqep_template_reopt_adoptions_total", "dqep_template_slow_total",
        "dqep_template_regret_seconds", "dqep_template_p99_seconds",
        "dqep_template_drift_ratio", "dqep_slo_burn_rate",
        "dqep_slo_alert_firing"}) {
    ASSERT_TRUE(families.count(family)) << family;
    // Every family exports exactly the held templates: the newest ones.
    EXPECT_EQ(families[family].size(), obs::kTemplateTableCapacity)
        << family;
    char newest[32];
    std::snprintf(newest, sizeof(newest), "0x%016" PRIx64, kTemplates);
    EXPECT_TRUE(families[family].count(newest)) << family;
    EXPECT_FALSE(families[family].count("0x0000000000000001")) << family;
  }
  EXPECT_EQ(consumers.flight.TemplateStats().size(),
            obs::kTemplateTableCapacity);
  // The SLO snapshot is the server scope plus the held templates.
  EXPECT_EQ(consumers.slo.Snapshot().size(),
            obs::kTemplateTableCapacity + 1);
}

TEST(TemplateTableServerTest, RecurringTemplateSurvivesColdFlood) {
  double now = 0.0;
  Consumers consumers([&now] { return now; });
  constexpr uint64_t kHot = 0xfeedULL << 32;
  constexpr int kQueries = 10000;
  int hot = 0;
  for (int i = 1; i <= kQueries; ++i) {
    now += 0.001;
    if (i % 50 == 0) {
      consumers.Serve(kHot, 0.004);
      ++hot;
    } else {
      consumers.Serve(static_cast<uint64_t>(i));
    }
  }
  ASSERT_EQ(hot, 200);

  // Flight stats: every hot sample, none lost to eviction.
  obs::TemplateStatsView stats = consumers.flight.StatsFor(kHot);
  EXPECT_EQ(stats.count, hot);
  EXPECT_EQ(stats.sum_us, 4000 * hot);
  EXPECT_NE(stats.template_text.find(std::to_string(kHot)),
            std::string::npos);
  // Admission cost EWMA: a constant 4 ms.
  EXPECT_NEAR(consumers.admission.EstimateSeconds(kHot, -1.0), 0.004, 1e-12);
  // Drift: every sample, at its constant ratio.
  bool found = consumers.admission.templates().Find(
      kHot, [&](const TemplateFacts& facts) {
        EXPECT_EQ(facts.drift.samples, hot);
        EXPECT_NEAR(facts.drift.drift_ratio, 2.0, 1e-9);
      });
  EXPECT_TRUE(found);
  // SLO: the template's scope holds all of its (in-window) events.
  found = false;
  for (const obs::SloScopeView& view : consumers.slo.Snapshot()) {
    if (view.scope == obs::SloTemplateScope(kHot)) {
      found = true;
      EXPECT_EQ(view.slow_total, hot);
      EXPECT_EQ(view.slow_bad, hot);
      EXPECT_TRUE(view.firing);
    }
  }
  EXPECT_TRUE(found);

  // The oldest cold templates are gone from every consumer.
  EXPECT_EQ(consumers.flight.StatsFor(1).count, 0);
  EXPECT_EQ(consumers.admission.EstimateSeconds(1, -1.0), -1.0);
  EXPECT_NE(consumers.flight.RenderTemplateStatsText(1).find("no stats"),
            std::string::npos);
}

TEST(TemplateTableServerTest, ConcurrentFoldsAndRenders) {
  std::atomic<int> alerts{0};
  obs::FlightRecorder* journal = nullptr;
  // The server's hook: journal the transition in the flight recorder,
  // which takes the recorder's own lock.
  Consumers consumers(nullptr, [&](const obs::SloAlertEvent& event) {
    journal->NoteAlert(event.scope);
    alerts.fetch_add(1);
  });
  journal = &consumers.flight;
  constexpr int kFolders = 2;
  constexpr int kPerFolder = 3000;  // 4500 cold templates > the capacity
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kFolders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerFolder; ++i) {
        // Every fourth query repeats one of a few hot templates.
        const uint64_t fp = i % 4 == 0 ? 1 + static_cast<uint64_t>(i % 3)
                                       : 1000 + static_cast<uint64_t>(
                                                    t * kPerFolder + i);
        consumers.Serve(fp);
      }
    });
  }
  std::atomic<int64_t> renders{0};
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      while (!stop.load()) {
        if (t == 0) {
          EXPECT_FALSE(consumers.Metrics().empty());
          consumers.flight.RenderTemplateStatsText(0);
        } else {
          consumers.slo.RenderText();
          consumers.flight.RenderTemplateStatsText(2);
          consumers.admission.EstimateSeconds(3, 0.0);
          consumers.flight.RenderAlertsText(4);
        }
        renders.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kFolders; ++t) {
    threads[static_cast<size_t>(t)].join();
  }
  stop.store(true);
  for (size_t t = kFolders; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_GT(renders.load(), 0);
  EXPECT_EQ(consumers.drift.CalibrationAgeQueries(), kFolders * kPerFolder);
  EXPECT_EQ(consumers.admission.templates().size(),
            obs::kTemplateTableCapacity);
  // The hot templates were folded by both threads and never evicted.
  int64_t hot = 0;
  for (uint64_t fp = 1; fp <= 3; ++fp) {
    hot += consumers.flight.StatsFor(fp).count;
  }
  EXPECT_EQ(hot, kFolders * ((kPerFolder + 3) / 4));
  // Every query breaches the SLO: the server scope and each hot
  // template fired, through the hook.
  EXPECT_GE(alerts.load(), 4);
  EXPECT_EQ(alerts.load(), consumers.slo.alerts_fired() +
                               consumers.slo.alerts_resolved());
}

}  // namespace
}  // namespace dqep
