// Decision-quality observatory tests: SLO burn-rate window math under a
// deterministic injected clock (budget exhaustion, fast-spike vs.
// slow-confirmation, resolve hysteresis), calibration-drift gauge
// convergence under a mis-scaled cost profile, and flight-recorder
// spool rotation plus the alert journal.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/alerts.h"
#include "obs/drift.h"
#include "obs/flight_recorder.h"
#include "obs/template_table.h"

namespace dqep {
namespace obs {
namespace {

// ---------------------------------------------------------------------
// SLO burn-rate tracker.  All tests inject a manual clock: the tracker
// never reads real time, so window expiry is driven explicitly.

struct ManualClock {
  double now = 0.0;
  std::function<double()> fn() {
    return [this] { return now; };
  }
};

// Each consumer folds under the table's lock, the way
// server::SharedEngine::RecordQuery drives all of them at once; these
// helpers drive one consumer alone.

void Record(SloBurnTracker* tracker, TemplateTable* templates, uint64_t fp,
            double seconds) {
  std::vector<SloAlertEvent> events;
  templates->Touch(fp, [&](TemplateFacts& facts) {
    tracker->Fold(fp, &facts, seconds, &events);
  });
  tracker->Deliver(events);
}

void Record(CalibrationDriftMonitor* monitor, TemplateTable* templates,
            uint64_t fp, double predicted_seconds, double actual_seconds) {
  templates->Touch(fp, [&](TemplateFacts& facts) {
    monitor->Fold(&facts.drift, predicted_seconds, actual_seconds);
  });
}

FlightEntry Record(FlightRecorder* recorder, TemplateTable* templates,
                   std::shared_ptr<const QueryRecord> record) {
  std::string slow_reason =
      templates->Touch(record->query_hash, [&](TemplateFacts& facts) {
        return recorder->Fold(&facts.latency, *record);
      });
  return recorder->Deposit(std::move(record), std::move(slow_reason));
}

struct DriftRow : TemplateDrift {
  uint64_t fingerprint = 0;
};

/// Every template's drift state with samples, by fingerprint.
std::vector<DriftRow> DriftSnapshot(const TemplateTable& templates) {
  std::vector<DriftRow> rows;
  templates.ForEach([&](uint64_t fp, const TemplateFacts& facts) {
    if (facts.drift.samples > 0) {
      DriftRow row;
      static_cast<TemplateDrift&>(row) = facts.drift;
      row.fingerprint = fp;
      rows.push_back(row);
    }
  });
  return rows;
}

SloBurnOptions TestOptions(ManualClock* clock) {
  SloBurnOptions options;
  options.slo_seconds = 0.050;  // 50 ms objective
  options.slo_target = 0.90;    // 10% error budget
  options.fast_window_seconds = 60.0;
  options.slow_window_seconds = 600.0;
  options.fire_burn_rate = 1.0;
  options.resolve_burn_rate = 0.5;
  options.min_window_samples = 5;
  options.clock = clock->fn();
  return options;
}

TEST(SloBurnTrackerTest, DisabledTrackerIsInert) {
  SloBurnOptions options;
  options.slo_seconds = 0.0;  // disabled
  TemplateTable templates;
  SloBurnTracker tracker(options, &templates);
  EXPECT_FALSE(tracker.enabled());
  Record(&tracker, &templates, 0xabc, 10.0);
  EXPECT_TRUE(tracker.Snapshot().empty());
  EXPECT_TRUE(tracker.RenderPrometheus().empty());
  EXPECT_EQ(tracker.alerts_fired(), 0);
}

TEST(SloBurnTrackerTest, GoodTrafficNeverFires) {
  ManualClock clock;
  TemplateTable templates;
  SloBurnTracker tracker(TestOptions(&clock), &templates);
  for (int i = 0; i < 100; ++i) {
    clock.now += 1.0;
    Record(&tracker, &templates, 0x1, 0.001);  // well under the 50 ms objective
  }
  EXPECT_EQ(tracker.alerts_fired(), 0);
  std::vector<SloScopeView> scopes = tracker.Snapshot();
  ASSERT_FALSE(scopes.empty());
  EXPECT_EQ(scopes.front().scope, "server");
  EXPECT_EQ(scopes.front().fast_bad, 0);
  EXPECT_DOUBLE_EQ(scopes.front().fast_burn, 0.0);
  EXPECT_FALSE(scopes.front().firing);
}

TEST(SloBurnTrackerTest, BudgetExhaustionFiresBothScopes) {
  ManualClock clock;
  TemplateTable templates;
  std::vector<SloAlertEvent> events;
  SloBurnTracker tracker(
      TestOptions(&clock), &templates,
      [&events](const SloAlertEvent& e) { events.push_back(e); });

  // Every query breaches: burn = (1/1) / 0.1 = 10x in both windows.
  // The fire needs min_window_samples = 5 in the fast window, so the
  // transition lands exactly on the fifth record.
  for (int i = 0; i < 5; ++i) {
    clock.now += 1.0;
    Record(&tracker, &templates, 0xfeed, 1.0);
    if (i < 4) {
      EXPECT_EQ(tracker.alerts_fired(), 0) << "fired before min samples";
    }
  }
  // Server scope and template scope each fired once.
  EXPECT_EQ(tracker.alerts_fired(), 2);
  EXPECT_EQ(tracker.alerts_resolved(), 0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].scope, "server");
  EXPECT_EQ(events[1].scope, SloTemplateScope(0xfeed));
  for (const SloAlertEvent& e : events) {
    EXPECT_TRUE(e.firing);
    EXPECT_NEAR(e.fast_burn, 10.0, 1e-9);
    EXPECT_NEAR(e.slow_burn, 10.0, 1e-9);
  }
  // A continued burn does not re-fire (the alert is already up).
  clock.now += 1.0;
  Record(&tracker, &templates, 0xfeed, 1.0);
  EXPECT_EQ(tracker.alerts_fired(), 2);
}

TEST(SloBurnTrackerTest, FastSpikeWithoutSlowConfirmationStaysQuiet) {
  ManualClock clock;
  TemplateTable templates;
  SloBurnTracker tracker(TestOptions(&clock), &templates);

  // Nine minutes of clean traffic fill the slow window: 540 good
  // queries, one per second.
  for (int i = 0; i < 540; ++i) {
    clock.now += 1.0;
    Record(&tracker, &templates, 0x2, 0.001);
  }
  // A 20-second spike of pure errors: the fast window burns at
  // (20/80)/0.1 = 2.5x >= fire, but the slow window holds
  // (20/560)/0.1 = 0.36x < fire — no alert (spike, not an outage).
  for (int i = 0; i < 20; ++i) {
    clock.now += 1.0;
    Record(&tracker, &templates, 0x2, 1.0);
  }
  EXPECT_EQ(tracker.alerts_fired(), 0);
  std::vector<SloScopeView> scopes = tracker.Snapshot();
  const SloScopeView& server = scopes.front();
  EXPECT_GE(server.fast_burn, 1.0);
  EXPECT_LT(server.slow_burn, 1.0);

  // The outage persists: once enough of the slow window is bad, both
  // windows agree and the alert fires.
  int64_t before = tracker.alerts_fired();
  for (int i = 0; i < 60 && tracker.alerts_fired() == before; ++i) {
    clock.now += 1.0;
    Record(&tracker, &templates, 0x2, 1.0);
  }
  EXPECT_GT(tracker.alerts_fired(), before);
}

TEST(SloBurnTrackerTest, ResolveHysteresis) {
  ManualClock clock;
  TemplateTable templates;
  std::vector<SloAlertEvent> events;
  SloBurnTracker tracker(
      TestOptions(&clock), &templates,
      [&events](const SloAlertEvent& e) { events.push_back(e); });

  // Fire: five straight breaches.
  for (int i = 0; i < 5; ++i) {
    clock.now += 1.0;
    Record(&tracker, &templates, 0x3, 1.0);
  }
  ASSERT_EQ(tracker.alerts_fired(), 2);  // server + template

  // Recovery traffic dilutes the fast window, but while its burn is
  // still above the resolve threshold (0.5 => bad fraction 5%), the
  // alert stays up: 5 bad of 55 total is 9.1% bad, burn 0.91.
  for (int i = 0; i < 50; ++i) {
    clock.now += 0.1;
    Record(&tracker, &templates, 0x3, 0.001);
  }
  EXPECT_EQ(tracker.alerts_resolved(), 0);
  std::vector<SloScopeView> scopes = tracker.Snapshot();
  EXPECT_TRUE(scopes.front().firing);
  EXPECT_GT(scopes.front().fast_burn, 0.5);

  // More good traffic pushes the fast burn through the resolve
  // threshold: 5 bad of 101+ total < 5% bad.  Both scopes resolve.
  for (int i = 0; i < 60; ++i) {
    clock.now += 0.1;
    Record(&tracker, &templates, 0x3, 0.001);
  }
  EXPECT_EQ(tracker.alerts_resolved(), 2);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_FALSE(events[2].firing);
  EXPECT_FALSE(events[3].firing);

  // And the events age out entirely: sixty-plus seconds later the fast
  // window is empty, burn 0, still resolved (no flapping).
  clock.now += 120.0;
  Record(&tracker, &templates, 0x3, 0.001);
  EXPECT_EQ(tracker.alerts_fired(), 2);
  EXPECT_EQ(tracker.alerts_resolved(), 2);
}

TEST(SloBurnTrackerTest, WindowExpiryDropsOldEvents) {
  ManualClock clock;
  TemplateTable templates;
  SloBurnTracker tracker(TestOptions(&clock), &templates);
  for (int i = 0; i < 4; ++i) {
    clock.now += 1.0;
    Record(&tracker, &templates, 0x4, 1.0);  // four breaches: below min samples
  }
  EXPECT_EQ(tracker.alerts_fired(), 0);
  // 70 seconds later the breaches have left the fast window (60 s) but
  // still sit in the slow window (600 s); a snapshot reflects that
  // without any new Record call.
  clock.now += 70.0;
  std::vector<SloScopeView> scopes = tracker.Snapshot();
  const SloScopeView& server = scopes.front();
  EXPECT_EQ(server.fast_total, 0);
  EXPECT_EQ(server.slow_total, 4);
  EXPECT_EQ(server.slow_bad, 4);
}

TEST(SloBurnTrackerTest, PrometheusRenderingCarriesAllFamilies) {
  ManualClock clock;
  TemplateTable templates;
  SloBurnTracker tracker(TestOptions(&clock), &templates);
  for (int i = 0; i < 5; ++i) {
    clock.now += 1.0;
    Record(&tracker, &templates, 0xabcdef, 1.0);
  }
  std::string text = tracker.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE dqep_slo_burn_rate gauge"), std::string::npos);
  EXPECT_NE(text.find("dqep_slo_burn_rate{scope=\"server\",window=\"fast\"}"),
            std::string::npos);
  EXPECT_NE(text.find("window=\"slow\""), std::string::npos);
  EXPECT_NE(
      text.find("scope=\"template:0x0000000000abcdef\",window=\"fast\""),
      std::string::npos);
  EXPECT_NE(text.find("dqep_slo_alert_firing{scope=\"server\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dqep_slo_alerts_fired_total 2"), std::string::npos);
  EXPECT_NE(text.find("dqep_slo_alerts_resolved_total 0"),
            std::string::npos);
  EXPECT_NE(tracker.RenderText().find("server"), std::string::npos);
}

// ---------------------------------------------------------------------
// Calibration-drift monitor.

TEST(CalibrationDriftTest, ConvergesUnderMisScaledProfile) {
  TemplateTable templates;
  CalibrationDriftMonitor monitor(&templates);
  // A cost profile mis-scaled 3x low: the model predicts a third of the
  // measured time, so every query's actual/predicted ratio is ~3.  The
  // EWMA gauge must converge to the mis-scale factor.
  for (int i = 0; i < 60; ++i) {
    double predicted = 0.010 + 0.001 * (i % 7);
    Record(&monitor, &templates, 0xcafe, predicted, predicted * 3.0);
  }
  std::vector<DriftRow> snapshot = DriftSnapshot(templates);
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].fingerprint, 0xcafe);
  EXPECT_EQ(snapshot[0].samples, 60);
  EXPECT_NEAR(snapshot[0].drift_ratio, 3.0, 1e-6);
  EXPECT_NEAR(snapshot[0].last_ratio, 3.0, 1e-6);

  // A calibrated profile (ratio ~1) pulls the gauge back: within a few
  // dozen queries the EWMA has crossed most of the gap.
  for (int i = 0; i < 40; ++i) {
    Record(&monitor, &templates, 0xcafe, 0.010, 0.010);
  }
  snapshot = DriftSnapshot(templates);
  EXPECT_LT(snapshot[0].drift_ratio, 1.1);
  EXPECT_GE(snapshot[0].drift_ratio, 1.0);
}

TEST(CalibrationDriftTest, SingleOutlierBarelyMovesTheGauge) {
  TemplateTable templates;
  CalibrationDriftMonitor monitor(&templates);  // EWMA alpha 0.1
  for (int i = 0; i < 50; ++i) {
    Record(&monitor, &templates, 0x1, 0.010, 0.010);  // calibrated: ratio 1
  }
  Record(&monitor, &templates, 0x1, 0.010, 0.100);  // one 10x outlier
  std::vector<DriftRow> snapshot = DriftSnapshot(templates);
  // EWMA moves by alpha * (10 - 1) = 0.9 at most, not to 10.
  EXPECT_LT(snapshot[0].drift_ratio, 2.0);
  EXPECT_NEAR(snapshot[0].last_ratio, 10.0, 1e-9);
}

TEST(CalibrationDriftTest, AgeCounterCountsEveryRecordedQuery) {
  TemplateTable templates;
  CalibrationDriftMonitor monitor(&templates);
  EXPECT_EQ(monitor.CalibrationAgeQueries(), 0);
  for (int i = 0; i < 7; ++i) {
    Record(&monitor, &templates, 0x1, 0.010, 0.020);
  }
  // Skipped samples (no usable signal) still age the calibration.
  Record(&monitor, &templates, 0x1, 0.0, 0.020);
  Record(&monitor, &templates, 0x1, 0.010, -1.0);
  EXPECT_EQ(monitor.CalibrationAgeQueries(), 9);
  // The skipped samples contributed no ratio.
  EXPECT_EQ(DriftSnapshot(templates)[0].samples, 7);
}

TEST(CalibrationDriftTest, PrometheusRenderingAlwaysHasAgeSample) {
  TemplateTable templates;
  CalibrationDriftMonitor monitor(&templates);
  // Even with no templates, the age gauge renders — the exporter's
  // --require check depends on the family never being empty.
  std::string empty = monitor.RenderPrometheus();
  EXPECT_NE(empty.find("dqep_calibration_age_queries 0"), std::string::npos);

  Record(&monitor, &templates, 0xbeef, 0.010, 0.025);
  std::string text = monitor.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE dqep_template_drift_ratio gauge"),
            std::string::npos);
  EXPECT_NE(
      text.find("dqep_template_drift_ratio{template=\"0x000000000000beef\"}"),
      std::string::npos);
  EXPECT_NE(text.find("dqep_calibration_age_queries 1"), std::string::npos);
}

// ---------------------------------------------------------------------
// Flight-recorder spool rotation and the alert journal.

TEST(FlightRecorderSpoolTest, RotationKeepsOnlyTheNewestBundles) {
  char tmpl[] = "/tmp/dqepalertspoolXXXXXX";
  const std::string dir = ::mkdtemp(tmpl);
  TemplateTable templates;
  FlightRecorderOptions options;
  options.capacity = 16;
  options.slow_query_ms = 1.0;  // every 0.5 s query is slow
  options.spool_dir = dir;
  options.max_spool_bundles = 2;
  FlightRecorder recorder(options, &templates);

  std::vector<std::string> paths;
  for (int i = 0; i < 5; ++i) {
    auto record = std::make_shared<QueryRecord>();
    record->query_hash = 0x5;
    record->query = "SELECT " + std::to_string(i);
    record->total_seconds = 0.5;
    FlightEntry finished = Record(&recorder, &templates, std::move(record));
    ASSERT_TRUE(finished.slow());
    ASSERT_FALSE(finished.bundle_path.empty());
    paths.push_back(finished.bundle_path);
  }
  // Only the two newest bundles survive on disk.
  struct stat st;
  for (size_t i = 0; i < paths.size(); ++i) {
    bool exists = ::stat(paths[i].c_str(), &st) == 0;
    EXPECT_EQ(exists, i >= paths.size() - 2) << paths[i];
  }

  // A fresh recorder over the same spool (a restart) seeds its
  // retention state from the surviving files: a tighter cap trims the
  // backlog immediately, before any new query.
  FlightRecorderOptions tighter = options;
  tighter.max_spool_bundles = 1;
  FlightRecorder restarted(tighter, &templates);
  EXPECT_NE(::stat(paths[3].c_str(), &st), 0);  // older one trimmed
  EXPECT_EQ(::stat(paths[4].c_str(), &st), 0);  // newest survives
  std::remove(paths[4].c_str());
  ::rmdir(dir.c_str());
}

TEST(FlightRecorderSpoolTest, UnboundedSpoolKeepsEverything) {
  char tmpl[] = "/tmp/dqepalertspoolXXXXXX";
  const std::string dir = ::mkdtemp(tmpl);
  TemplateTable templates;
  FlightRecorderOptions options;
  options.capacity = 16;
  options.slow_query_ms = 1.0;
  options.spool_dir = dir;
  options.max_spool_bundles = 0;  // unbounded (the default)
  FlightRecorder recorder(options, &templates);
  std::vector<std::string> paths;
  for (int i = 0; i < 4; ++i) {
    auto record = std::make_shared<QueryRecord>();
    record->query_hash = 0x6;
    record->total_seconds = 0.5;
    paths.push_back(
        Record(&recorder, &templates, std::move(record)).bundle_path);
  }
  struct stat st;
  for (const std::string& path : paths) {
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    std::remove(path.c_str());
  }
  ::rmdir(dir.c_str());
}

TEST(FlightRecorderAlertJournalTest, NewestFirstAndBounded) {
  TemplateTable templates;
  FlightRecorderOptions options;
  options.capacity = 4;
  FlightRecorder recorder(options, &templates);
  EXPECT_NE(recorder.RenderAlertsText(8).find("no alert transitions"),
            std::string::npos);
  for (int i = 0; i < 200; ++i) {
    recorder.NoteAlert("FIRING server (fast burn " + std::to_string(i) +
                       ")");
  }
  std::string text = recorder.RenderAlertsText(2);
  // Newest first, bounded to the requested count.
  EXPECT_NE(text.find("fast burn 199"), std::string::npos);
  EXPECT_NE(text.find("fast burn 198"), std::string::npos);
  EXPECT_EQ(text.find("fast burn 197"), std::string::npos);
  // The journal itself is bounded: the oldest lines are gone even when
  // asking for far more than the cap.
  std::string all = recorder.RenderAlertsText(10000);
  EXPECT_EQ(all.find("fast burn 0)"), std::string::npos);
  EXPECT_NE(all.find("fast burn 199"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace dqep
