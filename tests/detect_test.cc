#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "detect/ensemble.h"
#include "detect/forecast.h"
#include "util/rng.h"

namespace pinsql::detect {
namespace {

/// Deterministic pseudo-noise without touching global rng state.
double Noise(uint64_t i, double amplitude) {
  uint64_t x = i * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 32;
  return amplitude * (static_cast<double>(x % 2000) / 1000.0 - 1.0);
}

std::vector<double> FlatSeries(size_t n, double level, double noise) {
  std::vector<double> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) v.push_back(level + Noise(i, noise));
  return v;
}

const std::vector<ForecastMethod> kAllMethods = {
    ForecastMethod::kEwma, ForecastMethod::kHolt,
    ForecastMethod::kHoltWinters};

ForecastOptions MethodOptions(ForecastMethod method) {
  ForecastOptions options;
  options.method = method;
  options.seasonal_period = 40;
  options.warmup = 90;
  return options;
}

// ----------------------------------------------------------- forecasting

TEST(ForecastDetectorTest, EveryMethodConstructsAndNames) {
  for (ForecastMethod method : kAllMethods) {
    auto det = MakeForecastDetector(MethodOptions(method), 0, 1);
    ASSERT_NE(det, nullptr);
    EXPECT_STREQ(det->name(), ForecastMethodName(method));
    EXPECT_FALSE(det->in_run());
  }
  EXPECT_STREQ(ForecastMethodName(ForecastMethod::kEwma), "ewma");
  EXPECT_STREQ(ForecastMethodName(ForecastMethod::kHolt), "holt");
  EXPECT_STREQ(ForecastMethodName(ForecastMethod::kHoltWinters),
               "holt_winters");
}

TEST(ForecastDetectorTest, QuietSeriesProducesNoEvents) {
  for (ForecastMethod method : kAllMethods) {
    SCOPED_TRACE(ForecastMethodName(method));
    auto det = MakeForecastDetector(MethodOptions(method), 0, 1);
    for (double v : FlatSeries(600, 10.0, 0.3)) {
      EXPECT_FALSE(det->Push(v).has_value());
    }
    EXPECT_FALSE(det->Finish().has_value());
  }
}

TEST(ForecastDetectorTest, SharpSpikeOpensAndClosesRun) {
  for (ForecastMethod method : kAllMethods) {
    SCOPED_TRACE(ForecastMethodName(method));
    auto det = MakeForecastDetector(MethodOptions(method), 1000, 1);
    std::vector<anomaly::FeatureEvent> events;
    auto feed = [&](double v) {
      if (auto e = det->Push(v)) events.push_back(*e);
    };
    for (double v : FlatSeries(300, 10.0, 0.3)) feed(v);
    for (size_t i = 0; i < 20; ++i) feed(60.0 + Noise(i, 0.3));
    EXPECT_TRUE(det->in_run());
    EXPECT_TRUE(det->run_up());
    for (size_t i = 0; i < 60; ++i) feed(10.0 + Noise(i + 320, 0.3));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_GE(events[0].start_sec, 1000 + 295);
    EXPECT_LE(events[0].start_sec, 1000 + 302);
    EXPECT_GT(events[0].severity, 6.0);
  }
}

TEST(ForecastDetectorTest, EwmaCatchesSlowDriftViaCusum) {
  // A ramp of +0.05/step on a sigma~0.3 series: each step is far below any
  // per-sample threshold, but the EWMA forecast lags the ramp and the
  // one-sided CUSUM accumulates the residual.
  ForecastOptions options = MethodOptions(ForecastMethod::kEwma);
  options.alpha = 0.015;
  options.threshold = 8.0;
  auto det = MakeForecastDetector(options, 0, 1);
  for (double v : FlatSeries(400, 10.0, 0.3)) det->Push(v);
  EXPECT_FALSE(det->in_run());
  bool drift_detected = false;
  for (size_t i = 0; i < 900 && !drift_detected; ++i) {
    det->Push(10.0 + 0.05 * static_cast<double>(i) + Noise(i, 0.3));
    drift_detected = det->in_run() && det->drift_run();
  }
  EXPECT_TRUE(drift_detected);
  // The drift run closes as a level shift, not a spike.
  const auto event = det->Finish();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->type, anomaly::FeatureType::kLevelShiftUp);
}

TEST(ForecastDetectorTest, HoltWintersAbsorbsSeasonality) {
  // A strong 40-sample season: Holt-Winters learns it and stays quiet; a
  // plain EWMA with the same threshold would see periodic residuals. Then
  // an off-season spike must still fire.
  ForecastOptions options = MethodOptions(ForecastMethod::kHoltWinters);
  options.threshold = 6.0;
  auto det = MakeForecastDetector(options, 0, 1);
  auto seasonal = [&](size_t i) {
    return 20.0 + 8.0 * std::sin(2.0 * M_PI * static_cast<double>(i % 40) /
                                 40.0) +
           Noise(i, 0.2);
  };
  size_t events = 0;
  for (size_t i = 0; i < 800; ++i) {
    if (det->Push(seasonal(i))) ++events;
  }
  EXPECT_EQ(events, 0u);
  EXPECT_FALSE(det->in_run());
  for (size_t i = 800; i < 820; ++i) det->Push(seasonal(i) + 40.0);
  EXPECT_TRUE(det->in_run());
}

TEST(ForecastDetectorTest, StreamingMatchesBatch) {
  // DetectForecastFeatures is a loop over Push+Finish; verify the
  // equivalence holds for every method on a spike-then-recover series.
  std::vector<double> values = FlatSeries(300, 12.0, 0.4);
  for (size_t i = 0; i < 15; ++i) values.push_back(70.0 + Noise(i, 0.4));
  for (size_t i = 0; i < 80; ++i) {
    values.push_back(12.0 + Noise(i + 500, 0.4));
  }
  const TimeSeries series(5000, 1, values);
  for (ForecastMethod method : kAllMethods) {
    SCOPED_TRACE(ForecastMethodName(method));
    const ForecastOptions options = MethodOptions(method);
    const auto batch = DetectForecastFeatures(series, options);

    auto det = MakeForecastDetector(options, series.start_time(),
                                    series.interval_sec());
    std::vector<anomaly::FeatureEvent> streamed;
    for (double v : values) {
      if (auto e = det->Push(v)) streamed.push_back(*e);
    }
    if (auto e = det->Finish()) streamed.push_back(*e);

    ASSERT_EQ(batch.size(), streamed.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].type, streamed[i].type);
      EXPECT_EQ(batch[i].start_sec, streamed[i].start_sec);
      EXPECT_EQ(batch[i].end_sec, streamed[i].end_sec);
      EXPECT_DOUBLE_EQ(batch[i].severity, streamed[i].severity);
    }
  }
}

TEST(ForecastDetectorTest, SnapshotRestoreResumesBitIdentically) {
  // Split the stream at an arbitrary point (inside the spike, so run state
  // is live), snapshot, restore into a fresh detector, and require the
  // remaining pushes to produce identical events and identical final
  // state. Covers every method's model pack/unpack.
  std::vector<double> values = FlatSeries(250, 15.0, 0.5);
  for (size_t i = 0; i < 30; ++i) values.push_back(90.0 + Noise(i, 0.5));
  for (size_t i = 0; i < 120; ++i) {
    values.push_back(15.0 + Noise(i + 400, 0.5));
  }
  for (ForecastMethod method : kAllMethods) {
    SCOPED_TRACE(ForecastMethodName(method));
    const ForecastOptions options = MethodOptions(method);
    const size_t split = 262;  // mid-spike

    auto full = MakeForecastDetector(options, 0, 1);
    std::vector<anomaly::FeatureEvent> full_events;
    for (double v : values) {
      if (auto e = full->Push(v)) full_events.push_back(*e);
    }

    auto first = MakeForecastDetector(options, 0, 1);
    std::vector<anomaly::FeatureEvent> split_events;
    for (size_t i = 0; i < split; ++i) {
      if (auto e = first->Push(values[i])) split_events.push_back(*e);
    }
    const ForecastSnapshot snap = first->ExportSnapshot();

    auto resumed = MakeForecastDetector(options, 0, 1);
    resumed->Restore(snap);
    EXPECT_EQ(resumed->count(), first->count());
    EXPECT_EQ(resumed->in_run(), first->in_run());
    for (size_t i = split; i < values.size(); ++i) {
      if (auto e = resumed->Push(values[i])) split_events.push_back(*e);
    }

    ASSERT_EQ(full_events.size(), split_events.size());
    for (size_t i = 0; i < full_events.size(); ++i) {
      EXPECT_EQ(full_events[i].type, split_events[i].type);
      EXPECT_EQ(full_events[i].start_sec, split_events[i].start_sec);
      EXPECT_EQ(full_events[i].end_sec, split_events[i].end_sec);
      EXPECT_DOUBLE_EQ(full_events[i].severity, split_events[i].severity);
    }
    // Final snapshots are byte-equal field-by-field.
    const ForecastSnapshot a = full->ExportSnapshot();
    const ForecastSnapshot b = resumed->ExportSnapshot();
    EXPECT_EQ(a.count, b.count);
    EXPECT_DOUBLE_EQ(a.mad, b.mad);
    EXPECT_DOUBLE_EQ(a.cusum, b.cusum);
    EXPECT_EQ(a.in_run, b.in_run);
    EXPECT_EQ(a.drift_run, b.drift_run);
    ASSERT_EQ(a.model.size(), b.model.size());
    for (size_t i = 0; i < a.model.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.model[i], b.model[i]);
    }
  }
}

// --------------------------------------------------------------- ensemble

std::vector<double> SpikeSeries() {
  std::vector<double> values = FlatSeries(300, 8.0, 0.4);
  for (size_t i = 0; i < 40; ++i) values.push_back(45.0 + Noise(i, 0.4));
  for (size_t i = 0; i < 100; ++i) {
    values.push_back(8.0 + Noise(i + 600, 0.4));
  }
  return values;
}

std::vector<double> DriftSeries() {
  std::vector<double> values = FlatSeries(600, 8.0, 0.4);
  for (size_t i = 0; i < 1500; ++i) {
    values.push_back(8.0 + 0.02 * static_cast<double>(i) + Noise(i, 0.4));
  }
  return values;
}

EnsembleOptions StockEnsemble() {
  EnsembleOptions options;
  options.forecasters = DefaultEnsembleForecasters();
  return options;
}

TEST(EnsembleTest, ScreenConfirmsSharpAnomalyAndIsAttributed) {
  EnsembleDetector ensemble(StockEnsemble());
  std::vector<EnsembleTrigger> triggers;
  int64_t sec = 70000;
  for (double v : SpikeSeries()) {
    if (auto t = ensemble.Observe(sec++, v)) triggers.push_back(*t);
  }
  ASSERT_EQ(triggers.size(), 1u);
  EXPECT_STREQ(triggers[0].source, "robust_z_pettitt");
  EXPECT_LT(triggers[0].pettitt_p, 0.1);
  EXPECT_GE(triggers[0].onset_sec, 70295);
  EXPECT_LE(triggers[0].onset_sec, 70302);
}

TEST(EnsembleTest, ForecasterConfirmsDriftTheScreenMisses) {
  // Screen-only: the rolling clean baseline absorbs the creep.
  EnsembleOptions screen_only;
  EnsembleDetector screen(screen_only);
  // Stock ensemble: the EWMA member's CUSUM accumulates it.
  EnsembleDetector stock(StockEnsemble());
  size_t screen_triggers = 0;
  std::vector<EnsembleTrigger> stock_triggers;
  int64_t sec = 0;
  for (double v : DriftSeries()) {
    if (screen.Observe(sec, v)) ++screen_triggers;
    if (auto t = stock.Observe(sec, v)) stock_triggers.push_back(*t);
    ++sec;
  }
  EXPECT_EQ(screen_triggers, 0u);
  ASSERT_GE(stock_triggers.size(), 1u);
  EXPECT_STREQ(stock_triggers[0].source, "ewma");
  // Onset back-dates to where the CUSUM excursion began, inside the ramp.
  EXPECT_GE(stock_triggers[0].onset_sec, 600);
  EXPECT_GT(stock_triggers[0].trigger_sec, stock_triggers[0].onset_sec);
}

TEST(EnsembleTest, OneTriggerPerIncidentThenRearms) {
  EnsembleDetector ensemble(StockEnsemble());
  std::vector<const char*> sources;
  int64_t sec = 0;
  auto feed = [&](const std::vector<double>& values) {
    for (double v : values) {
      if (auto t = ensemble.Observe(sec, v)) sources.push_back(t->source);
      ++sec;
    }
  };
  feed(SpikeSeries());  // incident 1
  EXPECT_FALSE(ensemble.in_run());
  feed(SpikeSeries());  // incident 2 after full recovery
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_STREQ(sources[0], "robust_z_pettitt");
  EXPECT_STREQ(sources[1], "robust_z_pettitt");
}

TEST(EnsembleTest, LegacyParityWithEmptyForecasters) {
  // use_screen + no forecasters must reproduce the legacy screen's trigger
  // sequence and rejection counts exactly (this is the bit-compatibility
  // contract the serve fleet relies on across the upgrade).
  EnsembleOptions legacy;
  EnsembleDetector a(legacy);
  EnsembleDetector b(legacy);
  int64_t sec = 0;
  for (double v : SpikeSeries()) {
    const auto ta = a.Observe(sec, v);
    const auto tb = b.Observe(sec, v);
    ASSERT_EQ(ta.has_value(), tb.has_value());
    if (ta) {
      EXPECT_EQ(ta->onset_sec, tb->onset_sec);
      EXPECT_DOUBLE_EQ(ta->severity, tb->severity);
    }
    ++sec;
  }
  EXPECT_EQ(a.pettitt_rejections(), b.pettitt_rejections());
}

TEST(EnsembleTest, SnapshotRestoreMidIncident) {
  const std::vector<double> values = DriftSeries();
  const size_t split = 1400;  // mid-ramp, CUSUM partially accumulated

  EnsembleDetector full(StockEnsemble());
  std::vector<EnsembleTrigger> full_triggers;
  for (size_t i = 0; i < values.size(); ++i) {
    if (auto t = full.Observe(static_cast<int64_t>(i), values[i])) {
      full_triggers.push_back(*t);
    }
  }

  EnsembleDetector first(StockEnsemble());
  std::vector<EnsembleTrigger> split_triggers;
  for (size_t i = 0; i < split; ++i) {
    if (auto t = first.Observe(static_cast<int64_t>(i), values[i])) {
      split_triggers.push_back(*t);
    }
  }
  const EnsembleSnapshot snap = first.ExportSnapshot();
  EnsembleDetector resumed(StockEnsemble());
  resumed.Restore(snap);
  for (size_t i = split; i < values.size(); ++i) {
    if (auto t = resumed.Observe(static_cast<int64_t>(i), values[i])) {
      split_triggers.push_back(*t);
    }
  }

  ASSERT_EQ(full_triggers.size(), split_triggers.size());
  for (size_t i = 0; i < full_triggers.size(); ++i) {
    EXPECT_EQ(full_triggers[i].onset_sec, split_triggers[i].onset_sec);
    EXPECT_EQ(full_triggers[i].trigger_sec, split_triggers[i].trigger_sec);
    EXPECT_DOUBLE_EQ(full_triggers[i].severity, split_triggers[i].severity);
    EXPECT_STREQ(full_triggers[i].source, split_triggers[i].source);
  }
  EXPECT_EQ(full.pettitt_rejections(), resumed.pettitt_rejections());
}

TEST(EnsembleTest, ResetDropsRunStateButKeepsRejectionStat) {
  EnsembleDetector ensemble(StockEnsemble());
  int64_t sec = 0;
  for (double v : FlatSeries(300, 8.0, 0.4)) ensemble.Observe(sec++, v);
  for (size_t i = 0; i < 10; ++i) {
    ensemble.Observe(sec++, 50.0 + Noise(i, 0.4));
  }
  EXPECT_TRUE(ensemble.in_run());
  const uint64_t rejections = ensemble.pettitt_rejections();
  ensemble.Reset();
  EXPECT_FALSE(ensemble.in_run());
  EXPECT_EQ(ensemble.pettitt_rejections(), rejections);
  // Post-reset the ensemble relearns from scratch: the next samples at a
  // new level are a baseline, not an anomaly.
  std::vector<EnsembleTrigger> triggers;
  for (double v : FlatSeries(300, 50.0, 0.4)) {
    if (auto t = ensemble.Observe(sec++, v)) triggers.push_back(*t);
  }
  EXPECT_TRUE(triggers.empty());
}

}  // namespace
}  // namespace pinsql::detect
