#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "anomaly/detectors.h"
#include "anomaly/pettitt.h"
#include "anomaly/phenomenon.h"
#include "util/rng.h"

namespace pinsql::anomaly {
namespace {

/// Baseline ~N(10, 1) series with optional injected segments.
TimeSeries NoisySeries(int64_t start, size_t n, uint64_t seed,
                       double mean = 10.0, double stddev = 1.0) {
  Rng rng(seed);
  TimeSeries ts(start, 1, n);
  for (size_t i = 0; i < n; ++i) ts[i] = rng.Normal(mean, stddev);
  return ts;
}

// ---------------------------------------------------------------- Features

TEST(DetectorTest, CleanSeriesHasNoEvents) {
  const TimeSeries ts = NoisySeries(0, 600, 1);
  const auto events = DetectFeatures(ts, DetectorOptions{});
  EXPECT_TRUE(events.empty());
}

TEST(DetectorTest, SpikeUpDetectedAndBounded) {
  TimeSeries ts = NoisySeries(0, 600, 2);
  for (size_t i = 300; i < 330; ++i) ts[i] = 60.0;  // recovers -> spike
  const auto events = DetectFeatures(ts, DetectorOptions{});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, FeatureType::kSpikeUp);
  EXPECT_NEAR(static_cast<double>(events[0].start_sec), 300.0, 2.0);
  EXPECT_NEAR(static_cast<double>(events[0].end_sec), 330.0, 2.0);
  EXPECT_GT(events[0].severity, 6.0);
}

TEST(DetectorTest, SpikeDownDetected) {
  TimeSeries ts = NoisySeries(0, 600, 3, 50.0, 2.0);
  for (size_t i = 200; i < 220; ++i) ts[i] = 1.0;
  const auto events = DetectFeatures(ts, DetectorOptions{});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, FeatureType::kSpikeDown);
}

TEST(DetectorTest, LevelShiftWhenNoRecovery) {
  TimeSeries ts = NoisySeries(0, 600, 4);
  for (size_t i = 300; i < 600; i++) ts[i] = 80.0;  // stays high to the end
  const auto events = DetectFeatures(ts, DetectorOptions{});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, FeatureType::kLevelShiftUp);
  EXPECT_EQ(events[0].end_sec, 600);
}

TEST(DetectorTest, LongRunClassifiedAsLevelShiftEvenIfRecovers) {
  DetectorOptions options;
  options.level_shift_min_sec = 100;
  TimeSeries ts = NoisySeries(0, 600, 5);
  for (size_t i = 200; i < 350; ++i) ts[i] = 70.0;  // 150 s > 100 s
  const auto events = DetectFeatures(ts, options);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, FeatureType::kLevelShiftUp);
}

TEST(DetectorTest, BaselineFrozenDuringLongAnomaly) {
  // A 200 s pile-up must stay one event: the contaminated points must not
  // enter the baseline and "normalize" the anomaly away.
  TimeSeries ts = NoisySeries(0, 700, 6);
  for (size_t i = 400; i < 620; ++i) {
    ts[i] = 60.0 + static_cast<double>(i - 400) * 0.2;  // growing pile-up
  }
  DetectorOptions options;
  const auto events = DetectFeatures(ts, options);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LE(events[0].start_sec, 402);
  EXPECT_GE(events[0].end_sec, 618);
}

TEST(DetectorTest, NoDetectionBeforeMinBaseline) {
  DetectorOptions options;
  options.min_baseline = 50;
  TimeSeries ts = NoisySeries(0, 60, 7);
  ts[10] = 1000.0;  // before the baseline warms up
  const auto events = DetectFeatures(ts, options);
  EXPECT_TRUE(events.empty());
}

TEST(DetectorTest, FlatBaselineUsesMadFloor) {
  // Constant series then a small absolute bump: the MAD floor keeps the
  // z-score finite and the small bump unflagged.
  TimeSeries ts(0, 1, std::vector<double>(300, 5.0));
  ts[200] = 5.4;
  EXPECT_TRUE(DetectFeatures(ts, DetectorOptions{}).empty());
  ts[210] = 50.0;
  EXPECT_EQ(DetectFeatures(ts, DetectorOptions{}).size(), 1u);
}

TEST(DetectorTest, HasFeatureInRange) {
  std::vector<FeatureEvent> events = {
      {FeatureType::kSpikeUp, 100, 120, 8.0}};
  EXPECT_TRUE(HasFeatureInRange(events, FeatureType::kSpikeUp, 110, 200));
  EXPECT_FALSE(HasFeatureInRange(events, FeatureType::kSpikeUp, 120, 200));
  EXPECT_FALSE(HasFeatureInRange(events, FeatureType::kSpikeDown, 100, 120));
}

TEST(DetectorTest, FeatureTypeNames) {
  EXPECT_STREQ(FeatureTypeName(FeatureType::kSpikeUp), "spike_up");
  EXPECT_STREQ(FeatureTypeName(FeatureType::kLevelShiftDown),
               "level_shift_down");
}

TEST(DetectorTest, StreamingPushMatchesBatchDetectFeatures) {
  // The online service feeds StreamingFeatureDetector one sample at a
  // time; the batch DetectFeatures must be the exact same computation. Mix
  // spikes, a recovery, a terminal level shift and telemetry gaps.
  TimeSeries ts = NoisySeries(5000, 900, 77);
  for (size_t i = 200; i < 230; ++i) ts[i] = 120.0;  // spike, recovers
  for (size_t i = 480; i < 490; ++i) ts[i] = 0.1;    // downward spike
  for (size_t i = 520; i < 524; ++i) {
    ts[i] = std::numeric_limits<double>::quiet_NaN();
  }
  for (size_t i = 700; i < 900; ++i) ts[i] = 95.0;   // never recovers

  const DetectorOptions options;
  const auto batch = DetectFeatures(ts, options);
  ASSERT_GE(batch.size(), 3u);

  StreamingFeatureDetector streaming(options, ts.start_time(),
                                     ts.interval_sec());
  std::vector<FeatureEvent> streamed;
  for (size_t i = 0; i < ts.size(); ++i) {
    if (auto event = streaming.Push(ts[i])) streamed.push_back(*event);
  }
  if (auto event = streaming.Finish()) streamed.push_back(*event);

  ASSERT_EQ(streamed.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].type, batch[i].type);
    EXPECT_EQ(streamed[i].start_sec, batch[i].start_sec);
    EXPECT_EQ(streamed[i].end_sec, batch[i].end_sec);
    EXPECT_DOUBLE_EQ(streamed[i].severity, batch[i].severity);
  }
}

/// The screen as it scored before it kept a sorted window: every score
/// after a clean sample copies the window and selects the median and the
/// MAD with nth_element. The sorted window must reproduce it.
class CopySelectScreen {
 public:
  explicit CopySelectScreen(const DetectorOptions& options)
      : options_(options) {}

  std::optional<FeatureEvent> Push(double value) {
    std::optional<FeatureEvent> closed;
    bool flagged = false;
    bool up = true;
    double z = 0.0;
    if (clean_.size() >= options_.min_baseline) {
      if (!fresh_) {
        std::vector<double> v(clean_.begin(), clean_.end());
        median_ = MedianOf(v);
        for (double& x : v) x = std::fabs(x - median_);
        mad_ = MedianOf(std::move(v));
        mad_ = std::max(mad_,
                        options_.mad_floor_frac * std::fabs(median_) + 0.5);
        fresh_ = true;
      }
      z = (value - median_) / (1.4826 * mad_);
      if (z > options_.threshold) {
        flagged = true;
      } else if (z < -options_.threshold) {
        flagged = true;
        up = false;
      }
    }
    last_z_ = z;
    if (flagged) {
      if (in_run_ && up != run_up_) closed = CloseRun(true);
      if (!in_run_) {
        in_run_ = true;
        run_up_ = up;
        run_start_ = count_;
        run_peak_ = std::fabs(z);
      } else {
        run_peak_ = std::max(run_peak_, std::fabs(z));
      }
    } else {
      if (in_run_) closed = CloseRun(true);
      clean_.push_back(value);
      if (clean_.size() > options_.baseline_window) clean_.pop_front();
      fresh_ = false;
    }
    ++count_;
    return closed;
  }

  std::optional<FeatureEvent> Finish() {
    if (!in_run_) return std::nullopt;
    return CloseRun(false);
  }

  double last_z() const { return last_z_; }
  double median() const { return median_; }
  double mad() const { return mad_; }
  bool fresh() const { return fresh_; }

 private:
  static double MedianOf(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid),
                     v.end());
    double hi = v[mid];
    if (v.size() % 2 == 1) return hi;
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid) - 1,
                     v.begin() + static_cast<ptrdiff_t>(mid));
    return 0.5 * (hi + v[mid - 1]);
  }

  std::optional<FeatureEvent> CloseRun(bool recovered) {
    const auto start = static_cast<int64_t>(run_start_);
    const auto end = static_cast<int64_t>(count_);
    FeatureEvent ev;
    if (!recovered || end - start >= options_.level_shift_min_sec) {
      ev.type =
          run_up_ ? FeatureType::kLevelShiftUp : FeatureType::kLevelShiftDown;
    } else {
      ev.type = run_up_ ? FeatureType::kSpikeUp : FeatureType::kSpikeDown;
    }
    ev.start_sec = start;
    ev.end_sec = end;
    ev.severity = run_peak_;
    in_run_ = false;
    return ev;
  }

  DetectorOptions options_;
  std::deque<double> clean_;
  double median_ = 0.0;
  double mad_ = 0.0;
  bool fresh_ = false;
  bool in_run_ = false;
  bool run_up_ = true;
  size_t run_start_ = 0;
  double run_peak_ = 0.0;
  double last_z_ = 0.0;
  size_t count_ = 0;
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameEvent(const std::optional<FeatureEvent>& a,
               const std::optional<FeatureEvent>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() ||
         (a->type == b->type && a->start_sec == b->start_sec &&
          a->end_sec == b->end_sec && SameBits(a->severity, b->severity));
}

/// One seeded stream of a kind the screen must score exactly as the
/// copy-and-select reference does: quiet stretches interleaved with
/// flagged runs up and down, some long enough to become level shifts.
std::vector<double> ScreenStream(int kind, size_t n, Rng* rng) {
  std::vector<double> out;
  out.reserve(n);
  double level = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double x = 0.0;
    switch (kind) {
      case 0:  // integer session counts: ties everywhere
        x = static_cast<double>(rng->UniformInt(0, 6));
        break;
      case 1:  // continuous noise
        x = rng->Normal(10.0, 1.0);
        break;
      case 2:  // 1e-3-scale values
        x = 1e-3 * rng->Uniform(0.5, 1.5);
        break;
      default:  // magnitudes spanning 2^-20 .. 2^20, both signs
        x = std::ldexp(rng->Uniform(1.0, 2.0),
                       static_cast<int>(rng->UniformInt(-20, 20))) *
            (rng->Bernoulli(0.2) ? -1.0 : 1.0);
        break;
    }
    if (rng->Bernoulli(0.01)) level = rng->Bernoulli(0.5) ? 0.0 : 1.0;
    if (level > 0.0) {
      // A run: far above the baseline (kinds 0-2), or a level shift.
      x = kind == 3 ? x * 4096.0 : x * 50.0 + 200.0;
    } else if (rng->Bernoulli(0.01)) {
      x = kind == 3 ? -x : -x * 50.0 - 200.0;  // a downward blip
    }
    out.push_back(x);
  }
  return out;
}

TEST(DetectorTest, SortedWindowScoresAsCopyAndSelect) {
  // Bitwise-equal z-scores, events and severities against the reference
  // at every window size from 1 to 200 (odd and even), over ties, small
  // and widely spread magnitudes and flagged runs, with a snapshot and
  // restore mid-stream; baseline medians and MADs equal by value.
  Rng rng(20261020);
  size_t checked = 0;
  size_t events = 0;
  for (size_t window = 1; window <= 200; ++window) {
    for (int kind = 0; kind < 4; ++kind) {
      DetectorOptions options;
      options.baseline_window = window;
      options.min_baseline =
          window % 10 == 0 ? 0 : std::min<size_t>(window, 1 + window / 4);
      options.level_shift_min_sec = 40;
      const size_t n = 2 * window + 160;
      const std::vector<double> stream = ScreenStream(kind, n, &rng);
      const size_t restore_at = n / 2 + static_cast<size_t>(kind);

      CopySelectScreen reference(options);
      std::optional<StreamingFeatureDetector> screen;
      screen.emplace(options, 0, 1);
      for (size_t i = 0; i < n; ++i) {
        if (i == restore_at) {
          const StreamingDetectorSnapshot snap = screen->ExportSnapshot();
          screen.emplace(StreamingFeatureDetector::FromSnapshot(options, snap));
        }
        const auto want = reference.Push(stream[i]);
        const auto got = screen->Push(stream[i]);
        ASSERT_TRUE(SameBits(screen->last_z(), reference.last_z()))
            << "window " << window << " kind " << kind << " sample " << i
            << ": z " << screen->last_z() << " vs " << reference.last_z();
        ASSERT_TRUE(SameEvent(got, want))
            << "window " << window << " kind " << kind << " sample " << i;
        if (want.has_value()) ++events;
        const StreamingDetectorSnapshot snap = screen->ExportSnapshot();
        ASSERT_EQ(snap.baseline_fresh, reference.fresh());
        ASSERT_EQ(snap.baseline_median, reference.median());
        ASSERT_EQ(snap.baseline_mad, reference.mad());
        ++checked;
      }
      ASSERT_TRUE(SameEvent(screen->Finish(), reference.Finish()));
    }
  }
  EXPECT_GT(checked, 100000u);
  EXPECT_GT(events, 1000u);
  std::printf("%zu samples, %zu events checked\n", checked, events);
}

TEST(DetectorTest, NonFiniteSampleIsAGap) {
  // A gap advances the clock and nothing else: it is not scored, never
  // enters the baseline and neither opens nor closes a run, so a stream
  // with gaps scores its finite samples as the stream without them does.
  DetectorOptions options;
  options.baseline_window = 40;
  options.min_baseline = 10;
  Rng rng(5);
  std::vector<double> finite;
  for (size_t i = 0; i < 300; ++i) {
    finite.push_back(i >= 150 && i < 160 ? 90.0 : rng.Normal(10.0, 1.0));
  }
  const double gaps[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  StreamingFeatureDetector plain(options, 0, 1);
  StreamingFeatureDetector gapped(options, 0, 1);
  size_t pushed = 0;
  for (size_t i = 0; i < finite.size(); ++i) {
    if (i % 7 == 3 || (i >= 152 && i < 155)) {
      EXPECT_FALSE(gapped.Push(gaps[i % 3]).has_value());
      EXPECT_EQ(gapped.last_z(), 0.0);
      EXPECT_EQ(gapped.in_run(), plain.in_run());
      ++pushed;
    }
    const auto want = plain.Push(finite[i]);
    const auto got = gapped.Push(finite[i]);
    ++pushed;
    EXPECT_TRUE(SameBits(gapped.last_z(), plain.last_z())) << "sample " << i;
    ASSERT_EQ(got.has_value(), want.has_value()) << "sample " << i;
    if (got.has_value()) {
      EXPECT_EQ(got->type, want->type);
    }
    const StreamingDetectorSnapshot a = gapped.ExportSnapshot();
    const StreamingDetectorSnapshot b = plain.ExportSnapshot();
    EXPECT_EQ(a.clean, b.clean);
  }
  EXPECT_EQ(gapped.count(), pushed);
  // A snapshot carrying a non-finite baseline value restores without it.
  StreamingDetectorSnapshot snap = plain.ExportSnapshot();
  const std::vector<double> kept = snap.clean;
  snap.clean.insert(snap.clean.begin() + 3, gaps[0]);
  snap.clean.push_back(gaps[1]);
  EXPECT_EQ(StreamingFeatureDetector::FromSnapshot(options, snap)
                .ExportSnapshot()
                .clean,
            kept);
}

// --------------------------------------------------------------- Phenomena

TEST(PhenomenonTest, RuleMatching) {
  PhenomenonRule spike{"active_session", "spike"};
  EXPECT_TRUE(spike.Matches(FeatureType::kSpikeUp));
  EXPECT_FALSE(spike.Matches(FeatureType::kSpikeDown));
  EXPECT_FALSE(spike.Matches(FeatureType::kLevelShiftUp));
  PhenomenonRule shift{"m", "level_shift"};
  EXPECT_TRUE(shift.Matches(FeatureType::kLevelShiftUp));
  PhenomenonRule down{"m", "spike_down"};
  EXPECT_TRUE(down.Matches(FeatureType::kSpikeDown));
  PhenomenonRule bogus{"m", "wiggle"};
  EXPECT_FALSE(bogus.Matches(FeatureType::kSpikeUp));
}

TEST(PhenomenonTest, DetectsConfiguredMetricOnly) {
  TimeSeries session = NoisySeries(0, 600, 8);
  for (size_t i = 300; i < 330; ++i) session[i] = 80.0;
  TimeSeries cpu = NoisySeries(0, 600, 9);
  for (size_t i = 300; i < 330; ++i) cpu[i] = 95.0;

  PhenomenonConfig config;
  config.rules.push_back({"active_session", "spike"});
  const std::map<std::string, const TimeSeries*> metrics = {
      {"active_session", &session}, {"cpu_usage", &cpu}};
  const auto phenomena = DetectPhenomena(metrics, config);
  ASSERT_EQ(phenomena.size(), 1u);
  EXPECT_EQ(phenomena[0].rule, "active_session.spike");
}

TEST(PhenomenonTest, MergesNearbyPhenomena) {
  TimeSeries session = NoisySeries(0, 900, 10);
  for (size_t i = 300; i < 320; ++i) session[i] = 80.0;
  for (size_t i = 360; i < 380; ++i) session[i] = 80.0;  // 40 s gap
  PhenomenonConfig config;
  config.rules.push_back({"active_session", "spike"});
  config.merge_gap_sec = 120;
  const std::map<std::string, const TimeSeries*> metrics = {
      {"active_session", &session}};
  const auto phenomena = DetectPhenomena(metrics, config);
  ASSERT_EQ(phenomena.size(), 1u);
  EXPECT_LE(phenomena[0].start_sec, 302);
  EXPECT_GE(phenomena[0].end_sec, 378);
}

TEST(PhenomenonTest, DropsTooShortPhenomena) {
  TimeSeries session = NoisySeries(0, 600, 11);
  for (size_t i = 300; i < 303; ++i) session[i] = 80.0;  // 3 s blip
  PhenomenonConfig config;
  config.rules.push_back({"active_session", "spike"});
  config.min_duration_sec = 10;
  const std::map<std::string, const TimeSeries*> metrics = {
      {"active_session", &session}};
  EXPECT_TRUE(DetectPhenomena(metrics, config).empty());
}

TEST(PhenomenonTest, ExtractAnomalyPeriodSpansAll) {
  std::vector<Phenomenon> phenomena = {
      {"a.spike", 100, 150, 8.0},
      {"b.spike", 120, 200, 9.0},
  };
  int64_t as = 0;
  int64_t ae = 0;
  ASSERT_TRUE(ExtractAnomalyPeriod(phenomena, &as, &ae));
  EXPECT_EQ(as, 100);
  EXPECT_EQ(ae, 200);
  EXPECT_FALSE(ExtractAnomalyPeriod({}, &as, &ae));
}

TEST(PhenomenonTest, DefaultConfigCoversThreeMetrics) {
  const PhenomenonConfig config = PhenomenonConfig::Default();
  EXPECT_EQ(config.rules.size(), 6u);
}

TEST(PhenomenonTest, FromJsonParsesRules) {
  auto config = PhenomenonConfig::FromJson(
      *Json::Parse(R"({"rules": ["active_session.spike",
                                 "cpu_usage.level_shift"],
                       "merge_gap_sec": 60, "threshold": 5})"));
  ASSERT_TRUE(config.ok());
  ASSERT_EQ(config->rules.size(), 2u);
  EXPECT_EQ(config->rules[0].metric, "active_session");
  EXPECT_EQ(config->rules[0].feature, "spike");
  EXPECT_EQ(config->merge_gap_sec, 60);
  EXPECT_DOUBLE_EQ(config->detector.threshold, 5.0);
}

TEST(PhenomenonTest, FromJsonRejectsMalformedRules) {
  EXPECT_FALSE(PhenomenonConfig::FromJson(*Json::Parse("[]")).ok());
  EXPECT_FALSE(
      PhenomenonConfig::FromJson(*Json::Parse(R"({"rules": "x"})")).ok());
  EXPECT_FALSE(
      PhenomenonConfig::FromJson(*Json::Parse(R"({"rules": ["nodot"]})"))
          .ok());
  EXPECT_FALSE(
      PhenomenonConfig::FromJson(*Json::Parse(R"({"rules": [42]})")).ok());
}

// Property: detection is invariant to the series' absolute offset time.
class DetectorShiftInvarianceTest
    : public ::testing::TestWithParam<int64_t> {};

TEST_P(DetectorShiftInvarianceTest, StartTimeIrrelevant) {
  const int64_t origin = GetParam();
  TimeSeries ts = NoisySeries(origin, 600, 12);
  for (size_t i = 300; i < 340; ++i) ts[i] = 90.0;
  const auto events = DetectFeatures(ts, DetectorOptions{});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(static_cast<double>(events[0].start_sec - origin), 300.0, 2.0);
}

INSTANTIATE_TEST_SUITE_P(Origins, DetectorShiftInvarianceTest,
                         ::testing::Values(0, 1000, 100000, 1650000000));

// ---------------------------------------------------------------- Pettitt

TEST(PettittTest, DetectsLevelShift) {
  std::vector<double> x(40, 10.0);
  for (size_t i = 20; i < x.size(); ++i) x[i] = 50.0;
  const PettittResult r = PettittTest(x);
  EXPECT_TRUE(r.significant());
  EXPECT_TRUE(r.shifted_up());
  EXPECT_NEAR(static_cast<double>(r.change_index), 19.0, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_before, 10.0);
  EXPECT_DOUBLE_EQ(r.mean_after, 50.0);
}

TEST(PettittTest, DegenerateInputsReturnCleanDefault) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Empty / tiny / all-gap series must return the "no change point"
  // default with finite fields, never NaN means or a spurious verdict.
  for (const std::vector<double>& x :
       {std::vector<double>{}, std::vector<double>{1.0},
        std::vector<double>{1.0, 2.0, 3.0},
        std::vector<double>(10, nan)}) {
    const PettittResult r = PettittTest(x);
    EXPECT_FALSE(r.significant());
    EXPECT_TRUE(std::isfinite(r.mean_before));
    EXPECT_TRUE(std::isfinite(r.mean_after));
    EXPECT_TRUE(std::isfinite(r.statistic));
    EXPECT_EQ(r.p_value, 1.0);
  }
}

TEST(PettittTest, GapsDoNotPoisonSegmentMeans) {
  // Regression: one NaN per segment used to turn both means (and the
  // shifted_up() verdict built on them) into NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x = {1.0, nan, 2.0, 1.5, nan, 100.0,
                           101.0, 99.0, nan, 100.5};
  const PettittResult r = PettittTest(x);
  EXPECT_TRUE(std::isfinite(r.mean_before));
  EXPECT_TRUE(std::isfinite(r.mean_after));
  EXPECT_TRUE(r.shifted_up());
  EXPECT_LT(r.mean_before, 3.0);
  EXPECT_GT(r.mean_after, 90.0);
}

}  // namespace
}  // namespace pinsql::anomaly
