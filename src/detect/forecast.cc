#include "detect/forecast.h"

#include <algorithm>
#include <cmath>

namespace pinsql::detect {

const char* ForecastMethodName(ForecastMethod method) {
  switch (method) {
    case ForecastMethod::kEwma:
      return "ewma";
    case ForecastMethod::kHolt:
      return "holt";
    case ForecastMethod::kHoltWinters:
      return "holt_winters";
  }
  return "unknown";
}

ForecastDetector::ForecastDetector(const ForecastOptions& options,
                                   int64_t start_time, int64_t interval_sec)
    : options_(options),
      start_time_(start_time),
      interval_sec_(interval_sec) {}

int64_t ForecastDetector::run_start_time() const {
  return start_time_ + static_cast<int64_t>(run_start_) * interval_sec_;
}

std::optional<anomaly::FeatureEvent> ForecastDetector::CloseRun(
    size_t end_index, bool recovered) {
  const int64_t start_sec =
      start_time_ + static_cast<int64_t>(run_start_) * interval_sec_;
  const int64_t end_sec =
      start_time_ + static_cast<int64_t>(end_index) * interval_sec_;
  const bool long_run =
      (end_sec - start_sec) >= options_.level_shift_min_sec * interval_sec_;
  anomaly::FeatureEvent ev;
  // A drift run is by construction a sustained departure, never a blip:
  // classify it like a run that outlived the spike budget.
  if (!recovered || long_run || drift_run_) {
    ev.type = run_up_ ? anomaly::FeatureType::kLevelShiftUp
                      : anomaly::FeatureType::kLevelShiftDown;
  } else {
    ev.type = run_up_ ? anomaly::FeatureType::kSpikeUp
                      : anomaly::FeatureType::kSpikeDown;
  }
  ev.start_sec = start_sec;
  ev.end_sec = end_sec;
  ev.severity = run_peak_;
  in_run_ = false;
  drift_run_ = false;
  return ev;
}

std::optional<anomaly::FeatureEvent> ForecastDetector::Push(double value) {
  std::optional<anomaly::FeatureEvent> closed;
  const size_t idx = count_;
  const bool have_residual = ModelReady();
  const bool scoring = have_residual && count_ >= options_.warmup;
  const double scale =
      std::max(options_.scale_floor, 1.2533 * mad_);
  double residual = 0.0;
  if (have_residual) residual = value - ForecastValue(idx);

  double z = 0.0;
  bool flagged = false;
  bool up = true;
  if (scoring) {
    z = residual / scale;
    if (z > options_.threshold) {
      flagged = true;
      up = true;
    } else if (z < -options_.threshold) {
      flagged = true;
      up = false;
    }
  }
  last_z_ = z;

  // One CUSUM step consumes a full block of residuals: the statistic sees
  // the z of the block-mean (scale shrinks by sqrt(n)), so per-sample
  // noise averages out while a sustained drift residual survives. Returns
  // the block z when this sample completes a block.
  const auto block_step = [&](double r) -> std::optional<double> {
    block_sum_ += r;
    ++block_n_;
    if (block_n_ < std::max<size_t>(options_.cusum_block, 1)) {
      return std::nullopt;
    }
    const double bz =
        block_sum_ / (scale * std::sqrt(static_cast<double>(block_n_)));
    block_sum_ = 0.0;
    block_n_ = 0;
    return bz;
  };

  if (in_run_ && drift_run_) {
    // Open drift run: the CUSUM keeps accumulating and the run closes
    // with hysteresis once the model has caught up with the new level
    // (z ~ 0 drains the statistic by cusum_k per step).
    if (const auto bz = block_step(residual)) {
      cusum_ = std::max(0.0, cusum_ + *bz - options_.cusum_k);
      run_peak_ = std::max(run_peak_, cusum_);
      if (cusum_ < 0.5 * options_.cusum_h) {
        closed = CloseRun(idx, /*recovered=*/true);
        cusum_ = 0.0;
        cusum_anchor_set_ = false;
      }
    }
  } else if (in_run_) {
    // Open threshold run: mirrors StreamingFeatureDetector semantics.
    if (flagged && up == run_up_) {
      run_peak_ = std::max(run_peak_, std::fabs(z));
    } else {
      closed = CloseRun(idx, /*recovered=*/true);
      cusum_ = 0.0;  // the excursion was reported; don't double-count it
      cusum_anchor_set_ = false;
      block_sum_ = 0.0;
      block_n_ = 0;
      if (flagged) {
        in_run_ = true;
        drift_run_ = false;
        run_up_ = up;
        run_start_ = idx;
        run_peak_ = std::fabs(z);
      }
    }
  } else if (flagged) {
    in_run_ = true;
    drift_run_ = false;
    run_up_ = up;
    run_start_ = idx;
    run_peak_ = std::fabs(z);
    cusum_ = 0.0;
    cusum_anchor_set_ = false;
    block_sum_ = 0.0;
    block_n_ = 0;
  } else if (scoring) {
    // Clean sample: accumulate one-sided drift evidence (sessions pile
    // up, so only upward creep pages anyone).
    const size_t block = std::max<size_t>(options_.cusum_block, 1);
    if (const auto bz = block_step(residual)) {
      const double prev = cusum_;
      cusum_ = std::max(0.0, cusum_ + *bz - options_.cusum_k);
      if (prev <= 0.0 && cusum_ > 0.0) cusum_start_ = idx + 1 - block;
      // Onset estimate: where the statistic last climbed through h/2.
      // The excursion start (cusum_start_) backdates into whatever noise
      // accumulation preceded the real change; the decisive climb does
      // not.
      if (cusum_ < 0.5 * options_.cusum_h) {
        cusum_anchor_set_ = false;
      } else if (!cusum_anchor_set_) {
        cusum_anchor_set_ = true;
        cusum_anchor_ = idx + 1 - block;
      }
      if (cusum_ > options_.cusum_h) {
        in_run_ = true;
        drift_run_ = true;
        run_up_ = true;
        run_start_ = cusum_anchor_set_ ? cusum_anchor_ : cusum_start_;
        run_peak_ = cusum_;
      }
    }
  }

  // Model updates freeze during a threshold run (an absorbed anomaly
  // would end its own event); a drift run keeps updating — the model
  // catching up with the new normal is what closes the run.
  const bool freeze = in_run_ && !drift_run_;
  if (!freeze) {
    if (have_residual) {
      // Winsorized scale update: a single wild residual cannot blow up
      // the scale and mute the screen for minutes.
      const double clipped = std::min(std::fabs(residual), 3.0 * scale);
      mad_ += options_.scale_alpha * (clipped - mad_);
    }
    UpdateModel(idx, value);
  }
  ++count_;
  return closed;
}

std::optional<anomaly::FeatureEvent> ForecastDetector::Finish() {
  if (!in_run_) return std::nullopt;
  return CloseRun(count_, /*recovered=*/false);
}

ForecastSnapshot ForecastDetector::ExportSnapshot() const {
  ForecastSnapshot snap;
  snap.method = options_.method;
  snap.count = count_;
  snap.mad = mad_;
  snap.cusum = cusum_;
  snap.cusum_start = cusum_start_;
  snap.cusum_anchor = cusum_anchor_;
  snap.cusum_anchor_set = cusum_anchor_set_;
  snap.block_sum = block_sum_;
  snap.block_n = block_n_;
  snap.in_run = in_run_;
  snap.run_up = run_up_;
  snap.drift_run = drift_run_;
  snap.run_start = run_start_;
  snap.run_peak = run_peak_;
  snap.last_z = last_z_;
  snap.start_time = start_time_;
  snap.interval_sec = interval_sec_;
  ExportModel(&snap.model);
  return snap;
}

void ForecastDetector::Restore(const ForecastSnapshot& snap) {
  count_ = snap.count;
  mad_ = snap.mad;
  cusum_ = snap.cusum;
  cusum_start_ = snap.cusum_start;
  cusum_anchor_ = snap.cusum_anchor;
  cusum_anchor_set_ = snap.cusum_anchor_set;
  block_sum_ = snap.block_sum;
  block_n_ = snap.block_n;
  in_run_ = snap.in_run;
  run_up_ = snap.run_up;
  drift_run_ = snap.drift_run;
  run_start_ = snap.run_start;
  run_peak_ = snap.run_peak;
  last_z_ = snap.last_z;
  start_time_ = snap.start_time;
  interval_sec_ = snap.interval_sec;
  RestoreModel(snap.model);
}

namespace {

/// Level-only smoothing. Model vector: [level, initialized].
class EwmaForecaster final : public ForecastDetector {
 public:
  using ForecastDetector::ForecastDetector;

 protected:
  bool ModelReady() const override { return initialized_; }
  double ForecastValue(size_t) const override { return level_; }
  void UpdateModel(size_t idx, double value) override {
    if (!initialized_) {
      level_ = value;
      initialized_ = true;
      return;
    }
    // Warm start: run as a cumulative mean until 1/t decays below alpha.
    // A long-memory alpha otherwise pins the level near the very first
    // sample for ~1/alpha seconds, and that initialization bias reads as
    // a sustained residual — i.e. a fake drift.
    const double a = std::max(
        options_.alpha, 1.0 / static_cast<double>(idx + 1));
    level_ += a * (value - level_);
  }
  void ExportModel(std::vector<double>* out) const override {
    *out = {level_, initialized_ ? 1.0 : 0.0};
  }
  void RestoreModel(const std::vector<double>& in) override {
    level_ = in.size() > 0 ? in[0] : 0.0;
    initialized_ = in.size() > 1 && in[1] != 0.0;
  }

 private:
  double level_ = 0.0;
  bool initialized_ = false;
};

/// Double exponential smoothing (level + trend). Model vector:
/// [level, trend, updates].
class HoltForecaster final : public ForecastDetector {
 public:
  using ForecastDetector::ForecastDetector;

 protected:
  bool ModelReady() const override { return updates_ >= 2; }
  double ForecastValue(size_t) const override { return level_ + trend_; }
  void UpdateModel(size_t, double value) override {
    if (updates_ == 0) {
      level_ = value;
    } else if (updates_ == 1) {
      trend_ = value - level_;
      level_ = value;
    } else {
      const double prev = level_;
      level_ = options_.alpha * value +
               (1.0 - options_.alpha) * (level_ + trend_);
      trend_ = options_.beta * (level_ - prev) +
               (1.0 - options_.beta) * trend_;
    }
    ++updates_;
  }
  void ExportModel(std::vector<double>* out) const override {
    *out = {level_, trend_, static_cast<double>(updates_)};
  }
  void RestoreModel(const std::vector<double>& in) override {
    level_ = in.size() > 0 ? in[0] : 0.0;
    trend_ = in.size() > 1 ? in[1] : 0.0;
    updates_ = in.size() > 2 ? static_cast<uint64_t>(in[2]) : 0;
  }

 private:
  double level_ = 0.0;
  double trend_ = 0.0;
  uint64_t updates_ = 0;
};

/// Additive Holt-Winters. The first full season initializes the seasonal
/// profile; the seasonal phase is keyed off the wall-aligned sample index
/// so frozen stretches cannot desynchronize it. Model vector:
/// [level, trend, seeded, seasonal[0..m)].
class HoltWintersForecaster final : public ForecastDetector {
 public:
  HoltWintersForecaster(const ForecastOptions& options, int64_t start_time,
                        int64_t interval_sec)
      : ForecastDetector(options, start_time, interval_sec),
        seasonal_(std::max<size_t>(options.seasonal_period, 2), 0.0) {}

 protected:
  bool ModelReady() const override { return seeded_; }
  double ForecastValue(size_t idx) const override {
    return level_ + trend_ + seasonal_[idx % seasonal_.size()];
  }
  void UpdateModel(size_t idx, double value) override {
    const size_t m = seasonal_.size();
    const size_t phase = idx % m;
    if (!seeded_) {
      seasonal_[phase] = value;  // raw first-season buffer
      if (idx + 1 >= m) {
        double mean = 0.0;
        for (double v : seasonal_) mean += v;
        mean /= static_cast<double>(m);
        level_ = mean;
        trend_ = 0.0;
        for (double& v : seasonal_) v -= mean;
        seeded_ = true;
      }
      return;
    }
    const double season = seasonal_[phase];
    const double prev = level_;
    level_ = options_.alpha * (value - season) +
             (1.0 - options_.alpha) * (level_ + trend_);
    trend_ = options_.beta * (level_ - prev) +
             (1.0 - options_.beta) * trend_;
    seasonal_[phase] =
        options_.gamma * (value - level_) + (1.0 - options_.gamma) * season;
  }
  void ExportModel(std::vector<double>* out) const override {
    out->clear();
    out->reserve(3 + seasonal_.size());
    out->push_back(level_);
    out->push_back(trend_);
    out->push_back(seeded_ ? 1.0 : 0.0);
    out->insert(out->end(), seasonal_.begin(), seasonal_.end());
  }
  void RestoreModel(const std::vector<double>& in) override {
    level_ = in.size() > 0 ? in[0] : 0.0;
    trend_ = in.size() > 1 ? in[1] : 0.0;
    seeded_ = in.size() > 2 && in[2] != 0.0;
    for (size_t i = 0; i < seasonal_.size(); ++i) {
      seasonal_[i] = in.size() > 3 + i ? in[3 + i] : 0.0;
    }
  }

 private:
  double level_ = 0.0;
  double trend_ = 0.0;
  bool seeded_ = false;
  std::vector<double> seasonal_;
};

}  // namespace

Status CheckForecastSnapshot(const ForecastSnapshot& snap) {
  // Holt's update count travels as a double: it must convert to uint64_t.
  if (snap.method == ForecastMethod::kHolt && snap.model.size() > 2 &&
      !(snap.model[2] >= 0.0 && snap.model[2] < 0x1p64)) {
    return Status::InvalidArgument("holt snapshot update count out of range");
  }
  return Status::OK();
}

std::unique_ptr<ForecastDetector> MakeForecastDetector(
    const ForecastOptions& options, int64_t start_time,
    int64_t interval_sec) {
  switch (options.method) {
    case ForecastMethod::kEwma:
      return std::make_unique<EwmaForecaster>(options, start_time,
                                              interval_sec);
    case ForecastMethod::kHolt:
      return std::make_unique<HoltForecaster>(options, start_time,
                                              interval_sec);
    case ForecastMethod::kHoltWinters:
      return std::make_unique<HoltWintersForecaster>(options, start_time,
                                                     interval_sec);
  }
  return nullptr;
}

std::vector<anomaly::FeatureEvent> DetectForecastFeatures(
    const TimeSeries& series, const ForecastOptions& options) {
  std::vector<anomaly::FeatureEvent> events;
  if (series.size() == 0) return events;
  const auto detector = MakeForecastDetector(options, series.start_time(),
                                             series.interval_sec());
  for (size_t i = 0; i < series.size(); ++i) {
    if (auto ev = detector->Push(series[i])) events.push_back(*ev);
  }
  if (auto ev = detector->Finish()) events.push_back(*ev);
  return events;
}

std::vector<ForecastOptions> DefaultEnsembleForecasters() {
  ForecastOptions ewma;
  ewma.method = ForecastMethod::kEwma;
  // Long memory: a ramp's residual stays positive for minutes, which is
  // what the CUSUM integrates; the per-sample threshold stays high so the
  // robust-z screen keeps owning sharp anomalies. Minute-long CUSUM
  // blocks average per-second sampling noise down by ~sqrt(60), so a
  // creep far below the per-sample noise floor still accumulates, while
  // the slack k stays above what the workload's AR(1)+oscillation noise
  // sustains block after block.
  ewma.alpha = 0.003;
  ewma.threshold = 8.0;
  ewma.cusum_block = 60;
  ewma.cusum_k = 1.0;
  ewma.cusum_h = 14.0;

  ForecastOptions holt;
  holt.method = ForecastMethod::kHolt;
  holt.alpha = 0.1;
  holt.beta = 0.02;
  holt.threshold = 8.0;
  holt.cusum_k = 0.8;
  holt.cusum_h = 30.0;
  return {ewma, holt};
}

}  // namespace pinsql::detect
