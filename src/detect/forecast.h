#ifndef PINSQL_DETECT_FORECAST_H_
#define PINSQL_DETECT_FORECAST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "anomaly/detectors.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace pinsql::detect {

/// Forecasting model families (the Akumuli-style anomaly-detector menu of
/// smoothing forecasters).
enum class ForecastMethod {
  kEwma,         // exponentially weighted moving average (level only)
  kHolt,         // double exponential smoothing (level + trend)
  kHoltWinters,  // triple exponential smoothing (level + trend + season)
};

const char* ForecastMethodName(ForecastMethod method);

/// Tuning for one forecasting detector. The residual screen is two-layer:
/// a per-sample |z| threshold catches sharp deviations (spikes, shifts),
/// and a one-sided CUSUM over the same residual z accumulates the small
/// persistent positives a slow ramp produces — the case a rolling robust
/// baseline absorbs (DESIGN.md §14).
struct ForecastOptions {
  ForecastMethod method = ForecastMethod::kEwma;
  /// Level smoothing factor. Small alpha = long memory: the forecast lags
  /// a ramp, which is exactly what makes the drift residual visible.
  double alpha = 0.05;
  /// Trend smoothing (Holt / Holt-Winters).
  double beta = 0.05;
  /// Seasonal smoothing (Holt-Winters).
  double gamma = 0.1;
  /// Seasonal period in samples (Holt-Winters).
  size_t seasonal_period = 60;
  /// Residual z threshold for the spike-run screen.
  double threshold = 6.0;
  /// A threshold run must persist this many samples before an ensemble
  /// treats it as confirmed. Deliberately longer than the robust-z
  /// screen's Pettitt path, so on sharp anomalies the screen confirms
  /// first and the false-trigger behavior of the legacy pipeline is
  /// preserved; the forecaster wins only where the screen stays silent.
  size_t confirm_run_len = 8;
  /// CUSUM slack per step, in residual-z units: z below this never
  /// accumulates drift evidence.
  double cusum_k = 0.5;
  /// CUSUM decision threshold; an excursion past it opens a drift run.
  double cusum_h = 18.0;
  /// Samples per CUSUM step. The statistic accumulates the z of the
  /// *block-mean* residual (mean over `cusum_block` samples, scale shrunk
  /// by sqrt(block)): per-second Poisson noise averages out while a
  /// sustained drift residual survives intact, which is what lets the
  /// CUSUM see a creep far below the per-sample noise floor. 1 = classic
  /// per-sample CUSUM.
  size_t cusum_block = 1;
  /// Samples consumed before scoring starts (model + scale burn-in).
  size_t warmup = 60;
  /// EWMA factor for the residual scale (mean absolute deviation).
  double scale_alpha = 0.05;
  /// Absolute floor on the residual scale: quiet series cannot produce
  /// huge z from numeric noise.
  double scale_floor = 0.5;
  /// Threshold runs at least this long (seconds) are level shifts.
  int64_t level_shift_min_sec = 300;
};

/// Complete serializable state of any ForecastDetector. Model-specific
/// state packs into the `model` vector (each method documents its layout),
/// so one codec serves every family; a detector restored from a snapshot
/// continues the stream bit-identically.
struct ForecastSnapshot {
  ForecastMethod method = ForecastMethod::kEwma;
  uint64_t count = 0;
  /// EWMA of |residual| (the adaptive scale).
  double mad = 0.0;
  double cusum = 0.0;
  /// Sample index where the current CUSUM excursion left zero.
  uint64_t cusum_start = 0;
  /// Sample index where the statistic last climbed through cusum_h / 2
  /// (the start of the decisive climb — the drift-run onset estimate).
  uint64_t cusum_anchor = 0;
  bool cusum_anchor_set = false;
  /// Partial residual sum / count of the in-progress CUSUM block.
  double block_sum = 0.0;
  uint64_t block_n = 0;
  bool in_run = false;
  bool run_up = true;
  /// True when the open run was opened by the CUSUM drift screen rather
  /// than the per-sample threshold.
  bool drift_run = false;
  uint64_t run_start = 0;
  double run_peak = 0.0;
  double last_z = 0.0;
  int64_t start_time = 0;
  int64_t interval_sec = 1;
  std::vector<double> model;
};

/// One streaming forecasting detector: push one sample per interval, get
/// back residual-based FeatureEvents with the same spike / level-shift
/// semantics as the robust-z StreamingFeatureDetector, so downstream
/// consumers cannot tell which screen produced an event. Subclasses
/// provide only the forecast model; the residual scoring, the two-layer
/// run tracking and the snapshot plumbing live here.
class ForecastDetector {
 public:
  /// Samples pushed are at start_time, start_time + interval, ...
  ForecastDetector(const ForecastOptions& options, int64_t start_time,
                   int64_t interval_sec);
  virtual ~ForecastDetector() = default;

  /// Pushes the next sample; returns the completed event when this sample
  /// closes a flagged run.
  std::optional<anomaly::FeatureEvent> Push(double value);
  /// Closes the series: an open run that never recovered is a level shift.
  std::optional<anomaly::FeatureEvent> Finish();

  const ForecastOptions& options() const { return options_; }
  const char* name() const { return ForecastMethodName(options_.method); }
  bool in_run() const { return in_run_; }
  bool run_up() const { return run_up_; }
  /// True while the open run came from the CUSUM drift screen. A drift
  /// crossing is already an accumulation of evidence, so it needs no
  /// further run-length confirmation from the caller.
  bool drift_run() const { return drift_run_; }
  int64_t run_start_time() const;
  size_t run_length() const { return in_run_ ? count_ - run_start_ : 0; }
  /// Peak |z| of a threshold run; peak CUSUM statistic of a drift run.
  double run_peak() const { return run_peak_; }
  double last_z() const { return last_z_; }
  size_t count() const { return count_; }

  ForecastSnapshot ExportSnapshot() const;
  /// Rebuilds mid-stream state; subsequent pushes are bit-identical to
  /// the detector the snapshot was taken from.
  void Restore(const ForecastSnapshot& snap);

 protected:
  /// Model interface. ModelReady gates scoring (e.g. Holt-Winters needs a
  /// full season); ForecastValue(idx) is the one-step-ahead prediction for
  /// sample `idx` *before* UpdateModel folds that observation in. `idx` is
  /// the wall-aligned sample index (seasonal phase stays aligned even when
  /// the base freezes updates during an open run).
  virtual bool ModelReady() const = 0;
  virtual double ForecastValue(size_t idx) const = 0;
  virtual void UpdateModel(size_t idx, double value) = 0;
  /// Pack / unpack model state into the snapshot's flat vector.
  virtual void ExportModel(std::vector<double>* out) const = 0;
  virtual void RestoreModel(const std::vector<double>& in) = 0;

  const ForecastOptions options_;

 private:
  std::optional<anomaly::FeatureEvent> CloseRun(size_t end_index,
                                                bool recovered);

  int64_t start_time_;
  int64_t interval_sec_;
  size_t count_ = 0;
  double mad_ = 0.0;
  double cusum_ = 0.0;
  size_t cusum_start_ = 0;
  size_t cusum_anchor_ = 0;
  bool cusum_anchor_set_ = false;
  double block_sum_ = 0.0;
  size_t block_n_ = 0;
  bool in_run_ = false;
  bool run_up_ = true;
  bool drift_run_ = false;
  size_t run_start_ = 0;
  double run_peak_ = 0.0;
  double last_z_ = 0.0;
};

/// Whether a detector of the snapshot's method can restore it: OK, or
/// InvalidArgument for model state no detector could have exported (a
/// CRC-valid but hostile checkpoint).
Status CheckForecastSnapshot(const ForecastSnapshot& snap);

/// Builds a detector of the configured method.
std::unique_ptr<ForecastDetector> MakeForecastDetector(
    const ForecastOptions& options, int64_t start_time, int64_t interval_sec);

/// Batch form: a loop over Push + Finish, so streaming and batch are
/// equivalent by construction (mirrors anomaly::DetectFeatures).
std::vector<anomaly::FeatureEvent> DetectForecastFeatures(
    const TimeSeries& series, const ForecastOptions& options);

/// The default ensemble companion set: a long-memory EWMA drift screen
/// plus a Holt level+trend forecaster. Chosen so legacy spike categories
/// trigger through the robust-z screen first (unchanged false-trigger
/// behavior) while hours-scale creep accumulates in the CUSUM.
std::vector<ForecastOptions> DefaultEnsembleForecasters();

}  // namespace pinsql::detect

#endif  // PINSQL_DETECT_FORECAST_H_
