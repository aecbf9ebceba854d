#ifndef PINSQL_ONLINE_ONLINE_DETECTOR_H_
#define PINSQL_ONLINE_ONLINE_DETECTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "anomaly/detectors.h"
#include "detect/ensemble.h"
#include "util/status.h"

namespace pinsql::online {

/// One confirmed anomaly onset, ready for dedup and scheduling.
struct AnomalyTrigger {
  /// Instance the trigger belongs to. Single-instance deployments leave
  /// the default (0); the fleet service stamps its per-instance id so
  /// cooldown state and correlation are keyed correctly.
  uint32_t instance_id = 0;
  /// First second of the flagged run (where the anomaly started).
  int64_t onset_sec = 0;
  /// Second at which the detector confirmed and fired (>= onset_sec); the
  /// difference is the detection latency.
  int64_t trigger_sec = 0;
  /// The confirming detector's run peak: robust/residual |z| units for
  /// threshold runs, CUSUM units for drift confirmations.
  double severity = 0.0;
  /// p-value of the confirming Pettitt change-point test; 1.0 when a
  /// forecaster confirmed (no change-point test ran).
  double pettitt_p = 1.0;
  /// Which ensemble member confirmed ("robust_z_pettitt", "ewma", "holt",
  /// "holt_winters") — the per-detector attribution that
  /// flows into reports, the serve API and replay fingerprints.
  std::string source = "robust_z_pettitt";
};

struct OnlineDetectorOptions {
  /// Screening detector: robust z against a baseline of the trailing clean
  /// samples, which rolls with every clean sample and freezes only while a
  /// run is open.
  anomaly::DetectorOptions screen;
  /// Disable to run the configured forecasters without the robust-z screen
  /// — ablation studies only; production keeps the screen as the fast path
  /// for sharp anomalies.
  bool use_screen = true;
  /// A flagged up-run must persist this many consecutive samples before the
  /// confirmation test runs — one- and two-sample blips never page anyone
  /// (noisy integer-valued session counts routinely throw single-sample
  /// z-spikes that Pettitt alone would confirm).
  size_t confirm_run_len = 3;
  /// Trailing samples the Pettitt confirmation test sees. Deliberately
  /// short: Pettitt's significance is rank-based, so an n-sample window
  /// needs roughly 0.8*sqrt(n) post-change samples before p can clear
  /// alpha no matter how extreme the shift is — a short window is what
  /// keeps detection latency in the single-digit seconds. (It is also
  /// O(n^2) per invocation, run only on flagged seconds.)
  size_t pettitt_window = 16;
  /// Minimum trailing samples before Pettitt can confirm.
  size_t pettitt_min_samples = 12;
  /// Pettitt significance level for confirmation.
  double pettitt_alpha = 0.1;
  /// Forecasting ensemble members run alongside the screen (empty = the
  /// legacy robust-z + Pettitt pipeline, bit-identical). See
  /// detect::DefaultEnsembleForecasters() for the stock drift-catching
  /// configuration.
  std::vector<detect::ForecastOptions> forecasters;
};

struct OnlineDetectorStats {
  size_t samples = 0;
  /// Non-finite samples replaced by the previous finite value.
  size_t gaps_carried = 0;
  /// Non-finite samples before the first finite one (nothing to carry).
  size_t gaps_skipped = 0;
  size_t triggers = 0;
  /// Confirmation attempts where Pettitt did not find a significant upward
  /// change point (the screen keeps retrying while the run persists).
  size_t pettitt_rejections = 0;
  /// Telemetry gaps that outlived the entire robust-z baseline window and
  /// reset the detector (the pre-gap baseline said nothing about the
  /// post-gap world).
  size_t baseline_resets = 0;
};

/// Serializable mirror of an OnlineAnomalyDetector's mutable state, for
/// the fleet's checkpoints (see fleet/fleet_state.h).
struct OnlineDetectorState {
  detect::EnsembleSnapshot ensemble;
  double last_finite = 0.0;
  bool seen_finite = false;
  uint64_t consecutive_gaps = 0;
  OnlineDetectorStats stats;
};

/// Streaming active-session anomaly detector: a first-to-confirm ensemble
/// of the cheap per-sample robust z-score screen (confirmed by the Pettitt
/// change-point test) and any configured forecasting detectors (EWMA /
/// Holt / Holt-Winters residual screens with CUSUM drift
/// accumulation). Fires at most one trigger per incident, so one sustained
/// anomaly can never produce duplicate diagnoses; the scheduler's cooldown
/// handles incidents that briefly close mid-anomaly.
///
/// Feed it exactly one sample per second, in order. A telemetry gap (NaN)
/// is carried forward from the last finite sample so the ensemble's clock
/// stays aligned with wall seconds and a gap can neither start nor end a
/// run by itself — unless the gap outlives the entire baseline window, in
/// which case the detector resets and re-learns from the post-gap stream
/// (a frozen pre-gap baseline would score the new world against stale
/// statistics indefinitely).
class OnlineAnomalyDetector {
 public:
  explicit OnlineAnomalyDetector(const OnlineDetectorOptions& options);

  /// Observes the active-session value for `sec`. Seconds must be
  /// consecutive from the first call. Returns a trigger when this sample
  /// confirms a new anomaly (its detection latency is trigger_sec -
  /// onset_sec; the detector keeps no history of them).
  std::optional<AnomalyTrigger> Observe(int64_t sec, double active_session);

  const OnlineDetectorStats& stats() const { return stats_; }

  /// True while any ensemble member currently has a flagged run open.
  bool in_run() const;

  /// Whether a finite sample is held (gaps are carried), i.e. a gap is more
  /// than counted.
  bool seeded() const { return seen_finite_; }

  /// Observes `count` gap seconds at once while not seeded(): each would
  /// only be counted.
  void SkipGaps(uint64_t count);

  /// Checkpoint support: a detector restored from an exported state
  /// observes the rest of the stream bit-identically.
  OnlineDetectorState ExportState() const;
  /// Whether ImportState can adopt `state`, whose clocks must lie within
  /// ±max_abs_sec (see detect::EnsembleDetector::CheckSnapshot).
  Status CheckState(const OnlineDetectorState& state,
                    int64_t max_abs_sec) const {
    return ensemble_.CheckSnapshot(state.ensemble, max_abs_sec);
  }
  void ImportState(const OnlineDetectorState& state);

 private:
  OnlineDetectorOptions options_;
  detect::EnsembleDetector ensemble_;
  double last_finite_ = 0.0;
  bool seen_finite_ = false;
  uint64_t consecutive_gaps_ = 0;
  OnlineDetectorStats stats_;
};

/// Builds the ensemble configuration an OnlineDetectorOptions describes.
detect::EnsembleOptions MakeEnsembleOptions(
    const OnlineDetectorOptions& options);

}  // namespace pinsql::online

#endif  // PINSQL_ONLINE_ONLINE_DETECTOR_H_
