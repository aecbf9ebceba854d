#ifndef PINSQL_DETECT_ENSEMBLE_H_
#define PINSQL_DETECT_ENSEMBLE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "anomaly/detectors.h"
#include "detect/forecast.h"

namespace pinsql::detect {

/// Ensemble configuration: the paper's robust-z + Pettitt screen as the
/// first member, plus any number of forecasting detectors. An empty
/// forecaster list with use_screen=true reproduces the legacy online
/// detector exactly (same triggers, same Pettitt rejection counts).
struct EnsembleOptions {
  bool use_screen = true;
  anomaly::DetectorOptions screen;
  /// Screen confirmation gates (see OnlineDetectorOptions for rationale).
  size_t confirm_run_len = 3;
  size_t pettitt_window = 16;
  size_t pettitt_min_samples = 12;
  double pettitt_alpha = 0.1;
  std::vector<ForecastOptions> forecasters;
};

/// One confirmed ensemble trigger with per-detector attribution: `source`
/// names the member that confirmed first ("robust_z_pettitt", "ewma",
/// "holt", "holt_winters").
struct EnsembleTrigger {
  int64_t onset_sec = 0;
  int64_t trigger_sec = 0;
  /// The confirming member's run peak: |z| units for threshold runs,
  /// CUSUM units for drift runs.
  double severity = 0.0;
  /// Pettitt p-value when the screen confirmed; 1.0 for forecaster
  /// confirmations (no change-point test ran).
  double pettitt_p = 1.0;
  const char* source = "";
};

/// Serializable ensemble state (forecaster snapshots in member order).
struct EnsembleSnapshot {
  /// Members are lazily constructed at the first observed sample; false
  /// means none exist yet.
  bool initialized = false;
  bool screen_present = false;
  anomaly::StreamingDetectorSnapshot screen;
  std::vector<double> trailing;
  bool fired_this_incident = false;
  uint64_t pettitt_rejections = 0;
  std::vector<ForecastSnapshot> forecasters;
};

/// First-to-confirm detector ensemble. Each second every member observes
/// the sample (members never starve, so restores stay bit-identical); an
/// *incident* is the union of the members' open runs, and at most one
/// trigger fires per incident — whichever member confirms first wins and
/// is named in the trigger. Member evaluation order is fixed (screen,
/// then forecasters in configuration order), so results are deterministic
/// at any ingest-thread count.
class EnsembleDetector {
 public:
  explicit EnsembleDetector(const EnsembleOptions& options);

  /// Observes the value for `sec` (consecutive seconds, first call fixes
  /// the clock). Returns a trigger when a member confirms a new incident.
  std::optional<EnsembleTrigger> Observe(int64_t sec, double value);

  /// True while any member has a run open.
  bool in_run() const;

  uint64_t pettitt_rejections() const { return pettitt_rejections_; }

  /// Drops all member state (used when a telemetry gap outlives the
  /// baseline: the stream effectively restarts).
  void Reset();

  EnsembleSnapshot ExportSnapshot() const;
  /// Whether Restore can adopt `snap`: FailedPrecondition when an ensemble
  /// of another configuration exported it (screen presence, forecaster
  /// count or a member's method differs, or a buffer is longer than this
  /// configuration's window), InvalidArgument when no ensemble could have
  /// (a non-finite screen baseline value among them) or when a member's
  /// clock leaves ±max_abs_sec.
  Status CheckSnapshot(const EnsembleSnapshot& snap,
                       int64_t max_abs_sec) const;
  /// Restores mid-stream state (one CheckSnapshot accepts); subsequent
  /// Observes are bit-identical to the ensemble the snapshot was taken
  /// from.
  void Restore(const EnsembleSnapshot& snap);

 private:
  void InitMembers(int64_t sec);

  EnsembleOptions options_;
  bool initialized_ = false;
  std::optional<anomaly::StreamingFeatureDetector> screen_;
  std::deque<double> trailing_;
  std::vector<std::unique_ptr<ForecastDetector>> forecasters_;
  bool fired_this_incident_ = false;
  uint64_t pettitt_rejections_ = 0;
};

}  // namespace pinsql::detect

#endif  // PINSQL_DETECT_ENSEMBLE_H_
