#ifndef PINSQL_ANOMALY_DETECTORS_H_
#define PINSQL_ANOMALY_DETECTORS_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "ts/time_series.h"

namespace pinsql::anomaly {

/// Anomalous features the Basic Perception Layer recognizes (paper Sec.
/// IV-B, citing iSQUAD's taxonomy): a spike recovers, a level shift stays.
enum class FeatureType {
  kSpikeUp,
  kSpikeDown,
  kLevelShiftUp,
  kLevelShiftDown,
};

const char* FeatureTypeName(FeatureType type);

/// One detected anomalous feature: [start_sec, end_sec) plus a severity
/// (peak robust z-score).
struct FeatureEvent {
  FeatureType type = FeatureType::kSpikeUp;
  int64_t start_sec = 0;
  int64_t end_sec = 0;
  double severity = 0.0;
};

/// Detector tuning.
struct DetectorOptions {
  /// Robust z-score threshold for flagging a point.
  double threshold = 6.0;
  /// Number of trailing clean samples forming the rolling baseline.
  size_t baseline_window = 120;
  /// Minimum baseline samples before detection starts.
  size_t min_baseline = 30;
  /// Runs at least this long that never recover before the series ends
  /// are classified as level shifts rather than spikes.
  int64_t level_shift_min_sec = 300;
  /// Floor on the MAD so flat baselines don't divide by ~0. Expressed as a
  /// fraction of the baseline median (plus a small absolute floor).
  double mad_floor_frac = 0.05;
};

/// Complete serializable state of a StreamingFeatureDetector, captured by
/// ExportSnapshot() and restored by FromSnapshot(): a restored detector
/// continues the stream bit-identically to one that never stopped. The
/// durable online service checkpoints this across process restarts.
struct StreamingDetectorSnapshot {
  std::vector<double> clean;
  double baseline_median = 0.0;
  double baseline_mad = 0.0;
  bool baseline_fresh = false;
  bool in_run = false;
  bool run_up = true;
  uint64_t run_start = 0;
  double run_peak = 0.0;
  double last_z = 0.0;
  uint64_t count = 0;
  /// Clock parameters, echoed so a restore can rebuild the constructor
  /// arguments.
  int64_t start_time = 0;
  int64_t interval_sec = 1;
};

/// Incremental robust detector: push one sample at a time, each compared
/// against the median/MAD of the last `baseline_window` *clean* points.
/// The baseline rolls with every clean sample and freezes only while a run
/// is open (otherwise a long pile-up would absorb itself into the baseline
/// and end the event).
///
/// Cost per Push is O(window) when the clean set changed since the last
/// score, which is every sample of a quiet stream: the clean window is kept
/// twice, as a FIFO and as a sorted copy, so a clean sample costs one
/// ordered insert and one erase, the median is read from the middle of the
/// sorted copy, and the MAD is selected by merging the two sorted distance
/// runs outward from the median (half the window). Flagged stretches reuse
/// the frozen baseline for free. A non-finite sample is a gap: it advances
/// the clock but is never scored (last_z() reads 0), never enters the
/// baseline, and neither opens nor closes a run. This is the entry point
/// the online service feeds sample-by-sample; the batch DetectFeatures
/// below is a thin loop over it, so the two are equivalent by construction.
class StreamingFeatureDetector {
 public:
  /// Samples pushed are at start_time, start_time + interval, ...
  StreamingFeatureDetector(const DetectorOptions& options, int64_t start_time,
                           int64_t interval_sec);

  /// Pushes the next sample. Returns the completed event when this sample
  /// closes a flagged run (a clean sample after a run, or a run flipping
  /// direction), nullopt otherwise.
  std::optional<FeatureEvent> Push(double value);

  /// Closes the series: an open run that never recovered is classified as
  /// a level shift ending at the current end-of-series timestamp.
  std::optional<FeatureEvent> Finish();

  /// True while the most recent sample extended a flagged run.
  bool in_run() const { return in_run_; }
  /// Direction of the open run (meaningful only while in_run()).
  bool run_up() const { return run_up_; }
  /// Timestamp of the first sample of the open run.
  int64_t run_start_time() const;
  /// Samples in the open run so far (0 when not in a run).
  size_t run_length() const { return in_run_ ? count_ - run_start_ : 0; }
  /// Peak |robust z| of the open run.
  double run_peak() const { return run_peak_; }
  /// Robust z-score of the most recent sample (0 before min_baseline).
  double last_z() const { return last_z_; }
  /// Samples pushed so far.
  size_t count() const { return count_; }

  /// Captures the full mutable state (see StreamingDetectorSnapshot).
  StreamingDetectorSnapshot ExportSnapshot() const;
  /// Rebuilds a detector mid-stream from a snapshot; subsequent pushes are
  /// bit-identical to the detector the snapshot was taken from. A
  /// non-finite `clean` value, which no detector exports, is dropped.
  static StreamingFeatureDetector FromSnapshot(
      const DetectorOptions& options, const StreamingDetectorSnapshot& snap);

 private:
  std::optional<FeatureEvent> CloseRun(size_t end_index, bool recovered);
  /// Recomputes the baseline median and MAD from `sorted_`.
  void RefreshBaseline();

  DetectorOptions options_;
  int64_t start_time_;
  int64_t interval_sec_;
  /// The clean window twice: in arrival order (what a snapshot carries)
  /// and ascending. Both always hold the same finite multiset.
  std::deque<double> clean_;
  std::vector<double> sorted_;
  double baseline_median_ = 0.0;
  double baseline_mad_ = 0.0;
  bool baseline_fresh_ = false;
  bool in_run_ = false;
  bool run_up_ = true;
  size_t run_start_ = 0;
  double run_peak_ = 0.0;
  double last_z_ = 0.0;
  size_t count_ = 0;
};

/// Batch form: feeds the series through a StreamingFeatureDetector and
/// returns the flagged runs as events, classified spike vs level shift.
std::vector<FeatureEvent> DetectFeatures(const TimeSeries& series,
                                         const DetectorOptions& options);

/// Convenience: true iff any feature of `type` overlaps [start, end).
bool HasFeatureInRange(const std::vector<FeatureEvent>& events,
                       FeatureType type, int64_t start_sec, int64_t end_sec);

}  // namespace pinsql::anomaly

#endif  // PINSQL_ANOMALY_DETECTORS_H_
