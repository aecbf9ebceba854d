#include "anomaly/detectors.h"

#include <algorithm>
#include <cmath>

namespace pinsql::anomaly {

const char* FeatureTypeName(FeatureType type) {
  switch (type) {
    case FeatureType::kSpikeUp:
      return "spike_up";
    case FeatureType::kSpikeDown:
      return "spike_down";
    case FeatureType::kLevelShiftUp:
      return "level_shift_up";
    case FeatureType::kLevelShiftDown:
      return "level_shift_down";
  }
  return "unknown";
}

StreamingFeatureDetector::StreamingFeatureDetector(
    const DetectorOptions& options, int64_t start_time, int64_t interval_sec)
    : options_(options), start_time_(start_time), interval_sec_(interval_sec) {}

int64_t StreamingFeatureDetector::run_start_time() const {
  return start_time_ + static_cast<int64_t>(run_start_) * interval_sec_;
}

std::optional<FeatureEvent> StreamingFeatureDetector::CloseRun(
    size_t end_index, bool recovered) {
  const int64_t start_sec =
      start_time_ + static_cast<int64_t>(run_start_) * interval_sec_;
  const int64_t end_sec =
      start_time_ + static_cast<int64_t>(end_index) * interval_sec_;
  const bool long_run =
      (end_sec - start_sec) >= options_.level_shift_min_sec * interval_sec_;
  FeatureEvent ev;
  if (!recovered || long_run) {
    ev.type =
        run_up_ ? FeatureType::kLevelShiftUp : FeatureType::kLevelShiftDown;
  } else {
    ev.type = run_up_ ? FeatureType::kSpikeUp : FeatureType::kSpikeDown;
  }
  ev.start_sec = start_sec;
  // Half-open: the event covers up to the start of the first clean point
  // (or the series end).
  ev.end_sec = end_sec;
  ev.severity = run_peak_;
  in_run_ = false;
  return ev;
}

void StreamingFeatureDetector::RefreshBaseline() {
  const size_t n = sorted_.size();
  const size_t mid = n / 2;
  double median = 0.0;
  double mad = 0.0;
  if (n > 0) {
    const double hi = sorted_[mid];
    median = n % 2 == 1 ? hi : 0.5 * (hi + sorted_[mid - 1]);
    // The distances |x - median| form two non-decreasing runs, leftward
    // from the last point below the median and rightward from the first
    // one at or above it; merging them yields the distances in ascending
    // order, so the mid-th merged distance (and the one before it, for an
    // even window) is the MAD's order statistic.
    size_t left = static_cast<size_t>(
        std::lower_bound(sorted_.begin(), sorted_.end(), median) -
        sorted_.begin());
    size_t right = left;
    double prev = 0.0;
    double cur = 0.0;
    for (size_t k = 0; k <= mid; ++k) {
      prev = cur;
      if (right == n ||
          (left > 0 && std::fabs(sorted_[left - 1] - median) <=
                           std::fabs(sorted_[right] - median))) {
        cur = std::fabs(sorted_[--left] - median);
      } else {
        cur = std::fabs(sorted_[right++] - median);
      }
    }
    mad = n % 2 == 1 ? cur : 0.5 * (cur + prev);
  }
  baseline_median_ = median;
  const double floor = options_.mad_floor_frac * std::fabs(median) + 0.5;
  baseline_mad_ = std::max(mad, floor);
  baseline_fresh_ = true;
}

std::optional<FeatureEvent> StreamingFeatureDetector::Push(double value) {
  if (!std::isfinite(value)) {
    // A gap: nothing to score and nothing the baseline may hold.
    last_z_ = 0.0;
    ++count_;
    return std::nullopt;
  }
  std::optional<FeatureEvent> closed;
  bool flagged = false;
  bool up = true;
  double z = 0.0;
  if (clean_.size() >= options_.min_baseline) {
    if (!baseline_fresh_) RefreshBaseline();
    z = (value - baseline_median_) / (1.4826 * baseline_mad_);
    if (z > options_.threshold) {
      flagged = true;
      up = true;
    } else if (z < -options_.threshold) {
      flagged = true;
      up = false;
    }
  }
  last_z_ = z;

  if (flagged) {
    if (in_run_ && up != run_up_) {
      closed = CloseRun(count_, /*recovered=*/true);
    }
    if (!in_run_) {
      in_run_ = true;
      run_up_ = up;
      run_start_ = count_;
      run_peak_ = std::fabs(z);
    } else {
      run_peak_ = std::max(run_peak_, std::fabs(z));
    }
    // Baseline frozen during the run: flagged points are not clean.
  } else {
    if (in_run_) closed = CloseRun(count_, /*recovered=*/true);
    clean_.push_back(value);
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value),
                   value);
    if (clean_.size() > options_.baseline_window) {
      // Finite values only, so the equal value is found (a -0.0 may take
      // a +0.0's place: they compare equal).
      sorted_.erase(
          std::lower_bound(sorted_.begin(), sorted_.end(), clean_.front()));
      clean_.pop_front();
    }
    baseline_fresh_ = false;
  }
  ++count_;
  return closed;
}

StreamingDetectorSnapshot StreamingFeatureDetector::ExportSnapshot() const {
  StreamingDetectorSnapshot snap;
  snap.clean.assign(clean_.begin(), clean_.end());
  snap.baseline_median = baseline_median_;
  snap.baseline_mad = baseline_mad_;
  snap.baseline_fresh = baseline_fresh_;
  snap.in_run = in_run_;
  snap.run_up = run_up_;
  snap.run_start = run_start_;
  snap.run_peak = run_peak_;
  snap.last_z = last_z_;
  snap.count = count_;
  snap.start_time = start_time_;
  snap.interval_sec = interval_sec_;
  return snap;
}

StreamingFeatureDetector StreamingFeatureDetector::FromSnapshot(
    const DetectorOptions& options, const StreamingDetectorSnapshot& snap) {
  StreamingFeatureDetector detector(options, snap.start_time,
                                    snap.interval_sec);
  for (double value : snap.clean) {
    if (std::isfinite(value)) detector.clean_.push_back(value);
  }
  detector.sorted_.assign(detector.clean_.begin(), detector.clean_.end());
  std::sort(detector.sorted_.begin(), detector.sorted_.end());
  detector.baseline_median_ = snap.baseline_median;
  detector.baseline_mad_ = snap.baseline_mad;
  detector.baseline_fresh_ = snap.baseline_fresh;
  detector.in_run_ = snap.in_run;
  detector.run_up_ = snap.run_up;
  detector.run_start_ = static_cast<size_t>(snap.run_start);
  detector.run_peak_ = snap.run_peak;
  detector.last_z_ = snap.last_z;
  detector.count_ = static_cast<size_t>(snap.count);
  return detector;
}

std::optional<FeatureEvent> StreamingFeatureDetector::Finish() {
  if (!in_run_) return std::nullopt;
  return CloseRun(count_, /*recovered=*/false);
}

std::vector<FeatureEvent> DetectFeatures(const TimeSeries& series,
                                         const DetectorOptions& options) {
  std::vector<FeatureEvent> events;
  if (series.empty()) return events;
  StreamingFeatureDetector detector(options, series.start_time(),
                                    series.interval_sec());
  for (size_t i = 0; i < series.size(); ++i) {
    if (auto ev = detector.Push(series[i])) events.push_back(*ev);
  }
  if (auto ev = detector.Finish()) events.push_back(*ev);
  return events;
}

bool HasFeatureInRange(const std::vector<FeatureEvent>& events,
                       FeatureType type, int64_t start_sec,
                       int64_t end_sec) {
  for (const FeatureEvent& ev : events) {
    if (ev.type == type && ev.start_sec < end_sec && ev.end_sec > start_sec) {
      return true;
    }
  }
  return false;
}

}  // namespace pinsql::anomaly
