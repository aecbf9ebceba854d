#include "online/online_detector.h"

#include <cmath>

#include "obs/metrics.h"

namespace pinsql::online {

detect::EnsembleOptions MakeEnsembleOptions(
    const OnlineDetectorOptions& options) {
  detect::EnsembleOptions ensemble;
  ensemble.use_screen = options.use_screen;
  ensemble.screen = options.screen;
  ensemble.confirm_run_len = options.confirm_run_len;
  ensemble.pettitt_window = options.pettitt_window;
  ensemble.pettitt_min_samples = options.pettitt_min_samples;
  ensemble.pettitt_alpha = options.pettitt_alpha;
  ensemble.forecasters = options.forecasters;
  return ensemble;
}

OnlineAnomalyDetector::OnlineAnomalyDetector(
    const OnlineDetectorOptions& options)
    : options_(options), ensemble_(MakeEnsembleOptions(options)) {}

bool OnlineAnomalyDetector::in_run() const { return ensemble_.in_run(); }

void OnlineAnomalyDetector::SkipGaps(uint64_t count) {
  stats_.samples += count;
  stats_.gaps_skipped += count;
  consecutive_gaps_ += count;
}

OnlineDetectorState OnlineAnomalyDetector::ExportState() const {
  OnlineDetectorState state;
  state.ensemble = ensemble_.ExportSnapshot();
  state.last_finite = last_finite_;
  state.seen_finite = seen_finite_;
  state.consecutive_gaps = consecutive_gaps_;
  state.stats = stats_;
  return state;
}

void OnlineAnomalyDetector::ImportState(const OnlineDetectorState& state) {
  ensemble_.Restore(state.ensemble);
  last_finite_ = state.last_finite;
  seen_finite_ = state.seen_finite;
  consecutive_gaps_ = state.consecutive_gaps;
  stats_ = state.stats;
}

std::optional<AnomalyTrigger> OnlineAnomalyDetector::Observe(
    int64_t sec, double active_session) {
  ++stats_.samples;
  double value = active_session;
  if (!std::isfinite(value)) {
    ++consecutive_gaps_;
    if (!seen_finite_) {
      // Nothing to carry yet; the ensemble's clock starts at the first
      // finite sample.
      ++stats_.gaps_skipped;
      return std::nullopt;
    }
    if (consecutive_gaps_ >= options_.screen.baseline_window) {
      // The gap has outlived every sample the baseline was built from:
      // whatever comes after is a new stream, not a continuation. Reset
      // instead of freezing the carried value into the baseline forever.
      ensemble_.Reset();
      seen_finite_ = false;
      ++stats_.baseline_resets;
      ++stats_.gaps_skipped;
      return std::nullopt;
    }
    value = last_finite_;
    ++stats_.gaps_carried;
  } else {
    last_finite_ = value;
    seen_finite_ = true;
    consecutive_gaps_ = 0;
  }

  const std::optional<detect::EnsembleTrigger> fired =
      ensemble_.Observe(sec, value);
  stats_.pettitt_rejections =
      static_cast<size_t>(ensemble_.pettitt_rejections());
  if (!fired.has_value()) return std::nullopt;

  AnomalyTrigger trigger;
  trigger.onset_sec = fired->onset_sec;
  trigger.trigger_sec = fired->trigger_sec;
  trigger.severity = fired->severity;
  trigger.pettitt_p = fired->pettitt_p;
  trigger.source = fired->source;
  ++stats_.triggers;
  PINSQL_OBS_COUNT("online.triggers", 1);
  return trigger;
}

}  // namespace pinsql::online
