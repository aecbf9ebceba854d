#include "detect/ensemble.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <vector>

#include "anomaly/pettitt.h"

namespace pinsql::detect {

EnsembleDetector::EnsembleDetector(const EnsembleOptions& options)
    : options_(options) {}

void EnsembleDetector::InitMembers(int64_t sec) {
  if (options_.use_screen) {
    screen_.emplace(options_.screen, sec, /*interval_sec=*/1);
  }
  forecasters_.clear();
  forecasters_.reserve(options_.forecasters.size());
  for (const ForecastOptions& fo : options_.forecasters) {
    forecasters_.push_back(MakeForecastDetector(fo, sec, /*interval_sec=*/1));
  }
  initialized_ = true;
}

bool EnsembleDetector::in_run() const {
  if (screen_.has_value() && screen_->in_run()) return true;
  for (const auto& fc : forecasters_) {
    if (fc->in_run()) return true;
  }
  return false;
}

void EnsembleDetector::Reset() {
  initialized_ = false;
  screen_.reset();
  trailing_.clear();
  forecasters_.clear();
  fired_this_incident_ = false;
  // pettitt_rejections_ survives: it is a lifetime stat, not stream state.
}

std::optional<EnsembleTrigger> EnsembleDetector::Observe(int64_t sec,
                                                         double value) {
  if (!initialized_) InitMembers(sec);

  std::optional<EnsembleTrigger> fired;

  if (screen_.has_value()) {
    // The trailing buffer holds every sample, clean or flagged: the
    // change-point test needs the pre-anomaly distribution to confirm a
    // shift.
    trailing_.push_back(value);
    if (trailing_.size() > options_.pettitt_window) trailing_.pop_front();

    screen_->Push(value);
    if (!fired_this_incident_ && screen_->in_run() && screen_->run_up() &&
        screen_->run_length() >= options_.confirm_run_len &&
        trailing_.size() >= options_.pettitt_min_samples) {
      const auto pettitt = anomaly::PettittTest(
          std::vector<double>(trailing_.begin(), trailing_.end()));
      if (pettitt.significant(options_.pettitt_alpha) &&
          pettitt.shifted_up()) {
        fired_this_incident_ = true;
        EnsembleTrigger trigger;
        trigger.onset_sec = screen_->run_start_time();
        trigger.trigger_sec = sec;
        trigger.severity = screen_->run_peak();
        trigger.pettitt_p = pettitt.p_value;
        trigger.source = "robust_z_pettitt";
        fired = trigger;
      } else {
        ++pettitt_rejections_;
      }
    }
  }

  for (const auto& fc : forecasters_) {
    // Every member always sees every sample — confirmation never starves
    // a model, which is what keeps snapshots resume-exact.
    fc->Push(value);
    if (fired_this_incident_ || !fc->in_run() || !fc->run_up()) continue;
    const bool confirmed =
        fc->drift_run() ||
        fc->run_length() >= fc->options().confirm_run_len;
    if (!confirmed) continue;
    fired_this_incident_ = true;
    EnsembleTrigger trigger;
    trigger.onset_sec = fc->run_start_time();
    trigger.trigger_sec = sec;
    trigger.severity = fc->run_peak();
    trigger.pettitt_p = 1.0;
    trigger.source = fc->name();
    fired = trigger;
  }

  // The incident (union of member runs) ended: re-arm.
  if (!in_run()) fired_this_incident_ = false;
  return fired;
}

EnsembleSnapshot EnsembleDetector::ExportSnapshot() const {
  EnsembleSnapshot snap;
  snap.initialized = initialized_;
  snap.screen_present = screen_.has_value();
  if (screen_.has_value()) snap.screen = screen_->ExportSnapshot();
  snap.trailing.assign(trailing_.begin(), trailing_.end());
  snap.fired_this_incident = fired_this_incident_;
  snap.pettitt_rejections = pettitt_rejections_;
  snap.forecasters.reserve(forecasters_.size());
  for (const auto& fc : forecasters_) {
    snap.forecasters.push_back(fc->ExportSnapshot());
  }
  return snap;
}

namespace {

/// A member clock the ensemble could have run: one-second steps from
/// start_time, every run or excursion index within the samples pushed, and
/// every second from start_time to start_time + count within
/// ±max_abs_sec.
bool PlausibleClock(int64_t start_time, int64_t interval_sec, uint64_t count,
                    int64_t max_abs_sec,
                    std::initializer_list<uint64_t> indices) {
  int64_t end = 0;
  if (interval_sec != 1 || start_time < -max_abs_sec ||
      count > static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) ||
      __builtin_add_overflow(start_time, static_cast<int64_t>(count), &end) ||
      end > max_abs_sec) {
    return false;
  }
  for (uint64_t index : indices) {
    if (index > count) return false;
  }
  return true;
}

}  // namespace

Status EnsembleDetector::CheckSnapshot(const EnsembleSnapshot& snap,
                                       int64_t max_abs_sec) const {
  if (!snap.initialized) {
    // Members are built at the first sample; before it there are none.
    if (snap.screen_present || !snap.forecasters.empty()) {
      return Status::InvalidArgument("uninitialized ensemble with members");
    }
    return Status::OK();
  }
  if (snap.screen_present != options_.use_screen ||
      snap.forecasters.size() != options_.forecasters.size()) {
    return Status::FailedPrecondition("ensemble of another configuration");
  }
  for (size_t i = 0; i < snap.forecasters.size(); ++i) {
    if (snap.forecasters[i].method != options_.forecasters[i].method) {
      return Status::FailedPrecondition("ensemble of another configuration");
    }
  }
  // Buffers longer than this configuration's windows: exported under
  // larger ones.
  if (snap.trailing.size() > options_.pettitt_window ||
      (snap.screen_present &&
       snap.screen.clean.size() > options_.screen.baseline_window)) {
    return Status::FailedPrecondition("ensemble of larger windows");
  }
  // Content no ensemble of this configuration could have exported. The
  // screen's baseline holds finite values only: a non-finite one would
  // leave its sorted window unordered.
  if (snap.screen_present &&
      std::any_of(snap.screen.clean.begin(), snap.screen.clean.end(),
                  [](double value) { return !std::isfinite(value); })) {
    return Status::InvalidArgument("screen baseline value is not finite");
  }
  if (snap.screen_present &&
      !PlausibleClock(snap.screen.start_time, snap.screen.interval_sec,
                      snap.screen.count, max_abs_sec,
                      {snap.screen.run_start})) {
    return Status::InvalidArgument("screen snapshot out of range");
  }
  for (const ForecastSnapshot& fc : snap.forecasters) {
    if (!PlausibleClock(fc.start_time, fc.interval_sec, fc.count, max_abs_sec,
                        {fc.run_start, fc.cusum_start, fc.cusum_anchor})) {
      return Status::InvalidArgument("forecaster snapshot out of range");
    }
    if (Status status = CheckForecastSnapshot(fc); !status.ok()) {
      return status;
    }
  }
  return Status::OK();
}

void EnsembleDetector::Restore(const EnsembleSnapshot& snap) {
  initialized_ = snap.initialized;
  if (snap.screen_present) {
    screen_.emplace(anomaly::StreamingFeatureDetector::FromSnapshot(
        options_.screen, snap.screen));
  } else {
    screen_.reset();
  }
  trailing_.assign(snap.trailing.begin(), snap.trailing.end());
  fired_this_incident_ = snap.fired_this_incident;
  pettitt_rejections_ = snap.pettitt_rejections;
  forecasters_.clear();
  if (initialized_) {
    forecasters_.reserve(options_.forecasters.size());
    for (size_t i = 0; i < options_.forecasters.size(); ++i) {
      auto fc = MakeForecastDetector(options_.forecasters[i],
                                     /*start_time=*/0, /*interval_sec=*/1);
      if (i < snap.forecasters.size()) fc->Restore(snap.forecasters[i]);
      forecasters_.push_back(std::move(fc));
    }
  }
}

}  // namespace pinsql::detect
