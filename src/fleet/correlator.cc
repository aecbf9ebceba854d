#include "fleet/correlator.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"

namespace pinsql::fleet {

CrossInstanceCorrelator::CrossInstanceCorrelator(
    const CorrelatorOptions& options,
    const std::vector<FleetInstanceSpec>& specs)
    : options_(options) {
  if (options_.storm_window_sec < 1) options_.storm_window_sec = 1;
  if (options_.neighbor_window_sec < 1) options_.neighbor_window_sec = 1;
  for (const FleetInstanceSpec& spec : specs) {
    host_by_instance_[spec.instance_id] = spec.host_id;
  }
}

bool CrossInstanceCorrelator::OnAcceptedTrigger(
    const online::AnomalyTrigger& trigger, int64_t due_sec,
    double base_priority) {
  state_.recent.emplace_back(trigger.trigger_sec, trigger.instance_id);

  if (options_.neighbor_min_cotenants > 0) {
    auto it = host_by_instance_.find(trigger.instance_id);
    if (it != host_by_instance_.end()) {
      state_.hosts[it->second].events.push_back({trigger.trigger_sec,
                                           trigger.instance_id,
                                           trigger.onset_sec,
                                           trigger.severity});
    }
  }

  if (state_.open_batch.has_value()) {
    state_.open_batch->members.push_back({trigger, due_sec, base_priority});
    return true;
  }
  return false;
}

size_t CrossInstanceCorrelator::DistinctRecentInstances() const {
  std::set<uint32_t> distinct;
  for (const auto& [sec, instance] : state_.recent) distinct.insert(instance);
  return distinct.size();
}

CrossInstanceCorrelator::TickEvents CrossInstanceCorrelator::Tick(
    int64_t sec) {
  TickEvents events;

  // Storms: the window holds triggers in (sec - window, sec].
  while (!state_.recent.empty() &&
         state_.recent.front().first <= sec - options_.storm_window_sec) {
    state_.recent.pop_front();
  }
  if (options_.storm_min_instances > 0) {
    const size_t distinct = DistinctRecentInstances();
    if (!state_.open_batch.has_value()) {
      if (distinct >= options_.storm_min_instances) {
        StormBatch batch;
        batch.id = state_.next_batch_id++;
        batch.opened_sec = sec;
        state_.open_batch = std::move(batch);
        ++state_.storms_detected;
        events.storm_opened = true;
        events.lookback_from_sec = sec - options_.storm_window_sec + 1;
        PINSQL_OBS_COUNT("fleet.storms_detected", 1);
      }
    } else if (distinct < options_.storm_min_instances) {
      state_.open_batch->closed_sec = sec;
      events.closed.push_back(std::move(*state_.open_batch));
      state_.open_batch.reset();
    }
  }

  // Noisy neighbors: per-host sliding window of co-tenant triggers.
  for (auto& [host_id, episode] : state_.hosts) {
    auto& window = episode.events;
    while (!window.empty() &&
           window.front().trigger_sec <= sec - options_.neighbor_window_sec) {
      window.pop_front();
    }
    if (window.empty()) {
      episode.flagged = false;  // episode over; the host can be flagged again
      continue;
    }
    if (episode.flagged) continue;
    std::set<uint32_t> cotenants;
    for (const HostTrigger& event : window) cotenants.insert(event.instance_id);
    if (cotenants.size() < options_.neighbor_min_cotenants) continue;

    const HostTrigger* dominant = &window.front();
    for (const HostTrigger& event : window) {
      if (event.onset_sec != dominant->onset_sec) {
        if (event.onset_sec < dominant->onset_sec) dominant = &event;
      } else if (event.severity != dominant->severity) {
        if (event.severity > dominant->severity) dominant = &event;
      } else if (event.instance_id < dominant->instance_id) {
        dominant = &event;
      }
    }

    NoisyNeighborVerdict verdict;
    verdict.host_id = host_id;
    verdict.flagged_sec = sec;
    verdict.cotenants.assign(cotenants.begin(), cotenants.end());
    verdict.dominant_instance = dominant->instance_id;
    verdict.dominant_onset_sec = dominant->onset_sec;
    verdict.dominant_severity = dominant->severity;
    events.verdicts.push_back(std::move(verdict));
    episode.flagged = true;
    PINSQL_OBS_COUNT("fleet.neighbor_verdicts", 1);
  }

  return events;
}

void CrossInstanceCorrelator::AdoptIntoOpenStorm(
    const std::vector<StormMember>& members) {
  if (!state_.open_batch.has_value()) return;
  // Lookback members precede the live captures that arrive from this
  // second on.
  std::vector<StormMember>& batch = state_.open_batch->members;
  batch.insert(batch.begin(), members.begin(), members.end());
}

std::optional<StormBatch> CrossInstanceCorrelator::CloseOpenStorm(
    int64_t sec) {
  if (!state_.open_batch.has_value()) return std::nullopt;
  state_.open_batch->closed_sec = sec;
  StormBatch batch = std::move(*state_.open_batch);
  state_.open_batch.reset();
  return batch;
}

}  // namespace pinsql::fleet
