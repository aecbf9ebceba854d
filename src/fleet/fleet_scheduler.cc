#include "fleet/fleet_scheduler.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/metrics.h"

namespace pinsql::fleet {

FleetScheduler::FleetScheduler(const FleetSchedulerOptions& options,
                               Runner runner)
    : options_(options), runner_(std::move(runner)) {
  if (options_.pool_size < 1) options_.pool_size = 1;
  if (options_.age_weight < 0.0) options_.age_weight = 0.0;
  if (options_.pool_size > 1) {
    pool_ = std::make_unique<util::ThreadPool>(
        static_cast<int>(options_.pool_size) - 1);
  }
}

uint64_t FleetScheduler::Enqueue(const online::AnomalyTrigger& trigger,
                                 int64_t enqueue_sec, int64_t due_sec,
                                 double base_priority, uint64_t storm_batch) {
  QueuedTrigger entry;
  entry.trigger = trigger;
  entry.enqueue_sec = enqueue_sec;
  entry.due_sec = due_sec;
  entry.base_priority = base_priority;
  entry.seq = state_.next_seq++;
  entry.storm_batch = storm_batch;
  state_.queue.push_back(entry);
  ++state_.stats.enqueued;
  state_.stats.max_queue_depth =
      std::max(state_.stats.max_queue_depth, state_.queue.size());
  return entry.seq;
}

std::vector<QueuedTrigger> FleetScheduler::Extract(
    const std::function<bool(const QueuedTrigger&)>& pred) {
  std::vector<QueuedTrigger> extracted;
  std::deque<QueuedTrigger> kept;
  for (QueuedTrigger& entry : state_.queue) {
    if (pred(entry)) {
      extracted.push_back(entry);
    } else {
      kept.push_back(entry);
    }
  }
  state_.queue.swap(kept);
  state_.stats.extracted += extracted.size();
  return extracted;
}

std::vector<FleetScheduler::Completion> FleetScheduler::Tick(int64_t now_sec) {
  return RunWave(now_sec, /*force_due=*/false);
}

std::vector<FleetScheduler::Completion> FleetScheduler::Drain(
    int64_t now_sec) {
  std::vector<Completion> completed;
  while (!state_.queue.empty()) {
    auto wave = RunWave(now_sec, /*force_due=*/true);
    completed.insert(completed.end(), std::make_move_iterator(wave.begin()),
                     std::make_move_iterator(wave.end()));
  }
  return completed;
}

std::vector<FleetScheduler::Completion> FleetScheduler::RunWave(
    int64_t now_sec, bool force_due) {
  // Rank the due entries by effective priority; seq breaks ties, so equal
  // priorities dispatch FIFO. Aging uses the wave's `now`, which adds the
  // same offset within one enqueue second — older entries always rank at
  // least as high as newer ones of the same base.
  struct Candidate {
    size_t pos;
    double effective;
    uint64_t seq;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(state_.queue.size());
  for (size_t pos = 0; pos < state_.queue.size(); ++pos) {
    const QueuedTrigger& entry = state_.queue[pos];
    if (!force_due && entry.due_sec > now_sec) continue;
    const double age = static_cast<double>(now_sec - entry.enqueue_sec);
    candidates.push_back(
        {pos, entry.base_priority + options_.age_weight * age, entry.seq});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.effective != b.effective) return a.effective > b.effective;
              return a.seq < b.seq;
            });

  // Pack the wave: at most pool_size entries, at most one per instance.
  std::vector<size_t> picked;
  std::vector<uint32_t> wave_instances;
  for (const Candidate& candidate : candidates) {
    if (picked.size() >= options_.pool_size) break;
    const uint32_t instance = state_.queue[candidate.pos].trigger.instance_id;
    if (std::find(wave_instances.begin(), wave_instances.end(), instance) !=
        wave_instances.end()) {
      continue;  // stays queued; ages into the next wave
    }
    picked.push_back(candidate.pos);
    wave_instances.push_back(instance);
  }
  if (picked.empty()) return {};

  std::vector<QueuedTrigger> wave;
  wave.reserve(picked.size());
  for (size_t pos : picked) wave.push_back(state_.queue[pos]);
  {
    std::vector<bool> remove(state_.queue.size(), false);
    for (size_t pos : picked) remove[pos] = true;
    std::deque<QueuedTrigger> kept;
    for (size_t pos = 0; pos < state_.queue.size(); ++pos) {
      if (!remove[pos]) kept.push_back(state_.queue[pos]);
    }
    state_.queue.swap(kept);
  }

  for (const QueuedTrigger& entry : wave) {
    state_.stats.max_wait_sec =
        std::max(state_.stats.max_wait_sec, now_sec - entry.enqueue_sec);
  }

  // Run the wave: pool_size - 1 workers plus this thread, each entry into
  // its own slot, so completions come back in wave rank order no matter
  // which thread ran what.
  std::vector<online::DiagnosisOutcome> results(wave.size());
  std::atomic<size_t> running{0};
  std::atomic<size_t> high_water{0};
  util::ParallelFor(pool_.get(), wave.size(), [&](size_t i) {
    const size_t now_running =
        running.fetch_add(1, std::memory_order_relaxed) + 1;
    size_t seen = high_water.load(std::memory_order_relaxed);
    while (now_running > seen &&
           !high_water.compare_exchange_weak(seen, now_running,
                                             std::memory_order_relaxed)) {
    }
    results[i] = runner_(wave[i]);
    running.fetch_sub(1, std::memory_order_relaxed);
  });

  state_.stats.max_observed_concurrency =
      std::max(state_.stats.max_observed_concurrency,
               high_water.load(std::memory_order_relaxed));
  state_.stats.completed += wave.size();
  PINSQL_OBS_COUNT("fleet.diagnoses_dispatched", wave.size());

  std::vector<Completion> completed;
  completed.reserve(wave.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    completed.emplace_back(std::move(wave[i]), std::move(results[i]));
  }
  return completed;
}

}  // namespace pinsql::fleet
