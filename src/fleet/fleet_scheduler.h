#ifndef PINSQL_FLEET_FLEET_SCHEDULER_H_
#define PINSQL_FLEET_FLEET_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "online/scheduler.h"
#include "util/thread_pool.h"

namespace pinsql::fleet {

struct FleetSchedulerOptions {
  /// Hard bound on concurrently running diagnoses across the whole fleet.
  /// The pool is pool_size - 1 workers plus the dispatching thread, so the
  /// bound is exact; 1 degenerates to serial inline execution.
  size_t pool_size = 4;
  /// Priority gained per second an entry waits in the queue. Aging is the
  /// anti-starvation mechanism: any entry's effective priority eventually
  /// exceeds every freshly arriving entry's base, so a sustained stream of
  /// high-severity triggers can delay a low-severity one only by a bounded
  /// number of waves. 0 disables aging (strict severity order).
  double age_weight = 0.05;
};

/// One confirmed trigger waiting for a diagnoser slot.
struct QueuedTrigger {
  online::AnomalyTrigger trigger;
  /// Second the entry entered the queue (aging reference).
  int64_t enqueue_sec = 0;
  /// Earliest second the diagnosis may run (trigger + diagnose delay, or
  /// the storm-close second for triaged storm members). Scheduling only:
  /// the diagnosis window stays fixed at trigger time regardless.
  int64_t due_sec = 0;
  /// Severity-derived rank before aging.
  double base_priority = 0.0;
  /// Queue-global sequence number; the FIFO tie-break within equal
  /// effective priority.
  uint64_t seq = 0;
  /// Storm batch the entry was triaged out of (0 = direct trigger).
  uint64_t storm_batch = 0;
};

struct FleetSchedulerStats {
  size_t enqueued = 0;
  size_t completed = 0;
  /// Entries removed by Extract (storm collapse).
  size_t extracted = 0;
  size_t max_queue_depth = 0;
  /// High-water mark of concurrently running diagnoses; never exceeds
  /// pool_size.
  size_t max_observed_concurrency = 0;
  /// Longest queue wait (dispatch_sec - enqueue_sec) seen so far.
  int64_t max_wait_sec = 0;
};

/// The scheduler's complete mutable state (checkpointed with the fleet).
struct FleetSchedulerState {
  std::deque<QueuedTrigger> queue;  // enqueue (seq) order
  uint64_t next_seq = 1;
  FleetSchedulerStats stats;
};

/// Fleet-level diagnosis scheduler: a single priority-aged queue of
/// confirmed triggers from every instance, drained by a bounded diagnoser
/// pool. One dispatch wave runs per Tick: due entries are ranked by
/// effective priority (base + age_weight * wait), at most pool_size run
/// concurrently, and at most one entry per instance per wave — so
/// per-instance mutable state is only ever touched by one worker, and a
/// single noisy instance cannot monopolize the pool.
///
/// Determinism: the runner must be a pure function of the entry (the
/// fleet's windowed diagnosis is — its window is fixed at trigger time),
/// so pool size and wave packing change only *when* entries run, never
/// what they produce. Completions are returned in wave rank order.
///
/// Not internally synchronized: Enqueue / Extract / Tick / Drain belong to
/// one coordinating thread (the runner itself fans out onto the pool).
class FleetScheduler {
 public:
  using Runner = std::function<online::DiagnosisOutcome(const QueuedTrigger&)>;
  /// A finished entry paired with what its diagnosis produced.
  using Completion = std::pair<QueuedTrigger, online::DiagnosisOutcome>;

  FleetScheduler(const FleetSchedulerOptions& options, Runner runner);

  /// Queues a trigger; returns its sequence number.
  uint64_t Enqueue(const online::AnomalyTrigger& trigger, int64_t enqueue_sec,
                   int64_t due_sec, double base_priority,
                   uint64_t storm_batch = 0);

  /// Removes and returns every queued entry matching `pred`, preserving
  /// queue order. Storm collapse uses this to pull the lookback window's
  /// pending triggers into a batch before they reach the pool.
  std::vector<QueuedTrigger> Extract(
      const std::function<bool(const QueuedTrigger&)>& pred);

  /// Runs one dispatch wave over the entries due at `now_sec` and returns
  /// its completions in wave rank order (0 = highest effective priority).
  /// Entries that don't fit the wave (pool full, or their instance already
  /// has a slot) stay queued and age.
  std::vector<Completion> Tick(int64_t now_sec);

  /// Graceful drain: repeats waves with every entry treated as due until
  /// the queue is empty. Each diagnosis keeps its planned window.
  std::vector<Completion> Drain(int64_t now_sec);

  size_t pending() const { return state_.queue.size(); }
  /// Queued entries in enqueue (seq) order.
  const std::deque<QueuedTrigger>& queue() const { return state_.queue; }
  const FleetSchedulerStats& stats() const { return state_.stats; }

  const FleetSchedulerState& state() const { return state_; }
  void ImportState(FleetSchedulerState state) { state_ = std::move(state); }

 private:
  std::vector<Completion> RunWave(int64_t now_sec, bool force_due);

  FleetSchedulerOptions options_;
  Runner runner_;
  /// pool_size - 1 workers; null when pool_size == 1 (serial inline).
  std::unique_ptr<util::ThreadPool> pool_;

  FleetSchedulerState state_;
};

}  // namespace pinsql::fleet

#endif  // PINSQL_FLEET_FLEET_SCHEDULER_H_
