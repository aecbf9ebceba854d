/// Property/fuzz suite for the fleet diagnosis scheduler: random trigger
/// streams over random pool sizes must preserve the priority-aging
/// invariants — conservation (nothing lost, nothing duplicated), the
/// concurrency bound, per-wave instance uniqueness, FIFO within equal
/// priority on one instance, and aging-bounded waits (no starvation).

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet_scheduler.h"
#include "util/rng.h"

namespace pinsql::fleet {
namespace {

online::AnomalyTrigger MakeTrigger(uint32_t instance_id, int64_t trigger_sec,
                                   double severity) {
  online::AnomalyTrigger trigger;
  trigger.instance_id = instance_id;
  trigger.onset_sec = trigger_sec - 2;
  trigger.trigger_sec = trigger_sec;
  trigger.severity = severity;
  trigger.pettitt_p = 0.01;
  return trigger;
}

/// Stub runner: no real diagnosis, but it checks the concurrency bound
/// itself with its own atomics (independent of the scheduler's own
/// accounting) and records which seqs actually ran.
struct StubRunner {
  explicit StubRunner(size_t bound) : bound(bound) {}

  online::DiagnosisOutcome operator()(const QueuedTrigger& entry) {
    const int now = ++running;
    int high = high_water.load();
    while (now > high && !high_water.compare_exchange_weak(high, now)) {
    }
    online::DiagnosisOutcome outcome;
    outcome.trigger = entry.trigger;
    outcome.ok = true;
    --running;
    return outcome;
  }

  size_t bound;
  std::atomic<int> running{0};
  std::atomic<int> high_water{0};
};

/// One dispatch decision as observed from Tick()'s return value: a Tick
/// runs one wave and returns its completions in wave rank order.
struct Dispatch {
  QueuedTrigger entry;
  int64_t dispatch_sec = 0;
  /// Position within the dispatch wave (0 = highest effective priority).
  size_t wave_index = 0;
};

class FleetSchedulerPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(FleetSchedulerPropertyTest, RandomStreamsPreserveInvariants) {
  Rng rng(GetParam());
  FleetSchedulerOptions options;
  options.pool_size = static_cast<size_t>(rng.UniformInt(1, 8));
  options.age_weight = rng.Bernoulli(0.75) ? rng.Uniform(0.01, 1.0) : 0.0;

  auto runner = std::make_shared<StubRunner>(options.pool_size);
  FleetScheduler scheduler(options,
                           [runner](const QueuedTrigger& entry) {
                             return (*runner)(entry);
                           });

  const int num_instances = static_cast<int>(rng.UniformInt(2, 10));
  const int64_t arrival_span = rng.UniformInt(20, 60);
  struct Expected {
    uint64_t seq;
    int64_t enqueue_sec;
    int64_t due_sec;
  };
  std::vector<Expected> expected;
  std::map<uint64_t, online::DiagnosisOutcome> completions;
  std::vector<Dispatch> dispatches;

  int64_t sec = 0;
  const auto tick = [&](int64_t now) {
    size_t wave_index = 0;
    for (auto& [entry, outcome] : scheduler.Tick(now)) {
      ASSERT_TRUE(completions.emplace(entry.seq, outcome).second)
          << "seq " << entry.seq << " completed twice";
      dispatches.push_back({entry, now, wave_index++});
    }
  };
  for (; sec < arrival_span; ++sec) {
    const int64_t arrivals = rng.Poisson(2.0);
    for (int64_t k = 0; k < arrivals; ++k) {
      const auto trigger = MakeTrigger(
          static_cast<uint32_t>(rng.UniformInt(0, num_instances - 1)), sec,
          rng.Uniform(1.0, 10.0));
      const int64_t due = sec + rng.UniformInt(0, 5);
      const uint64_t seq =
          scheduler.Enqueue(trigger, sec, due, trigger.severity);
      expected.push_back({seq, sec, due});
    }
    tick(sec);
  }
  // Everything has arrived; keep ticking until the queue drains. One wave
  // per tick dispatches at least one due entry, so this terminates.
  const int64_t deadline = sec + static_cast<int64_t>(expected.size()) + 10;
  for (; scheduler.pending() > 0 && sec < deadline; ++sec) tick(sec);
  ASSERT_EQ(scheduler.pending(), 0u) << "queue failed to drain";

  // Conservation: every enqueued entry completed exactly once, the
  // dispatches cover exactly the enqueued seqs.
  const FleetSchedulerStats& stats = scheduler.stats();
  EXPECT_EQ(stats.enqueued, expected.size());
  EXPECT_EQ(stats.completed, expected.size());
  EXPECT_EQ(stats.extracted, 0u);
  ASSERT_EQ(completions.size(), expected.size());
  ASSERT_EQ(dispatches.size(), expected.size());
  std::set<uint64_t> dispatched_seqs;
  for (const Dispatch& record : dispatches) {
    EXPECT_TRUE(dispatched_seqs.insert(record.entry.seq).second);
  }
  for (const Expected& entry : expected) {
    EXPECT_TRUE(completions.count(entry.seq));
    EXPECT_TRUE(dispatched_seqs.count(entry.seq));
  }

  // Concurrency bound, measured by the runner itself and by the scheduler.
  EXPECT_LE(runner->high_water.load(),
            static_cast<int>(options.pool_size));
  EXPECT_LE(stats.max_observed_concurrency, options.pool_size);
  EXPECT_EQ(runner->running.load(), 0);

  // Wave shape: group the dispatches by (dispatch_sec): within one
  // wave, at most pool_size entries, no duplicate instance, wave_index
  // contiguous from 0, and no entry ran before it was due or enqueued.
  std::map<int64_t, std::vector<const Dispatch*>> waves;
  for (const Dispatch& record : dispatches) {
    EXPECT_GE(record.dispatch_sec, record.entry.due_sec);
    EXPECT_GE(record.dispatch_sec, record.entry.enqueue_sec);
    waves[record.dispatch_sec].push_back(&record);
  }
  for (auto& [wave_sec, records] : waves) {
    ASSERT_LE(records.size(), options.pool_size);
    std::set<uint32_t> wave_instances;
    std::set<size_t> wave_indices;
    for (const Dispatch* record : records) {
      EXPECT_TRUE(wave_instances.insert(record->entry.trigger.instance_id)
                      .second)
          << "two entries of instance " << record->entry.trigger.instance_id
          << " in the same wave (sec " << wave_sec << ")";
      wave_indices.insert(record->wave_index);
    }
    ASSERT_EQ(wave_indices.size(), records.size());
    EXPECT_EQ(*wave_indices.begin(), 0u);
    EXPECT_EQ(*wave_indices.rbegin(), records.size() - 1);
  }

  // FIFO within equal priority on one instance: for two same-instance
  // entries with equal base priority both due when the later one was
  // enqueued, the earlier seq never dispatches after the later one.
  std::map<uint64_t, const Dispatch*> by_seq;
  for (const Dispatch& record : dispatches) {
    by_seq[record.entry.seq] = &record;
  }
  for (const auto& [seq_a, a] : by_seq) {
    for (const auto& [seq_b, b] : by_seq) {
      if (seq_a >= seq_b) continue;
      if (a->entry.trigger.instance_id != b->entry.trigger.instance_id) {
        continue;
      }
      if (a->entry.base_priority != b->entry.base_priority) continue;
      if (a->entry.due_sec > b->entry.enqueue_sec) continue;
      EXPECT_LE(a->dispatch_sec, b->dispatch_sec)
          << "seq " << seq_a << " dispatched after younger equal-priority "
          << "same-instance seq " << seq_b;
    }
  }

  // Bounded wait: after its due second, no entry waits longer than the
  // whole backlog could take at one wave per second plus the arrival span.
  const int64_t wait_bound =
      arrival_span + static_cast<int64_t>(expected.size()) + 10;
  for (const Dispatch& record : dispatches) {
    EXPECT_LE(record.dispatch_sec -
                  std::max(record.entry.due_sec, record.entry.enqueue_sec),
              wait_bound);
  }
}

TEST_P(FleetSchedulerPropertyTest, ExtractPreservesConservation) {
  Rng rng(GetParam() ^ 0xE47ACULL);
  FleetSchedulerOptions options;
  options.pool_size = static_cast<size_t>(rng.UniformInt(1, 4));
  auto runner = std::make_shared<StubRunner>(options.pool_size);
  FleetScheduler scheduler(options,
                           [runner](const QueuedTrigger& entry) {
                             return (*runner)(entry);
                           });

  const size_t n = static_cast<size_t>(rng.UniformInt(10, 40));
  for (size_t k = 0; k < n; ++k) {
    const auto trigger =
        MakeTrigger(static_cast<uint32_t>(rng.UniformInt(0, 5)), 0,
                    rng.Uniform(1.0, 10.0));
    // Far-future due: nothing dispatches before the Extract below.
    scheduler.Enqueue(trigger, 0, 1000, trigger.severity);
  }
  ASSERT_TRUE(scheduler.Tick(1).empty());

  const std::vector<QueuedTrigger> extracted =
      scheduler.Extract([](const QueuedTrigger& entry) {
        return entry.trigger.instance_id % 2 == 0;
      });
  const std::vector<FleetScheduler::Completion> drained = scheduler.Drain(2);

  EXPECT_EQ(extracted.size() + drained.size(), n);
  EXPECT_EQ(scheduler.stats().extracted, extracted.size());
  EXPECT_EQ(scheduler.stats().completed, drained.size());
  EXPECT_EQ(scheduler.pending(), 0u);
  // Extracted seqs are strictly increasing (queue order preserved) and
  // never reached the pool.
  std::set<uint64_t> ran;
  for (const auto& [entry, outcome] : drained) ran.insert(entry.seq);
  for (size_t i = 0; i < extracted.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(extracted[i].seq, extracted[i - 1].seq);
    }
    EXPECT_EQ(extracted[i].trigger.instance_id % 2, 0u);
    EXPECT_FALSE(ran.count(extracted[i].seq));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetSchedulerPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

/// Directed anti-starvation check: with aging on, a low-priority entry
/// overtakes a sustained stream of fresh high-priority arrivals within a
/// handful of waves; with aging off it waits out the entire stream.
TEST(FleetSchedulerAgingTest, AgingBoundsLowPriorityWait) {
  const auto run = [](double age_weight) {
    FleetSchedulerOptions options;
    options.pool_size = 1;
    options.age_weight = age_weight;
    FleetScheduler scheduler(options, [](const QueuedTrigger& entry) {
      online::DiagnosisOutcome outcome;
      outcome.trigger = entry.trigger;
      outcome.ok = true;
      return outcome;
    });
    const uint64_t low_seq =
        scheduler.Enqueue(MakeTrigger(0, 0, 1.0), 0, 0, 0.0);
    int64_t low_dispatch_sec = -1;
    const auto note = [&](const std::vector<FleetScheduler::Completion>& run,
                          int64_t sec) {
      for (const auto& [entry, outcome] : run) {
        if (entry.seq == low_seq) low_dispatch_sec = sec;
      }
    };
    // One fresh high-priority trigger per second, from distinct instances,
    // for 50 seconds; the single-slot pool runs one entry per wave.
    for (int64_t sec = 0; sec < 50; ++sec) {
      const auto trigger =
          MakeTrigger(static_cast<uint32_t>(1 + sec), sec, 10.0);
      scheduler.Enqueue(trigger, sec, sec, 5.0);
      note(scheduler.Tick(sec), sec);
    }
    note(scheduler.Drain(50), 50);
    return low_dispatch_sec;
  };

  const int64_t with_aging = run(/*age_weight=*/1.0);
  const int64_t without_aging = run(/*age_weight=*/0.0);
  ASSERT_GE(with_aging, 0);
  ASSERT_GE(without_aging, 0);
  // base 0 + age t outranks base 5 + age (t - a) once a > 5.
  EXPECT_LE(with_aging, 10);
  EXPECT_GE(without_aging, 50);
}

}  // namespace
}  // namespace pinsql::fleet
