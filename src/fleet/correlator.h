#ifndef PINSQL_FLEET_CORRELATOR_H_
#define PINSQL_FLEET_CORRELATOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/rsql.h"
#include "online/online_detector.h"
#include "repair/supervisor.h"

namespace pinsql::fleet {

/// One simulated instance: its fleet-unique id and the physical host it is
/// placed on (co-tenancy is what the noisy-neighbor correlation keys on).
struct FleetInstanceSpec {
  uint32_t instance_id = 0;
  uint32_t host_id = 0;
  /// Closes this instance's loop: confirmed R-SQLs are handed to it
  /// (SchedulerOptions::auto_repair, max_repairs). Null = diagnose-only.
  /// Only this instance's diagnoses touch it, and a dispatch wave runs at
  /// most one diagnosis per instance, so it needs no locking.
  repair::RepairSupervisor* supervisor = nullptr;
  /// Workload history for R-SQL verification. Null = none.
  const core::HistoryProvider* history = nullptr;
};

struct CorrelatorOptions {
  /// A storm opens when this many *distinct* instances fired accepted
  /// triggers within storm_window_sec. 0 disables storm detection.
  size_t storm_min_instances = 8;
  /// Sliding window for storm detection. The fleet service clamps it to
  /// the scheduler's diagnose_delay_sec: lookback triggers are then
  /// guaranteed not yet due, so storm membership is decided purely by
  /// trigger times — never by how far the diagnoser pool has drained —
  /// which is what keeps fleet fingerprints invariant under pool size.
  int64_t storm_window_sec = 30;
  /// Diagnoses actually run per collapsed storm batch; the rest of the
  /// batch is deferred (reported, never silently dropped).
  size_t storm_triage_k = 4;
  /// A noisy-neighbor verdict fires when this many distinct co-tenant
  /// instances of one host triggered within neighbor_window_sec. 0
  /// disables.
  size_t neighbor_min_cotenants = 3;
  int64_t neighbor_window_sec = 120;
};

/// One trigger captured into a storm batch, with the scheduling it would
/// have had as a direct trigger.
struct StormMember {
  online::AnomalyTrigger trigger;
  int64_t due_sec = 0;
  double base_priority = 0.0;
};

/// A fleet-wide anomaly storm collapsed into one triage batch.
struct StormBatch {
  uint64_t id = 0;  // 1-based, in open order
  int64_t opened_sec = 0;
  int64_t closed_sec = -1;  // -1 while open
  std::vector<StormMember> members;
  /// Instance ids of the members selected for diagnosis, in triage rank
  /// order (severity desc, then onset, then instance id).
  std::vector<uint32_t> triaged;
};

/// One accepted trigger inside a host's noisy-neighbor window.
struct HostTrigger {
  int64_t trigger_sec = 0;
  uint32_t instance_id = 0;
  int64_t onset_sec = 0;
  double severity = 0.0;
};

/// One host's noisy-neighbor window.
struct HostEpisode {
  std::deque<HostTrigger> events;
  /// The episode already produced a verdict; re-arms when the window
  /// empties.
  bool flagged = false;
};

/// The correlator's complete mutable state (checkpointed with the fleet).
struct CorrelatorState {
  /// Accepted triggers inside the storm window: (trigger_sec, instance).
  std::deque<std::pair<int64_t, uint32_t>> recent;
  std::optional<StormBatch> open_batch;
  uint64_t next_batch_id = 1;
  size_t storms_detected = 0;
  std::map<uint32_t, HostEpisode> hosts;
};

/// Co-tenant correlation: this host's anomaly pattern looks like one noisy
/// tenant degrading its neighbors.
struct NoisyNeighborVerdict {
  uint32_t host_id = 0;
  int64_t flagged_sec = 0;
  /// Distinct co-tenant instances that triggered within the window,
  /// ascending.
  std::vector<uint32_t> cotenants;
  /// The suspected noisy tenant: earliest onset among the window's
  /// triggers, ties broken by higher severity, then lower instance id.
  uint32_t dominant_instance = 0;
  int64_t dominant_onset_sec = 0;
  double dominant_severity = 0.0;
};

/// Cross-instance correlation over the stream of *accepted* triggers:
/// detects fleet-wide storms (and owns the open batch while one is
/// active) and flags noisy-neighbor hosts. Everything is keyed on trigger
/// times and static placement, so its decisions are deterministic given
/// the trigger stream.
///
/// Not internally synchronized: belongs to the fleet's coordinating
/// thread.
class CrossInstanceCorrelator {
 public:
  CrossInstanceCorrelator(const CorrelatorOptions& options,
                          const std::vector<FleetInstanceSpec>& specs);

  /// Records an accepted trigger. Returns true when an open storm captured
  /// it (the caller must then NOT enqueue it — it rides the batch).
  bool OnAcceptedTrigger(const online::AnomalyTrigger& trigger,
                         int64_t due_sec, double base_priority);

  struct TickEvents {
    /// A storm opened this second; the caller must Extract every pending
    /// trigger with trigger_sec >= lookback_from_sec and adopt it into the
    /// open batch.
    bool storm_opened = false;
    int64_t lookback_from_sec = 0;
    /// Storms that closed this second, ready for triage.
    std::vector<StormBatch> closed;
    std::vector<NoisyNeighborVerdict> verdicts;
  };

  /// Advances the correlation clock; call once per fleet second, after the
  /// second's triggers were recorded.
  TickEvents Tick(int64_t sec);

  /// Adds lookback members pulled out of the scheduler to the open batch.
  void AdoptIntoOpenStorm(const std::vector<StormMember>& members);

  /// Force-closes the open storm (drain path). Returns it for triage.
  std::optional<StormBatch> CloseOpenStorm(int64_t sec);

  bool storm_active() const { return state_.open_batch.has_value(); }
  /// The open storm batch (members pending triage), if any.
  const std::optional<StormBatch>& open_storm() const {
    return state_.open_batch;
  }
  size_t storms_detected() const { return state_.storms_detected; }

  const CorrelatorState& state() const { return state_; }
  void ImportState(CorrelatorState state) { state_ = std::move(state); }

 private:
  size_t DistinctRecentInstances() const;

  CorrelatorOptions options_;
  std::map<uint32_t, uint32_t> host_by_instance_;
  CorrelatorState state_;
};

}  // namespace pinsql::fleet

#endif  // PINSQL_FLEET_CORRELATOR_H_
