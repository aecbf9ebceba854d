#ifndef PINSQL_REPAIR_EVENTS_H_
#define PINSQL_REPAIR_EVENTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "repair/actions.h"
#include "util/json.h"

namespace pinsql::repair {

/// Every state transition of one supervised repair action. A ticket groups
/// the events of one Apply() lifecycle: preflight -> attempts -> applied ->
/// verified | rolled back | expired, or a terminal rejection/failure.
enum class RepairEventKind {
  kRejected,        // guardrail preflight refused the action
  kBreakerRejected, // circuit breaker open: not attempted
  kDuplicate,       // idempotency key already active: suppressed
  kAttempt,         // one execution attempt started
  kAttemptFailed,   // the attempt failed (transient fault or timeout)
  kRetryScheduled,  // backoff booked before the next attempt
  kApplied,         // the action landed (possibly partial / delayed)
  kFailed,          // every attempt exhausted: action abandoned
  kVerified,        // verification window passed
  kRolledBack,      // verification failed: action reverted
  kExpired,         // throttle duration elapsed (normal expiry)
  kBreakerOpened,   // too many consecutive failures for this action type
  kBreakerHalfOpen, // cooldown elapsed: one trial admitted
  kBreakerClosed,   // half-open trial succeeded
};

const char* RepairEventKindName(RepairEventKind kind);

/// Inverse of RepairEventKindName / ActionTypeName; returns false on an
/// unknown name. Used when re-hydrating reports from their JSON form.
bool RepairEventKindFromName(std::string_view name, RepairEventKind* out);
bool ActionTypeFromName(std::string_view name, ActionType* out);

/// One typed audit record. Replaces the free-text audit strings: machine
/// readable (JSON report), still renderable as one line for terminals.
struct RepairEvent {
  double time_ms = 0.0;
  RepairEventKind kind = RepairEventKind::kAttempt;
  ActionType action = ActionType::kThrottle;
  uint64_t sql_id = 0;
  /// Groups the events of one Apply() lifecycle; 0 for events outside any
  /// lifecycle (e.g. breaker half-open transitions on Tick).
  uint64_t ticket = 0;
  /// 1-based attempt number within the lifecycle; 0 when not attempt-scoped.
  int attempt = 0;
  /// Reason / parameters, human-readable ("transient failure", "partial
  /// application 0.60", "improvement 2% < margin 5%").
  std::string detail;

  Json ToJson() const;
  std::string ToString() const;
};

/// Cross-checks an event stream: every attempted ticket must reach exactly
/// one terminal outcome (applied/failed), every rollback / verification /
/// expiry must refer to an applied ticket, and an applied ticket must not
/// be both verified and rolled back. Returns true when the accounting is
/// consistent; the closed-loop bench uses this as a shape check.
bool EventAccountingConsistent(const std::vector<RepairEvent>& events);

}  // namespace pinsql::repair

#endif  // PINSQL_REPAIR_EVENTS_H_
