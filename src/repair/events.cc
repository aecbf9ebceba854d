#include "repair/events.h"

#include <map>
#include <set>

#include "util/strings.h"

namespace pinsql::repair {

const char* RepairEventKindName(RepairEventKind kind) {
  switch (kind) {
    case RepairEventKind::kRejected:
      return "rejected";
    case RepairEventKind::kBreakerRejected:
      return "breaker_rejected";
    case RepairEventKind::kDuplicate:
      return "duplicate";
    case RepairEventKind::kAttempt:
      return "attempt";
    case RepairEventKind::kAttemptFailed:
      return "attempt_failed";
    case RepairEventKind::kRetryScheduled:
      return "retry_scheduled";
    case RepairEventKind::kApplied:
      return "applied";
    case RepairEventKind::kFailed:
      return "failed";
    case RepairEventKind::kVerified:
      return "verified";
    case RepairEventKind::kRolledBack:
      return "rolled_back";
    case RepairEventKind::kExpired:
      return "expired";
    case RepairEventKind::kBreakerOpened:
      return "breaker_opened";
    case RepairEventKind::kBreakerHalfOpen:
      return "breaker_half_open";
    case RepairEventKind::kBreakerClosed:
      return "breaker_closed";
  }
  return "unknown";
}

bool RepairEventKindFromName(std::string_view name, RepairEventKind* out) {
  static constexpr RepairEventKind kAll[] = {
      RepairEventKind::kRejected,       RepairEventKind::kBreakerRejected,
      RepairEventKind::kDuplicate,      RepairEventKind::kAttempt,
      RepairEventKind::kAttemptFailed,  RepairEventKind::kRetryScheduled,
      RepairEventKind::kApplied,        RepairEventKind::kFailed,
      RepairEventKind::kVerified,       RepairEventKind::kRolledBack,
      RepairEventKind::kExpired,        RepairEventKind::kBreakerOpened,
      RepairEventKind::kBreakerHalfOpen, RepairEventKind::kBreakerClosed,
  };
  for (RepairEventKind kind : kAll) {
    if (name == RepairEventKindName(kind)) {
      if (out != nullptr) *out = kind;
      return true;
    }
  }
  return false;
}

bool ActionTypeFromName(std::string_view name, ActionType* out) {
  static constexpr ActionType kAll[] = {
      ActionType::kThrottle, ActionType::kOptimize, ActionType::kAutoScale};
  for (ActionType type : kAll) {
    if (name == ActionTypeName(type)) {
      if (out != nullptr) *out = type;
      return true;
    }
  }
  return false;
}

Json RepairEvent::ToJson() const {
  Json obj = Json::MakeObject();
  obj.Set("time_ms", time_ms);
  obj.Set("kind", RepairEventKindName(kind));
  obj.Set("action", ActionTypeName(action));
  obj.Set("sql_id", HashToHex(sql_id));
  obj.Set("ticket", static_cast<int64_t>(ticket));
  obj.Set("attempt", attempt);
  obj.Set("detail", detail);
  return obj;
}

std::string RepairEvent::ToString() const {
  std::string out = StrFormat("t=%.0fms #%llu %s %s sql=%s", time_ms,
                              static_cast<unsigned long long>(ticket),
                              RepairEventKindName(kind),
                              ActionTypeName(action),
                              HashToHex(sql_id).c_str());
  if (attempt > 0) out += StrFormat(" attempt=%d", attempt);
  if (!detail.empty()) out += " (" + detail + ")";
  return out;
}

bool EventAccountingConsistent(const std::vector<RepairEvent>& events) {
  std::set<uint64_t> attempted;
  std::set<uint64_t> applied;
  std::map<uint64_t, int> terminal;  // applied or failed, per ticket
  std::set<uint64_t> verified;
  std::set<uint64_t> rolled_back;
  for (const RepairEvent& e : events) {
    switch (e.kind) {
      case RepairEventKind::kAttempt:
        attempted.insert(e.ticket);
        break;
      case RepairEventKind::kApplied:
        applied.insert(e.ticket);
        ++terminal[e.ticket];
        break;
      case RepairEventKind::kFailed:
        ++terminal[e.ticket];
        break;
      case RepairEventKind::kVerified:
        verified.insert(e.ticket);
        break;
      case RepairEventKind::kRolledBack:
        rolled_back.insert(e.ticket);
        break;
      default:
        break;
    }
  }
  for (uint64_t ticket : attempted) {
    auto it = terminal.find(ticket);
    if (it == terminal.end() || it->second != 1) return false;
  }
  for (const auto& [ticket, count] : terminal) {
    if (count != 1 || attempted.count(ticket) == 0) return false;
  }
  for (uint64_t ticket : verified) {
    if (applied.count(ticket) == 0) return false;
    if (rolled_back.count(ticket) != 0) return false;
  }
  for (uint64_t ticket : rolled_back) {
    if (applied.count(ticket) == 0) return false;
  }
  return true;
}

}  // namespace pinsql::repair
