#include "fleet/fleet_replay.h"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

namespace pinsql::fleet {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One instance's recorded stream expanded for replay: a per-second sample
/// timeline (gap-filled) and its records in arrival order (stable, so equal
/// arrivals keep their recorded order).
struct InstancePlan {
  std::vector<online::PerfSample> timeline;
  int64_t first_sec = 0;
  std::vector<QueryLogRecord> records;
};

InstancePlan BuildPlan(const online::ReplayLog& log) {
  InstancePlan plan;
  if (log.samples.empty()) return plan;

  plan.first_sec = log.samples.front().sec;
  const int64_t last_sec = log.samples.back().sec;
  plan.timeline.reserve(static_cast<size_t>(last_sec - plan.first_sec + 1));
  const double gap = std::numeric_limits<double>::quiet_NaN();
  size_t k = 0;
  for (int64_t sec = plan.first_sec; sec <= last_sec; ++sec) {
    while (k < log.samples.size() && log.samples[k].sec < sec) ++k;
    if (k < log.samples.size() && log.samples[k].sec == sec) {
      plan.timeline.push_back(log.samples[k]);
    } else {
      plan.timeline.push_back(
          online::PerfSample{.sec = sec, .active_session = gap,
                             .cpu_usage = gap, .iops_usage = gap,
                             .row_lock_waits = gap, .mdl_waits = gap});
    }
  }

  plan.records = log.records;
  std::stable_sort(plan.records.begin(), plan.records.end(),
                   [](const QueryLogRecord& a, const QueryLogRecord& b) {
                     return a.arrival_ms < b.arrival_ms;
                   });
  return plan;
}

}  // namespace

void AppendOutcomeFingerprint(const online::DiagnosisOutcome& outcome,
                              std::string* out) {
  *out += "trigger:";
  *out += std::to_string(outcome.trigger.instance_id);
  *out += ',';
  *out += std::to_string(outcome.trigger.onset_sec);
  *out += ',';
  *out += std::to_string(outcome.trigger.trigger_sec);
  *out += ',';
  *out += FormatDouble(outcome.trigger.severity);
  *out += ',';
  *out += FormatDouble(outcome.trigger.pettitt_p);
  *out += ',';
  *out += outcome.trigger.source;
  *out += '\n';
  *out += outcome.ok ? "ok\n" : ("error:" + outcome.error + "\n");
  if (outcome.ok) {
    *out += outcome.report.ToJson().Dump();
    *out += '\n';
  }
  *out += "repairs:";
  *out += std::to_string(outcome.repairs_applied);
  *out += ",ttr:";
  *out += FormatDouble(outcome.ttr_sec);
  *out += '\n';
}

std::string FleetResult::Fingerprint() const {
  std::string out;
  for (const auto& [instance_id, instance_latencies] : latencies) {
    out += "latencies[";
    out += std::to_string(instance_id);
    out += "]:";
    for (int64_t latency : instance_latencies) {
      out += std::to_string(latency);
      out += ',';
    }
    out += '\n';
  }

  std::vector<size_t> order(outcomes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    const online::AnomalyTrigger& ta = outcomes[a].outcome.trigger;
    const online::AnomalyTrigger& tb = outcomes[b].outcome.trigger;
    if (ta.instance_id != tb.instance_id) {
      return ta.instance_id < tb.instance_id;
    }
    if (ta.onset_sec != tb.onset_sec) return ta.onset_sec < tb.onset_sec;
    return ta.trigger_sec < tb.trigger_sec;
  });
  for (size_t idx : order) {
    const FleetOutcome& fleet_outcome = outcomes[idx];
    out += "outcome:";
    out += fleet_outcome.disposition == FleetOutcome::Disposition::kDiagnosed
               ? "diagnosed"
               : "storm_deferred";
    out += ",storm=";
    out += std::to_string(fleet_outcome.storm_batch);
    out += '\n';
    AppendOutcomeFingerprint(fleet_outcome.outcome, &out);
  }

  for (const StormBatch& storm : storms) {
    out += "storm:";
    out += std::to_string(storm.id);
    out += ",opened=";
    out += std::to_string(storm.opened_sec);
    out += ",closed=";
    out += std::to_string(storm.closed_sec);
    out += ",triaged=";
    for (uint32_t instance_id : storm.triaged) {
      out += std::to_string(instance_id);
      out += ',';
    }
    out += "members=";
    std::vector<size_t> member_order(storm.members.size());
    for (size_t i = 0; i < member_order.size(); ++i) member_order[i] = i;
    std::sort(member_order.begin(), member_order.end(),
              [&storm](size_t a, size_t b) {
                const online::AnomalyTrigger& ta = storm.members[a].trigger;
                const online::AnomalyTrigger& tb = storm.members[b].trigger;
                if (ta.instance_id != tb.instance_id) {
                  return ta.instance_id < tb.instance_id;
                }
                if (ta.onset_sec != tb.onset_sec) {
                  return ta.onset_sec < tb.onset_sec;
                }
                return ta.trigger_sec < tb.trigger_sec;
              });
    for (size_t idx : member_order) {
      const StormMember& member = storm.members[idx];
      out += '(';
      out += std::to_string(member.trigger.instance_id);
      out += ',';
      out += std::to_string(member.trigger.onset_sec);
      out += ',';
      out += std::to_string(member.trigger.trigger_sec);
      out += ',';
      out += FormatDouble(member.trigger.severity);
      out += ')';
    }
    out += '\n';
  }

  for (const NoisyNeighborVerdict& verdict : neighbors) {
    out += "neighbor:host=";
    out += std::to_string(verdict.host_id);
    out += ",sec=";
    out += std::to_string(verdict.flagged_sec);
    out += ",dominant=";
    out += std::to_string(verdict.dominant_instance);
    out += ",onset=";
    out += std::to_string(verdict.dominant_onset_sec);
    out += ",severity=";
    out += FormatDouble(verdict.dominant_severity);
    out += ",cotenants=";
    for (uint32_t instance_id : verdict.cotenants) {
      out += std::to_string(instance_id);
      out += ',';
    }
    out += '\n';
  }
  return out;
}

std::string FleetResult::InstanceFingerprint(uint32_t instance_id) const {
  std::string out;
  out += "latencies:";
  if (auto it = latencies.find(instance_id); it != latencies.end()) {
    for (int64_t latency : it->second) {
      out += std::to_string(latency);
      out += ',';
    }
  }
  out += '\n';

  std::vector<size_t> order;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].outcome.trigger.instance_id == instance_id) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    const online::AnomalyTrigger& ta = outcomes[a].outcome.trigger;
    const online::AnomalyTrigger& tb = outcomes[b].outcome.trigger;
    if (ta.onset_sec != tb.onset_sec) return ta.onset_sec < tb.onset_sec;
    return ta.trigger_sec < tb.trigger_sec;
  });
  for (size_t idx : order) {
    // Normalize the id so every instance's slice digests like a fleet of
    // one whose instance is 0.
    online::DiagnosisOutcome normalized = outcomes[idx].outcome;
    normalized.trigger.instance_id = 0;
    AppendOutcomeFingerprint(normalized, &out);
  }
  return out;
}

FleetResult CollectFleetResult(const FleetService& service,
                               std::vector<FleetOutcome> outcomes,
                               FleetEvents events) {
  FleetResult result;
  result.outcomes = std::move(outcomes);
  result.storms = std::move(events.storms);
  result.neighbors = std::move(events.verdicts);
  for (uint32_t instance_id : service.instance_ids()) {
    result.latencies[instance_id] = {};
  }
  for (const online::AnomalyTrigger& trigger : events.confirmed) {
    result.latencies[trigger.instance_id].push_back(trigger.trigger_sec -
                                                    trigger.onset_sec);
  }
  result.stats = service.stats();
  return result;
}

FleetResult RunFleetReplay(const std::vector<FleetInstanceSpec>& specs,
                           const std::vector<online::ReplayLog>& logs,
                           const LogStore& catalog,
                           const FleetReplayOptions& options) {
  const size_t n = std::min(specs.size(), logs.size());
  if (n == 0) return FleetResult{};

  FleetOptions fleet_options = options.fleet;
  fleet_options.scheduler.zero_timings = true;
  std::vector<FleetInstanceSpec> fleet_specs(specs.begin(),
                                             specs.begin() + n);
  FleetService service(fleet_specs, fleet_options);
  for (const auto& [sql_id, entry] : catalog.catalog()) {
    service.RegisterTemplateFleetWide(sql_id, entry);
  }

  std::vector<InstancePlan> plans;
  plans.reserve(n);
  int64_t first_sec = std::numeric_limits<int64_t>::max();
  int64_t last_sec = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < n; ++i) {
    plans.push_back(BuildPlan(logs[i]));
    if (!plans.back().timeline.empty()) {
      first_sec = std::min(first_sec, plans.back().first_sec);
      last_sec = std::max(last_sec,
                          plans.back().first_sec +
                              static_cast<int64_t>(plans.back().timeline.size()) -
                              1);
    }
  }
  if (first_sec > last_sec) return FleetResult{};

  // The plan index of `sec` for instance i, or -1 outside its span.
  const auto index_of = [&](size_t i, int64_t sec) -> int64_t {
    const int64_t idx = sec - plans[i].first_sec;
    const auto span = static_cast<int64_t>(plans[i].timeline.size());
    return idx >= 0 && idx < span ? idx : -1;
  };

  const size_t num_workers =
      static_cast<size_t>(std::max(options.num_ingest_workers, 1));
  FleetEvents events;
  std::vector<FleetOutcome> outcomes = service.Start(&events);
  const auto take = [&outcomes](std::vector<FleetOutcome> produced) {
    outcomes.insert(outcomes.end(), std::make_move_iterator(produced.begin()),
                    std::make_move_iterator(produced.end()));
  };
  // Two barriers per simulated second: the workers push the second's
  // records and samples, then the main loop advances the fleet watermark
  // while they wait. Worker w owns the instances i ≡ w (mod W) and, for
  // each, pushes the records that arrived before the second's end (an
  // instance's last second takes the rest) from a cursor into its
  // arrival-ordered list, then the second's sample. Each instance is fed
  // by one worker in recorded order, so its ingest order — and therefore
  // the fingerprint — is identical at any W, and each record is visited
  // once.
  std::vector<size_t> cursors(n, 0);
  std::barrier sync(static_cast<std::ptrdiff_t>(num_workers) + 1);
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (size_t wid = 0; wid < num_workers; ++wid) {
    workers.emplace_back([&, wid]() {
      for (int64_t sec = first_sec; sec <= last_sec; ++sec) {
        for (size_t i = wid; i < n; i += num_workers) {
          const int64_t idx = index_of(i, sec);
          if (idx < 0) continue;
          const bool last =
              static_cast<size_t>(idx) + 1 == plans[i].timeline.size();
          const std::vector<QueryLogRecord>& records = plans[i].records;
          size_t k = cursors[i];
          while (k < records.size() &&
                 (last || records[k].arrival_ms < (sec + 1) * 1000)) {
            service.IngestRecord(specs[i].instance_id, records[k++]);
          }
          cursors[i] = k;
          service.IngestMetrics(specs[i].instance_id,
                                plans[i].timeline[static_cast<size_t>(idx)]);
        }
        sync.arrive_and_wait();
        sync.arrive_and_wait();
      }
    });
  }
  for (int64_t sec = first_sec; sec <= last_sec; ++sec) {
    sync.arrive_and_wait();
    take(service.AdvanceTo(sec, &events));
    sync.arrive_and_wait();
  }
  for (std::thread& worker : workers) worker.join();
  take(service.Stop(&events));
  return CollectFleetResult(service, std::move(outcomes), std::move(events));
}

}  // namespace pinsql::fleet
