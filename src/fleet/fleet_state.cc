#include "fleet/fleet_state.h"

#include <utility>

#include "store/checkpoint.h"
#include "store/codec.h"

namespace pinsql::fleet {

namespace {

using store::DecodeSeq;
using store::DecodeU64Counter;
using store::EncodeSeq;
using store::codec::Reader;
using store::codec::Writer;

// Minimum encoded sizes, for the plausibility bound before allocation.
constexpr size_t kTriggerBytes = 44;

void PutU32(Writer* w, uint32_t v) { w->U32(v); }
bool GetU32(Reader* r, uint32_t* v) { return r->U32(v); }

void EncodeQueued(Writer* w, const QueuedTrigger& entry) {
  store::EncodeTrigger(w, entry.trigger);
  w->I64(entry.enqueue_sec);
  w->I64(entry.due_sec);
  w->F64(entry.base_priority);
  w->U64(entry.seq);
  w->U64(entry.storm_batch);
}

bool DecodeQueued(Reader* r, QueuedTrigger* entry) {
  return store::DecodeTrigger(r, &entry->trigger) &&
         r->I64(&entry->enqueue_sec) && r->I64(&entry->due_sec) &&
         r->F64(&entry->base_priority) && r->U64(&entry->seq) &&
         r->U64(&entry->storm_batch);
}

void EncodeMember(Writer* w, const StormMember& member) {
  store::EncodeTrigger(w, member.trigger);
  w->I64(member.due_sec);
  w->F64(member.base_priority);
}

bool DecodeMember(Reader* r, StormMember* member) {
  return store::DecodeTrigger(r, &member->trigger) &&
         r->I64(&member->due_sec) && r->F64(&member->base_priority);
}

void EncodeStorm(Writer* w, const StormBatch& batch) {
  w->U64(batch.id);
  w->I64(batch.opened_sec);
  w->I64(batch.closed_sec);
  EncodeSeq(w, batch.members, EncodeMember);
  EncodeSeq(w, batch.triaged, PutU32);
}

bool DecodeStorm(Reader* r, StormBatch* batch) {
  return r->U64(&batch->id) && r->I64(&batch->opened_sec) &&
         r->I64(&batch->closed_sec) &&
         DecodeSeq(r, &batch->members, kTriggerBytes + 16, DecodeMember) &&
         DecodeSeq(r, &batch->triaged, 4, GetU32);
}

void EncodeInstance(Writer* w, const FleetInstanceState& instance) {
  w->U32(instance.instance_id);
  store::EncodeIngestor(w, instance.ingestor);
  store::EncodeDetector(w, instance.detector);
  w->Bool(instance.processed_any);
  w->I64(instance.last_processed_sec);
  store::EncodeCatalog(w, instance.catalog);
  w->U64(instance.lsn.segment_seq);
  w->U64(instance.lsn.offset);
  w->U64(instance.first_needed_seq);
  w->I64(instance.retention_cutoff_ms);
}

bool DecodeInstance(Reader* r, FleetInstanceState* instance) {
  return r->U32(&instance->instance_id) &&
         store::DecodeIngestor(r, &instance->ingestor) &&
         store::DecodeDetector(r, &instance->detector) &&
         r->Bool(&instance->processed_any) &&
         r->I64(&instance->last_processed_sec) &&
         store::DecodeCatalog(r, &instance->catalog) &&
         r->U64(&instance->lsn.segment_seq) && r->U64(&instance->lsn.offset) &&
         r->U64(&instance->first_needed_seq) &&
         r->I64(&instance->retention_cutoff_ms);
}

void EncodeHost(Writer* w, const std::pair<const uint32_t, HostEpisode>& host) {
  w->U32(host.first);
  w->Bool(host.second.flagged);
  EncodeSeq(w, host.second.events, [](Writer* w, const HostTrigger& event) {
    w->I64(event.trigger_sec);
    w->U32(event.instance_id);
    w->I64(event.onset_sec);
    w->F64(event.severity);
  });
}

bool DecodeHost(Reader* r, std::pair<uint32_t, HostEpisode>* host) {
  return r->U32(&host->first) && r->Bool(&host->second.flagged) &&
         DecodeSeq(r, &host->second.events, 28,
                   [](Reader* r, HostTrigger* event) {
                     return r->I64(&event->trigger_sec) &&
                            r->U32(&event->instance_id) &&
                            r->I64(&event->onset_sec) &&
                            r->F64(&event->severity);
                   });
}

void EncodeCorrelator(Writer* w, const CorrelatorState& s) {
  EncodeSeq(w, s.recent, [](Writer* w, const auto& entry) {
    w->I64(entry.first);
    w->U32(entry.second);
  });
  w->Bool(s.open_batch.has_value());
  if (s.open_batch.has_value()) EncodeStorm(w, *s.open_batch);
  w->U64(s.next_batch_id);
  w->U64(s.storms_detected);
  EncodeSeq(w, s.hosts, EncodeHost);
}

bool DecodeCorrelator(Reader* r, CorrelatorState* s) {
  bool has_open = false;
  std::vector<std::pair<uint32_t, HostEpisode>> hosts;
  if (!DecodeSeq(r, &s->recent, 12,
                 [](Reader* r, std::pair<int64_t, uint32_t>* entry) {
                   return r->I64(&entry->first) && r->U32(&entry->second);
                 }) ||
      !r->Bool(&has_open)) {
    return false;
  }
  if (has_open && !DecodeStorm(r, &s->open_batch.emplace())) return false;
  if (!r->U64(&s->next_batch_id) || !DecodeU64Counter(r, &s->storms_detected) ||
      !DecodeSeq(r, &hosts, 13, DecodeHost)) {
    return false;
  }
  s->hosts = {std::make_move_iterator(hosts.begin()),
              std::make_move_iterator(hosts.end())};
  return true;
}

void EncodeScheduler(Writer* w, const FleetSchedulerState& s) {
  EncodeSeq(w, s.queue, EncodeQueued);
  w->U64(s.next_seq);
  for (size_t v : {s.stats.enqueued, s.stats.completed, s.stats.extracted,
                   s.stats.max_queue_depth, s.stats.max_observed_concurrency}) {
    w->U64(v);
  }
  w->I64(s.stats.max_wait_sec);
}

bool DecodeScheduler(Reader* r, FleetSchedulerState* s) {
  return DecodeSeq(r, &s->queue, kTriggerBytes + 40, DecodeQueued) &&
         r->U64(&s->next_seq) && DecodeU64Counter(r, &s->stats.enqueued) &&
         DecodeU64Counter(r, &s->stats.completed) &&
         DecodeU64Counter(r, &s->stats.extracted) &&
         DecodeU64Counter(r, &s->stats.max_queue_depth) &&
         DecodeU64Counter(r, &s->stats.max_observed_concurrency) &&
         r->I64(&s->stats.max_wait_sec);
}

void EncodeCounters(Writer* w, const FleetCounters& c) {
  w->I64(c.seconds_processed);
  for (size_t v : {c.triggers_confirmed, c.triggers_accepted,
                   c.triggers_suppressed, c.diagnoses_ok, c.diagnoses_failed,
                   c.storm_deferred, c.neighbor_verdicts, c.repairs_applied,
                   c.repairs_rejected,
                   c.retention_sweeps, c.records_retired}) {
    w->U64(v);
  }
}

bool DecodeCounters(Reader* r, FleetCounters* c) {
  return r->I64(&c->seconds_processed) &&
         DecodeU64Counter(r, &c->triggers_confirmed) &&
         DecodeU64Counter(r, &c->triggers_accepted) &&
         DecodeU64Counter(r, &c->triggers_suppressed) &&
         DecodeU64Counter(r, &c->diagnoses_ok) &&
         DecodeU64Counter(r, &c->diagnoses_failed) &&
         DecodeU64Counter(r, &c->storm_deferred) &&
         DecodeU64Counter(r, &c->neighbor_verdicts) &&
         DecodeU64Counter(r, &c->repairs_applied) &&
         DecodeU64Counter(r, &c->repairs_rejected) &&
         DecodeU64Counter(r, &c->retention_sweeps) &&
         DecodeU64Counter(r, &c->records_retired);
}

}  // namespace

std::string EncodeFleetState(const FleetState& state) {
  std::string out;
  Writer w(&out);
  EncodeSeq(&w, state.instances, EncodeInstance);
  EncodeSeq(&w, state.dedup_activity, [](Writer* w, const auto& entry) {
    w->U32(entry.first);
    w->I64(entry.second);
  });
  EncodeScheduler(&w, state.scheduler);
  EncodeCorrelator(&w, state.correlator);
  w.Bool(state.processed_any);
  w.I64(state.last_fleet_sec);
  EncodeCounters(&w, state.counters);
  return out;
}

StatusOr<FleetState> DecodeFleetState(std::string_view body) {
  FleetState state;
  Reader r(body);
  if (!DecodeSeq(&r, &state.instances, 40, DecodeInstance)) {
    return Status::ParseError("fleet checkpoint: malformed instance state");
  }
  if (!DecodeSeq(&r, &state.dedup_activity, 12,
                 [](Reader* r, std::pair<uint32_t, int64_t>* entry) {
                   return r->U32(&entry->first) && r->I64(&entry->second);
                 }) ||
      !DecodeScheduler(&r, &state.scheduler) ||
      !DecodeCorrelator(&r, &state.correlator)) {
    return Status::ParseError("fleet checkpoint: malformed trigger routing");
  }
  if (!r.Bool(&state.processed_any) || !r.I64(&state.last_fleet_sec) ||
      !DecodeCounters(&r, &state.counters)) {
    return Status::ParseError("fleet checkpoint: truncated counters");
  }
  if (!r.exhausted()) {
    return Status::ParseError("fleet checkpoint: trailing bytes");
  }
  return state;
}

}  // namespace pinsql::fleet
