#include "store/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/report.h"
#include "obs/metrics.h"
#include "store/codec.h"
#include "store/crc32c.h"
#include "util/json.h"

namespace pinsql::store {

namespace {

constexpr char kCheckpointMagic[8] = {'P', 'S', 'Q', 'L', 'C', 'K', 'P', '1'};
// v2: ensemble-backed detector state (forecaster snapshots, gap-reset
// counters) and trigger source attribution. v3: the ingestor's
// per-template ring buckets are gone (template series come from the
// archive). Older checkpoints fail the version check and recovery falls
// back to the WAL, which replays into the new format.
constexpr uint32_t kCheckpointVersion = 3;
// magic(8) + version(4) at the front, crc(4) at the back.
constexpr size_t kCheckpointOverhead = 16;

// ---------------------------------------------------------------------------
// Encode

void EncodeRecord(codec::Writer* w, const QueryLogRecord& record) {
  w->I64(record.arrival_ms);
  w->F64(record.response_ms);
  w->U64(record.sql_id);
  w->I64(record.examined_rows);
}

void EncodeSample(codec::Writer* w, const online::PerfSample& sample) {
  w->I64(sample.sec);
  w->F64(sample.active_session);
  w->F64(sample.cpu_usage);
  w->F64(sample.iops_usage);
  w->F64(sample.row_lock_waits);
  w->F64(sample.mdl_waits);
}

void EncodeIngestor(codec::Writer* w, const online::IngestorState& state) {
  w->U64(state.shards.size());
  for (const online::IngestorShardState& shard : state.shards) {
    w->U64(shard.queue.size());
    for (const QueryLogRecord& record : shard.queue) EncodeRecord(w, record);
    w->U64(shard.enqueued);
    w->U64(shard.dropped_backpressure);
    w->U64(shard.folded);
    w->U64(shard.dropped_late);
  }
  w->U64(state.metric_buckets.size());
  for (const online::IngestorMetricBucketState& bucket : state.metric_buckets) {
    w->I64(bucket.sec);
    EncodeSample(w, bucket.sample);
  }
  w->U64(state.metric_samples);
  w->U64(state.metric_samples_dropped);
  w->I64(state.watermark);
}

void EncodeScreenSnapshot(codec::Writer* w,
                          const anomaly::StreamingDetectorSnapshot& screen) {
  w->U64(screen.clean.size());
  for (double v : screen.clean) w->F64(v);
  w->F64(screen.baseline_median);
  w->F64(screen.baseline_mad);
  w->Bool(screen.baseline_fresh);
  w->Bool(screen.in_run);
  w->Bool(screen.run_up);
  w->U64(screen.run_start);
  w->F64(screen.run_peak);
  w->F64(screen.last_z);
  w->U64(screen.count);
  w->I64(screen.start_time);
  w->I64(screen.interval_sec);
}

void EncodeForecast(codec::Writer* w, const detect::ForecastSnapshot& fc) {
  w->U32(static_cast<uint32_t>(fc.method));
  w->U64(fc.count);
  w->F64(fc.mad);
  w->F64(fc.cusum);
  w->U64(fc.cusum_start);
  w->U64(fc.cusum_anchor);
  w->Bool(fc.cusum_anchor_set);
  w->F64(fc.block_sum);
  w->U64(fc.block_n);
  w->Bool(fc.in_run);
  w->Bool(fc.run_up);
  w->Bool(fc.drift_run);
  w->U64(fc.run_start);
  w->F64(fc.run_peak);
  w->F64(fc.last_z);
  w->I64(fc.start_time);
  w->I64(fc.interval_sec);
  w->U64(fc.model.size());
  for (double v : fc.model) w->F64(v);
}

void EncodeDetector(codec::Writer* w, const online::OnlineDetectorState& state) {
  const detect::EnsembleSnapshot& ensemble = state.ensemble;
  w->Bool(ensemble.initialized);
  w->Bool(ensemble.screen_present);
  EncodeScreenSnapshot(w, ensemble.screen);
  w->U64(ensemble.trailing.size());
  for (double v : ensemble.trailing) w->F64(v);
  w->Bool(ensemble.fired_this_incident);
  w->U64(ensemble.pettitt_rejections);
  w->U64(ensemble.forecasters.size());
  for (const detect::ForecastSnapshot& fc : ensemble.forecasters) {
    EncodeForecast(w, fc);
  }
  w->F64(state.last_finite);
  w->Bool(state.seen_finite);
  w->U64(state.consecutive_gaps);
  w->U64(state.latencies.size());
  for (int64_t v : state.latencies) w->I64(v);
  w->U64(state.stats.samples);
  w->U64(state.stats.gaps_carried);
  w->U64(state.stats.gaps_skipped);
  w->U64(state.stats.triggers);
  w->U64(state.stats.pettitt_rejections);
  w->U64(state.stats.baseline_resets);
}

void EncodeTrigger(codec::Writer* w, const online::AnomalyTrigger& trigger) {
  w->U32(trigger.instance_id);
  w->I64(trigger.onset_sec);
  w->I64(trigger.trigger_sec);
  w->F64(trigger.severity);
  w->F64(trigger.pettitt_p);
  w->Str(trigger.source);
}

void EncodeScheduler(codec::Writer* w, const online::SchedulerState& state) {
  w->U64(state.pending.size());
  for (const online::SchedulerPendingState& pending : state.pending) {
    EncodeTrigger(w, pending.trigger);
    w->I64(pending.due_sec);
  }
  w->U64(state.dedup_activity.size());
  for (const auto& [instance_id, sec] : state.dedup_activity) {
    w->U32(instance_id);
    w->I64(sec);
  }
  w->U64(state.stats.triggers_accepted);
  w->U64(state.stats.triggers_suppressed);
  w->U64(state.stats.diagnoses_ok);
  w->U64(state.stats.diagnoses_failed);
  w->U64(state.stats.repairs_applied);
  w->U64(state.stats.repairs_rejected);
  w->U64(state.outcomes.size());
  for (const online::DiagnosisOutcome& outcome : state.outcomes) {
    EncodeTrigger(w, outcome.trigger);
    w->Bool(outcome.ok);
    w->Str(outcome.error);
    // The report round-trips byte-exactly through its JSON form (see
    // report_test), so the checkpoint reuses it instead of a second binary
    // schema for the deepest struct in the repo.
    w->Str(outcome.report.ToJson().Dump());
    w->U64(outcome.confirmed_rsqls.size());
    for (uint64_t id : outcome.confirmed_rsqls) w->U64(id);
    w->U64(outcome.repairs_applied);
    w->F64(outcome.ttr_sec);
  }
}

void EncodeRepairEvent(codec::Writer* w, const repair::RepairEvent& event) {
  w->F64(event.time_ms);
  w->Str(repair::RepairEventKindName(event.kind));
  w->Str(repair::ActionTypeName(event.action));
  w->U64(event.sql_id);
  w->U64(event.ticket);
  w->I64(event.attempt);
  w->Str(event.detail);
}

// ---------------------------------------------------------------------------
// Decode

/// Guards a decoded element count against the bytes actually left: a count
/// whose minimum encoding cannot fit the remaining payload is corruption,
/// rejected before any allocation.
bool PlausibleCount(const codec::Reader& r, uint64_t count,
                    size_t min_elem_bytes) {
  return count <= r.remaining() / min_elem_bytes;
}

bool DecodeRecord(codec::Reader* r, QueryLogRecord* record) {
  return r->I64(&record->arrival_ms) && r->F64(&record->response_ms) &&
         r->U64(&record->sql_id) && r->I64(&record->examined_rows);
}

bool DecodeSample(codec::Reader* r, online::PerfSample* sample) {
  return r->I64(&sample->sec) && r->F64(&sample->active_session) &&
         r->F64(&sample->cpu_usage) && r->F64(&sample->iops_usage) &&
         r->F64(&sample->row_lock_waits) && r->F64(&sample->mdl_waits);
}

bool DecodeIngestor(codec::Reader* r, online::IngestorState* state) {
  uint64_t num_shards = 0;
  if (!r->U64(&num_shards) || !PlausibleCount(*r, num_shards, 40)) {
    return false;
  }
  state->shards.resize(num_shards);
  for (online::IngestorShardState& shard : state->shards) {
    uint64_t queue_size = 0;
    if (!r->U64(&queue_size) || !PlausibleCount(*r, queue_size, 32)) {
      return false;
    }
    shard.queue.resize(queue_size);
    for (QueryLogRecord& record : shard.queue) {
      if (!DecodeRecord(r, &record)) return false;
    }
    if (!r->U64(&shard.enqueued) || !r->U64(&shard.dropped_backpressure) ||
        !r->U64(&shard.folded) || !r->U64(&shard.dropped_late)) {
      return false;
    }
  }
  uint64_t num_metric_buckets = 0;
  if (!r->U64(&num_metric_buckets) ||
      !PlausibleCount(*r, num_metric_buckets, 56)) {
    return false;
  }
  state->metric_buckets.resize(num_metric_buckets);
  for (online::IngestorMetricBucketState& bucket : state->metric_buckets) {
    if (!r->I64(&bucket.sec) || !DecodeSample(r, &bucket.sample)) return false;
  }
  return r->U64(&state->metric_samples) &&
         r->U64(&state->metric_samples_dropped) && r->I64(&state->watermark);
}

bool DecodeU64Counter(codec::Reader* r, size_t* out) {
  uint64_t v = 0;
  if (!r->U64(&v)) return false;
  *out = static_cast<size_t>(v);
  return true;
}

bool DecodeScreenSnapshot(codec::Reader* r,
                          anomaly::StreamingDetectorSnapshot* screen) {
  uint64_t clean_size = 0;
  if (!r->U64(&clean_size) || !PlausibleCount(*r, clean_size, 8)) return false;
  screen->clean.resize(clean_size);
  for (double& v : screen->clean) {
    if (!r->F64(&v)) return false;
  }
  return r->F64(&screen->baseline_median) && r->F64(&screen->baseline_mad) &&
         r->Bool(&screen->baseline_fresh) && r->Bool(&screen->in_run) &&
         r->Bool(&screen->run_up) && r->U64(&screen->run_start) &&
         r->F64(&screen->run_peak) && r->F64(&screen->last_z) &&
         r->U64(&screen->count) && r->I64(&screen->start_time) &&
         r->I64(&screen->interval_sec);
}

bool DecodeForecast(codec::Reader* r, detect::ForecastSnapshot* fc) {
  uint32_t method = 0;
  if (!r->U32(&method) || method > 3) return false;
  fc->method = static_cast<detect::ForecastMethod>(method);
  if (!r->U64(&fc->count) || !r->F64(&fc->mad) || !r->F64(&fc->cusum) ||
      !r->U64(&fc->cusum_start) || !r->U64(&fc->cusum_anchor) ||
      !r->Bool(&fc->cusum_anchor_set) || !r->F64(&fc->block_sum) ||
      !r->U64(&fc->block_n) || !r->Bool(&fc->in_run) ||
      !r->Bool(&fc->run_up) || !r->Bool(&fc->drift_run) ||
      !r->U64(&fc->run_start) || !r->F64(&fc->run_peak) ||
      !r->F64(&fc->last_z) || !r->I64(&fc->start_time) ||
      !r->I64(&fc->interval_sec)) {
    return false;
  }
  uint64_t model_size = 0;
  if (!r->U64(&model_size) || !PlausibleCount(*r, model_size, 8)) {
    return false;
  }
  fc->model.resize(model_size);
  for (double& v : fc->model) {
    if (!r->F64(&v)) return false;
  }
  return true;
}

bool DecodeDetector(codec::Reader* r, online::OnlineDetectorState* state) {
  detect::EnsembleSnapshot& ensemble = state->ensemble;
  if (!r->Bool(&ensemble.initialized) || !r->Bool(&ensemble.screen_present) ||
      !DecodeScreenSnapshot(r, &ensemble.screen)) {
    return false;
  }
  uint64_t trailing_size = 0;
  if (!r->U64(&trailing_size) || !PlausibleCount(*r, trailing_size, 8)) {
    return false;
  }
  ensemble.trailing.resize(trailing_size);
  for (double& v : ensemble.trailing) {
    if (!r->F64(&v)) return false;
  }
  if (!r->Bool(&ensemble.fired_this_incident) ||
      !r->U64(&ensemble.pettitt_rejections)) {
    return false;
  }
  uint64_t num_forecasters = 0;
  if (!r->U64(&num_forecasters) || !PlausibleCount(*r, num_forecasters, 80)) {
    return false;
  }
  ensemble.forecasters.resize(num_forecasters);
  for (detect::ForecastSnapshot& fc : ensemble.forecasters) {
    if (!DecodeForecast(r, &fc)) return false;
  }
  if (!r->F64(&state->last_finite) || !r->Bool(&state->seen_finite) ||
      !r->U64(&state->consecutive_gaps)) {
    return false;
  }
  uint64_t latencies_size = 0;
  if (!r->U64(&latencies_size) || !PlausibleCount(*r, latencies_size, 8)) {
    return false;
  }
  state->latencies.resize(latencies_size);
  for (int64_t& v : state->latencies) {
    if (!r->I64(&v)) return false;
  }
  return DecodeU64Counter(r, &state->stats.samples) &&
         DecodeU64Counter(r, &state->stats.gaps_carried) &&
         DecodeU64Counter(r, &state->stats.gaps_skipped) &&
         DecodeU64Counter(r, &state->stats.triggers) &&
         DecodeU64Counter(r, &state->stats.pettitt_rejections) &&
         DecodeU64Counter(r, &state->stats.baseline_resets);
}

bool DecodeTrigger(codec::Reader* r, online::AnomalyTrigger* trigger) {
  return r->U32(&trigger->instance_id) && r->I64(&trigger->onset_sec) &&
         r->I64(&trigger->trigger_sec) && r->F64(&trigger->severity) &&
         r->F64(&trigger->pettitt_p) && r->Str(&trigger->source);
}

bool DecodeScheduler(codec::Reader* r, online::SchedulerState* state) {
  uint64_t num_pending = 0;
  if (!r->U64(&num_pending) || !PlausibleCount(*r, num_pending, 44)) {
    return false;
  }
  state->pending.resize(num_pending);
  for (online::SchedulerPendingState& pending : state->pending) {
    if (!DecodeTrigger(r, &pending.trigger) || !r->I64(&pending.due_sec)) {
      return false;
    }
  }
  uint64_t num_dedup = 0;
  if (!r->U64(&num_dedup) || !PlausibleCount(*r, num_dedup, 12)) return false;
  state->dedup_activity.resize(num_dedup);
  for (auto& [instance_id, sec] : state->dedup_activity) {
    if (!r->U32(&instance_id) || !r->I64(&sec)) return false;
  }
  if (!DecodeU64Counter(r, &state->stats.triggers_accepted) ||
      !DecodeU64Counter(r, &state->stats.triggers_suppressed) ||
      !DecodeU64Counter(r, &state->stats.diagnoses_ok) ||
      !DecodeU64Counter(r, &state->stats.diagnoses_failed) ||
      !DecodeU64Counter(r, &state->stats.repairs_applied) ||
      !DecodeU64Counter(r, &state->stats.repairs_rejected)) {
    return false;
  }
  uint64_t num_outcomes = 0;
  if (!r->U64(&num_outcomes) || !PlausibleCount(*r, num_outcomes, 64)) {
    return false;
  }
  state->outcomes.resize(num_outcomes);
  for (online::DiagnosisOutcome& outcome : state->outcomes) {
    std::string report_json;
    if (!DecodeTrigger(r, &outcome.trigger) || !r->Bool(&outcome.ok) ||
        !r->Str(&outcome.error) || !r->Str(&report_json)) {
      return false;
    }
    auto json = Json::Parse(report_json);
    if (!json.ok()) return false;
    auto report = core::DiagnosisReport::FromJson(*json);
    if (!report.ok()) return false;
    outcome.report = std::move(report).value();
    uint64_t num_confirmed = 0;
    if (!r->U64(&num_confirmed) || !PlausibleCount(*r, num_confirmed, 8)) {
      return false;
    }
    outcome.confirmed_rsqls.resize(num_confirmed);
    for (uint64_t& id : outcome.confirmed_rsqls) {
      if (!r->U64(&id)) return false;
    }
    if (!DecodeU64Counter(r, &outcome.repairs_applied) ||
        !r->F64(&outcome.ttr_sec)) {
      return false;
    }
  }
  return true;
}

bool DecodeRepairEvent(codec::Reader* r, repair::RepairEvent* event) {
  std::string kind_name, action_name;
  int64_t attempt = 0;
  if (!r->F64(&event->time_ms) || !r->Str(&kind_name) ||
      !r->Str(&action_name) || !r->U64(&event->sql_id) ||
      !r->U64(&event->ticket) || !r->I64(&attempt) || !r->Str(&event->detail)) {
    return false;
  }
  if (!repair::RepairEventKindFromName(kind_name, &event->kind)) return false;
  if (!repair::ActionTypeFromName(action_name, &event->action)) return false;
  event->attempt = static_cast<int>(attempt);
  return true;
}

/// Parses the counter out of a checkpoint file name, or nullopt when the
/// name is not of the ckpt-<digits>.ckpt form.
std::optional<uint64_t> ParseCheckpointCounter(const std::string& name) {
  constexpr std::string_view kPrefix = "ckpt-";
  constexpr std::string_view kSuffix = ".ckpt";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return std::nullopt;
  }
  uint64_t counter = 0;
  for (size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    counter = counter * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return counter;
}

}  // namespace

std::string CheckpointFileName(uint64_t counter) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt-%06llu.ckpt",
                static_cast<unsigned long long>(counter));
  return buf;
}

std::string EncodeCheckpointBody(const CheckpointData& data) {
  std::string out;
  codec::Writer w(&out);
  w.U64(data.lsn.segment_seq);
  w.U64(data.lsn.offset);

  const online::ServiceState& service = data.service;
  EncodeIngestor(&w, service.ingestor);
  EncodeDetector(&w, service.detector);
  EncodeScheduler(&w, service.scheduler);
  w.Bool(service.processed_any);
  w.I64(service.last_processed_sec);
  w.I64(service.retention_sweeps);
  w.U64(service.records_retired);
  w.I64(service.seconds_processed);
  w.U64(service.archive_records.size());
  for (const QueryLogRecord& record : service.archive_records) {
    EncodeRecord(&w, record);
  }
  w.U64(service.catalog.size());
  for (const auto& [sql_id, entry] : service.catalog) {
    w.U64(sql_id);
    w.Str(entry.template_text);
    w.U8(static_cast<uint8_t>(entry.kind));
    w.U64(entry.tables.size());
    for (const std::string& table : entry.tables) w.Str(table);
  }

  w.U64(data.audit.size());
  for (const repair::RepairEvent& event : data.audit) {
    EncodeRepairEvent(&w, event);
  }
  return out;
}

StatusOr<CheckpointData> DecodeCheckpointBody(std::string_view body) {
  CheckpointData data;
  codec::Reader r(body);
  if (!r.U64(&data.lsn.segment_seq) || !r.U64(&data.lsn.offset)) {
    return Status::ParseError("checkpoint: truncated LSN");
  }
  online::ServiceState& service = data.service;
  if (!DecodeIngestor(&r, &service.ingestor)) {
    return Status::ParseError("checkpoint: malformed ingestor state");
  }
  if (!DecodeDetector(&r, &service.detector)) {
    return Status::ParseError("checkpoint: malformed detector state");
  }
  if (!DecodeScheduler(&r, &service.scheduler)) {
    return Status::ParseError("checkpoint: malformed scheduler state");
  }
  int64_t retention_sweeps = 0;
  if (!r.Bool(&service.processed_any) ||
      !r.I64(&service.last_processed_sec) || !r.I64(&retention_sweeps) ||
      !r.U64(&service.records_retired) || !r.I64(&service.seconds_processed)) {
    return Status::ParseError("checkpoint: truncated service counters");
  }
  service.retention_sweeps = retention_sweeps;
  uint64_t num_records = 0;
  if (!r.U64(&num_records) || !PlausibleCount(r, num_records, 32)) {
    return Status::ParseError("checkpoint: implausible archive size");
  }
  service.archive_records.resize(num_records);
  for (QueryLogRecord& record : service.archive_records) {
    if (!DecodeRecord(&r, &record)) {
      return Status::ParseError("checkpoint: truncated archive record");
    }
  }
  uint64_t num_templates = 0;
  if (!r.U64(&num_templates) || !PlausibleCount(r, num_templates, 25)) {
    return Status::ParseError("checkpoint: implausible catalog size");
  }
  service.catalog.resize(num_templates);
  for (auto& [sql_id, entry] : service.catalog) {
    uint8_t kind = 0;
    uint64_t num_tables = 0;
    if (!r.U64(&sql_id) || !r.Str(&entry.template_text) || !r.U8(&kind) ||
        !r.U64(&num_tables) || !PlausibleCount(r, num_tables, 8)) {
      return Status::ParseError("checkpoint: malformed catalog entry");
    }
    if (kind > static_cast<uint8_t>(sqltpl::StatementKind::kOther)) {
      return Status::ParseError("checkpoint: unknown statement kind");
    }
    entry.kind = static_cast<sqltpl::StatementKind>(kind);
    entry.tables.resize(num_tables);
    for (std::string& table : entry.tables) {
      if (!r.Str(&table)) {
        return Status::ParseError("checkpoint: malformed catalog table");
      }
    }
  }
  uint64_t num_events = 0;
  if (!r.U64(&num_events) || !PlausibleCount(r, num_events, 52)) {
    return Status::ParseError("checkpoint: implausible audit size");
  }
  data.audit.resize(num_events);
  for (repair::RepairEvent& event : data.audit) {
    if (!DecodeRepairEvent(&r, &event)) {
      return Status::ParseError("checkpoint: malformed audit event");
    }
  }
  if (!r.exhausted()) {
    return Status::ParseError("checkpoint: trailing bytes");
  }
  return data;
}

Status WriteCheckpoint(Env* env, const std::string& dir, uint64_t counter,
                       const CheckpointData& data) {
  std::string file;
  codec::Writer w(&file);
  file.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  w.U32(kCheckpointVersion);
  file += EncodeCheckpointBody(data);
  w.U32(Crc32c(file));

  const std::string final_path = dir + "/" + CheckpointFileName(counter);
  const std::string tmp_path = final_path + ".tmp";
  auto out = env->NewWritableFile(tmp_path);
  if (!out.ok()) return out.status();
  if (Status status = (*out)->Append(file); !status.ok()) return status;
  if (Status status = (*out)->Sync(); !status.ok()) {
    // Unlike the WAL's advisory fsync, a checkpoint that is not on stable
    // storage must never be renamed into place: a power loss could leave a
    // torn file under the authoritative name.
    (*out)->Close();
    env->DeleteFile(tmp_path);
    return status;
  }
  if (Status status = (*out)->Close(); !status.ok()) return status;
  if (Status status = env->RenameFile(tmp_path, final_path); !status.ok()) {
    return status;
  }
  Status status = env->SyncDir(dir);
  PINSQL_OBS_COUNT("store.checkpoints_written", 1);
  PINSQL_OBS_COUNT("store.checkpoint_bytes",
                   static_cast<uint64_t>(file.size()));
  return status;
}

StatusOr<LoadedCheckpoint> LoadLatestCheckpoint(Env* env,
                                                const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<uint64_t, std::string>> checkpoints;
  for (const std::string& name : *names) {
    if (auto counter = ParseCheckpointCounter(name); counter.has_value()) {
      checkpoints.emplace_back(*counter, name);
    }
  }
  std::sort(checkpoints.rbegin(), checkpoints.rend());

  LoadedCheckpoint loaded;
  for (const auto& [counter, name] : checkpoints) {
    std::string file;
    if (Status status = env->ReadFile(dir + "/" + name, &file);
        !status.ok()) {
      ++loaded.corrupt_skipped;
      continue;
    }
    bool valid = file.size() >= kCheckpointOverhead &&
                 std::memcmp(file.data(), kCheckpointMagic,
                             sizeof(kCheckpointMagic)) == 0;
    if (valid) {
      codec::Reader header(
          std::string_view(file).substr(sizeof(kCheckpointMagic), 4));
      uint32_t version = 0;
      header.U32(&version);
      valid = version == kCheckpointVersion;
    }
    if (valid) {
      codec::Reader footer(std::string_view(file).substr(file.size() - 4));
      uint32_t crc = 0;
      footer.U32(&crc);
      valid = crc == Crc32c(file.data(), file.size() - 4);
    }
    if (valid) {
      auto data = DecodeCheckpointBody(
          std::string_view(file).substr(12, file.size() - kCheckpointOverhead));
      if (data.ok()) {
        loaded.counter = counter;
        loaded.data = std::move(data).value();
        return loaded;
      }
    }
    // Corrupt or unreadable: fall back to the next-older checkpoint. Its
    // older LSN just means a longer WAL replay — never data loss, because
    // segments are only deleted once covered by the *oldest* retained
    // checkpoint (see WalWriter::DeleteSealedSegments).
    ++loaded.corrupt_skipped;
    PINSQL_OBS_COUNT("store.checkpoints_corrupt_skipped", 1);
  }
  return Status::NotFound("no valid checkpoint in " + dir);
}

size_t PruneCheckpoints(Env* env, const std::string& dir, size_t keep) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return 0;
  std::vector<std::pair<uint64_t, std::string>> checkpoints;
  size_t deleted = 0;
  for (const std::string& name : *names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0 &&
        ParseCheckpointCounter(name.substr(0, name.size() - 4)).has_value()) {
      // Leftover from an interrupted write; never authoritative.
      if (env->DeleteFile(dir + "/" + name).ok()) ++deleted;
      continue;
    }
    if (auto counter = ParseCheckpointCounter(name); counter.has_value()) {
      checkpoints.emplace_back(*counter, name);
    }
  }
  std::sort(checkpoints.rbegin(), checkpoints.rend());
  for (size_t i = keep; i < checkpoints.size(); ++i) {
    if (env->DeleteFile(dir + "/" + checkpoints[i].second).ok()) ++deleted;
  }
  return deleted;
}

size_t DeleteOtherCheckpoints(Env* env, const std::string& dir,
                              uint64_t keep_counter) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return 0;
  size_t deleted = 0;
  for (const std::string& name : *names) {
    std::string stem = name;
    if (stem.size() > 4 && stem.compare(stem.size() - 4, 4, ".tmp") == 0) {
      stem = stem.substr(0, stem.size() - 4);
    }
    const auto counter = ParseCheckpointCounter(stem);
    if (!counter.has_value()) continue;
    if (stem == name && *counter == keep_counter) continue;
    if (env->DeleteFile(dir + "/" + name).ok()) ++deleted;
  }
  return deleted;
}

}  // namespace pinsql::store
