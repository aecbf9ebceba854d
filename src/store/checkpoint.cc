#include "store/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "store/codec.h"
#include "store/crc32c.h"

namespace pinsql::store {

namespace {

constexpr char kCheckpointMagic[8] = {'P', 'S', 'Q', 'L', 'C', 'K', 'P', '1'};
// v2: ensemble-backed detector state (forecaster snapshots, gap-reset
// counters) and trigger source attribution. v3: the ingestor's
// per-template ring buckets are gone (template series come from the
// archive). v4: one checkpoint per fleet (a FleetState body) instead of
// one single-instance service state. v5: the fleet keeps no outcomes, so
// the body carries none, and a template's table list is u32-counted like
// the WAL's. v6: the fleet keeps no closed storms, verdicts, repair audit
// or detection latencies either (the verdict count joins the counters),
// and the sketch forecaster is gone. v7: no data the WAL holds — no
// archive, metric ring, staged records or watermark; each instance names
// the first segment its archive needs and the retention cutoff it applied,
// and the ingestor counts records refused as too far ahead. v8: the
// ingestor's counters are one set, not one per staging shard. Older
// checkpoints fail the version check and recovery falls back to the WAL,
// which replays into the new format.
constexpr uint32_t kCheckpointVersion = 8;
// magic(8) + version(4) at the front, crc(4) at the back.
constexpr size_t kCheckpointOverhead = 16;

void PutF64(codec::Writer* w, double v) { w->F64(v); }
bool GetF64(codec::Reader* r, double* v) { return r->F64(v); }

void EncodeScreenSnapshot(codec::Writer* w,
                          const anomaly::StreamingDetectorSnapshot& screen) {
  EncodeSeq(w, screen.clean, PutF64);
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

bool DecodeScreenSnapshot(codec::Reader* r,
                          anomaly::StreamingDetectorSnapshot* screen) {
  return DecodeSeq(r, &screen->clean, 8, GetF64) &&
         r->F64(&screen->baseline_median) && r->F64(&screen->baseline_mad) &&
         r->Bool(&screen->baseline_fresh) && r->Bool(&screen->in_run) &&
         r->Bool(&screen->run_up) && r->U64(&screen->run_start) &&
         r->F64(&screen->run_peak) && r->F64(&screen->last_z) &&
         r->U64(&screen->count) && r->I64(&screen->start_time) &&
         r->I64(&screen->interval_sec);
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
  EncodeSeq(w, fc.model, PutF64);
}

bool DecodeForecast(codec::Reader* r, detect::ForecastSnapshot* fc) {
  uint32_t method = 0;
  if (!r->U32(&method) || method > 2) return false;
  fc->method = static_cast<detect::ForecastMethod>(method);
  return r->U64(&fc->count) && r->F64(&fc->mad) && r->F64(&fc->cusum) &&
         r->U64(&fc->cusum_start) && r->U64(&fc->cusum_anchor) &&
         r->Bool(&fc->cusum_anchor_set) && r->F64(&fc->block_sum) &&
         r->U64(&fc->block_n) && r->Bool(&fc->in_run) &&
         r->Bool(&fc->run_up) && r->Bool(&fc->drift_run) &&
         r->U64(&fc->run_start) && r->F64(&fc->run_peak) &&
         r->F64(&fc->last_z) && r->I64(&fc->start_time) &&
         r->I64(&fc->interval_sec) && DecodeSeq(r, &fc->model, 8, GetF64);
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

// ---------------------------------------------------------------------------
// Component codecs

bool PlausibleCount(const codec::Reader& r, uint64_t count,
                    size_t min_elem_bytes) {
  return count <= r.remaining() / min_elem_bytes;
}

bool DecodeU64Counter(codec::Reader* r, size_t* out) {
  uint64_t v = 0;
  if (!r->U64(&v)) return false;
  *out = static_cast<size_t>(v);
  return true;
}

void EncodeCatalog(
    codec::Writer* w,
    const std::vector<std::pair<uint64_t, TemplateCatalogEntry>>& catalog) {
  EncodeSeq(w, catalog, [](codec::Writer* w, const auto& entry) {
    EncodeTemplate(w, entry.first, entry.second);
  });
}

bool DecodeCatalog(
    codec::Reader* r,
    std::vector<std::pair<uint64_t, TemplateCatalogEntry>>* catalog) {
  return DecodeSeq(r, catalog, 21, [](codec::Reader* r, auto* entry) {
    return DecodeTemplate(r, &entry->first, &entry->second);
  });
}

void EncodeIngestor(codec::Writer* w, const online::IngestorState& state) {
  w->U64(state.enqueued);
  w->U64(state.dropped_backpressure);
  w->U64(state.folded);
  w->U64(state.dropped_late);
  w->U64(state.dropped_future);
  w->U64(state.metric_samples);
  w->U64(state.metric_samples_dropped);
}

bool DecodeIngestor(codec::Reader* r, online::IngestorState* state) {
  return r->U64(&state->enqueued) && r->U64(&state->dropped_backpressure) &&
         r->U64(&state->folded) && r->U64(&state->dropped_late) &&
         r->U64(&state->dropped_future) && r->U64(&state->metric_samples) &&
         r->U64(&state->metric_samples_dropped);
}

void EncodeDetector(codec::Writer* w, const online::OnlineDetectorState& state) {
  const detect::EnsembleSnapshot& ensemble = state.ensemble;
  w->Bool(ensemble.initialized);
  w->Bool(ensemble.screen_present);
  EncodeScreenSnapshot(w, ensemble.screen);
  EncodeSeq(w, ensemble.trailing, PutF64);
  w->Bool(ensemble.fired_this_incident);
  w->U64(ensemble.pettitt_rejections);
  EncodeSeq(w, ensemble.forecasters, EncodeForecast);
  w->F64(state.last_finite);
  w->Bool(state.seen_finite);
  w->U64(state.consecutive_gaps);
  w->U64(state.stats.samples);
  w->U64(state.stats.gaps_carried);
  w->U64(state.stats.gaps_skipped);
  w->U64(state.stats.triggers);
  w->U64(state.stats.pettitt_rejections);
  w->U64(state.stats.baseline_resets);
}

bool DecodeDetector(codec::Reader* r, online::OnlineDetectorState* state) {
  detect::EnsembleSnapshot& ensemble = state->ensemble;
  return r->Bool(&ensemble.initialized) &&
         r->Bool(&ensemble.screen_present) &&
         DecodeScreenSnapshot(r, &ensemble.screen) &&
         DecodeSeq(r, &ensemble.trailing, 8, GetF64) &&
         r->Bool(&ensemble.fired_this_incident) &&
         r->U64(&ensemble.pettitt_rejections) &&
         DecodeSeq(r, &ensemble.forecasters, 80, DecodeForecast) &&
         r->F64(&state->last_finite) && r->Bool(&state->seen_finite) &&
         r->U64(&state->consecutive_gaps) &&
         DecodeU64Counter(r, &state->stats.samples) &&
         DecodeU64Counter(r, &state->stats.gaps_carried) &&
         DecodeU64Counter(r, &state->stats.gaps_skipped) &&
         DecodeU64Counter(r, &state->stats.triggers) &&
         DecodeU64Counter(r, &state->stats.pettitt_rejections) &&
         DecodeU64Counter(r, &state->stats.baseline_resets);
}

void EncodeTrigger(codec::Writer* w, const online::AnomalyTrigger& trigger) {
  w->U32(trigger.instance_id);
  w->I64(trigger.onset_sec);
  w->I64(trigger.trigger_sec);
  w->F64(trigger.severity);
  w->F64(trigger.pettitt_p);
  w->Str(trigger.source);
}

bool DecodeTrigger(codec::Reader* r, online::AnomalyTrigger* trigger) {
  return r->U32(&trigger->instance_id) && r->I64(&trigger->onset_sec) &&
         r->I64(&trigger->trigger_sec) && r->F64(&trigger->severity) &&
         r->F64(&trigger->pettitt_p) && r->Str(&trigger->source);
}

// ---------------------------------------------------------------------------
// Checkpoint files

std::string CheckpointFileName(uint64_t counter) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt-%06llu.ckpt",
                static_cast<unsigned long long>(counter));
  return buf;
}

Status WriteCheckpoint(Env* env, const std::string& dir, uint64_t counter,
                       std::string_view body) {
  std::string file;
  file.reserve(body.size() + kCheckpointOverhead);
  codec::Writer w(&file);
  file.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  w.U32(kCheckpointVersion);
  file.append(body.data(), body.size());
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

StatusOr<LoadedCheckpoint> LoadLatestCheckpoint(
    Env* env, const std::string& dir, const CheckpointDecoder& decode) {
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
  if (!checkpoints.empty()) loaded.highest_counter = checkpoints.front().first;
  for (const auto& [counter, name] : checkpoints) {
    const std::string path = dir + "/" + name;
    std::string file;
    if (Status status = env->ReadFile(path, &file); !status.ok()) {
      // Unreadable is not proof of corruption: skip it, but leave it.
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
      const Status status = decode(std::string_view(file).substr(
          12, file.size() - kCheckpointOverhead));
      if (status.ok()) {
        loaded.loaded = true;
        loaded.counter = counter;
        return loaded;
      }
      if (status.code() == StatusCode::kFailedPrecondition) {
        // Intact but written for another owner: not ours to delete.
        ++loaded.mismatched_skipped;
        PINSQL_OBS_COUNT("store.checkpoints_mismatched_skipped", 1);
        continue;
      }
    }
    // Corrupt: fall back to the next-older checkpoint. Its older LSN just
    // means a longer WAL replay — never data loss, because segments are
    // only deleted below the *oldest* retained checkpoint's first-needed
    // segment (see WalWriter::DeleteSealedSegments). Deleting it keeps it from winning
    // a later recovery over the checkpoint that validates.
    ++loaded.corrupt_skipped;
    env->DeleteFile(path);
    PINSQL_OBS_COUNT("store.checkpoints_corrupt_skipped", 1);
  }
  return loaded;
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

}  // namespace pinsql::store
