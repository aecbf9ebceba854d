#include "fleet/fleet_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "repair/supervisor.h"
#include "store/checkpoint.h"

namespace pinsql::fleet {

namespace {

/// The catalog as (sql_id, entry) pairs in id order, so what is journaled
/// or exported from it is deterministic.
std::vector<std::pair<uint64_t, TemplateCatalogEntry>> SortedCatalog(
    const LogStore& archive) {
  std::vector<std::pair<uint64_t, TemplateCatalogEntry>> catalog(
      archive.catalog().begin(), archive.catalog().end());
  std::sort(catalog.begin(), catalog.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return catalog;
}

/// The lowest segment holding an event at or after `cutoff_ms` — a record
/// the archive keeps, a sample the metric ring may hold or a record still
/// staged — or `current_seq` when no sealed segment does.
uint64_t FirstNeededSeq(const std::vector<store::SealedSegment>& sealed,
                        uint64_t current_seq, int64_t cutoff_ms) {
  uint64_t first = current_seq;
  for (const store::SealedSegment& segment : sealed) {
    if (segment.max_event_ms >= cutoff_ms) first = std::min(first, segment.seq);
  }
  return first;
}

/// A producer call the stop gate refused: counted, never applied.
bool Refuse(std::atomic<uint64_t>* counter) {
  counter->fetch_add(1, std::memory_order_relaxed);
  PINSQL_OBS_COUNT("fleet.ingest_rejected_stopped", 1);
  return false;
}

}  // namespace

FleetService::FleetService(const std::vector<FleetInstanceSpec>& specs,
                           const FleetOptions& options)
    : options_(options),
      deduper_(options.scheduler.cooldown_sec),
      correlator_(
          [&options]() {
            // Storm membership must be decided by trigger times alone: a
            // lookback trigger is guaranteed still pending only while its
            // diagnosis is not yet due, so the storm window may not exceed
            // the diagnose delay (see CorrelatorOptions).
            CorrelatorOptions clamped = options.correlator;
            clamped.storm_window_sec = std::min(
                clamped.storm_window_sec, options.scheduler.diagnose_delay_sec);
            return clamped;
          }(),
          specs) {
  chunk_pool_ = std::make_shared<online::IngestChunkPool>();
  instances_.reserve(specs.size());
  for (const FleetInstanceSpec& spec : specs) {
    if (index_by_id_.count(spec.instance_id) != 0) continue;  // first wins
    index_by_id_[spec.instance_id] = instances_.size();
    Instance instance;
    instance.spec = spec;
    instance.mu = std::make_unique<std::mutex>();
    instance.archive = std::make_unique<LogStore>();
    instance.ingestor =
        std::make_unique<online::StreamIngestor>(options_.ingestor, chunk_pool_);
    instance.ingestor->AttachArchive(instance.archive.get());
    instance.detector =
        std::make_unique<online::OnlineAnomalyDetector>(options_.detector);
    instances_.push_back(std::move(instance));
  }
  scheduler_ = std::make_unique<FleetScheduler>(
      options_.pool, [this](const QueuedTrigger& entry) {
        return RunOne(entry);
      });
  if (options_.advance_workers > 1) {
    advance_pool_ =
        std::make_unique<util::ThreadPool>(options_.advance_workers);
  }
  env_ = options_.env != nullptr ? options_.env : store::PosixEnv();
}

FleetService::~FleetService() { Stop(); }

FleetService::Instance* FleetService::Find(uint32_t instance_id) {
  auto it = index_by_id_.find(instance_id);
  return it == index_by_id_.end() ? nullptr : &instances_[it->second];
}

std::vector<uint32_t> FleetService::instance_ids() const {
  std::vector<uint32_t> ids;
  ids.reserve(instances_.size());
  for (const Instance& instance : instances_) {
    ids.push_back(instance.spec.instance_id);
  }
  return ids;
}

LogStore* FleetService::archive(uint32_t instance_id) {
  Instance* instance = Find(instance_id);
  return instance != nullptr ? instance->archive.get() : nullptr;
}

void FleetService::RegisterTemplateFleetWide(uint64_t sql_id,
                                             const TemplateCatalogEntry& entry) {
  for (Instance& instance : instances_) {
    instance.archive->RegisterTemplate(sql_id, entry);
    std::lock_guard<std::mutex> lock(*instance.mu);
    if (instance.writer != nullptr) {
      instance.writer->AppendTemplate(sql_id, entry);
    }
  }
}

std::vector<FleetOutcome> FleetService::Start(FleetEvents* events) {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (running_) return {};
  Output replayed(events);
  if (durable()) {
    if (!journals_recovered_) RecoverLocked(&replayed);
    OpenJournalsLocked();
  }
  running_ = true;
  SetAccepting(true);
  return std::move(replayed.outcomes);
}

std::vector<FleetOutcome> FleetService::Stop(FleetEvents* events) {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (!running_) return {};
  // Close the ingest gate first: every in-flight producer call completes
  // and every later one is refused, so the drain below is a complete,
  // final cut — nothing can arrive behind it and be stranded staged.
  SetAccepting(false);
  // Drain: process every instance up to its own watermark, then close the
  // open storm (if any) and run every queued diagnosis.
  int64_t drain_to = last_fleet_sec_;
  for (Instance& instance : instances_) {
    if (auto mark = instance.ingestor->watermark_sec(); mark.has_value()) {
      drain_to = std::max(drain_to, *mark);
    }
  }
  Output drained(events);
  AdvanceToLocked(drain_to, &drained);
  if (auto batch = correlator_.CloseOpenStorm(last_fleet_sec_);
      batch.has_value()) {
    TriageClosedStorm(std::move(*batch), last_fleet_sec_, &drained);
  }
  AppendCompletions(scheduler_->Drain(last_fleet_sec_), &drained);
  if (durable()) {
    if (options_.checkpoint_every_sec > 0) CheckpointLocked();
    for (Instance& instance : instances_) {
      std::lock_guard<std::mutex> lock(*instance.mu);
      if (instance.writer == nullptr) continue;
      if (!instance.pending.empty()) {
        instance.writer->AppendRecordBatch(instance.pending);
        instance.pending.clear();
      }
      instance.next_seq = instance.writer->position().segment_seq + 1;
      instance.writer->Close();
      instance.closed_writers.Add(instance.writer->stats());
      // The next writer adopts them, so later checkpoints still delete
      // them and still name them when the archive needs them.
      instance.recovered_segments = instance.writer->sealed();
      instance.writer.reset();
    }
  }
  running_ = false;
  return std::move(drained.outcomes);
}

void FleetService::SetAccepting(bool accepting) {
  for (Instance& instance : instances_) {
    std::lock_guard<std::mutex> lock(*instance.mu);
    instance.accepting = accepting;
  }
}

int64_t FleetService::NewestRecordSec(const Instance& instance) const {
  // The WAL scan rejects a frame dated more than time_grace_sec before the
  // one it follows, and abandons the rest of its segment: a record further
  // ahead of the samples that follow it would cost every later recovery
  // that stretch of the journal.
  std::optional<int64_t> clock = instance.ingestor->watermark_sec();
  if (!clock.has_value()) {
    const int64_t fleet_sec = fleet_clock_sec_.load(std::memory_order_relaxed);
    if (fleet_sec == std::numeric_limits<int64_t>::min()) {
      return online::kMaxEventSec;
    }
    clock = fleet_sec;
  }
  return *clock + options_.wal.time_grace_sec;
}

bool FleetService::IngestRecord(uint32_t instance_id,
                                const QueryLogRecord& record) {
  Instance* instance = Find(instance_id);
  if (instance == nullptr) return false;
  // The inner ingest and the journal buffer form one atomic step, so the
  // journal replays in exactly the order the ingestor accepted.
  std::lock_guard<std::mutex> lock(*instance->mu);
  if (!instance->accepting) return Refuse(&records_rejected_stopped_);
  const bool accepted =
      instance->ingestor->IngestRecord(record, NewestRecordSec(*instance));
  // Buffer for the journal only while a writer exists to drain it: an
  // instance whose writer failed to open runs in-memory, and buffering
  // without a flusher would grow `pending` without bound.
  if (accepted && instance->writer != nullptr) {
    instance->pending.push_back(record);
  }
  return accepted;
}

bool FleetService::IngestMetrics(uint32_t instance_id,
                                 const online::PerfSample& sample) {
  Instance* instance = Find(instance_id);
  if (instance == nullptr) return false;
  std::lock_guard<std::mutex> lock(*instance->mu);
  if (!instance->accepting) return Refuse(&samples_rejected_stopped_);
  const bool accepted = instance->ingestor->IngestMetrics(sample);
  if (accepted && instance->writer != nullptr) {
    if (!instance->pending.empty()) {
      // Degraded on append failure: the records are already staged, and
      // re-journaling them would duplicate them on replay.
      instance->writer->AppendRecordBatch(instance->pending);
      instance->pending.clear();
    }
    instance->writer->AppendSample(sample);
  }
  return accepted;
}

std::string FleetService::InstanceDir(uint32_t instance_id) const {
  return options_.data_dir + "/inst-" + std::to_string(instance_id);
}

void FleetService::RecoverLocked(Output* out) {
  journals_recovered_ = true;
  recovery_.attempted = true;
  recovering_ = true;
  const auto started = std::chrono::steady_clock::now();
  env_->CreateDirs(options_.data_dir);

  // The newest checkpoint that decodes and fits this fleet's shape wins; it
  // is imported once the data below its LSNs is rebuilt. One written for
  // another shape (CheckStateLocked's FailedPrecondition) is skipped but
  // kept on disk.
  std::optional<FleetState> checkpoint;
  auto loaded = store::LoadLatestCheckpoint(
      env_, options_.data_dir, [&](std::string_view body) -> Status {
        auto state = DecodeFleetState(body);
        if (!state.ok()) return state.status();
        if (Status status = CheckStateLocked(*state); !status.ok()) {
          return status;
        }
        checkpoint = std::move(state).value();
        return Status::OK();
      });
  if (loaded.ok()) {
    recovery_.checkpoint_loaded = loaded->loaded;
    recovery_.checkpoint_counter = loaded->counter;
    recovery_.checkpoints_corrupt_skipped = loaded->corrupt_skipped;
    recovery_.checkpoints_mismatched_skipped = loaded->mismatched_skipped;
    // Numbered above every file present, so a new checkpoint is the newest
    // and pruning drops the older ones, never it.
    checkpoint_counter_ = loaded->highest_counter;
  } else {
    // The files' counters are unknown, so a new checkpoint could sort
    // below one already there: replay the whole WAL and write none.
    recovery_.checkpoint_error = loaded.status().ToString();
  }
  if (checkpoint.has_value()) {
    std::vector<uint64_t> first_needed;
    for (const FleetInstanceState& slice : checkpoint->instances) {
      first_needed.push_back(slice.first_needed_seq);
    }
    checkpoint_first_needed_.push_back(std::move(first_needed));
  }

  // Each instance's journal is loaded here, in instance order: the Env is
  // not thread-safe, and a fault-injecting one draws its faults in the
  // order of the reads. Its parse and rebuild go to the advance workers
  // while the next instances load; before loading instance i, instance
  // i - depth's parse is waited for, so at most `depth` instances' raw
  // segments are held at once. (Loading in waves of `depth` and parsing
  // each wave with ParallelFor keeps the same bound but not the overlap of
  // loads with parses; it measured ~18 ms slower on restart-recover's
  // ~60 ms scan.)
  const auto scan_started = std::chrono::steady_clock::now();
  const size_t n = instances_.size();
  const size_t depth =
      static_cast<size_t>(std::max(options_.advance_workers, 1)) + 1;
  std::vector<InstanceRecovery> recovered(n);
  std::vector<std::future<void>> parsed(n);
  // Every submitted task ends before what it writes goes, however this
  // function exits.
  struct WaitForTasks {
    std::vector<std::future<void>>* tasks;
    ~WaitForTasks() {
      for (std::future<void>& task : *tasks) {
        if (task.valid()) task.wait();
      }
    }
  } wait_for_tasks{&parsed};
  for (size_t i = 0; i < n; ++i) {
    if (i >= depth && parsed[i - depth].valid()) parsed[i - depth].get();
    Instance& instance = instances_[i];
    const std::string dir = InstanceDir(instance.spec.instance_id);
    env_->CreateDirs(dir);
    recovered[i].loaded = store::LoadWal(env_, dir, &recovered[i].wal).ok();
    const FleetInstanceState* slice =
        checkpoint.has_value() ? &checkpoint->instances[i] : nullptr;
    auto work = [this, &instance, slice, rec = &recovered[i]] {
      RecoverInstance(&instance, slice, rec);
    };
    if (advance_pool_ != nullptr) {
      parsed[i] = advance_pool_->Submit(std::move(work));
    } else {
      work();
    }
  }
  for (std::future<void>& done : parsed) {
    if (done.valid()) done.get();
  }
  std::set<int64_t> sample_secs;
  std::vector<std::deque<Batch>> batches(n);
  for (size_t i = 0; i < n; ++i) {
    Instance& instance = instances_[i];
    InstanceRecovery& rec = recovered[i];
    if (rec.truncation.has_value()) {
      env_->TruncateFile(rec.truncation->path, rec.truncation->size);
    }
    const store::WalScanStats& scan = rec.scan;
    const store::WalPosition lsn = checkpoint.has_value()
                                       ? checkpoint->instances[i].lsn
                                       : store::WalPosition{};
    if (scan.last_seq > 0) ++recovery_.instances_with_wal;
    instance.next_seq = std::max(scan.last_seq, lsn.segment_seq) + 1;
    instance.recovered_segments = std::move(rec.scan.segments);
    recovery_.frames_valid += scan.frames_valid;
    recovery_.frames_corrupt += scan.frames_corrupt;
    recovery_.frames_malformed += scan.frames_malformed;
    recovery_.frames_time_rejected += scan.frames_time_rejected;
    recovery_.segments_duplicate_seq += scan.segments_duplicate_seq;
    recovery_.segments_invalid_header += scan.segments_invalid_header;
    if (scan.seq_gap) ++recovery_.seq_gaps;
    if (scan.stopped_early) ++recovery_.stopped_early;
    recovery_.records += scan.records;
    recovery_.samples += scan.samples;
    recovery_.templates += scan.templates;
    recovery_.torn_tail_bytes_truncated += scan.torn_tail_bytes_truncated;
    recovery_.frames_rebuilt += rec.frames_rebuilt;
    recovery_.frames_replayed += rec.frames_replayed;
    sample_secs.insert(rec.sample_secs.begin(), rec.sample_secs.end());
    batches[i] = std::move(rec.batches);
  }
  recovered.clear();
  recovery_.scan_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - scan_started)
                          .count();
  if (checkpoint.has_value()) ImportStateLocked(*checkpoint);

  // Replay with the canonical per-second discipline: for every second that
  // closed a sample anywhere in the fleet, re-ingest each instance's
  // batches due by then, then advance the fleet clock — the same total
  // order a live producers-then-AdvanceTo loop establishes, so the
  // recovered outcomes fingerprint byte-identically. Each instance's
  // ingest touches only its own ingestor, so it runs on the worker that
  // processes the instance, just before it does.
  const auto replay_started = std::chrono::steady_clock::now();
  for (int64_t sec : sample_secs) AdvanceToLocked(sec, out, &batches);
  // Tail batches (records journaled after the last sample) stay staged,
  // exactly as they were before the crash.
  for (size_t i = 0; i < n; ++i) {
    for (const Batch& batch : batches[i]) {
      for (const QueryLogRecord& record : batch.records) {
        instances_[i].ingestor->IngestRecord(record);
      }
    }
  }
  recovery_.replay_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - replay_started)
                            .count();
  // Events the replayed diagnoses pushed into the supervisors are already
  // journaled; don't journal them twice.
  for (Instance& instance : instances_) {
    if (instance.spec.supervisor != nullptr) {
      instance.events_seen = instance.spec.supervisor->events().size();
    }
  }
  recovering_ = false;
  if (processed_fleet_any_) {
    last_checkpoint_sec_ = last_fleet_sec_;
    cadence_anchored_ = true;
  }

  recovery_.recovery_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - started)
                              .count();
  PINSQL_OBS_GAUGE_SET("store.recovery_ms",
                       static_cast<int64_t>(recovery_.recovery_ms));
  PINSQL_OBS_COUNT("store.frames_corrupt_detected",
                   static_cast<uint64_t>(recovery_.frames_corrupt +
                                         recovery_.frames_malformed +
                                         recovery_.frames_time_rejected));
}

void FleetService::RecoverInstance(Instance* instance,
                                   const FleetInstanceState* slice,
                                   InstanceRecovery* recovery) {
  // A journal groups records with the sample that closed their second:
  // every record-batch frame belongs to the next sample frame after it.
  // The frames up to the checkpoint's LSN rebuild the instance's data; the
  // frames after it are the suffix the canonical replay runs.
  const store::WalPosition lsn =
      slice != nullptr ? slice->lsn : store::WalPosition{};
  std::deque<Batch>& batches = recovery->batches;
  Batch open;
  // The first `rebuilt` batches end at or before the LSN.
  size_t rebuilt = 0;
  bool in_suffix = false;
  if (recovery->loaded) {
    recovery->truncation = store::ParseWal(
        recovery->wal, options_.wal,
        slice != nullptr ? store::WalPosition{slice->first_needed_seq, 0}
                         : store::WalPosition{},
        [&](const store::WalFrame& frame, const store::WalPosition& end) {
          if (!in_suffix && lsn < end) {
            // Records journaled before the LSN but not closed by a sample
            // before it are rebuilt too.
            if (!open.records.empty()) batches.push_back(std::move(open));
            open = Batch{};
            rebuilt = batches.size();
            in_suffix = true;
          }
          ++(in_suffix ? recovery->frames_replayed : recovery->frames_rebuilt);
          switch (frame.kind) {
            case store::FrameKind::kRecordBatch:
              open.records.insert(open.records.end(), frame.records.begin(),
                                  frame.records.end());
              break;
            case store::FrameKind::kSample:
              if (in_suffix) recovery->sample_secs.push_back(frame.sample.sec);
              open.sample = frame.sample;
              batches.push_back(std::move(open));
              open = Batch{};
              break;
            case store::FrameKind::kTemplate:
              instance->archive->RegisterTemplate(frame.template_id,
                                                  frame.template_entry);
              break;
            case store::FrameKind::kRepairEvent:
              // The scan validates and counts it; the journal itself is
              // the durable repair audit, so nothing is loaded.
              break;
          }
        },
        &recovery->scan);
  }
  recovery->wal = store::LoadedWal{};
  if (!open.records.empty()) batches.push_back(std::move(open));
  if (!in_suffix) rebuilt = batches.size();
  if (slice != nullptr) RebuildLocked(instance, *slice, &batches, rebuilt);
}

void FleetService::RebuildLocked(Instance* instance,
                                 const FleetInstanceState& slice,
                                 std::deque<Batch>* batches, size_t rebuilt) {
  online::StreamIngestor& ingestor = *instance->ingestor;
  const auto prefix_end = batches->begin() + static_cast<ptrdiff_t>(rebuilt);
  // The journal keeps ingest order and a pump empties the one staging
  // queue whole, so the records the checkpoint counts as staged are the
  // last ones journaled before the LSN, and every earlier one was archived
  // in journal order. CheckStateLocked bounds the subtraction.
  const online::IngestorState& counts = slice.ingestor;
  const uint64_t staged = counts.enqueued - counts.folded -
                          counts.dropped_late - counts.dropped_future -
                          counts.dropped_backpressure;
  uint64_t records = 0;
  for (auto it = batches->begin(); it != prefix_end; ++it) {
    records += it->records.size();
  }
  uint64_t to_archive = records - std::min(records, staged);
  // One copy per record, straight from the parsed batches, under one
  // archive lock hold.
  std::vector<std::pair<const QueryLogRecord*, size_t>> spans;
  for (auto it = batches->begin(); it != prefix_end; ++it) {
    const std::vector<QueryLogRecord>& batch = it->records;
    const size_t archived =
        static_cast<size_t>(std::min<uint64_t>(batch.size(), to_archive));
    if (archived > 0) spans.emplace_back(batch.data(), archived);
    to_archive -= archived;
    for (size_t k = archived; k < batch.size(); ++k) {
      ingestor.Restage(batch[k]);
    }
    if (it->sample.has_value()) ingestor.IngestMetrics(*it->sample);
  }
  instance->archive->AppendSpans(spans);
  instance->archive->TrimBefore(slice.retention_cutoff_ms);
  batches->erase(batches->begin(), prefix_end);
}

void FleetService::OpenJournalsLocked() {
  for (Instance& instance : instances_) {
    std::lock_guard<std::mutex> lock(*instance.mu);
    if (instance.writer != nullptr) continue;
    const std::string dir = InstanceDir(instance.spec.instance_id);
    env_->CreateDirs(dir);
    auto writer =
        store::WalWriter::Open(env_, dir, options_.wal,
                               std::max<uint64_t>(instance.next_seq, 1));
    if (!writer.ok()) continue;  // degraded: this instance runs in-memory
    instance.writer = std::move(writer).value();
    // Prior-incarnation segments join the sealed set, so checkpoints keep
    // deleting segments written before the last crash.
    instance.writer->AdoptSealed(instance.recovered_segments);
    instance.recovered_segments.clear();
    // Re-journal the catalog so registrations made before Start() (or
    // recovered from a prior incarnation) live in a segment this
    // incarnation wrote. Registration is idempotent on replay.
    for (const auto& [sql_id, entry] : SortedCatalog(*instance.archive)) {
      instance.writer->AppendTemplate(sql_id, entry);
    }
  }
}

std::vector<FleetOutcome> FleetService::AdvanceTo(int64_t fleet_sec,
                                                  FleetEvents* events) {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (!running_) return {};
  Output completed(events);
  AdvanceToLocked(fleet_sec, &completed);
  if (options_.checkpoint_every_sec > 0 && durable() &&
      processed_fleet_any_) {
    if (!cadence_anchored_) {
      last_checkpoint_sec_ = last_fleet_sec_;
      cadence_anchored_ = true;
    } else if (last_fleet_sec_ - last_checkpoint_sec_ >=
               options_.checkpoint_every_sec) {
      CheckpointLocked();
    }
  }
  return std::move(completed.outcomes);
}

void FleetService::ProcessInstance(Instance* instance, int64_t fleet_sec,
                                   std::vector<SecondEvent>* events) {
  instance->ingestor->Pump();
  const auto mark = instance->ingestor->watermark_sec();
  if (!mark.has_value()) return;
  const int64_t to = std::min(*mark, fleet_sec);
  const int64_t from =
      instance->processed_any ? instance->last_processed_sec + 1 : *mark;
  const int64_t ring_floor = *instance->ingestor->window_floor_sec();
  for (int64_t sec = from; sec <= to; ++sec) {
    if (sec < ring_floor && !instance->detector->seeded() &&
        !instance->detector->in_run()) {
      // Catching up from before the metric ring: an unseeded detector only
      // counts a gap second, so the seconds up to the ring's next sample go
      // in one step — a long gap costs O(window), not O(gap).
      const int64_t next = std::min(
          {instance->ingestor->NextSampleSec(sec), ring_floor, to + 1});
      if (next > sec) {
        instance->detector->SkipGaps(static_cast<uint64_t>(next - sec));
        instance->last_processed_sec = next - 1;
        instance->processed_any = true;
        sec = next - 1;
        continue;
      }
    }
    double value = std::numeric_limits<double>::quiet_NaN();
    if (auto sample = instance->ingestor->SampleAt(sec); sample.has_value()) {
      value = sample->active_session;
    }
    SecondEvent event;
    event.sec = sec;
    event.trigger = instance->detector->Observe(sec, value);
    if (event.trigger.has_value()) {
      event.trigger->instance_id = instance->spec.instance_id;
    }
    event.in_run = instance->detector->in_run();
    events->push_back(event);
    instance->last_processed_sec = sec;
    instance->processed_any = true;
  }
}

void FleetService::RouteAcceptedTrigger(const online::AnomalyTrigger& trigger) {
  const int64_t due_sec =
      trigger.trigger_sec + options_.scheduler.diagnose_delay_sec;
  const double base_priority = trigger.severity;
  PINSQL_OBS_COUNT("fleet.triggers_accepted", 1);
  PINSQL_OBS_OBSERVE(
      "fleet.detection_latency_sec",
      static_cast<uint64_t>(
          std::max<int64_t>(trigger.trigger_sec - trigger.onset_sec, 0)));
  if (correlator_.OnAcceptedTrigger(trigger, due_sec, base_priority)) {
    return;  // captured by the open storm batch
  }
  scheduler_->Enqueue(trigger, trigger.trigger_sec, due_sec, base_priority);
}

void FleetService::TriageClosedStorm(StormBatch batch, int64_t now_sec,
                                     Output* out) {
  // Triage rank: highest severity first, ties broken by earlier onset,
  // then lower instance id — fully deterministic.
  std::vector<size_t> order(batch.members.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const StormMember& ma = batch.members[a];
    const StormMember& mb = batch.members[b];
    if (ma.trigger.severity != mb.trigger.severity) {
      return ma.trigger.severity > mb.trigger.severity;
    }
    if (ma.trigger.onset_sec != mb.trigger.onset_sec) {
      return ma.trigger.onset_sec < mb.trigger.onset_sec;
    }
    return ma.trigger.instance_id < mb.trigger.instance_id;
  });

  for (size_t rank = 0; rank < order.size(); ++rank) {
    const StormMember& member = batch.members[order[rank]];
    if (rank < options_.correlator.storm_triage_k) {
      batch.triaged.push_back(member.trigger.instance_id);
      scheduler_->Enqueue(member.trigger, now_sec,
                          std::max(member.due_sec, now_sec),
                          member.base_priority, batch.id);
    } else {
      FleetOutcome deferred;
      deferred.disposition = FleetOutcome::Disposition::kStormDeferred;
      deferred.storm_batch = batch.id;
      deferred.outcome.trigger = member.trigger;
      deferred.outcome.ok = false;
      deferred.outcome.error =
          "storm_deferred:batch=" + std::to_string(batch.id);
      out->outcomes.push_back(std::move(deferred));
      ++counters_.storm_deferred;
      PINSQL_OBS_COUNT("fleet.storm_deferred", 1);
    }
  }
  if (out->events != nullptr) out->events->storms.push_back(std::move(batch));
}

void FleetService::AppendCompletions(
    std::vector<FleetScheduler::Completion> completions,
    Output* out) {
  if (completions.empty()) return;
  for (auto& [entry, outcome] : completions) {
    Instance& instance = instances_[index_by_id_.at(entry.trigger.instance_id)];
    counters_.repairs_applied += instance.side.repairs_applied;
    counters_.repairs_rejected += instance.side.repairs_rejected;
    instance.side = {};
    FleetOutcome fleet_outcome;
    fleet_outcome.disposition = FleetOutcome::Disposition::kDiagnosed;
    fleet_outcome.storm_batch = entry.storm_batch;
    fleet_outcome.outcome = std::move(outcome);
    if (fleet_outcome.outcome.ok) {
      ++counters_.diagnoses_ok;
    } else {
      ++counters_.diagnoses_failed;
    }
    out->outcomes.push_back(std::move(fleet_outcome));
    PINSQL_OBS_COUNT("fleet.diagnoses", 1);
  }
  // Journal the supervisors' new events, in instance order: the WAL is the
  // durable repair audit. A recovery replay does not: its events are
  // already journaled.
  if (recovering_) return;
  for (Instance& instance : instances_) {
    if (instance.spec.supervisor == nullptr) continue;
    const std::vector<repair::RepairEvent>& events =
        instance.spec.supervisor->events();
    if (instance.events_seen == events.size()) continue;
    std::lock_guard<std::mutex> lock(*instance.mu);
    if (instance.writer != nullptr) {
      for (size_t i = instance.events_seen; i < events.size(); ++i) {
        instance.writer->AppendRepairEvent(events[i]);
      }
    }
    instance.events_seen = events.size();
  }
}

online::DiagnosisOutcome FleetService::RunOne(const QueuedTrigger& entry) {
  Instance& instance = instances_[index_by_id_.at(entry.trigger.instance_id)];
  online::WindowedDiagnosisContext ctx;
  ctx.ingestor = instance.ingestor.get();
  ctx.archive = instance.archive.get();
  ctx.options = &options_.scheduler;
  ctx.supervisor = instance.spec.supervisor;
  ctx.history = instance.spec.history != nullptr ? instance.spec.history
                                                 : &empty_history_;
  ctx.rules = &rules_;
  // The window end is the trigger's planned end — fixed at trigger time,
  // independent of when the pool actually ran this entry (storm triage may
  // delay its due second past it).
  const int64_t window_end_sec =
      entry.trigger.trigger_sec + options_.scheduler.diagnose_delay_sec;
  return online::RunWindowedDiagnosis(ctx, entry.trigger, window_end_sec,
                                      &instance.side);
}

void FleetService::MergeEvent(const Instance& instance,
                              const SecondEvent& event, Output* out) {
  if (event.trigger.has_value()) {
    ++counters_.triggers_confirmed;
    if (out->events != nullptr) {
      out->events->confirmed.push_back(*event.trigger);
    }
    if (deduper_.Accept(*event.trigger)) {
      ++counters_.triggers_accepted;
      RouteAcceptedTrigger(*event.trigger);
    } else {
      ++counters_.triggers_suppressed;
      PINSQL_OBS_COUNT("fleet.triggers_suppressed", 1);
    }
  }
  if (event.in_run) {
    deduper_.NoteActivity(instance.spec.instance_id, event.sec);
  }
}

void FleetService::AdvanceToLocked(int64_t fleet_sec, Output* out,
                                   std::vector<std::deque<Batch>>* replay) {
  // Parallel per-instance step: (replay ingest,) pump, sample, detect —
  // into disjoint per-instance slots, so the merge below sees identical
  // events at any advance_workers.
  std::vector<std::vector<SecondEvent>> events(instances_.size());
  util::ParallelFor(advance_pool_.get(), instances_.size(), [&](size_t i) {
    Instance& instance = instances_[i];
    if (replay != nullptr) {
      std::deque<Batch>& due = (*replay)[i];
      while (!due.empty() && due.front().sample.has_value() &&
             due.front().sample->sec <= fleet_sec) {
        for (const QueryLogRecord& record : due.front().records) {
          instance.ingestor->IngestRecord(record);
        }
        instance.ingestor->IngestMetrics(*due.front().sample);
        due.pop_front();
      }
    }
    ProcessInstance(&instance, fleet_sec, &events[i]);
  });

  int64_t tick_from =
      processed_fleet_any_ ? last_fleet_sec_ + 1 : fleet_sec;
  if (!processed_fleet_any_) {
    // First advance: start the fleet clock at the earliest instance event
    // so a lagging instance's seconds are not skipped.
    for (const auto& instance_events : events) {
      if (!instance_events.empty()) {
        tick_from = std::min(tick_from, instance_events.front().sec);
      }
    }
  }
  if (tick_from > fleet_sec) {
    // The fleet clock does not move, but a lagging instance may still have
    // caught up behind it: Stop()'s drain after its late samples, recovery
    // replaying WAL seconds behind a loaded checkpoint's clock, or a first
    // AdvanceTo after a recovering Start() that names a second the replay
    // already passed. Merge its seconds in instance order, as the first
    // tick of a moving clock merges late seconds, without fleet ticks.
    for (size_t i = 0; i < instances_.size(); ++i) {
      for (const SecondEvent& event : events[i]) {
        MergeEvent(instances_[i], event, out);
      }
    }
    return;
  }

  // Sequential merge in (second, instance) order: dedup, correlate, route,
  // then the fleet-level ticks.
  std::vector<size_t> cursors(instances_.size(), 0);
  for (int64_t sec = tick_from; sec <= fleet_sec; ++sec) {
    for (size_t i = 0; i < instances_.size(); ++i) {
      auto& instance_events = events[i];
      auto& cursor = cursors[i];
      // `<=`: an instance second that predates the fleet clock (a late
      // joiner) is merged at the first tick that sees it.
      while (cursor < instance_events.size() &&
             instance_events[cursor].sec <= sec) {
        MergeEvent(instances_[i], instance_events[cursor], out);
        ++cursor;
      }
    }

    auto tick_events = correlator_.Tick(sec);
    if (tick_events.storm_opened) {
      // Pull the lookback window's pending triggers into the batch. They
      // are all still queued at any pool size: their due seconds lie
      // beyond `sec` because storm_window_sec <= diagnose_delay_sec.
      auto pulled = scheduler_->Extract([&](const QueuedTrigger& entry) {
        return entry.storm_batch == 0 &&
               entry.trigger.trigger_sec >= tick_events.lookback_from_sec;
      });
      std::vector<StormMember> members;
      members.reserve(pulled.size());
      for (const QueuedTrigger& entry : pulled) {
        members.push_back(
            {entry.trigger, entry.due_sec, entry.base_priority});
      }
      correlator_.AdoptIntoOpenStorm(members);
    }
    for (StormBatch& batch : tick_events.closed) {
      TriageClosedStorm(std::move(batch), sec, out);
    }
    counters_.neighbor_verdicts += tick_events.verdicts.size();
    if (out->events != nullptr) {
      for (NoisyNeighborVerdict& verdict : tick_events.verdicts) {
        out->events->verdicts.push_back(std::move(verdict));
      }
    }

    AppendCompletions(scheduler_->Tick(sec), out);
    PINSQL_OBS_GAUGE_SET("fleet.pool_queue_depth",
                         static_cast<int64_t>(scheduler_->pending()));
    if (sec % kRetentionEverySec == 0) SweepRetentionLocked(sec);

    last_fleet_sec_ = sec;
    processed_fleet_any_ = true;
    ++counters_.seconds_processed;
  }
  fleet_clock_sec_.store(last_fleet_sec_, std::memory_order_relaxed);
  PINSQL_OBS_COUNT("fleet.seconds_processed",
                   static_cast<uint64_t>(fleet_sec - tick_from + 1));
}

std::vector<int64_t> FleetService::OpenWindowFloorsMs() const {
  std::vector<int64_t> floors(instances_.size(),
                              std::numeric_limits<int64_t>::max());
  const int64_t lookback_sec = options_.scheduler.diagnoser.delta_s_sec;
  const auto pin = [&](const online::AnomalyTrigger& trigger) {
    auto it = index_by_id_.find(trigger.instance_id);
    if (it == index_by_id_.end()) return;
    floors[it->second] = std::min(floors[it->second],
                                  (trigger.onset_sec - lookback_sec) * 1000);
  };
  for (const QueuedTrigger& entry : scheduler_->queue()) pin(entry.trigger);
  if (const auto& storm = correlator_.open_storm(); storm.has_value()) {
    for (const StormMember& member : storm->members) pin(member.trigger);
  }
  for (size_t i = 0; i < instances_.size(); ++i) {
    if (auto floor = instances_[i].ingestor->window_floor_sec();
        floor.has_value()) {
      floors[i] = std::min(floors[i], *floor * 1000);
    }
  }
  return floors;
}

void FleetService::SweepRetentionLocked(int64_t sec) {
  const std::vector<int64_t> floors = OpenWindowFloorsMs();
  for (size_t i = 0; i < instances_.size(); ++i) {
    Instance& instance = instances_[i];
    const int64_t cutoff_ms =
        std::min(sec * 1000 - LogStore::kRetentionMs, floors[i]);
    counters_.records_retired += instance.archive->TrimBefore(cutoff_ms);
    instance.retention_cutoff_ms =
        std::max(instance.retention_cutoff_ms, cutoff_ms);
  }
  ++counters_.retention_sweeps;
}

FleetStats FleetService::stats() const {
  std::lock_guard<std::mutex> lock(advance_mu_);
  FleetStats stats;
  stats.instances = instances_.size();
  for (const Instance& instance : instances_) {
    const online::IngestStats cut = instance.ingestor->stats();
    stats.ingest.records_enqueued += cut.records_enqueued;
    stats.ingest.records_folded += cut.records_folded;
    stats.ingest.records_dropped_backpressure +=
        cut.records_dropped_backpressure;
    stats.ingest.records_dropped_late += cut.records_dropped_late;
    stats.ingest.records_dropped_future += cut.records_dropped_future;
    stats.ingest.records_staged += cut.records_staged;
    stats.ingest.metric_samples += cut.metric_samples;
    stats.ingest.metric_samples_dropped += cut.metric_samples_dropped;
    stats.samples_observed += instance.detector->stats().samples;
    std::lock_guard<std::mutex> instance_lock(*instance.mu);
    stats.pending_journal_records += instance.pending.size();
    stats.wal.Add(instance.closed_writers);
    if (instance.writer != nullptr) stats.wal.Add(instance.writer->stats());
  }
  stats.triggers_confirmed = counters_.triggers_confirmed;
  stats.triggers_accepted = counters_.triggers_accepted;
  stats.triggers_suppressed = counters_.triggers_suppressed;
  stats.diagnoses_ok = counters_.diagnoses_ok;
  stats.diagnoses_failed = counters_.diagnoses_failed;
  stats.storms_detected = correlator_.storms_detected();
  stats.storm_deferred = counters_.storm_deferred;
  stats.neighbor_verdicts = counters_.neighbor_verdicts;
  stats.seconds_processed = counters_.seconds_processed;
  stats.repairs_applied = counters_.repairs_applied;
  stats.repairs_rejected = counters_.repairs_rejected;
  stats.retention_sweeps = counters_.retention_sweeps;
  stats.records_retired = counters_.records_retired;
  stats.records_rejected_stopped =
      records_rejected_stopped_.load(std::memory_order_relaxed);
  stats.samples_rejected_stopped =
      samples_rejected_stopped_.load(std::memory_order_relaxed);
  stats.pool = scheduler_->stats();
  return stats;
}

FleetState FleetService::ExportState() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  return ExportStateLocked();
}

FleetState FleetService::ExportStateLocked() {
  FleetState state;
  state.instances.reserve(instances_.size());
  for (Instance& instance : instances_) {
    FleetInstanceState& slice = state.instances.emplace_back();
    // Under the instance mutex, with the buffered records flushed, the
    // ingestor's counters and the WAL position describe one cut.
    std::lock_guard<std::mutex> lock(*instance.mu);
    if (instance.writer != nullptr) {
      if (!instance.pending.empty()) {
        instance.writer->AppendRecordBatch(instance.pending);
        instance.pending.clear();
      }
      slice.lsn = instance.writer->position();
      slice.first_needed_seq =
          FirstNeededSeq(instance.writer->sealed(), slice.lsn.segment_seq,
                         instance.retention_cutoff_ms);
    } else {
      // Nothing of this incarnation is journaled: everything before the
      // next segment is covered.
      slice.lsn = store::WalPosition{instance.next_seq, 0};
      slice.first_needed_seq =
          FirstNeededSeq(instance.recovered_segments, instance.next_seq,
                         instance.retention_cutoff_ms);
    }
    slice.retention_cutoff_ms = instance.retention_cutoff_ms;
    slice.instance_id = instance.spec.instance_id;
    slice.ingestor = instance.ingestor->ExportState();
    slice.detector = instance.detector->ExportState();
    slice.processed_any = instance.processed_any;
    slice.last_processed_sec = instance.last_processed_sec;
    slice.catalog = SortedCatalog(*instance.archive);
  }
  state.dedup_activity = deduper_.ExportActivity();
  state.scheduler = scheduler_->state();
  state.correlator = correlator_.state();
  state.processed_any = processed_fleet_any_;
  state.last_fleet_sec = last_fleet_sec_;
  state.counters = counters_;
  return state;
}

Status FleetService::ImportState(const FleetState& state) {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (Status status = CheckStateLocked(state); !status.ok()) return status;
  ImportStateLocked(state);
  return Status::OK();
}

Status FleetService::CheckStateLocked(const FleetState& state) const {
  if (running_) {
    return Status::FailedPrecondition("ImportState requires a stopped fleet");
  }
  // Every second the state carries must be one the WAL could have
  // journaled: the fleet's second-to-millisecond arithmetic relies on it.
  const auto bad_sec = [](int64_t sec) {
    return sec < -online::kMaxEventSec || sec > online::kMaxEventSec;
  };
  const auto bad_trigger = [&](const online::AnomalyTrigger& trigger) {
    return index_by_id_.count(trigger.instance_id) == 0 ||
           bad_sec(trigger.onset_sec) || bad_sec(trigger.trigger_sec);
  };
  if (state.instances.size() != instances_.size()) {
    return Status::FailedPrecondition(
        "fleet state has " + std::to_string(state.instances.size()) +
        " instances, fleet has " + std::to_string(instances_.size()));
  }
  for (size_t i = 0; i < instances_.size(); ++i) {
    const FleetInstanceState& slice = state.instances[i];
    if (slice.instance_id != instances_[i].spec.instance_id) {
      return Status::FailedPrecondition("fleet state instance order differs");
    }
    // Every record offered is counted once: folded, dropped or still
    // staged. Subtracting in turn cannot wrap where a sum could.
    uint64_t unaccounted = slice.ingestor.enqueued;
    for (uint64_t count :
         {slice.ingestor.folded, slice.ingestor.dropped_late,
          slice.ingestor.dropped_future,
          slice.ingestor.dropped_backpressure}) {
      if (count > unaccounted) {
        return Status::InvalidArgument(
            "ingest counters exceed the records offered");
      }
      unaccounted -= count;
    }
    // An instance processes no second past the fleet clock.
    if (bad_sec(slice.last_processed_sec) ||
        (slice.processed_any &&
         (!state.processed_any ||
          slice.last_processed_sec > state.last_fleet_sec))) {
      return Status::InvalidArgument("instance clock out of range");
    }
    // Recovery rebuilds from the first-needed segment up to the LSN.
    if (slice.first_needed_seq > slice.lsn.segment_seq) {
      return Status::InvalidArgument("first needed segment past the LSN");
    }
    // A detector of another configuration is another shape.
    if (Status status = instances_[i].detector->CheckState(
            slice.detector, online::kMaxEventSec);
        !status.ok()) {
      return status;
    }
  }
  // Queued triggers and storm members are diagnosed on their own instance.
  for (const QueuedTrigger& entry : state.scheduler.queue) {
    if (bad_trigger(entry.trigger) || bad_sec(entry.enqueue_sec) ||
        bad_sec(entry.due_sec)) {
      return Status::InvalidArgument(
          "queued trigger of an unknown instance or out of range");
    }
  }
  if (const auto& storm = state.correlator.open_batch; storm.has_value()) {
    for (const StormMember& member : storm->members) {
      if (bad_trigger(member.trigger) || bad_sec(member.due_sec)) {
        return Status::InvalidArgument(
            "storm member of an unknown instance or out of range");
      }
    }
    if (bad_sec(storm->opened_sec)) {
      return Status::InvalidArgument("open storm second out of range");
    }
  }
  for (const auto& [sec, instance_id] : state.correlator.recent) {
    if (bad_sec(sec)) return Status::InvalidArgument("storm window second");
  }
  for (const auto& [host_id, episode] : state.correlator.hosts) {
    for (const HostTrigger& event : episode.events) {
      if (bad_sec(event.trigger_sec) || bad_sec(event.onset_sec)) {
        return Status::InvalidArgument("host episode second out of range");
      }
    }
  }
  for (const auto& [instance_id, sec] : state.dedup_activity) {
    if (bad_sec(sec)) return Status::InvalidArgument("dedup second");
  }
  if (bad_sec(state.last_fleet_sec)) {
    return Status::InvalidArgument("fleet clock out of range");
  }
  return Status::OK();
}

void FleetService::ImportStateLocked(const FleetState& state) {
  for (size_t i = 0; i < instances_.size(); ++i) {
    const FleetInstanceState& slice = state.instances[i];
    Instance& instance = instances_[i];
    instance.ingestor->ImportState(slice.ingestor);
    instance.detector->ImportState(slice.detector);
    instance.processed_any = slice.processed_any;
    instance.last_processed_sec = slice.last_processed_sec;
    instance.retention_cutoff_ms = slice.retention_cutoff_ms;
    for (const auto& [sql_id, entry] : slice.catalog) {
      instance.archive->RegisterTemplate(sql_id, entry);
    }
    instance.events_seen = instance.spec.supervisor != nullptr
                               ? instance.spec.supervisor->events().size()
                               : 0;
  }
  deduper_.ImportActivity(state.dedup_activity);
  scheduler_->ImportState(state.scheduler);
  correlator_.ImportState(state.correlator);
  processed_fleet_any_ = state.processed_any;
  last_fleet_sec_ = state.last_fleet_sec;
  fleet_clock_sec_.store(processed_fleet_any_
                             ? last_fleet_sec_
                             : std::numeric_limits<int64_t>::min(),
                         std::memory_order_relaxed);
  counters_ = state.counters;
}

Status FleetService::Checkpoint() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (!durable() || !running_) {
    return Status::FailedPrecondition(
        "checkpoints need a running durable fleet");
  }
  return CheckpointLocked();
}

Status FleetService::CheckpointLocked() {
  if (!recovery_.checkpoint_error.empty()) {
    return Status::FailedPrecondition("checkpoints disabled: " +
                                      recovery_.checkpoint_error);
  }
  const FleetState state = ExportStateLocked();
  std::vector<uint64_t> first_needed;
  first_needed.reserve(state.instances.size());
  for (const FleetInstanceState& slice : state.instances) {
    first_needed.push_back(slice.first_needed_seq);
  }
  ++checkpoint_counter_;
  if (Status status = store::WriteCheckpoint(env_, options_.data_dir,
                                             checkpoint_counter_,
                                             EncodeFleetState(state));
      !status.ok()) {
    return status;
  }
  checkpoint_first_needed_.push_back(std::move(first_needed));
  while (checkpoint_first_needed_.size() > kCheckpointsToKeep) {
    checkpoint_first_needed_.pop_front();
  }
  store::PruneCheckpoints(env_, options_.data_dir, kCheckpointsToKeep);

  // Retire the WAL segments below the oldest retained checkpoint's
  // first-needed segment: a fallback recovery must always find every
  // segment it rebuilds from on disk.
  for (size_t i = 0; i < instances_.size(); ++i) {
    Instance& instance = instances_[i];
    std::lock_guard<std::mutex> lock(*instance.mu);
    if (instance.writer == nullptr) continue;
    instance.writer->DeleteSealedSegments(checkpoint_first_needed_.front()[i],
                                          env_);
  }
  last_checkpoint_sec_ = last_fleet_sec_;
  cadence_anchored_ = true;
  return Status::OK();
}

}  // namespace pinsql::fleet
