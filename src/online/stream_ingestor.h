#ifndef PINSQL_ONLINE_STREAM_INGESTOR_H_
#define PINSQL_ONLINE_STREAM_INGESTOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "logstore/log_store.h"
#include "pipeline/template_metrics.h"
#include "ts/time_series.h"
#include "util/arena.h"
#include "util/status.h"

namespace pinsql::online {

/// Largest |second| a sample may carry and a record may arrive at: half of
/// what survives a *1000, so the window, lookback and retention arithmetic
/// around an accepted second ((onset - delta_s) * 1000, (watermark - window
/// + 1) * 1000) cannot overflow either. The ingestor refuses and counts
/// anything beyond it, the WAL scan rejects a frame beyond it, and a
/// checkpoint carrying a second beyond it is refused on import.
inline constexpr int64_t kMaxEventSec =
    std::numeric_limits<int64_t>::max() / 1000 / 2;

/// One per-second performance sample from the monitoring agent, the
/// streaming form of dbsim::InstanceMetrics: the value of every monitored
/// metric for one wall second. Non-finite values are telemetry gaps, as
/// everywhere else in the repo.
struct PerfSample {
  int64_t sec = 0;
  double active_session = 0.0;
  double cpu_usage = 0.0;
  double iops_usage = 0.0;
  double row_lock_waits = 0.0;
  double mdl_waits = 0.0;
};

/// Producer->pump handoff unit: records move through the staging queue a
/// chunk at a time, so a pump walks one chunk per ~256 records instead of
/// one node per record, and staging allocates nothing per record — chunks
/// recycle through an arena-backed pool (shared fleet-wide when the fleet
/// passes one in), behind a small per-ingestor cache of emptied chunks.
inline constexpr uint32_t kIngestChunkCapacity = 256;
using IngestChunk = util::Chunk<QueryLogRecord, kIngestChunkCapacity>;
using IngestChunkPool = util::ChunkPool<QueryLogRecord, kIngestChunkCapacity>;

struct IngestorOptions {
  /// Sliding window the metric ring retains, in seconds. Must cover the
  /// scheduler's delta_s lookback plus the longest anomaly it should be
  /// able to diagnose.
  int64_t window_sec = 1800;
  /// Bounded staging queue: a full queue drops the record and counts it
  /// (explicit backpressure — the collector never blocks the database it
  /// watches).
  size_t queue_capacity = 1 << 19;
  /// Records older than watermark - late_grace_sec are refused as late
  /// when offered: never staged, archived or journaled.
  int64_t late_grace_sec = 120;
};

/// Every drop is accounted: nothing leaves the pipeline silently.
///
/// stats() returns a *consistent cut*: the counters are read under the
/// queue lock, so the invariant `records_enqueued == records_folded +
/// records_dropped_late + records_dropped_future +
/// records_dropped_backpressure + records_staged` holds exactly in every
/// snapshot, even while producers and pumpers race. (Fleet-level stats sum
/// these per-instance cuts.)
struct IngestStats {
  /// Every record offered to IngestRecord, accepted or not.
  size_t records_enqueued = 0;
  /// Records a Pump() took from the staging queue.
  size_t records_folded = 0;
  size_t records_dropped_backpressure = 0;
  size_t records_dropped_late = 0;
  /// Records dated beyond the newest second IngestRecord was told to accept.
  size_t records_dropped_future = 0;
  /// Records accepted into the staging queue but not yet taken by a Pump().
  size_t records_staged = 0;
  size_t metric_samples = 0;
  size_t metric_samples_dropped = 0;
};

/// Metric series snapshot over one window, shaped for DiagnosisInput.
struct WindowMetrics {
  TimeSeries active_session;
  std::map<std::string, TimeSeries> helpers;  // cpu/iops/lock-wait nodes
};

/// A StreamIngestor's counters, for the fleet's checkpoints (see
/// fleet/fleet_state.h). The data they count (staged records, the metric
/// ring, the watermark) is not part of it: a durable fleet rebuilds that
/// from its WAL before it imports the counters.
struct IngestorState {
  uint64_t enqueued = 0;
  uint64_t dropped_backpressure = 0;
  uint64_t folded = 0;
  uint64_t dropped_late = 0;
  uint64_t dropped_future = 0;
  uint64_t metric_samples = 0;
  uint64_t metric_samples_dropped = 0;
};

/// Thread-safe streaming ingestion of query-log records and per-second
/// perf samples: the staging front of the one aggregation path (records ->
/// LogStore archive -> AggregateWindow over the diagnosis window).
///
/// Data flow: producers stage records into one chunk list under the queue
/// lock (one pooled chunk per ~256 records); Pump() detaches the whole list
/// under one lock hold, archives every chunk span into the attached
/// LogStore in one call, and recycles the chunks. Metric samples go
/// straight into a per-second ring and advance the watermark (the service's
/// virtual clock). Snapshot*() assembles the window views a windowed
/// diagnosis consumes.
///
/// Determinism: the archive receives the records in exactly the order
/// IngestRecord accepted them, so SnapshotTemplates is exactly the
/// AggregateWindow a diagnosis runs over that archive.
class StreamIngestor {
 public:
  /// `pool` shares chunk capacity across ingestors (the fleet passes one
  /// pool to every instance); nullptr gives the ingestor a private pool.
  explicit StreamIngestor(const IngestorOptions& options,
                          std::shared_ptr<IngestChunkPool> pool = nullptr);
  ~StreamIngestor();
  StreamIngestor(const StreamIngestor&) = delete;
  StreamIngestor& operator=(const StreamIngestor&) = delete;

  /// Optional: pumped records are archived here (one AppendSpans call per
  /// pump). The archive is what Diagnose() scans; concurrent readers must
  /// use LogStore::SnapshotRange.
  void AttachArchive(LogStore* store) { archive_ = store; }

  /// Stages one record (thread-safe). Returns false when the record was
  /// dropped and counted: late (older than watermark - late_grace_sec),
  /// dated after `newest_sec` (or after kMaxEventSec), or refused by a full
  /// staging queue.
  bool IngestRecord(const QueryLogRecord& record,
                    int64_t newest_sec = kMaxEventSec);

  /// Ingests one per-second sample (thread-safe) and advances the
  /// watermark. Returns false when the sample was dropped and counted:
  /// older than the retained window, or beyond ±kMaxEventSec. A sample at
  /// exactly window_floor_sec() is the oldest retained instant.
  bool IngestMetrics(const PerfSample& sample);

  /// Stages a record a checkpoint counts as staged, as recovery rebuilds
  /// the queue: no drop check and no counter moves, because it was accepted
  /// and counted before the crash. Not thread-safe: call before producers
  /// start.
  void Restage(const QueryLogRecord& record);

  /// Moves every staged record into the archive. Safe to call from any
  /// thread. Returns the number of records taken from the queue.
  size_t Pump();

  /// Latest metric second seen (the virtual clock), or nullopt before the
  /// first sample.
  std::optional<int64_t> watermark_sec() const;

  /// The sample for `sec`, if it is inside the retained window.
  std::optional<PerfSample> SampleAt(int64_t sec) const;

  /// The oldest second at or after `sec` that SampleAt answers, or
  /// INT64_MAX when none does. O(window_sec).
  int64_t NextSampleSec(int64_t sec) const;

  /// Per-template aggregates over [t0_sec, t1_sec): AggregateWindow over a
  /// SnapshotRange of the attached archive — the series a diagnosis of that
  /// window computes. Empty without an archive.
  TemplateMetricsStore SnapshotTemplates(int64_t t0_sec, int64_t t1_sec) const;

  /// Assembles the metric series over [t0_sec, t1_sec); seconds without a
  /// sample are gaps (NaN), which DataQuality accounting downstream picks
  /// up as usual.
  WindowMetrics SnapshotMetrics(int64_t t0_sec, int64_t t1_sec) const;

  /// Oldest second still retained by the metric ring (watermark - window
  /// + 1), or nullopt before the first sample. Snapshots at exactly this
  /// second see retained data; one second older is outside the ring.
  std::optional<int64_t> window_floor_sec() const;

  IngestStats stats() const;

  /// The chunk pool backing the staging queue (shared or private).
  const IngestChunkPool& chunk_pool() const { return *pool_; }

  /// Captures the counters as one consistent cut — safe while producers
  /// race.
  IngestorState ExportState() const;

  /// Overwrites the counters with exported ones, leaving the staged
  /// records, the metric ring and the watermark as they are. The caller
  /// checks the counters (the fleet's CheckStateLocked does). Not
  /// thread-safe: call before producers start.
  void ImportState(const IngestorState& state);

 private:
  /// Empty-slot sentinel for the metric ring. INT64_MIN (not -1): early
  /// streams have genuinely negative window-floor seconds, and the
  /// sentinel must compare older than every real second so the
  /// recycled-slot checks stay branch-free.
  static constexpr int64_t kEmptySec = std::numeric_limits<int64_t>::min();
  /// Emptied chunks the cache keeps: what a pump of a few seconds' staging
  /// empties, so a steady stage-and-pump cycle never takes the pool's lock.
  static constexpr size_t kChunkCacheCap = 8;

  struct MetricBucket {
    int64_t sec = kEmptySec;
    PerfSample sample;
  };

  /// Ring slot for `sec`, correct for negative seconds too (C++ % truncates
  /// toward zero, which would index out of bounds below sec 0 — and the
  /// window floor of an early stream *is* negative).
  size_t RingIndex(int64_t sec) const {
    const int64_t w = options_.window_sec;
    const int64_t m = sec % w;
    return static_cast<size_t>(m < 0 ? m + w : m);
  }

  /// Releases the staged chunk list back to the pool (queue_mu_ held).
  void DropStagedLocked();
  /// An empty chunk: from the cache when it holds one, else from the pool.
  IngestChunk* AcquireChunk();
  /// Takes a pumped chain [head..last] of `count` chunks back: up to the
  /// cache's cap into the cache, the rest to the pool in one splice.
  void RecycleChain(IngestChunk* head, IngestChunk* last, size_t count);
  /// Appends one record to the staged chunk list (queue_mu_ held).
  void StageLocked(const QueryLogRecord& record);

  IngestorOptions options_;
  std::shared_ptr<IngestChunkPool> pool_;

  // Lock order: queue_mu_ -> cache_mu_ -> the pool's mutex (a leaf).
  mutable std::mutex queue_mu_;
  IngestChunk* head_ = nullptr;
  IngestChunk* tail_ = nullptr;
  size_t staged_ = 0;
  size_t enqueued_ = 0;
  size_t dropped_backpressure_ = 0;
  size_t dropped_late_ = 0;
  size_t dropped_future_ = 0;
  size_t folded_ = 0;

  /// Emptied chunks kept for this ingestor's own staging, in front of the
  /// (possibly fleet-wide) pool, at most kChunkCacheCap of them. Taken
  /// under queue_mu_ or alone, before the pool's lock.
  std::mutex cache_mu_;
  IngestChunk* cache_ = nullptr;
  size_t cache_count_ = 0;
  LogStore* archive_ = nullptr;

  mutable std::mutex metrics_mu_;
  std::vector<MetricBucket> metric_ring_;
  size_t metric_samples_ = 0;
  size_t metric_samples_dropped_ = 0;
  /// INT64_MIN before the first sample. Relaxed loads are fine: the late
  /// check only needs a recent-enough horizon.
  std::atomic<int64_t> watermark_;
};

}  // namespace pinsql::online

#endif  // PINSQL_ONLINE_STREAM_INGESTOR_H_
