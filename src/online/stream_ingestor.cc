#include "online/stream_ingestor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace pinsql::online {

StreamIngestor::StreamIngestor(const IngestorOptions& options,
                               std::shared_ptr<IngestChunkPool> pool)
    : options_(options),
      pool_(pool != nullptr ? std::move(pool)
                            : std::make_shared<IngestChunkPool>()),
      metric_ring_(static_cast<size_t>(std::max<int64_t>(options.window_sec, 1))),
      watermark_(std::numeric_limits<int64_t>::min()) {
  options_.window_sec = std::max<int64_t>(options_.window_sec, 1);
}

StreamIngestor::~StreamIngestor() {
  // Staged and cached chunks go back to the (possibly shared) pool, not
  // down with us.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    DropStagedLocked();
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  pool_->ReleaseList(cache_);
}

IngestChunk* StreamIngestor::AcquireChunk() {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_ != nullptr) {
      IngestChunk* chunk = cache_;
      cache_ = chunk->next;
      --cache_count_;
      chunk->size = 0;
      chunk->next = nullptr;
      return chunk;
    }
  }
  return pool_->Acquire();
}

void StreamIngestor::RecycleChain(IngestChunk* head, IngestChunk* last,
                                  size_t count) {
  IngestChunk* rest = head;
  size_t kept = 0;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    IngestChunk* kept_last = nullptr;
    while (rest != nullptr && cache_count_ + kept < kChunkCacheCap) {
      kept_last = rest;
      rest = rest->next;
      ++kept;
    }
    if (kept_last != nullptr) {
      kept_last->next = cache_;
      cache_ = head;
      cache_count_ += kept;
    }
  }
  if (rest != nullptr) pool_->ReleaseChain(rest, last, count - kept);
}

void StreamIngestor::DropStagedLocked() {
  if (head_ != nullptr) {
    pool_->ReleaseList(head_);
    head_ = nullptr;
    tail_ = nullptr;
    staged_ = 0;
  }
}

void StreamIngestor::StageLocked(const QueryLogRecord& record) {
  if (tail_ == nullptr || tail_->full()) {
    IngestChunk* chunk = AcquireChunk();
    if (tail_ == nullptr) {
      head_ = chunk;
    } else {
      tail_->next = chunk;
    }
    tail_ = chunk;
  }
  tail_->push(record);
  ++staged_;
}

bool StreamIngestor::IngestRecord(const QueryLogRecord& record,
                                  int64_t newest_sec) {
  const int64_t mark = watermark_.load(std::memory_order_relaxed);
  const int64_t sec = record.arrival_ms / 1000;
  std::lock_guard<std::mutex> lock(queue_mu_);
  ++enqueued_;
  // Strictly older than the grace horizon: a record at exactly
  // watermark - late_grace_sec is still on time.
  if (mark != std::numeric_limits<int64_t>::min() &&
      sec < mark - options_.late_grace_sec) {
    ++dropped_late_;
    return false;
  }
  if (sec > std::min(newest_sec, kMaxEventSec)) {
    ++dropped_future_;
    return false;
  }
  if (staged_ >= options_.queue_capacity) {
    ++dropped_backpressure_;
    return false;
  }
  StageLocked(record);
  return true;
}

void StreamIngestor::Restage(const QueryLogRecord& record) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  StageLocked(record);
}

bool StreamIngestor::IngestMetrics(const PerfSample& sample) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  const int64_t mark = watermark_.load(std::memory_order_relaxed);
  // Strict: a sample at exactly mark - window_sec + 1 (the window floor)
  // is the oldest retained instant; one second older misses the ring.
  if (sample.sec < -kMaxEventSec || sample.sec > kMaxEventSec ||
      (mark != std::numeric_limits<int64_t>::min() &&
       sample.sec <= mark - options_.window_sec)) {
    ++metric_samples_dropped_;
    return false;
  }
  MetricBucket& bucket = metric_ring_[RingIndex(sample.sec)];
  if (bucket.sec > sample.sec) {
    // The slot was already recycled for a newer second.
    ++metric_samples_dropped_;
    return false;
  }
  bucket.sec = sample.sec;
  bucket.sample = sample;
  ++metric_samples_;
  if (sample.sec > mark) {
    watermark_.store(sample.sec, std::memory_order_relaxed);
  }
  return true;
}

size_t StreamIngestor::Pump() {
  IngestChunk* chunks = nullptr;
  {
    // The detach and the count move together under queue_mu_, so a record
    // is always visible to stats() as either staged or folded.
    std::lock_guard<std::mutex> lock(queue_mu_);
    chunks = head_;
    head_ = nullptr;
    tail_ = nullptr;
    folded_ += staged_;
    staged_ = 0;
  }
  // Everything one pump takes is archived in ONE AppendSpans call, in
  // staging order. A concurrent LogStore::SnapshotRange therefore observes
  // a pump atomically — all of its records or none. The chunks themselves
  // only return to the pool after the archive has copied them.
  std::vector<std::pair<const QueryLogRecord*, size_t>> spans;
  IngestChunk* last = nullptr;
  size_t count = 0;
  size_t pumped = 0;
  for (IngestChunk* c = chunks; c != nullptr; c = c->next) {
    spans.emplace_back(c->items, c->size);
    pumped += c->size;
    ++count;
    last = c;
  }
  if (chunks != nullptr) {
    if (archive_ != nullptr) archive_->AppendSpans(spans);
    // The span walk above already visited every chunk, so what the cache
    // does not keep splices into the pool in O(1), without a re-walk under
    // its lock.
    RecycleChain(chunks, last, count);
  }
  PINSQL_OBS_COUNT("online.ingest_pumped", pumped);
  return pumped;
}

std::optional<int64_t> StreamIngestor::watermark_sec() const {
  const int64_t mark = watermark_.load(std::memory_order_relaxed);
  if (mark == std::numeric_limits<int64_t>::min()) return std::nullopt;
  return mark;
}

std::optional<PerfSample> StreamIngestor::SampleAt(int64_t sec) const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  const MetricBucket& bucket = metric_ring_[RingIndex(sec)];
  if (bucket.sec != sec) return std::nullopt;
  return bucket.sample;
}

int64_t StreamIngestor::NextSampleSec(int64_t sec) const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  int64_t next = std::numeric_limits<int64_t>::max();
  for (const MetricBucket& bucket : metric_ring_) {
    if (bucket.sec >= sec) next = std::min(next, bucket.sec);
  }
  return next;
}

TemplateMetricsStore StreamIngestor::SnapshotTemplates(int64_t t0_sec,
                                                       int64_t t1_sec) const {
  TemplateMetricsStore store(t0_sec, t1_sec, /*interval_sec=*/1);
  if (archive_ == nullptr) return store;
  // Arrival-ordered, ties in append order: the scan order AggregateWindow
  // sees over the diagnosis window's copy of the same records.
  for (const QueryLogRecord& record :
       archive_->SnapshotRange(t0_sec * 1000, t1_sec * 1000)) {
    store.Accumulate(record);
  }
  return store;
}

WindowMetrics StreamIngestor::SnapshotMetrics(int64_t t0_sec,
                                              int64_t t1_sec) const {
  const size_t n = t1_sec > t0_sec ? static_cast<size_t>(t1_sec - t0_sec) : 0;
  const double gap = std::numeric_limits<double>::quiet_NaN();
  WindowMetrics out;
  out.active_session = TimeSeries(t0_sec, 1, n);
  TimeSeries cpu(t0_sec, 1, n), iops(t0_sec, 1, n), row_lock(t0_sec, 1, n),
      mdl(t0_sec, 1, n);
  std::lock_guard<std::mutex> lock(metrics_mu_);
  for (size_t i = 0; i < n; ++i) {
    const int64_t sec = t0_sec + static_cast<int64_t>(i);
    const MetricBucket& bucket = metric_ring_[RingIndex(sec)];
    if (bucket.sec == sec) {
      out.active_session[i] = bucket.sample.active_session;
      cpu[i] = bucket.sample.cpu_usage;
      iops[i] = bucket.sample.iops_usage;
      row_lock[i] = bucket.sample.row_lock_waits;
      mdl[i] = bucket.sample.mdl_waits;
    } else {
      out.active_session[i] = gap;
      cpu[i] = gap;
      iops[i] = gap;
      row_lock[i] = gap;
      mdl[i] = gap;
    }
  }
  out.helpers.emplace("cpu_usage", std::move(cpu));
  out.helpers.emplace("iops_usage", std::move(iops));
  out.helpers.emplace("row_lock_waits", std::move(row_lock));
  out.helpers.emplace("mdl_waits", std::move(mdl));
  return out;
}

std::optional<int64_t> StreamIngestor::window_floor_sec() const {
  const auto mark = watermark_sec();
  if (!mark.has_value()) return std::nullopt;
  return *mark - options_.window_sec + 1;
}

IngestorState StreamIngestor::ExportState() const {
  // Same consistent-cut discipline as stats(): queue_mu_, then the
  // metrics mutex.
  IngestorState state;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    state.enqueued = enqueued_;
    state.dropped_backpressure = dropped_backpressure_;
    state.folded = folded_;
    state.dropped_late = dropped_late_;
    state.dropped_future = dropped_future_;
  }
  std::lock_guard<std::mutex> lock(metrics_mu_);
  state.metric_samples = metric_samples_;
  state.metric_samples_dropped = metric_samples_dropped_;
  return state;
}

void StreamIngestor::ImportState(const IngestorState& state) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    enqueued_ = static_cast<size_t>(state.enqueued);
    dropped_backpressure_ = static_cast<size_t>(state.dropped_backpressure);
    folded_ = static_cast<size_t>(state.folded);
    dropped_late_ = static_cast<size_t>(state.dropped_late);
    dropped_future_ = static_cast<size_t>(state.dropped_future);
  }
  std::lock_guard<std::mutex> lock(metrics_mu_);
  metric_samples_ = static_cast<size_t>(state.metric_samples);
  metric_samples_dropped_ = static_cast<size_t>(state.metric_samples_dropped);
}

IngestStats StreamIngestor::stats() const {
  // Consistent cut: every record counter is read under queue_mu_, so no
  // record can move between the staged / folded / dropped states mid-read
  // and the totals satisfy enqueued == folded + dropped_late +
  // dropped_future + dropped_backpressure + staged exactly — a fleet
  // summing per-instance snapshots never sees a torn read.
  IngestStats stats;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stats.records_enqueued = enqueued_;
    stats.records_dropped_backpressure = dropped_backpressure_;
    stats.records_folded = folded_;
    stats.records_dropped_late = dropped_late_;
    stats.records_dropped_future = dropped_future_;
    stats.records_staged = staged_;
  }
  std::lock_guard<std::mutex> lock(metrics_mu_);
  stats.metric_samples = metric_samples_;
  stats.metric_samples_dropped = metric_samples_dropped_;
  return stats;
}

}  // namespace pinsql::online
