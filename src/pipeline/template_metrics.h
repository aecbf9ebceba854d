#ifndef PINSQL_PIPELINE_TEMPLATE_METRICS_H_
#define PINSQL_PIPELINE_TEMPLATE_METRICS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "logstore/log_store.h"
#include "ts/time_series.h"
#include "util/thread_pool.h"

namespace pinsql {

/// Per-template aggregated metric series over a window (paper Sec. IV-A):
/// metric_{Q,t} = Aggregate({metric(q) : q in Q, t(q) in [t, t+dt)}).
/// All three series share the window's start time and interval.
struct TemplateSeries {
  uint64_t sql_id = 0;
  TimeSeries execution_count;    // count aggregate  (#execution)
  TimeSeries total_response_ms;  // sum aggregate of tres
  TimeSeries examined_rows;      // sum aggregate of #examined_rows
};

/// Aggregated template metrics for one instance and one time window.
/// Produced by AggregateWindow at 1 s granularity; 1 min granularity is
/// derived via Resample.
///
/// Memory layout (DESIGN.md §13): the series live in one contiguous
/// vector in first-touch order — scans over every template (AllSorted,
/// TotalResponseAcrossTemplates, the diagnoser's template loops) stream
/// sequentially instead of chasing hash-map nodes; a side table maps
/// sql_id to its slot. A window whose length is not a multiple of the
/// interval gets a trailing *partial* bucket (ceil sizing), matching
/// TimeSeries::Resample, so resampled shards merge into directly
/// aggregated stores without losing the tail.
///
/// Pointer stability: TemplateSeries pointers returned by Find / AllSorted
/// are invalidated by any subsequent mutation (Accumulate, MergeFrom) —
/// the usage pattern everywhere is build-then-read.
class TemplateMetricsStore {
 public:
  TemplateMetricsStore() = default;
  /// Window [start_sec, end_sec) at `interval_sec` granularity.
  TemplateMetricsStore(int64_t start_sec, int64_t end_sec,
                       int64_t interval_sec = 1);

  int64_t start_sec() const { return start_sec_; }
  int64_t end_sec() const { return end_sec_; }
  int64_t interval_sec() const { return interval_sec_; }
  size_t num_templates() const { return series_.size(); }

  /// Folds one query-log record into the aggregates. Records outside the
  /// window are ignored (late/early data).
  void Accumulate(const QueryLogRecord& record);

  /// Lookup; nullptr when the template never executed in the window.
  /// Invalidated by mutation (see pointer-stability note above).
  const TemplateSeries* Find(uint64_t sql_id) const;

  /// Contiguous series in first-touch (accumulation) order — the scan
  /// order for callers that do not need sorted ids.
  const std::vector<TemplateSeries>& series() const { return series_; }

  /// Stable iteration order (sorted by sql_id) for deterministic results.
  std::vector<const TemplateSeries*> AllSorted() const;
  std::vector<uint64_t> SqlIdsSorted() const;

  /// Sum of total_response_ms across all templates, per interval. This is
  /// the "Estimate by RT" proxy for the active session (Table III).
  TimeSeries TotalResponseAcrossTemplates() const;

  /// Re-aggregated copy at a coarser granularity (e.g. 60 s). A window
  /// length that is not a multiple of the new interval yields a trailing
  /// partial bucket aggregated from the seconds available (exactly
  /// TimeSeries::Resample semantics).
  TemplateMetricsStore Resample(int64_t new_interval_sec) const;

  /// Folds a shard produced over the same window/interval into this store:
  /// templates unknown here are moved in, overlapping templates have their
  /// series summed element-wise. Shards merged in a fixed order yield a
  /// deterministic result; shards with *disjoint* template sets (the
  /// sql_id-sharded parallel AggregateWindow) merge with no floating-point
  /// additions at all, so the merged store is bit-identical to the serial
  /// aggregation.
  void MergeFrom(TemplateMetricsStore&& shard);

 private:
  TemplateSeries* FindOrCreate(uint64_t sql_id);
  /// Buckets the window spans at interval_sec_ granularity — ceil, so a
  /// trailing partial interval gets a bucket (the Resample round-trip
  /// invariant; see class comment).
  size_t num_buckets() const;

  int64_t start_sec_ = 0;
  int64_t end_sec_ = 0;
  int64_t interval_sec_ = 1;
  /// Parallel pair: series_ holds the payloads contiguously in
  /// first-touch order; slot_ maps sql_id -> index into series_.
  std::vector<TemplateSeries> series_;
  std::unordered_map<uint64_t, uint32_t> slot_;
};

/// The one per-template aggregation (paper Sec. IV-A): folds the records
/// of `store` over [start_sec, end_sec) into a TemplateMetricsStore, in
/// arrival order. Every diagnosis window goes through here.
TemplateMetricsStore AggregateWindow(const LogStore& store, int64_t start_sec,
                                     int64_t end_sec,
                                     int64_t interval_sec = 1);

/// Parallel variant: shards templates across the pool (shard = sql_id
/// modulo pool size), each shard scanning the window and accumulating only
/// its own templates, then merges the disjoint shards in shard order. The
/// per-template series see their records in the same arrival order as the
/// serial scan, so the result is bit-identical to AggregateWindow. Falls
/// back to the serial path when `pool` is null or single-threaded.
TemplateMetricsStore AggregateWindow(const LogStore& store, int64_t start_sec,
                                     int64_t end_sec, int64_t interval_sec,
                                     util::ThreadPool* pool);

}  // namespace pinsql

#endif  // PINSQL_PIPELINE_TEMPLATE_METRICS_H_
