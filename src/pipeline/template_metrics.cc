#include "pipeline/template_metrics.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pinsql {

TemplateMetricsStore::TemplateMetricsStore(int64_t start_sec, int64_t end_sec,
                                           int64_t interval_sec)
    : start_sec_(start_sec), end_sec_(end_sec), interval_sec_(interval_sec) {
  assert(end_sec >= start_sec);
  assert(interval_sec > 0);
}

size_t TemplateMetricsStore::num_buckets() const {
  // Ceil, not floor: a window whose length is not a multiple of the
  // interval keeps its trailing partial bucket, exactly as
  // TimeSeries::Resample shapes its output — so a Resample()d shard and a
  // store accumulated directly at the coarse interval have identical
  // series shapes and MergeFrom round-trips the tail.
  if (interval_sec_ <= 0) return 0;
  return static_cast<size_t>((end_sec_ - start_sec_ + interval_sec_ - 1) /
                             interval_sec_);
}

TemplateSeries* TemplateMetricsStore::FindOrCreate(uint64_t sql_id) {
  auto it = slot_.find(sql_id);
  if (it != slot_.end()) return &series_[it->second];
  const size_t n = num_buckets();
  TemplateSeries series;
  series.sql_id = sql_id;
  series.execution_count = TimeSeries(start_sec_, interval_sec_, n);
  series.total_response_ms = TimeSeries(start_sec_, interval_sec_, n);
  series.examined_rows = TimeSeries(start_sec_, interval_sec_, n);
  slot_.emplace(sql_id, static_cast<uint32_t>(series_.size()));
  series_.push_back(std::move(series));
  return &series_.back();
}

void TemplateMetricsStore::Accumulate(const QueryLogRecord& record) {
  const int64_t t_sec = record.arrival_ms / 1000;
  if (t_sec < start_sec_ || t_sec >= end_sec_) return;
  TemplateSeries* series = FindOrCreate(record.sql_id);
  series->execution_count.AccumulateAt(t_sec, 1.0);
  series->total_response_ms.AccumulateAt(t_sec, record.response_ms);
  series->examined_rows.AccumulateAt(
      t_sec, static_cast<double>(record.examined_rows));
}

const TemplateSeries* TemplateMetricsStore::Find(uint64_t sql_id) const {
  auto it = slot_.find(sql_id);
  return it == slot_.end() ? nullptr : &series_[it->second];
}

std::vector<const TemplateSeries*> TemplateMetricsStore::AllSorted() const {
  std::vector<const TemplateSeries*> out;
  out.reserve(series_.size());
  for (const TemplateSeries& series : series_) out.push_back(&series);
  std::sort(out.begin(), out.end(),
            [](const TemplateSeries* a, const TemplateSeries* b) {
              return a->sql_id < b->sql_id;
            });
  return out;
}

std::vector<uint64_t> TemplateMetricsStore::SqlIdsSorted() const {
  std::vector<uint64_t> out;
  out.reserve(series_.size());
  for (const TemplateSeries& series : series_) out.push_back(series.sql_id);
  std::sort(out.begin(), out.end());
  return out;
}

TimeSeries TemplateMetricsStore::TotalResponseAcrossTemplates() const {
  TimeSeries total(start_sec_, interval_sec_, num_buckets());
  // Summed in sql_id order, not insertion order: the result must not
  // depend on how the store was assembled (serial scan vs merged parallel
  // shards first-touch templates in different orders for identical
  // contents).
  for (const TemplateSeries* series : AllSorted()) {
    total.AddInPlace(series->total_response_ms);
  }
  return total;
}

void TemplateMetricsStore::MergeFrom(TemplateMetricsStore&& shard) {
  assert(shard.start_sec_ == start_sec_);
  assert(shard.end_sec_ == end_sec_);
  assert(shard.interval_sec_ == interval_sec_);
  // Insert in sql_id order so the merged store's layout is a function of
  // the contents only, never of shard-internal first-touch ordering.
  for (uint64_t id : shard.SqlIdsSorted()) {
    TemplateSeries& incoming = shard.series_[shard.slot_.at(id)];
    auto it = slot_.find(id);
    if (it == slot_.end()) {
      slot_.emplace(id, static_cast<uint32_t>(series_.size()));
      series_.push_back(std::move(incoming));
    } else {
      TemplateSeries& mine = series_[it->second];
      mine.execution_count.AddInPlace(incoming.execution_count);
      mine.total_response_ms.AddInPlace(incoming.total_response_ms);
      mine.examined_rows.AddInPlace(incoming.examined_rows);
    }
  }
  shard.series_.clear();
  shard.slot_.clear();
}

TemplateMetricsStore TemplateMetricsStore::Resample(
    int64_t new_interval_sec) const {
  TemplateMetricsStore out(start_sec_, end_sec_, new_interval_sec);
  out.series_.reserve(series_.size());
  for (const TemplateSeries& series : series_) {
    TemplateSeries resampled;
    resampled.sql_id = series.sql_id;
    resampled.execution_count =
        series.execution_count.Resample(new_interval_sec,
                                        TimeSeries::Agg::kSum);
    resampled.total_response_ms =
        series.total_response_ms.Resample(new_interval_sec,
                                          TimeSeries::Agg::kSum);
    resampled.examined_rows = series.examined_rows.Resample(
        new_interval_sec, TimeSeries::Agg::kSum);
    out.slot_.emplace(resampled.sql_id,
                      static_cast<uint32_t>(out.series_.size()));
    out.series_.push_back(std::move(resampled));
  }
  return out;
}

TemplateMetricsStore AggregateWindow(const LogStore& store, int64_t start_sec,
                                     int64_t end_sec, int64_t interval_sec) {
  TemplateMetricsStore metrics(start_sec, end_sec, interval_sec);
  store.ScanRange(start_sec * 1000, end_sec * 1000,
                  [&metrics](const QueryLogRecord& record) {
                    metrics.Accumulate(record);
                  });
  return metrics;
}

TemplateMetricsStore AggregateWindow(const LogStore& store, int64_t start_sec,
                                     int64_t end_sec, int64_t interval_sec,
                                     util::ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    return AggregateWindow(store, start_sec, end_sec, interval_sec);
  }
  const size_t num_shards = static_cast<size_t>(pool->num_threads());
  // Force the lazy sort once, outside the parallel region, so the shard
  // scans below are pure concurrent reads.
  (void)store.SortedRecords();

  std::vector<TemplateMetricsStore> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards.emplace_back(start_sec, end_sec, interval_sec);
  }
  pool->ParallelFor(num_shards, [&](size_t s) {
    store.ScanRange(start_sec * 1000, end_sec * 1000,
                    [&, s](const QueryLogRecord& record) {
                      if (record.sql_id % num_shards == s) {
                        shards[s].Accumulate(record);
                      }
                    });
  });

  TemplateMetricsStore metrics(start_sec, end_sec, interval_sec);
  for (size_t s = 0; s < num_shards; ++s) {
    metrics.MergeFrom(std::move(shards[s]));
  }
  return metrics;
}

}  // namespace pinsql
