#include <gtest/gtest.h>

#include "pipeline/template_metrics.h"

namespace pinsql {
namespace {

QueryLogRecord Rec(int64_t arrival_ms, uint64_t sql_id, double response,
                   int64_t rows) {
  QueryLogRecord r;
  r.arrival_ms = arrival_ms;
  r.sql_id = sql_id;
  r.response_ms = response;
  r.examined_rows = rows;
  return r;
}

// ---------------------------------------------------- TemplateMetricsStore

TEST(TemplateMetricsTest, AccumulateAggregatesPerSecond) {
  TemplateMetricsStore store(100, 110);
  store.Accumulate(Rec(100'500, 7, 20.0, 100));
  store.Accumulate(Rec(100'900, 7, 30.0, 50));
  store.Accumulate(Rec(101'000, 7, 5.0, 10));
  const TemplateSeries* series = store.Find(7);
  ASSERT_NE(series, nullptr);
  EXPECT_DOUBLE_EQ(series->execution_count.AtTime(100), 2.0);
  EXPECT_DOUBLE_EQ(series->total_response_ms.AtTime(100), 50.0);
  EXPECT_DOUBLE_EQ(series->examined_rows.AtTime(100), 150.0);
  EXPECT_DOUBLE_EQ(series->execution_count.AtTime(101), 1.0);
}

TEST(TemplateMetricsTest, RecordsOutsideWindowIgnored) {
  TemplateMetricsStore store(100, 110);
  store.Accumulate(Rec(99'999, 1, 1.0, 1));
  store.Accumulate(Rec(110'000, 1, 1.0, 1));
  EXPECT_EQ(store.Find(1), nullptr);
  EXPECT_EQ(store.num_templates(), 0u);
}

TEST(TemplateMetricsTest, SortedIterationIsDeterministic) {
  TemplateMetricsStore store(0, 10);
  store.Accumulate(Rec(500, 30, 1, 1));
  store.Accumulate(Rec(500, 10, 1, 1));
  store.Accumulate(Rec(500, 20, 1, 1));
  const auto all = store.AllSorted();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->sql_id, 10u);
  EXPECT_EQ(all[1]->sql_id, 20u);
  EXPECT_EQ(all[2]->sql_id, 30u);
  EXPECT_EQ(store.SqlIdsSorted(), (std::vector<uint64_t>{10, 20, 30}));
}

TEST(TemplateMetricsTest, TotalResponseAcrossTemplates) {
  TemplateMetricsStore store(0, 2);
  store.Accumulate(Rec(0, 1, 10.0, 1));
  store.Accumulate(Rec(0, 2, 20.0, 1));
  store.Accumulate(Rec(1000, 1, 5.0, 1));
  const TimeSeries total = store.TotalResponseAcrossTemplates();
  EXPECT_DOUBLE_EQ(total[0], 30.0);
  EXPECT_DOUBLE_EQ(total[1], 5.0);
}

TEST(TemplateMetricsTest, ResampleToMinute) {
  TemplateMetricsStore store(0, 120);
  for (int64_t s = 0; s < 120; ++s) {
    store.Accumulate(Rec(s * 1000, 9, 2.0, 3));
  }
  const TemplateMetricsStore coarse = store.Resample(60);
  const TemplateSeries* series = coarse.Find(9);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->execution_count.size(), 2u);
  EXPECT_DOUBLE_EQ(series->execution_count[0], 60.0);
  EXPECT_DOUBLE_EQ(series->total_response_ms[1], 120.0);
  EXPECT_EQ(coarse.interval_sec(), 60);
}

TEST(TemplateMetricsTest, ResamplePartialTrailingBucketRoundTrips) {
  // Window [0, 130) resampled to 60 s: buckets [0,60), [60,120) and the
  // *partial* [120,130). The partial bucket must survive every assembly
  // path identically.
  TemplateMetricsStore fine(0, 130);
  for (int64_t s = 0; s < 130; ++s) {
    fine.Accumulate(Rec(s * 1000, 9, 2.0, 3));
    fine.Accumulate(Rec(s * 1000 + 500, 4, 1.0, 1));
  }

  const TemplateMetricsStore coarse = fine.Resample(60);
  const TemplateSeries* series = coarse.Find(9);
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->execution_count.size(), 3u);
  EXPECT_DOUBLE_EQ(series->execution_count[0], 60.0);
  EXPECT_DOUBLE_EQ(series->execution_count[1], 60.0);
  EXPECT_DOUBLE_EQ(series->execution_count[2], 10.0);
  EXPECT_DOUBLE_EQ(series->total_response_ms[2], 20.0);

  // Batch aggregation directly at 60 s granularity sees the same records.
  TemplateMetricsStore batch(0, 130, 60);
  for (int64_t s = 0; s < 130; ++s) {
    batch.Accumulate(Rec(s * 1000, 9, 2.0, 3));
    batch.Accumulate(Rec(s * 1000 + 500, 4, 1.0, 1));
  }
  // The trailing records (secs 120..129) land in the partial bucket, not
  // on the floor.
  const TemplateSeries* direct = batch.Find(9);
  ASSERT_NE(direct, nullptr);
  ASSERT_EQ(direct->execution_count.size(), 3u);
  EXPECT_DOUBLE_EQ(direct->execution_count[2], 10.0);

  // Resampled sql_id-sharded halves merged into the batch-aggregated
  // store: bit-identical to batch for every bucket including the tail.
  TemplateMetricsStore shard9(0, 130), shard4(0, 130);
  for (int64_t s = 0; s < 130; ++s) {
    shard9.Accumulate(Rec(s * 1000, 9, 2.0, 3));
    shard4.Accumulate(Rec(s * 1000 + 500, 4, 1.0, 1));
  }
  TemplateMetricsStore merged = shard9.Resample(60);
  merged.MergeFrom(shard4.Resample(60));
  for (uint64_t id : {uint64_t{4}, uint64_t{9}}) {
    const TemplateSeries* a = merged.Find(id);
    const TemplateSeries* b = batch.Find(id);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->execution_count.size(), b->execution_count.size());
    for (size_t i = 0; i < a->execution_count.size(); ++i) {
      EXPECT_EQ(a->execution_count[i], b->execution_count[i]) << i;
      EXPECT_EQ(a->total_response_ms[i], b->total_response_ms[i]) << i;
      EXPECT_EQ(a->examined_rows[i], b->examined_rows[i]) << i;
    }
  }
  // And a disjoint-template merge into a directly-aggregated store with a
  // partial tail must also line up shape-wise (this was the crash /
  // truncation path when sizing used floor).
  TemplateMetricsStore into(0, 130, 60);
  into.Accumulate(Rec(125'000, 9, 2.0, 3));
  into.MergeFrom(shard4.Resample(60));
  ASSERT_NE(into.Find(4), nullptr);
  EXPECT_DOUBLE_EQ(into.Find(4)->execution_count[2], 10.0);
  EXPECT_DOUBLE_EQ(into.Find(9)->execution_count[2], 1.0);
}

TEST(TemplateMetricsTest, SeriesAreContiguousInFirstTouchOrder) {
  TemplateMetricsStore store(0, 10);
  store.Accumulate(Rec(500, 30, 1, 1));
  store.Accumulate(Rec(500, 10, 1, 1));
  store.Accumulate(Rec(1500, 30, 1, 1));
  const auto& series = store.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].sql_id, 30u);
  EXPECT_EQ(series[1].sql_id, 10u);
  EXPECT_EQ(store.Find(30), &series[0]);
  EXPECT_EQ(store.Find(10), &series[1]);
}

// --------------------------------------------------------- AggregateWindow

TEST(AggregateWindowTest, FoldsTheStoreWindow) {
  LogStore store;
  for (int64_t s = 0; s < 20; ++s) {
    store.Append(Rec(1000 * s + 100, 1, 4.0, 2));
  }
  const TemplateMetricsStore window = AggregateWindow(store, 5, 15);
  const TemplateSeries* series = window.Find(1);
  ASSERT_NE(series, nullptr);
  EXPECT_DOUBLE_EQ(series->execution_count.Sum(), 10.0);
  EXPECT_EQ(window.start_sec(), 5);
  EXPECT_EQ(window.end_sec(), 15);
}

}  // namespace
}  // namespace pinsql
