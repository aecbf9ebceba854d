#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace pinsql::obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetTracksValueAndHighWaterMark) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
  g.Set(7);
  g.Set(3);
  // The gauge reads the last value; the max keeps the high-water mark —
  // what "the pool never exceeded its bound" assertions consume.
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 7);
  g.Set(11);
  EXPECT_EQ(g.max(), 11);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
}

TEST(GaugeTest, RegistrySnapshotAndMacro) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("test.g");
  EXPECT_EQ(&g, &registry.GetGauge("test.g"));
  g.Set(9);
  g.Set(4);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.gauges.count("test.g"), 1u);
  EXPECT_EQ(snap.gauges.at("test.g").value, 4);
  EXPECT_EQ(snap.gauges.at("test.g").max, 9);
  EXPECT_NE(snap.ToString().find("test.g"), std::string::npos);
  registry.Reset();
  EXPECT_EQ(g.max(), 0);

  MetricsRegistry::Global().GetGauge("obs_test.gauge").Reset();
  PINSQL_OBS_GAUGE_SET("obs_test.gauge", 5);
  const int64_t value =
      MetricsRegistry::Global().GetGauge("obs_test.gauge").value();
  EXPECT_EQ(value, kEnabled ? 5 : 0);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // The top of the range must stay in bounds, not index past the array.
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, RecordAccumulates) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 101u);
  const auto buckets = h.BucketCounts();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[Histogram::BucketIndex(100)], 1u);
}

TEST(MetricsRegistryTest, StableReferencesAndSnapshot) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test.a");
  Counter& again = registry.GetCounter("test.a");
  EXPECT_EQ(&a, &again);
  a.Add(3);
  registry.GetHistogram("test.h").Record(5);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.count("test.a"), 1u);
  EXPECT_EQ(snap.counters.at("test.a"), 3u);
  ASSERT_EQ(snap.histograms.count("test.h"), 1u);
  EXPECT_EQ(snap.histograms.at("test.h").count, 1u);
  EXPECT_EQ(snap.histograms.at("test.h").sum, 5u);
  EXPECT_FALSE(snap.ToString().empty());

  registry.Reset();
  EXPECT_EQ(a.value(), 0u);  // reference survived the reset
}

TEST(MetricsMacroTest, CountsIntoGlobalRegistryWhenEnabled) {
  MetricsRegistry::Global().GetCounter("obs_test.macro").Reset();
  PINSQL_OBS_COUNT("obs_test.macro", 2);
  PINSQL_OBS_COUNT("obs_test.macro", 1);
  const uint64_t value =
      MetricsRegistry::Global().GetCounter("obs_test.macro").value();
  if (kEnabled) {
    EXPECT_EQ(value, 3u);
  } else {
    EXPECT_EQ(value, 0u);
  }
}

TEST(TraceRecorderTest, RecordsSpansWithAttrs) {
  TraceRecorder recorder;
  {
    Span outer(&recorder, "outer");
    outer.AddAttr("k", "v");
    { Span inner(&recorder, "inner"); }
  }
  if (!kEnabled) {
    EXPECT_EQ(recorder.event_count(), 0u);
    return;
  }
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: the outer span opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_GE(events[0].dur_us, events[1].dur_us);
  ASSERT_EQ(events[0].attrs.size(), 1u);
  EXPECT_EQ(events[0].attrs[0].first, "k");
  EXPECT_EQ(events[0].attrs[0].second, "v");
}

TEST(TraceRecorderTest, NullRecorderSpansAreNoops) {
  Span span(nullptr, "nothing");
  span.AddAttr("k", "v");  // must not crash
}

TEST(TraceRecorderTest, CollectsFromThreadPoolWorkers) {
  TraceRecorder recorder;
  util::ThreadPool pool(4);
  constexpr size_t kSpans = 100;
  util::ParallelFor(&pool, kSpans, [&](size_t i) {
    Span span(&recorder, i % 2 == 0 ? "even" : "odd");
  });
  // The ParallelFor barrier joined the workers, so the snapshot is safe.
  if (!kEnabled) {
    EXPECT_EQ(recorder.event_count(), 0u);
    return;
  }
  EXPECT_EQ(recorder.event_count(), kSpans);
  size_t even = 0;
  for (const TraceEvent& e : recorder.Snapshot()) {
    if (e.name == "even") ++even;
  }
  EXPECT_EQ(even, kSpans / 2);
}

TEST(TraceRecorderTest, ChromeJsonParsesBack) {
  TraceRecorder recorder;
  {
    Span span(&recorder, "stage");
    span.AddAttr("items", "7");
  }
  const std::string dump = recorder.ToChromeJson().Dump();
  const StatusOr<Json> parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  if (!kEnabled) {
    EXPECT_TRUE(events->AsArray().empty());
    return;
  }
  ASSERT_EQ(events->AsArray().size(), 1u);
  const Json& event = events->AsArray()[0];
  EXPECT_EQ(event.GetStringOr("name", ""), "stage");
  EXPECT_EQ(event.GetStringOr("ph", ""), "X");
  EXPECT_GE(event.GetNumberOr("dur", -1.0), 0.0);
}

TEST(PipelineTraceTest, JsonCarriesEveryStageAndFindLooksUpByName) {
  PipelineTrace trace;
  trace.total_seconds = 1.25;
  StageTrace stage;
  stage.name = "session_estimation";
  stage.seconds = 0.75;
  stage.counters["session_points"] = 1080;
  stage.counters["templates"] = 42;
  trace.stages.push_back(stage);
  trace.stages.push_back(StageTrace{"hsql_scoring", 0.5, {}});

  const Json json = trace.ToJson();
  EXPECT_DOUBLE_EQ(json.GetNumberOr("total_seconds", 0.0), 1.25);
  const Json* stages = json.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->AsArray().size(), 2u);
  const Json& first = stages->AsArray()[0];
  EXPECT_EQ(first.GetStringOr("name", ""), "session_estimation");
  EXPECT_DOUBLE_EQ(first.GetNumberOr("seconds", 0.0), 0.75);
  const Json* counters = first.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumberOr("session_points", 0.0), 1080.0);
  EXPECT_EQ(counters->GetNumberOr("templates", 0.0), 42.0);
  EXPECT_EQ(stages->AsArray()[1].GetStringOr("name", ""), "hsql_scoring");

  const StageTrace* found = trace.Find("session_estimation");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->counters.at("session_points"), 1080);
  EXPECT_EQ(trace.Find("no_such_stage"), nullptr);
}

TEST(PipelineTraceTest, TableRendersEveryStage) {
  PipelineTrace trace;
  trace.total_seconds = 2.0;
  trace.stages.push_back(StageTrace{"alpha", 1.5, {{"items", 3}}});
  trace.stages.push_back(StageTrace{"beta", 0.5, {}});
  const std::string table = trace.ToTable();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("items=3"), std::string::npos);
}

}  // namespace
}  // namespace pinsql::obs
