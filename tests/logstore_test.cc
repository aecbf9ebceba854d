#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "logstore/log_store.h"

namespace pinsql {
namespace {

QueryLogRecord Rec(int64_t arrival_ms, uint64_t sql_id, double response = 1.0,
                   int64_t rows = 10) {
  QueryLogRecord r;
  r.arrival_ms = arrival_ms;
  r.sql_id = sql_id;
  r.response_ms = response;
  r.examined_rows = rows;
  return r;
}

TEST(LogStoreTest, AppendAndSize) {
  LogStore store;
  EXPECT_EQ(store.size(), 0u);
  store.Append(Rec(10, 1));
  store.Append(Rec(20, 2));
  EXPECT_EQ(store.size(), 2u);
}

TEST(LogStoreTest, OutOfOrderAppendsAreSortedOnScan) {
  // Records arrive in completion order, which differs from arrival order.
  LogStore store;
  store.Append(Rec(30, 3));
  store.Append(Rec(10, 1));
  store.Append(Rec(20, 2));
  const auto& sorted = store.SortedRecords();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].sql_id, 1u);
  EXPECT_EQ(sorted[1].sql_id, 2u);
  EXPECT_EQ(sorted[2].sql_id, 3u);
}

TEST(LogStoreTest, RangeIsHalfOpen) {
  LogStore store;
  for (int64_t t : {10, 20, 30, 40}) {
    store.Append(Rec(t, static_cast<uint64_t>(t)));
  }
  const auto range = store.Range(20, 40);
  ASSERT_EQ(range.size(), 2u);
  EXPECT_EQ(range[0].arrival_ms, 20);
  EXPECT_EQ(range[1].arrival_ms, 30);
}

TEST(LogStoreTest, ScanRangeVisitsInOrder) {
  LogStore store;
  store.Append(Rec(50, 5));
  store.Append(Rec(10, 1));
  std::vector<int64_t> seen;
  store.ScanRange(0, 100,
                  [&](const QueryLogRecord& r) { seen.push_back(r.arrival_ms); });
  EXPECT_EQ(seen, (std::vector<int64_t>{10, 50}));
}

TEST(LogStoreTest, TrimBeforeImplementsRetention) {
  LogStore store;
  for (int64_t t = 0; t < 100; t += 10) {
    store.Append(Rec(t, 1));
  }
  const size_t dropped = store.TrimBefore(35);
  EXPECT_EQ(dropped, 4u);
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(store.SortedRecords().front().arrival_ms, 40);
}

TEST(LogStoreTest, TrimExpiredKeepsRecordExactlyAtRetentionEdge) {
  // The retention window is half-open like ScanRange: [now - 3d, +inf).
  // A record exactly 3 days old is the first retained instant, not the
  // last expired one.
  const int64_t now = 10 * LogStore::kRetentionMs;
  const int64_t edge = now - LogStore::kRetentionMs;
  LogStore store;
  store.Append(Rec(edge - 1, 1));  // one instant too old: expired
  store.Append(Rec(edge, 2));      // exactly at the edge: retained
  store.Append(Rec(edge + 1, 3));
  store.Append(Rec(now, 4));

  EXPECT_EQ(store.TrimExpired(now), 1u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.SortedRecords().front().arrival_ms, edge);
  EXPECT_EQ(store.SortedRecords().front().sql_id, 2u);

  // The survivors stay scannable with the same half-open convention.
  std::vector<uint64_t> seen;
  store.ScanRange(edge, now + 1,
                  [&](const QueryLogRecord& r) { seen.push_back(r.sql_id); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{2, 3, 4}));

  // A second pass at the same instant is a no-op.
  EXPECT_EQ(store.TrimExpired(now), 0u);
}

TEST(LogStoreTest, TrimExpiredHonorsCustomRetention) {
  LogStore store;
  store.Append(Rec(100, 1));
  store.Append(Rec(200, 2));
  EXPECT_EQ(store.TrimExpired(/*now_ms=*/300, /*retention_ms=*/100), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.SortedRecords().front().sql_id, 2u);
}

TEST(LogStoreTest, TrimEverything) {
  LogStore store;
  store.Append(Rec(5, 1));
  EXPECT_EQ(store.TrimBefore(1000), 1u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.TrimBefore(1000), 0u);
}

TEST(LogStoreTest, TemplateCatalog) {
  LogStore store;
  TemplateCatalogEntry entry;
  entry.template_text = "SELECT * FROM t WHERE id = ?";
  entry.kind = sqltpl::StatementKind::kSelect;
  entry.tables = {"t"};
  store.RegisterTemplate(42, entry);
  const TemplateCatalogEntry* found = store.FindTemplate(42);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->template_text, "SELECT * FROM t WHERE id = ?");
  EXPECT_EQ(found->tables, (std::vector<std::string>{"t"}));
  EXPECT_EQ(store.FindTemplate(43), nullptr);
}

TEST(LogStoreTest, RegisterTemplateIsIdempotent) {
  LogStore store;
  TemplateCatalogEntry a;
  a.template_text = "first";
  store.RegisterTemplate(1, a);
  TemplateCatalogEntry b;
  b.template_text = "second";
  store.RegisterTemplate(1, b);  // ignored; first registration wins
  EXPECT_EQ(store.FindTemplate(1)->template_text, "first");
  EXPECT_EQ(store.catalog().size(), 1u);
}

TEST(LogStoreTest, AppendAfterScanKeepsOrderCorrect) {
  LogStore store;
  store.Append(Rec(10, 1));
  store.Append(Rec(30, 3));
  EXPECT_EQ(store.Range(0, 100).size(), 2u);
  store.Append(Rec(20, 2));  // out of order after a sort
  const auto range = store.Range(0, 100);
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[1].sql_id, 2u);
}

// Boundary behaviour: retention trims and scans at exactly a record's
// timestamp, and operations on empty / fully-trimmed stores.

TEST(LogStoreTest, TrimExactlyAtRecordTimestampKeepsIt) {
  LogStore store;
  store.Append(Rec(10, 1));
  store.Append(Rec(20, 2));
  store.Append(Rec(30, 3));
  // TrimBefore drops arrival_ms < cutoff; a record exactly at the cutoff
  // survives (retention is half-open, like Range).
  EXPECT_EQ(store.TrimBefore(20), 1u);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.SortedRecords()[0].arrival_ms, 20);
  // Trimming again at the same cutoff is a no-op.
  EXPECT_EQ(store.TrimBefore(20), 0u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(LogStoreTest, ScanOverEmptyStore) {
  LogStore store;
  size_t visited = 0;
  store.ScanRange(0, 1000, [&](const QueryLogRecord&) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_TRUE(store.Range(0, 1000).empty());
  EXPECT_TRUE(store.SortedRecords().empty());
  EXPECT_EQ(store.TrimBefore(1000), 0u);
}

TEST(LogStoreTest, ScanOverFullyTrimmedStore) {
  LogStore store;
  store.Append(Rec(10, 1));
  store.Append(Rec(20, 2));
  EXPECT_EQ(store.TrimBefore(1000), 2u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.Range(0, 1000).empty());
  // The store keeps working after total retention expiry.
  store.Append(Rec(2000, 3));
  ASSERT_EQ(store.Range(0, 3000).size(), 1u);
  EXPECT_EQ(store.Range(0, 3000)[0].sql_id, 3u);
}

TEST(LogStoreTest, EmptyAndInvertedRanges) {
  LogStore store;
  store.Append(Rec(10, 1));
  store.Append(Rec(20, 2));
  EXPECT_TRUE(store.Range(15, 15).empty());   // empty window
  EXPECT_TRUE(store.Range(20, 10).empty());   // inverted window
  EXPECT_TRUE(store.Range(100, 200).empty()); // past the last record
  EXPECT_TRUE(store.Range(-50, 0).empty());   // before the first record
}

TEST(LogStoreTest, OutOfOrderAppendsInterleavedWithTrims) {
  LogStore store;
  store.Append(Rec(50, 5));
  store.Append(Rec(10, 1));  // out of order
  EXPECT_EQ(store.TrimBefore(20), 1u);  // sorts, then trims the t=10 record
  store.Append(Rec(5, 9));  // arrives late, already older than the cutoff
  store.Append(Rec(60, 6));
  const auto range = store.Range(0, 100);
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].sql_id, 9u);
  EXPECT_EQ(range[1].sql_id, 5u);
  EXPECT_EQ(range[2].sql_id, 6u);
}

TEST(LogStoreTest, ReplaceRecordsKeepsCatalogAndResorts) {
  LogStore store;
  TemplateCatalogEntry entry;
  entry.template_text = "SELECT * FROM t WHERE id = ?";
  store.RegisterTemplate(7, entry);
  store.Append(Rec(10, 1));
  EXPECT_EQ(store.Range(0, 100).size(), 1u);  // force a sort first

  store.ReplaceRecords({Rec(30, 3), Rec(20, 2)});  // unsorted replacement
  const auto range = store.Range(0, 100);
  ASSERT_EQ(range.size(), 2u);
  EXPECT_EQ(range[0].sql_id, 2u);
  EXPECT_EQ(range[1].sql_id, 3u);
  ASSERT_NE(store.FindTemplate(7), nullptr);
  EXPECT_EQ(store.FindTemplate(7)->template_text,
            "SELECT * FROM t WHERE id = ?");

  store.ReplaceRecords({});  // replace with nothing
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.Range(0, 100).empty());
}

TEST(LogStoreTest, SelfCopyAssignmentIsANoOp) {
  LogStore store;
  for (int i = 0; i < 10; ++i) store.Append(Rec(10 - i, 1.0 + i));
  store.RegisterTemplate(7, TemplateCatalogEntry{"SELECT ?", {}, {}});
  // Through a reference so the compiler cannot elide the aliasing call.
  LogStore& alias = store;
  alias = store;
  EXPECT_EQ(store.size(), 10u);
  EXPECT_NE(store.FindTemplate(7), nullptr);
  const auto snap = store.SnapshotRange(0, 100);
  ASSERT_EQ(snap.size(), 10u);
  EXPECT_EQ(snap.front().arrival_ms, 1);
  EXPECT_EQ(snap.back().arrival_ms, 10);
}

TEST(LogStoreTest, SelfMoveAssignmentLosesNothing) {
  LogStore store;
  for (int i = 0; i < 10; ++i) store.Append(Rec(i + 1, 1.0));
  LogStore& alias = store;
  store = std::move(alias);
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.SnapshotRange(0, 100).size(), 10u);
}

TEST(LogStoreTest, MovedFromStoreIsEmptyAndAcceptsAppends) {
  LogStore source;
  for (int i = 0; i < 5; ++i) source.Append(Rec(5 - i, 1.0));  // unsorted
  source.RegisterTemplate(3, TemplateCatalogEntry{"UPDATE ?", {}, {}});
  LogStore dest(std::move(source));
  EXPECT_EQ(dest.size(), 5u);
  EXPECT_NE(dest.FindTemplate(3), nullptr);
  // The moved-from store is a well-defined empty store with a fresh mutex
  // and no stale sorted-flag: appends and scans behave like a new store.
  EXPECT_EQ(source.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.FindTemplate(3), nullptr);
  source.Append(Rec(20, 2.0));
  source.Append(Rec(10, 1.0));  // out of order: must trigger a fresh sort
  const auto snap = source.SnapshotRange(0, 100);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.front().arrival_ms, 10);
  EXPECT_EQ(snap.back().arrival_ms, 20);
  // And the destination kept the source's unsorted state correctly.
  const auto moved = dest.SnapshotRange(0, 100);
  ASSERT_EQ(moved.size(), 5u);
  EXPECT_EQ(moved.front().arrival_ms, 1);
}

TEST(LogStoreTest, MoveAssignedOverStoreReleasesOldRecords) {
  LogStore a;
  for (int i = 0; i < 100; ++i) a.Append(Rec(i + 1, 1.0));
  LogStore b;
  b.Append(Rec(999, 9.0));
  b = std::move(a);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.SnapshotRange(0, 1000).size(), 100u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  a.Append(Rec(1, 1.0));
  EXPECT_EQ(a.size(), 1u);
}

TEST(LogStoreTest, AppendSpansIsOneAtomicBatch) {
  LogStore store;
  const std::vector<QueryLogRecord> first = {Rec(3, 1), Rec(1, 2)};
  const std::vector<QueryLogRecord> second = {Rec(2, 3, 3.0)};
  store.AppendSpans({{first.data(), first.size()},
                     {second.data(), second.size()}});
  const auto snap = store.SnapshotRange(0, 10);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].arrival_ms, 1);
  EXPECT_EQ(snap[1].arrival_ms, 2);
  EXPECT_EQ(snap[2].arrival_ms, 3);
  EXPECT_DOUBLE_EQ(snap[1].response_ms, 3.0);
}

TEST(LogStoreTest, TrimRecyclesArenaSlabs) {
  LogStore store;
  constexpr int kRecords = 100000;
  for (int i = 0; i < kRecords; ++i) store.Append(Rec(i + 1, 1.0));
  const auto before = store.arena_stats();
  EXPECT_GT(before.slabs_in_use, 1u);
  // Expire almost everything: the drained slabs must come back as free
  // capacity (the arena's compaction) rather than stay resident.
  store.TrimBefore(kRecords - 10);
  const auto after = store.arena_stats();
  EXPECT_EQ(store.size(), 11u);
  EXPECT_GT(after.slabs_free, 0u);
  EXPECT_LT(after.live_bytes, before.live_bytes);
  // Refill reuses the recycled slabs instead of growing the arena.
  for (int i = 0; i < kRecords; ++i) store.Append(Rec(kRecords + i, 1.0));
  EXPECT_EQ(store.arena_stats().slabs_allocated, before.slabs_allocated);
}

TEST(LogStoreConcurrencyTest, SnapshotRangeRacesAppendSafely) {
  // The online ingestor appends while a windowed diagnosis snapshots.
  // Every snapshot must be a consistent point-in-time copy: sorted, never
  // torn, and only ever growing between consecutive snapshots.
  LogStore store;
  constexpr int kBatches = 200;
  constexpr int kPerBatch = 25;
  std::atomic<bool> done{false};
  std::thread writer([&]() {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<QueryLogRecord> batch;
      batch.reserve(kPerBatch);
      for (int i = 0; i < kPerBatch; ++i) {
        // Descending arrivals keep the store perpetually unsorted, so
        // snapshots keep racing the lazy sort, not just the copy.
        batch.push_back(
            Rec((kBatches - b) * 1000 + (kPerBatch - i), 1 + b % 7));
      }
      store.AppendBatch(batch);
    }
    done.store(true, std::memory_order_release);
  });
  size_t last_size = 0;
  while (!done.load(std::memory_order_acquire)) {
    const auto snap = store.SnapshotRange(0, 1'000'000'000);
    EXPECT_GE(snap.size(), last_size);
    EXPECT_EQ(snap.size() % kPerBatch, 0u) << "torn batch observed";
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                               [](const QueryLogRecord& a,
                                  const QueryLogRecord& b) {
                                 return a.arrival_ms < b.arrival_ms;
                               }));
    last_size = snap.size();
  }
  writer.join();
  EXPECT_EQ(store.SnapshotRange(0, 1'000'000'000).size(),
            static_cast<size_t>(kBatches * kPerBatch));
}

TEST(LogStoreConcurrencyTest, CopyRacesInFlightLazySort) {
  // Regression: the copy constructor must serialize with the source's lazy
  // sort (both mutate the mutable records_ / sorted_ fields); copying while
  // another thread's ScanRange sorts used to be a data race.
  constexpr int kRecords = 5000;
  for (int round = 0; round < 8; ++round) {
    LogStore store;
    for (int i = 0; i < kRecords; ++i) {
      store.Append(Rec(kRecords - i, 1 + i % 5));  // descending: unsorted
    }
    std::thread sorter([&]() {
      size_t seen = 0;
      store.ScanRange(0, kRecords + 1,
                      [&](const QueryLogRecord&) { ++seen; });
      EXPECT_EQ(seen, static_cast<size_t>(kRecords));
    });
    const LogStore copy(store);
    sorter.join();
    EXPECT_EQ(copy.size(), static_cast<size_t>(kRecords));
    const auto sorted = copy.SnapshotRange(0, kRecords + 1);
    ASSERT_EQ(sorted.size(), static_cast<size_t>(kRecords));
    EXPECT_EQ(sorted.front().arrival_ms, 1);
    EXPECT_EQ(sorted.back().arrival_ms, kRecords);
  }
}

}  // namespace
}  // namespace pinsql
