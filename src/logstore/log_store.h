#ifndef PINSQL_LOGSTORE_LOG_STORE_H_
#define PINSQL_LOGSTORE_LOG_STORE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sqltpl/fingerprint.h"
#include "util/arena.h"

namespace pinsql {

/// One collected query-log entry (paper Sec. IV-A): for every SQL query the
/// collector records its template id, arrival timestamp in milliseconds,
/// response time, and the number of examined rows.
struct QueryLogRecord {
  int64_t arrival_ms = 0;    // t(q): when the query reached the database
  double response_ms = 0.0;  // tres(q): response / DB time
  uint64_t sql_id = 0;       // template id
  int64_t examined_rows = 0; // #examined_rows(q)
};

/// Side table mapping SQL_ID -> template metadata so the per-record payload
/// stays small (billions of queries aggregate into tens of thousands of
/// templates in production).
struct TemplateCatalogEntry {
  std::string template_text;
  sqltpl::StatementKind kind = sqltpl::StatementKind::kOther;
  std::vector<std::string> tables;
};

/// Append-only query-log store, the stand-in for Alibaba Cloud LogStore.
///
/// Memory layout (DESIGN.md §13): records live in arena slabs (32-bit
/// handles, bulk slab recycling) and never move once written; ordering is a
/// separate *sorted-offset index* of (arrival_ms, handle) entries. Scans
/// binary-search the index; the lazy re-sort moves 16-byte index entries
/// instead of 32-byte records; retention pops an index prefix and recycles
/// whole slabs once every record inside them expired — no O(n) record
/// memmove per sweep. Completion order != arrival order, so the index is
/// sorted lazily when scanned (stable: ties keep append order). Retention
/// trimming models the paper's 3-day expiry.
class LogStore {
 public:
  LogStore() = default;
  // The mutex is per-instance state, not data: copies/moves transfer the
  // records and catalog and get their own fresh mutex. Self-assignment and
  // self-move are no-ops; a moved-from store is a valid empty store that
  // accepts Append() again.
  LogStore(const LogStore& other);
  LogStore& operator=(const LogStore& other);
  LogStore(LogStore&& other) noexcept;
  LogStore& operator=(LogStore&& other) noexcept;

  /// Appends one completed-query record. Thread-safe: concurrent appenders
  /// serialize on the store mutex, so the online ingestor can append while
  /// another thread snapshots (see SnapshotRange). Batch the appends when
  /// the per-record lock traffic matters.
  void Append(const QueryLogRecord& record);
  /// Appends many records under one lock acquisition.
  void AppendBatch(const std::vector<QueryLogRecord>& records);
  /// Appends several contiguous spans under ONE lock acquisition, in span
  /// order — the ingestor's chunked pump archives a whole pump atomically
  /// (a concurrent SnapshotRange sees all of it or none) without first
  /// concatenating the chunks into a scratch vector.
  void AppendSpans(
      const std::vector<std::pair<const QueryLogRecord*, size_t>>& spans);

  /// Registers template metadata (idempotent).
  void RegisterTemplate(uint64_t sql_id, TemplateCatalogEntry entry);
  /// Returns nullptr when unknown.
  const TemplateCatalogEntry* FindTemplate(uint64_t sql_id) const;
  const std::unordered_map<uint64_t, TemplateCatalogEntry>& catalog() const {
    return catalog_;
  }

  size_t size() const;

  /// Invokes `fn` for every record with arrival_ms in [t0_ms, t1_ms), in
  /// arrival order.
  ///
  /// Concurrency contract: the lazy sort runs under the store mutex, but
  /// the iteration afterwards is lock-free so that the parallel diagnosis
  /// stages can scan one shared store concurrently. Safe with any number
  /// of concurrent *readers*; writers (Append/Trim*) must be quiescent for
  /// the duration of the scan. A reader racing a writer must use
  /// SnapshotRange instead.
  void ScanRange(int64_t t0_ms, int64_t t1_ms,
                 const std::function<void(const QueryLogRecord&)>& fn) const;

  /// Copies the records with arrival_ms in [t0_ms, t1_ms), arrival-ordered.
  /// Same concurrency contract as ScanRange.
  std::vector<QueryLogRecord> Range(int64_t t0_ms, int64_t t1_ms) const;

  /// Epoch read path: sorts (if needed) and copies the records with
  /// arrival_ms in [t0_ms, t1_ms) under a single lock hold, so it is safe
  /// against concurrent Append/AppendBatch/Trim*. The copy is a consistent
  /// point-in-time snapshot: it observes every record appended before the
  /// call started or none of a concurrent append, never a torn state. This
  /// is the read a windowed diagnosis uses while ingest threads keep
  /// appending.
  std::vector<QueryLogRecord> SnapshotRange(int64_t t0_ms,
                                            int64_t t1_ms) const;

  /// Drops every record with arrival_ms < cutoff_ms (retention). Returns
  /// the number of dropped records.
  size_t TrimBefore(int64_t cutoff_ms);

  /// The paper's 3-day log retention, in milliseconds.
  static constexpr int64_t kRetentionMs = 3LL * 24 * 3600 * 1000;

  /// Applies retention at `now_ms`: keeps exactly the half-open window
  /// [now_ms - retention_ms, now_ms + inf), matching the ScanRange
  /// convention — a record arriving exactly at the 3-day edge is the first
  /// *retained* instant, and anything older is dropped. Returns the number
  /// of dropped records.
  size_t TrimExpired(int64_t now_ms, int64_t retention_ms = kRetentionMs);

  /// Replaces the full record set, keeping the template catalog. Used by
  /// the telemetry fault injectors (and tests) to rewrite a store's
  /// records with dropped/duplicated/reordered/skewed copies. The records
  /// may arrive in any order; scans re-sort lazily as usual.
  void ReplaceRecords(std::vector<QueryLogRecord> records);

  /// All records, arrival-ordered. Materialized lazily from the arena into
  /// a contiguous cache (invalidated by any write); same concurrency
  /// contract as ScanRange.
  const std::vector<QueryLogRecord>& SortedRecords() const;

  /// Arena occupancy / compaction counters (DESIGN.md §13).
  util::Arena::Stats arena_stats() const;

 private:
  /// Sorted-offset index entry: the record itself never moves; sorting and
  /// trimming shuffle these 16-byte entries only.
  struct IndexEntry {
    int64_t arrival_ms = 0;
    util::Arena::Handle handle = util::Arena::kNullHandle;
  };

  /// Lazily sorts under a mutex so that concurrent *const* scans (the
  /// parallel diagnosis stages all read one shared LogStore) are safe.
  /// Writes (Append/Trim*/ReplaceRecords) take the same mutex, so a write
  /// never races the sort itself; only the lock-free iteration after
  /// ScanRange's sort requires quiescent writers (see ScanRange).
  void EnsureSorted() const;
  /// Sort step with the mutex already held.
  void EnsureSortedLocked() const;
  /// TrimBefore with the mutex already held.
  size_t TrimBeforeLocked(int64_t cutoff_ms);
  /// Append one record with the mutex already held.
  void AppendLocked(const QueryLogRecord& record);
  /// Live (post-head) index range.
  const IndexEntry* IndexBegin() const { return index_.data() + head_; }
  const IndexEntry* IndexEnd() const { return index_.data() + index_.size(); }
  const QueryLogRecord& Record(const IndexEntry& e) const {
    return *arena_.Get<QueryLogRecord>(e.handle);
  }

  mutable std::mutex sort_mu_;
  mutable util::Arena arena_;
  mutable std::vector<IndexEntry> index_;
  /// Trimmed prefix length: live entries are index_[head_ ..). Dead space
  /// is compacted away once it exceeds the live half.
  size_t head_ = 0;
  mutable bool sorted_ = true;
  static constexpr int64_t kNoRecordMs = std::numeric_limits<int64_t>::max();
  /// Smallest live arrival_ms (kNoRecordMs when empty), kept without
  /// sorting so a retention sweep that cannot drop anything returns before
  /// the lazy sort.
  int64_t min_live_ms_ = kNoRecordMs;
  mutable std::vector<QueryLogRecord> materialized_;
  mutable bool materialized_valid_ = false;
  std::unordered_map<uint64_t, TemplateCatalogEntry> catalog_;
};

}  // namespace pinsql

#endif  // PINSQL_LOGSTORE_LOG_STORE_H_
