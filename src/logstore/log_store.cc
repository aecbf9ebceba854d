#include "logstore/log_store.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace pinsql {

LogStore::LogStore(const LogStore& other) {
  std::lock_guard<std::mutex> lock(other.sort_mu_);
  for (const IndexEntry* e = other.IndexBegin(); e != other.IndexEnd(); ++e) {
    AppendLocked(other.Record(*e));
  }
  sorted_ = other.sorted_;
  catalog_ = other.catalog_;
}

LogStore& LogStore::operator=(const LogStore& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(sort_mu_, other.sort_mu_);
  arena_.Clear();
  index_.clear();
  head_ = 0;
  materialized_valid_ = false;
  min_live_ms_ = kNoRecordMs;
  for (const IndexEntry* e = other.IndexBegin(); e != other.IndexEnd(); ++e) {
    AppendLocked(other.Record(*e));
  }
  sorted_ = other.sorted_;
  catalog_ = other.catalog_;
  return *this;
}

LogStore::LogStore(LogStore&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.sort_mu_);
  arena_ = std::move(other.arena_);
  index_ = std::move(other.index_);
  head_ = other.head_;
  sorted_ = other.sorted_;
  min_live_ms_ = other.min_live_ms_;
  materialized_ = std::move(other.materialized_);
  materialized_valid_ = other.materialized_valid_;
  catalog_ = std::move(other.catalog_);
  // The moved-from store is a well-defined empty store: Append() after the
  // move starts a fresh log instead of invoking unspecified vector state.
  other.index_.clear();
  other.head_ = 0;
  other.sorted_ = true;
  other.min_live_ms_ = kNoRecordMs;
  other.materialized_.clear();
  other.materialized_valid_ = false;
  other.catalog_.clear();
}

LogStore& LogStore::operator=(LogStore&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(sort_mu_, other.sort_mu_);
  arena_ = std::move(other.arena_);
  index_ = std::move(other.index_);
  head_ = other.head_;
  sorted_ = other.sorted_;
  min_live_ms_ = other.min_live_ms_;
  materialized_ = std::move(other.materialized_);
  materialized_valid_ = other.materialized_valid_;
  catalog_ = std::move(other.catalog_);
  other.index_.clear();
  other.head_ = 0;
  other.sorted_ = true;
  other.min_live_ms_ = kNoRecordMs;
  other.materialized_.clear();
  other.materialized_valid_ = false;
  other.catalog_.clear();
  return *this;
}

void LogStore::AppendLocked(const QueryLogRecord& record) {
  if (index_.size() > head_ && record.arrival_ms < index_.back().arrival_ms) {
    sorted_ = false;
  }
  min_live_ms_ = std::min(min_live_ms_, record.arrival_ms);
  index_.push_back(IndexEntry{record.arrival_ms,
                              arena_.Create<QueryLogRecord>(record)});
  materialized_valid_ = false;
}

void LogStore::Append(const QueryLogRecord& record) {
  std::lock_guard<std::mutex> lock(sort_mu_);
  AppendLocked(record);
}

void LogStore::AppendBatch(const std::vector<QueryLogRecord>& records) {
  if (records.empty()) return;
  std::lock_guard<std::mutex> lock(sort_mu_);
  for (const QueryLogRecord& record : records) AppendLocked(record);
}

void LogStore::AppendSpans(
    const std::vector<std::pair<const QueryLogRecord*, size_t>>& spans) {
  std::lock_guard<std::mutex> lock(sort_mu_);
  for (const auto& [data, n] : spans) {
    for (size_t i = 0; i < n; ++i) AppendLocked(data[i]);
  }
}

void LogStore::RegisterTemplate(uint64_t sql_id, TemplateCatalogEntry entry) {
  catalog_.emplace(sql_id, std::move(entry));
}

const TemplateCatalogEntry* LogStore::FindTemplate(uint64_t sql_id) const {
  auto it = catalog_.find(sql_id);
  return it == catalog_.end() ? nullptr : &it->second;
}

size_t LogStore::size() const {
  std::lock_guard<std::mutex> lock(sort_mu_);
  return index_.size() - head_;
}

void LogStore::EnsureSortedLocked() const {
  if (sorted_) return;
  PINSQL_OBS_COUNT("logstore.sort_triggers", 1);
  // Stable: ties on arrival_ms keep append order, the contract every
  // bit-identity suite leans on. Only the 16-byte index entries move; the
  // records stay pinned in their slabs.
  std::stable_sort(index_.begin() + static_cast<ptrdiff_t>(head_),
                   index_.end(),
                   [](const IndexEntry& a, const IndexEntry& b) {
                     return a.arrival_ms < b.arrival_ms;
                   });
  sorted_ = true;
}

void LogStore::EnsureSorted() const {
  std::lock_guard<std::mutex> lock(sort_mu_);
  EnsureSortedLocked();
}

void LogStore::ScanRange(
    int64_t t0_ms, int64_t t1_ms,
    const std::function<void(const QueryLogRecord&)>& fn) const {
  EnsureSorted();
  const IndexEntry* lo =
      std::lower_bound(IndexBegin(), IndexEnd(), t0_ms,
                       [](const IndexEntry& e, int64_t t) {
                         return e.arrival_ms < t;
                       });
  size_t scanned = 0;
  for (const IndexEntry* e = lo; e != IndexEnd() && e->arrival_ms < t1_ms;
       ++e) {
    fn(Record(*e));
    ++scanned;
  }
  PINSQL_OBS_COUNT("logstore.scans", 1);
  PINSQL_OBS_COUNT("logstore.records_scanned", scanned);
}

std::vector<QueryLogRecord> LogStore::Range(int64_t t0_ms,
                                            int64_t t1_ms) const {
  std::vector<QueryLogRecord> out;
  ScanRange(t0_ms, t1_ms,
            [&out](const QueryLogRecord& r) { out.push_back(r); });
  return out;
}

std::vector<QueryLogRecord> LogStore::SnapshotRange(int64_t t0_ms,
                                                    int64_t t1_ms) const {
  std::lock_guard<std::mutex> lock(sort_mu_);
  EnsureSortedLocked();
  const IndexEntry* lo =
      std::lower_bound(IndexBegin(), IndexEnd(), t0_ms,
                       [](const IndexEntry& e, int64_t t) {
                         return e.arrival_ms < t;
                       });
  const IndexEntry* hi =
      std::lower_bound(lo, IndexEnd(), t1_ms,
                       [](const IndexEntry& e, int64_t t) {
                         return e.arrival_ms < t;
                       });
  PINSQL_OBS_COUNT("logstore.snapshots", 1);
  PINSQL_OBS_COUNT("logstore.records_snapshotted",
                   static_cast<uint64_t>(hi - lo));
  std::vector<QueryLogRecord> out;
  out.reserve(static_cast<size_t>(hi - lo));
  for (const IndexEntry* e = lo; e != hi; ++e) out.push_back(Record(*e));
  return out;
}

size_t LogStore::TrimBeforeLocked(int64_t cutoff_ms) {
  // A sweep that cannot drop anything must not pay for the lazy sort.
  if (min_live_ms_ >= cutoff_ms) return 0;
  EnsureSortedLocked();
  const IndexEntry* lo =
      std::lower_bound(IndexBegin(), IndexEnd(), cutoff_ms,
                       [](const IndexEntry& e, int64_t t) {
                         return e.arrival_ms < t;
                       });
  const size_t dropped = static_cast<size_t>(lo - IndexBegin());
  if (dropped == 0) return 0;
  for (const IndexEntry* e = IndexBegin(); e != lo; ++e) {
    // Releasing every record in a slab recycles the whole slab; expiry
    // walks arrival order, so slabs drain roughly front-to-back.
    arena_.Release(e->handle, sizeof(QueryLogRecord));
  }
  head_ += dropped;
  min_live_ms_ =
      IndexBegin() != IndexEnd() ? IndexBegin()->arrival_ms : kNoRecordMs;
  // Compact the index once the dead prefix outweighs the live tail, so trim
  // cost stays amortized O(1) per record instead of O(n) per sweep.
  if (head_ >= index_.size() - head_) {
    index_.erase(index_.begin(), index_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
  materialized_valid_ = false;
  PINSQL_OBS_COUNT("logstore.records_trimmed", dropped);
  return dropped;
}

size_t LogStore::TrimBefore(int64_t cutoff_ms) {
  std::lock_guard<std::mutex> lock(sort_mu_);
  return TrimBeforeLocked(cutoff_ms);
}

size_t LogStore::TrimExpired(int64_t now_ms, int64_t retention_ms) {
  PINSQL_OBS_COUNT("logstore.retention_trims", 1);
  return TrimBefore(now_ms - retention_ms);
}

void LogStore::ReplaceRecords(std::vector<QueryLogRecord> records) {
  std::lock_guard<std::mutex> lock(sort_mu_);
  arena_.Clear();
  index_.clear();
  head_ = 0;
  materialized_valid_ = false;
  sorted_ = true;
  min_live_ms_ = kNoRecordMs;
  for (const QueryLogRecord& record : records) AppendLocked(record);
}

const std::vector<QueryLogRecord>& LogStore::SortedRecords() const {
  std::lock_guard<std::mutex> lock(sort_mu_);
  EnsureSortedLocked();
  if (!materialized_valid_) {
    materialized_.clear();
    materialized_.reserve(index_.size() - head_);
    for (const IndexEntry* e = IndexBegin(); e != IndexEnd(); ++e) {
      materialized_.push_back(Record(*e));
    }
    materialized_valid_ = true;
  }
  return materialized_;
}

util::Arena::Stats LogStore::arena_stats() const {
  std::lock_guard<std::mutex> lock(sort_mu_);
  return arena_.stats();
}

}  // namespace pinsql
