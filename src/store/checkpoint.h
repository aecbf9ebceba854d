#ifndef PINSQL_STORE_CHECKPOINT_H_
#define PINSQL_STORE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "logstore/log_store.h"
#include "online/online_detector.h"
#include "online/stream_ingestor.h"
#include "store/codec.h"
#include "store/env.h"
#include "store/wal.h"
#include "util/status.h"

namespace pinsql::store {

/// What LoadLatestCheckpoint found in a directory.
struct LoadedCheckpoint {
  /// Whether a checkpoint validated and was adopted, and its counter.
  bool loaded = false;
  uint64_t counter = 0;
  /// Highest counter of any checkpoint file present, valid or not: the
  /// next checkpoint is numbered above it, so it sorts newest and pruning
  /// never prefers a file that is already there.
  uint64_t highest_counter = 0;
  /// Newer files skipped because they could not be read or failed magic,
  /// version, whole-file CRC or decode. The ones that were read are
  /// deleted, so they can never win a later recovery.
  size_t corrupt_skipped = 0;
  /// Newer intact files the decoder refused as not fitting the caller
  /// (FailedPrecondition): skipped and left on disk.
  size_t mismatched_skipped = 0;
};

/// Checkpoint file name for a counter ("ckpt-000042.ckpt"). Counters are
/// monotonic per data dir; the newest valid file wins on recovery.
std::string CheckpointFileName(uint64_t counter);

/// Atomically publishes a checkpoint body: frame it with magic, format
/// version and a whole-file CRC, write to a temp file, fsync, rename into
/// place, fsync the directory. A crash at any point leaves either the
/// complete new file or no trace of it — never a torn checkpoint under its
/// final name. The body's schema belongs to the caller (the fleet's
/// FleetState codec).
Status WriteCheckpoint(Env* env, const std::string& dir, uint64_t counter,
                       std::string_view body);

/// Decodes (and adopts) one checkpoint body. OK adopts it;
/// FailedPrecondition marks an intact checkpoint written for a different
/// owner (e.g. another fleet shape); any other status marks it corrupt.
using CheckpointDecoder = std::function<Status(std::string_view body)>;

/// Loads the newest checkpoint in `dir` that validates (magic, version,
/// whole-file CRC, and `decode` accepting the body), newest counter first.
/// Newer files that fail are skipped and counted; corrupt ones are deleted,
/// mismatched ones kept. `loaded` is false when no file validates. An error
/// only when `dir` cannot be listed.
StatusOr<LoadedCheckpoint> LoadLatestCheckpoint(Env* env,
                                                const std::string& dir,
                                                const CheckpointDecoder& decode);

/// Deletes checkpoint files other than the `keep` newest (by counter).
/// Returns the number deleted. Stray temp files from interrupted writes
/// are removed too.
size_t PruneCheckpoints(Env* env, const std::string& dir, size_t keep);

// ---------------------------------------------------------------------------
// Codecs for the online-level component states a checkpoint body is built
// from (catalog entries use the WAL's template codec, store/wal.h). Each
// Decode* returns false on malformed or truncated input (the reader then
// stays failed); element counts are checked against the bytes left before
// anything is allocated.

/// A decoded element count is plausible when its minimum encoding fits the
/// remaining payload.
bool PlausibleCount(const codec::Reader& r, uint64_t count,
                    size_t min_elem_bytes);

/// A count-prefixed sequence (vector or deque), each element written by
/// `encode(w, element)`.
template <typename Seq, typename EncodeFn>
void EncodeSeq(codec::Writer* w, const Seq& seq, EncodeFn encode) {
  w->U64(seq.size());
  for (const auto& element : seq) encode(w, element);
}

/// Reads what EncodeSeq wrote; `min_elem_bytes` (an element's smallest
/// encoding) bounds the count before anything is allocated.
template <typename Seq, typename DecodeFn>
bool DecodeSeq(codec::Reader* r, Seq* seq, size_t min_elem_bytes,
               DecodeFn decode) {
  uint64_t count = 0;
  if (!r->U64(&count) || !PlausibleCount(*r, count, min_elem_bytes)) {
    return false;
  }
  seq->resize(count);
  for (auto& element : *seq) {
    if (!decode(r, &element)) return false;
  }
  return true;
}

/// A template catalog as (sql_id, entry) pairs.
void EncodeCatalog(
    codec::Writer* w,
    const std::vector<std::pair<uint64_t, TemplateCatalogEntry>>& catalog);
bool DecodeCatalog(
    codec::Reader* r,
    std::vector<std::pair<uint64_t, TemplateCatalogEntry>>* catalog);
void EncodeIngestor(codec::Writer* w, const online::IngestorState& state);
bool DecodeIngestor(codec::Reader* r, online::IngestorState* state);
void EncodeDetector(codec::Writer* w, const online::OnlineDetectorState& state);
bool DecodeDetector(codec::Reader* r, online::OnlineDetectorState* state);
void EncodeTrigger(codec::Writer* w, const online::AnomalyTrigger& trigger);
bool DecodeTrigger(codec::Reader* r, online::AnomalyTrigger* trigger);
/// Reads a size_t counter that travels as u64.
bool DecodeU64Counter(codec::Reader* r, size_t* out);

}  // namespace pinsql::store

#endif  // PINSQL_STORE_CHECKPOINT_H_
