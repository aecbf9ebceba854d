#ifndef PINSQL_STORE_WAL_H_
#define PINSQL_STORE_WAL_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "logstore/log_store.h"
#include "online/stream_ingestor.h"
#include "repair/events.h"
#include "store/codec.h"
#include "store/env.h"
#include "util/status.h"

namespace pinsql::store {

/// Largest |seconds| a sample may carry (see online::kMaxEventSec): the
/// scan rejects a frame beyond it.
using online::kMaxEventSec;

/// When the writer fsyncs (see DESIGN.md §11 for the durability matrix).
enum class FsyncPolicy {
  /// fsync after every appended frame batch: a true-returning ingest is
  /// durable against kill -9 *and* power loss.
  kEveryBatch,
  /// fsync every fsync_interval_frames frames: bounded loss on power
  /// failure, no loss on plain process death (the page cache survives).
  kInterval,
  /// Never fsync from the writer (close/rotation still flushes the OS
  /// buffer): durable against process death only.
  kNever,
};

const char* FsyncPolicyName(FsyncPolicy policy);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryBatch;
  /// Frames between fsyncs under FsyncPolicy::kInterval.
  size_t fsync_interval_frames = 64;
  /// A segment is sealed and rotated once it reaches this size.
  uint64_t segment_bytes = 8ull << 20;
  /// Sanity ceiling for one frame; larger length prefixes are corruption.
  uint32_t max_frame_bytes = 64u << 20;
  /// Event-time validation on recovery: within one segment, a frame's
  /// second may precede the segment's first event (or the previous frame)
  /// by at most this grace, and may not exceed the first event by more
  /// than max_segment_span_sec. A CRC-valid frame outside the range is
  /// rejected and counted — a bit pattern that happens to checksum is not
  /// enough to be believed.
  int64_t time_grace_sec = 3600;
  int64_t max_segment_span_sec = 4 * 24 * 3600;
};

/// The event-time range check the scan applies to every timestamped frame
/// within one segment (see WalOptions::time_grace_sec), from the segment's
/// first timestamped frame on. The writer applies the same check before
/// each append and opens a new segment rather than write a frame the scan
/// would reject.
struct SegmentEventClock {
  bool has_t0 = false;
  int64_t t0_sec = 0;
  int64_t prev_hi_sec = 0;

  /// Whether a frame spanning [lo_ms, hi_ms] passes the check.
  bool Admits(int64_t lo_ms, int64_t hi_ms, const WalOptions& options) const;
  /// Records an admitted frame.
  void Note(int64_t lo_ms, int64_t hi_ms);
};

enum class FrameKind : uint8_t {
  kRecordBatch = 1,  // one atomically-journaled QueryLogRecord batch
  kSample = 2,       // one per-second PerfSample (advances the clock)
  kTemplate = 3,     // one template catalog registration
  kRepairEvent = 4,  // one supervised-repair audit event
};

/// One decoded WAL frame (tagged by `kind`; only the matching member is
/// meaningful).
struct WalFrame {
  FrameKind kind = FrameKind::kRecordBatch;
  std::vector<QueryLogRecord> records;
  online::PerfSample sample;
  uint64_t template_id = 0;
  TemplateCatalogEntry template_entry;
  repair::RepairEvent event;
};

/// A position in the WAL: (segment sequence number, byte offset within the
/// segment). Checkpoints record the writer position as their LSN; recovery
/// rebuilds the data of the frames that end at or before it and replays the
/// frames after it.
struct WalPosition {
  uint64_t segment_seq = 0;
  uint64_t offset = 0;

  bool operator==(const WalPosition& other) const {
    return segment_seq == other.segment_seq && offset == other.offset;
  }
  bool operator<(const WalPosition& other) const {
    if (segment_seq != other.segment_seq) {
      return segment_seq < other.segment_seq;
    }
    return offset < other.offset;
  }
};

/// One catalog registration, the element codec WAL template frames and
/// checkpoint catalogs share: id, text, statement kind (validated) and a
/// u32-counted table list, bounded by the bytes left before allocation.
/// Decode returns false on malformed or truncated input.
void EncodeTemplate(codec::Writer* w, uint64_t sql_id,
                    const TemplateCatalogEntry& entry);
bool DecodeTemplate(codec::Reader* r, uint64_t* sql_id,
                    TemplateCatalogEntry* entry);

/// Encodes the payload of one frame (kind byte + body). Exposed so tests
/// can hand-craft frames (e.g. a CRC-valid frame with an out-of-range
/// timestamp) without going through a writer.
std::string EncodeFramePayload(const WalFrame& frame);

/// Wraps an encoded payload with the on-disk frame header
/// [u32 len][u32 crc32c(payload)].
std::string WrapFrame(std::string payload);

/// Decodes one frame payload; ParseError on unknown kind / malformed body.
StatusOr<WalFrame> DecodeFramePayload(std::string_view payload);

struct WalWriterStats {
  uint64_t bytes_written = 0;
  uint64_t frames_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t fsync_failures = 0;
  uint64_t segments_sealed = 0;
  uint64_t append_failures = 0;

  /// Adds another writer's counts (summing over journals or incarnations).
  void Add(const WalWriterStats& other) {
    bytes_written += other.bytes_written;
    frames_appended += other.frames_appended;
    fsyncs += other.fsyncs;
    fsync_failures += other.fsync_failures;
    segments_sealed += other.segments_sealed;
    append_failures += other.append_failures;
  }
};

/// One sealed (rotated, no longer written) segment still on disk.
struct SealedSegment {
  uint64_t seq = 0;
  std::string path;
  /// Largest event time any frame in the segment carries. INT64_MIN when
  /// the segment held only untimestamped frames (templates): no archive
  /// needs it, because a checkpoint carries the catalog.
  int64_t max_event_ms = 0;
  /// Byte size, i.e. the end offset of its last frame.
  uint64_t size = 0;
};

/// Append side of the segment WAL. Single-writer: callers serialize
/// externally (the durable fleet holds the instance's mutex across every
/// append). Append errors from the Env seal the wounded segment and retry
/// the frame once on a fresh one, so a torn write degrades into a
/// recoverable torn segment tail instead of poisoning the stream.
class WalWriter {
 public:
  /// Opens a new segment `wal-<first_seq>.log` in `dir` (which must
  /// exist). Never appends to a pre-existing segment: recovery always
  /// starts a fresh one after the highest sequence it scanned, and opening
  /// truncates any leftover file of the same name (e.g. a torn-header
  /// segment from a crashed incarnation) so stale bytes can never precede
  /// this writer's header.
  static StatusOr<std::unique_ptr<WalWriter>> Open(Env* env, std::string dir,
                                                   const WalOptions& options,
                                                   uint64_t first_seq);

  Status AppendRecordBatch(const std::vector<QueryLogRecord>& records);
  Status AppendSample(const online::PerfSample& sample);
  Status AppendTemplate(uint64_t sql_id, const TemplateCatalogEntry& entry);
  Status AppendRepairEvent(const repair::RepairEvent& event);

  /// Forces an fsync regardless of policy (graceful drain / checkpoint
  /// boundaries).
  Status Sync();

  /// End position of the last appended frame — the LSN a checkpoint taken
  /// now records.
  WalPosition position() const {
    return WalPosition{current_seq_, current_offset_};
  }

  /// Deletes the sealed segments whose sequence is below `first_needed_seq`
  /// (the oldest retained checkpoint's first-needed segment, so a recovery
  /// from any retained checkpoint finds every segment it rebuilds from).
  /// Returns the number of segments deleted.
  size_t DeleteSealedSegments(uint64_t first_needed_seq, Env* env);

  /// Adopts prior-incarnation segments (from a recovery scan) into the
  /// sealed set, so retention keeps deleting segments written before the
  /// last crash. Segments at or above this writer's first sequence are
  /// ignored.
  void AdoptSealed(const std::vector<SealedSegment>& segments);

  const std::vector<SealedSegment>& sealed() const { return sealed_; }
  const WalWriterStats& stats() const { return stats_; }

  /// Flushes and closes the current segment (no further appends).
  Status Close();

 private:
  WalWriter(Env* env, std::string dir, const WalOptions& options);

  Status OpenSegment(uint64_t seq);
  Status AppendFrame(const WalFrame& frame);
  /// `hi_ms` is INT64_MIN for an untimestamped frame.
  Status AppendWrapped(const std::string& wrapped, int64_t lo_ms,
                       int64_t hi_ms);
  Status MaybeSync();
  void SealCurrent();

  Env* env_;
  std::string dir_;
  WalOptions options_;

  std::unique_ptr<WritableFile> file_;
  uint64_t current_seq_ = 0;
  uint64_t current_offset_ = 0;
  int64_t current_max_event_ms_ = 0;
  /// Holds a start once the segment has a timestamped frame.
  SegmentEventClock current_clock_;
  size_t frames_since_sync_ = 0;

  std::vector<SealedSegment> sealed_;
  WalWriterStats stats_;
};

/// Accounting of one recovery scan. Every byte of every segment ends up in
/// exactly one bucket: delivered, skipped (below the start position),
/// truncated torn tail, or discarded after a hard corruption — bounded,
/// counted data loss, never silent.
struct WalScanStats {
  size_t segments_scanned = 0;
  size_t segments_duplicate_seq = 0;
  size_t segments_invalid_header = 0;
  size_t frames_valid = 0;
  /// CRC mismatches / impossible lengths (includes torn tails).
  size_t frames_corrupt = 0;
  /// CRC-valid frames rejected for an out-of-range event time.
  size_t frames_time_rejected = 0;
  /// Frames that decoded but failed payload validation (unknown kind,
  /// malformed body).
  size_t frames_malformed = 0;
  uint64_t torn_tail_bytes_truncated = 0;
  /// Bytes abandoned after a mid-segment corruption or a sequence gap.
  uint64_t bytes_discarded = 0;
  /// The scan stopped before the physical end of the WAL (mid-segment
  /// corruption, time rejection, or a sequence gap).
  bool stopped_early = false;
  bool seq_gap = false;
  size_t records = 0;
  size_t samples = 0;
  size_t templates = 0;
  size_t repair_events = 0;
  /// Highest segment sequence present on disk (valid header), 0 if none.
  uint64_t last_seq = 0;
  /// Every scanned segment with its retention metadata, so a recovered
  /// writer can adopt prior-incarnation segments into the sealed set and
  /// retention keeps deleting them.
  std::vector<SealedSegment> segments;
};

/// Receives one valid frame and the position one past its end.
using WalFrameFn = std::function<void(const WalFrame&, const WalPosition&)>;

/// A WAL directory as read from disk: the segment-named files in name
/// order, each with its bytes or a failed read. LoadWal fills it; ParseWal
/// reads it without touching the Env, so a recovery can load on one thread
/// and parse on others.
struct LoadedWal {
  struct File {
    std::string name;
    bool read_ok = false;
    std::string data;
  };
  std::string dir;
  std::vector<File> files;
};

/// A torn tail the parse found in the newest segment: the bytes of `path`
/// from `size` on are to be cut off.
struct WalTruncation {
  std::string path;
  uint64_t size = 0;
};

/// Scans every segment in `dir` in sequence order, validating headers,
/// frame CRCs and event-time ranges, and invokes `fn` for every valid
/// frame that ends after `start` ({0,0} delivers everything; a start in a
/// segment that is not on disk, or no segment at all, is a gap).
/// A partial or corrupt frame at the tail of a segment is truncated off
/// (the kill -9 case and the torn-write case — the writer re-appends a
/// torn frame to the next segment, so the stream stays contiguous); a
/// corruption with valid bytes after it in the same segment aborts the
/// scan with everything later counted as discarded.
///
/// ScanWal is LoadWal, then ParseWal, then the truncation ParseWal asks
/// for.
Status ScanWal(Env* env, const std::string& dir, const WalOptions& options,
               const WalPosition& start, const WalFrameFn& fn,
               WalScanStats* stats);

/// The load half of ScanWal, and its only Env calls: lists `dir` and reads
/// every segment-named file in name order (ListDir, then one ReadFile
/// each). Fails only when the directory cannot be listed.
Status LoadWal(Env* env, const std::string& dir, LoadedWal* out);

/// The parse half of ScanWal: validates and delivers the frames of a
/// loaded WAL exactly as ScanWal does, and returns the torn-tail
/// truncation the caller applies (TruncateFile) instead of applying it.
std::optional<WalTruncation> ParseWal(const LoadedWal& wal,
                                      const WalOptions& options,
                                      const WalPosition& start,
                                      const WalFrameFn& fn,
                                      WalScanStats* stats);

/// Segment file name for a sequence number ("wal-00000000000000000042.log").
std::string SegmentFileName(uint64_t seq);

}  // namespace pinsql::store

#endif  // PINSQL_STORE_WAL_H_
