#ifndef PINSQL_OBS_TRACE_H_
#define PINSQL_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"

namespace pinsql::obs {

/// One finished span: a named interval on one thread, with optional k/v
/// attributes. Times are steady-clock microseconds relative to the owning
/// recorder's epoch.
struct TraceEvent {
  std::string name;
  /// Dense per-recorder thread index (0 = first thread that recorded).
  int tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Collects spans from any number of threads. Each thread appends finished
/// spans to its own buffer (registered under the recorder mutex on first
/// touch, lock-free afterwards), so recording on the thread-pool hot path
/// never contends. Snapshot/export must only run after the parallel work
/// producing spans has joined — the pool's ParallelFor barrier provides the
/// needed happens-before edge.
///
/// Under PINSQL_DISABLE_OBS every method is a no-op and the recorder holds
/// no events, but the type stays usable so call sites compile unchanged.
class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Appends one finished span to the calling thread's buffer.
  void Record(TraceEvent event);

  /// Microseconds since the recorder epoch (span start times).
  double ElapsedUs() const;

  /// Merges every per-thread buffer, sorted by (start_us, tid).
  std::vector<TraceEvent> Snapshot() const;
  size_t event_count() const;

  /// Chrome about:tracing / Perfetto-compatible document: paste the dump
  /// into chrome://tracing. Complete-phase ("ph":"X") events only.
  Json ToChromeJson() const;

  /// Aggregated per-span-name table: count, total / mean / max duration.
  std::string SummaryTable() const;

 private:
  struct ThreadBuffer {
    int tid = 0;
    std::vector<TraceEvent> events;
  };

  ThreadBuffer* BufferForThisThread();

  const uint64_t id_;  // unique across all recorders ever constructed
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: opens at construction, records into the recorder at
/// destruction. A null recorder (or a PINSQL_DISABLE_OBS build) makes the
/// span a no-op, which is how tracing stays opt-in per Diagnose call.
class Span {
 public:
  Span(TraceRecorder* recorder, std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void AddAttr(std::string_view key, std::string value);

 private:
  TraceRecorder* recorder_;
  TraceEvent event_;
};

/// Deterministic per-stage accounting of one Diagnose() run: wall time plus
/// the stage's key counters (candidates in/out, windows consulted, ...).
/// Unlike TraceRecorder spans this is always populated — it is part of
/// DiagnosisResult and survives PINSQL_DISABLE_OBS builds, so the report's
/// `trace` block never disappears.
struct StageTrace {
  std::string name;
  double seconds = 0.0;
  std::map<std::string, int64_t> counters;

  bool operator==(const StageTrace&) const = default;
};

struct PipelineTrace {
  std::vector<StageTrace> stages;
  double total_seconds = 0.0;

  /// nullptr when no stage has that name.
  const StageTrace* Find(std::string_view name) const;

  Json ToJson() const;

  /// Human-readable per-stage table (the bench --trace output).
  std::string ToTable() const;

  bool operator==(const PipelineTrace&) const = default;
};

}  // namespace pinsql::obs

#endif  // PINSQL_OBS_TRACE_H_
