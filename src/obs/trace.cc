#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "util/strings.h"

namespace pinsql::obs {

namespace {

uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceRecorder::TraceRecorder()
    : id_(NextRecorderId()), epoch_(std::chrono::steady_clock::now()) {}

double TraceRecorder::ElapsedUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  // Keyed by the recorder's unique id (never reused), so a stale entry for
  // a destroyed recorder can never be looked up again — no ABA hazard.
  thread_local std::unordered_map<uint64_t, ThreadBuffer*> cache;
  const auto it = cache.find(id_);
  if (it != cache.end()) return it->second;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buffer = buffers_.back().get();
  buffer->tid = static_cast<int>(buffers_.size()) - 1;
  cache[id_] = buffer;
  return buffer;
}

void TraceRecorder::Record(TraceEvent event) {
#ifndef PINSQL_DISABLE_OBS
  ThreadBuffer* buffer = BufferForThisThread();
  event.tid = buffer->tid;
  buffer->events.push_back(std::move(event));
#else
  (void)event;
#endif
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      out.insert(out.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.tid < b.tid;
            });
  return out;
}

size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->events.size();
  return n;
}

Json TraceRecorder::ToChromeJson() const {
  Json events = Json::MakeArray();
  for (const TraceEvent& e : Snapshot()) {
    Json obj = Json::MakeObject();
    obj.Set("name", e.name);
    obj.Set("cat", "pinsql");
    obj.Set("ph", "X");
    obj.Set("ts", e.start_us);
    obj.Set("dur", e.dur_us);
    obj.Set("pid", 1);
    obj.Set("tid", e.tid);
    if (!e.attrs.empty()) {
      Json args = Json::MakeObject();
      for (const auto& [key, value] : e.attrs) args.Set(key, value);
      obj.Set("args", std::move(args));
    }
    events.Append(std::move(obj));
  }
  Json doc = Json::MakeObject();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  return doc;
}

std::string TraceRecorder::SummaryTable() const {
  struct Agg {
    size_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& e : Snapshot()) {
    Agg& agg = by_name[e.name];
    ++agg.count;
    agg.total_us += e.dur_us;
    agg.max_us = std::max(agg.max_us, e.dur_us);
  }
  std::string out = StrFormat("%-32s %8s %12s %12s %12s\n", "span", "count",
                              "total(ms)", "mean(ms)", "max(ms)");
  for (const auto& [name, agg] : by_name) {
    out += StrFormat(
        "%-32s %8zu %12.3f %12.3f %12.3f\n", name.c_str(), agg.count,
        agg.total_us / 1000.0,
        agg.total_us / 1000.0 / static_cast<double>(agg.count),
        agg.max_us / 1000.0);
  }
  return out;
}

Span::Span(TraceRecorder* recorder, std::string_view name)
#ifndef PINSQL_DISABLE_OBS
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  event_.name = std::string(name);
  event_.start_us = recorder_->ElapsedUs();
}
#else
    : recorder_(nullptr) {
  (void)recorder;
  (void)name;
}
#endif

Span::~Span() {
  if (recorder_ == nullptr) return;
  event_.dur_us = recorder_->ElapsedUs() - event_.start_us;
  recorder_->Record(std::move(event_));
}

void Span::AddAttr(std::string_view key, std::string value) {
  if (recorder_ == nullptr) return;
  event_.attrs.emplace_back(std::string(key), std::move(value));
}

const StageTrace* PipelineTrace::Find(std::string_view name) const {
  for (const StageTrace& stage : stages) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

Json PipelineTrace::ToJson() const {
  Json arr = Json::MakeArray();
  for (const StageTrace& stage : stages) {
    Json obj = Json::MakeObject();
    obj.Set("name", stage.name);
    obj.Set("seconds", stage.seconds);
    Json counters = Json::MakeObject();
    for (const auto& [key, value] : stage.counters) {
      counters.Set(key, value);
    }
    obj.Set("counters", std::move(counters));
    arr.Append(std::move(obj));
  }
  Json doc = Json::MakeObject();
  doc.Set("total_seconds", total_seconds);
  doc.Set("stages", std::move(arr));
  return doc;
}

std::string PipelineTrace::ToTable() const {
  std::string out =
      StrFormat("%-24s %10s %7s  %s\n", "stage", "time(s)", "share", "counters");
  for (const StageTrace& stage : stages) {
    std::string counters;
    for (const auto& [key, value] : stage.counters) {
      if (!counters.empty()) counters += " ";
      counters += StrFormat("%s=%lld", key.c_str(),
                            static_cast<long long>(value));
    }
    const double share =
        total_seconds > 0.0 ? 100.0 * stage.seconds / total_seconds : 0.0;
    out += StrFormat("%-24s %10.4f %6.1f%%  %s\n", stage.name.c_str(),
                     stage.seconds, share, counters.c_str());
  }
  out += StrFormat("%-24s %10.4f\n", "total", total_seconds);
  return out;
}

}  // namespace pinsql::obs
