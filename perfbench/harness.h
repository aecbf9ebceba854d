#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement logic shared by the serving-path benchmark and its
// self-tests: the tail-percentile rule, the open-loop HTTP sender, the
// report-latency anchor, and the in-memory span buffer of the traced run.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

// --- Percentile rule -------------------------------------------------------

/// A latency summary: the median plus the highest percentile that has at
/// least ten samples beyond it: the sample of rank n - 10, with its exact
/// percentile 100 (n - 10) / n. With ten samples or fewer no tail exists:
/// `tail_pct` is 0 and `tail` holds the maximum.
struct TailSummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  size_t beyond = 0;
};

TailSummary SummarizeTail(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 100]).
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// A percentile taken per window of `window_ns` (by each sample's
/// scheduled time) and summarized by the median over windows with at
/// least `min_samples` samples: one stall moves one window, not the
/// run's figure. Returns the number of windows used in `windows`; when no
/// window has enough samples, that is 0 and the result is the percentile
/// of all samples.
double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<int64_t>& times_ns,
                          int64_t window_ns, double p, size_t min_samples,
                          size_t* windows);

// --- Throughput staircase --------------------------------------------------

/// An up-down staircase over a fixed ladder of offered rates (indices
/// 0..steps-1). Near the knee, whether one probe passes is a coin toss a
/// single host hiccup decides, so the highest passing step of one search
/// reads that luck. The staircase moves one step up after a pass and one
/// down after a fail, so it settles around the step that passes half the
/// time, and reports the mean step of many probes. Until its first
/// reversal it moves two steps at a time.
class Staircase {
 public:
  /// Runs until `counted` probes from the first reversal on are recorded,
  /// or `counted + steps` probes in all.
  Staircase(size_t steps, size_t start, size_t counted);

  bool done() const;
  /// Ladder index of the next probe.
  size_t level() const { return level_; }
  void Record(bool passed);
  /// Mean ladder index of the probes from the first reversal on; without
  /// a reversal, the last probe's index.
  double Estimate() const;
  /// Probes from the first reversal on.
  size_t counted() const { return levels_.size(); }

 private:
  size_t steps_;
  size_t level_;
  size_t target_;
  size_t probes_ = 0;
  size_t last_level_ = 0;
  bool last_passed_ = false;
  bool reversed_ = false;
  std::vector<size_t> levels_;
};

/// The rate at fractional ladder index `index`, interpolated geometrically
/// between neighbouring steps.
double LadderRate(const std::vector<double>& ladder, double index);

// --- Open-loop sender ------------------------------------------------------

/// One request of the open loop. `due_ns` is its scheduled send time on
/// the run's monotonic clock; `barrier` orders groups: no request of
/// barrier b is sent while a request of an earlier barrier is unanswered.
struct PlannedRequest {
  int64_t due_ns = 0;
  int64_t barrier = 0;
  /// Identifies the payload to serialize (stream index, second).
  uint32_t stream = 0;
  int64_t sec = 0;
};

/// Builds a request's wire bytes just before it is sent, so a long plan
/// never holds every serialized body at once.
using WireBuilder =
    std::function<void(const PlannedRequest& request, std::string* wire)>;

/// What happened to one planned request.
struct RequestResult {
  int64_t due_ns = 0;
  /// When a connection was free and the barrier open — the earliest the
  /// generator could have sent it.
  int64_t ready_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  int status = 0;  // 0 = transport error
};

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// CPU time of the whole process, of the calling thread, and of a running
/// thread.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();
int64_t ThreadCpuNs(std::thread& thread);

/// Sends `requests` (sorted by due_ns) over `connections` keep-alive
/// connections to 127.0.0.1:port from the calling thread, never waiting
/// for a response before sending the next due request on a free
/// connection. Latency is charged from due_ns, so a stalled server's delay
/// lands on every request queued behind it.
class OpenLoopSender {
 public:
  OpenLoopSender(uint16_t port, int connections);
  ~OpenLoopSender();
  OpenLoopSender(const OpenLoopSender&) = delete;
  OpenLoopSender& operator=(const OpenLoopSender&) = delete;

  bool ok() const { return ok_; }
  /// Runs the plan to completion; results are parallel to `requests`.
  std::vector<RequestResult> Run(const std::vector<PlannedRequest>& requests,
                                 const WireBuilder& build);

 private:
  struct Conn {
    int fd = -1;
    int64_t busy_index = -1;  // request in flight, -1 = idle
    std::string in;
  };
  bool Reconnect(Conn* conn);

  uint16_t port_;
  std::vector<Conn> conns_;
  bool ok_ = true;
};

/// Spins `threads` threads at the lowest scheduling priority (SCHED_IDLE)
/// for its lifetime. They run only on CPUs nothing else wants, and keep
/// those from halting: on a virtual machine, waking a halted CPU can take
/// longer than the loopback round trip being measured.
class IdleSpinners {
 public:
  explicit IdleSpinners(int threads);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// CPU time the spinners have used so far.
  int64_t CpuNs();

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// A blocking keep-alive HTTP/1.1 client connection (the reader side).
class HttpConnection {
 public:
  explicit HttpConnection(uint16_t port);
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends `wire` and reads one response. Returns the status (0 on a
  /// transport error, after which the connection reconnects lazily).
  int RoundTrip(const std::string& wire, std::string* body);

 private:
  uint16_t port_;
  int fd_ = -1;
  std::string in_;
};

// --- Report-latency anchor -------------------------------------------------

/// The send schedule of the open loop: instance slot `slot` of `slots`
/// pushes second `sec` at
///   origin_ns + ((sec - first_sec) + slot / slots) * ns_per_sim_sec,
/// so the agents' pushes spread evenly over each simulated second.
struct SendSchedule {
  int64_t origin_ns = 0;
  int64_t first_sec = 0;
  double ns_per_sim_sec = 1e9;
  size_t slots = 1;

  int64_t DueNs(int64_t sec, size_t slot) const;
};

/// The anchor of one incident's trigger-to-report latency: the scheduled
/// send of the first sample of second trigger_sec + diagnose_delay_sec.
/// The fleet clock is the newest delivered second, so that first push is
/// what makes the diagnosis due; a later slot's push would leave the
/// latency negative whenever the report beats it.
int64_t ReportAnchorNs(const SendSchedule& schedule, int64_t trigger_sec,
                       int64_t diagnose_delay_sec);

// --- Spans -----------------------------------------------------------------

/// One traced interval: a layer call made from the benchmark's code.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the buffer, -1 = root
  uint64_t request_id = 0;
};

/// In-memory span buffer. Disabled buffers record nothing, so the same
/// pipeline code runs traced and untraced.
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span now; returns its index (-1 when disabled).
  int32_t Begin(std::string_view name, int32_t parent, uint64_t request_id);
  void End(int32_t index);
  /// Records a span with known bounds (e.g. a stage time read from a
  /// report, placed inside its parent).
  int32_t Add(std::string_view name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request_id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part of its
  /// interval covered by its children.
  std::map<std::string, double> SelfNsByName() const;
  /// Total duration per span name.
  std::map<std::string, double> TotalNsByName() const;
  /// Chrome trace-event JSON (one complete event per span).
  std::string ChromeTrace() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span on a buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, std::string_view name, int32_t parent,
             uint64_t request_id)
      : buffer_(buffer), index_(buffer->Begin(name, parent, request_id)) {}
  ~ScopedSpan() { buffer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
