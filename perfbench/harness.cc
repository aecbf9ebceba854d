#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace perfbench {

// --- Percentile rule -------------------------------------------------------

namespace {

/// Nearest-rank percentile (p in [0, 100]) of `sorted` (ascending).
double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, p);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<int64_t>& times_ns,
                          int64_t window_ns, double p, size_t min_samples,
                          size_t* windows) {
  std::map<int64_t, std::vector<double>> by_window;
  if (!times_ns.empty()) {
    const int64_t origin = *std::min_element(times_ns.begin(), times_ns.end());
    for (size_t i = 0; i < values.size() && i < times_ns.size(); ++i) {
      by_window[(times_ns[i] - origin) / window_ns].push_back(values[i]);
    }
  }
  std::vector<double> per_window;
  for (auto& [w, v] : by_window) {
    if (v.size() >= min_samples) per_window.push_back(Percentile(v, p));
  }
  if (windows != nullptr) *windows = per_window.size();
  return per_window.empty() ? Percentile(values, p) : Median(per_window);
}

TailSummary SummarizeTail(std::vector<double> values) {
  TailSummary summary;
  summary.n = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.p50 = NearestRank(values, 50.0);
  summary.tail = values.back();
  if (values.size() <= 10) return summary;
  // The highest percentile with ten samples beyond it: rank n - 10.
  const size_t rank = values.size() - 10;
  summary.tail = values[rank - 1];
  summary.tail_pct =
      100.0 * static_cast<double>(rank) / static_cast<double>(values.size());
  summary.beyond = 10;
  return summary;
}

// --- Throughput staircase --------------------------------------------------

Staircase::Staircase(size_t steps, size_t start, size_t counted)
    : steps_(std::max<size_t>(steps, 1)),
      level_(std::min(start, steps_ - 1)),
      target_(counted) {}

bool Staircase::done() const {
  return levels_.size() >= target_ || probes_ >= target_ + steps_;
}

void Staircase::Record(bool passed) {
  if (probes_ > 0 && passed != last_passed_) reversed_ = true;
  if (reversed_) levels_.push_back(level_);
  ++probes_;
  last_passed_ = passed;
  last_level_ = level_;
  const size_t move = reversed_ ? 1 : 2;
  if (passed) {
    level_ = std::min(level_ + move, steps_ - 1);
  } else {
    level_ = level_ >= move ? level_ - move : 0;
  }
}

double Staircase::Estimate() const {
  if (levels_.empty()) return static_cast<double>(last_level_);
  double sum = 0.0;
  for (size_t l : levels_) sum += static_cast<double>(l);
  return sum / static_cast<double>(levels_.size());
}

double LadderRate(const std::vector<double>& ladder, double index) {
  if (ladder.empty()) return 0.0;
  index = std::clamp(index, 0.0, static_cast<double>(ladder.size() - 1));
  const size_t lo = static_cast<size_t>(index);
  if (lo + 1 >= ladder.size()) return ladder.back();
  const double f = index - static_cast<double>(lo);
  return ladder[lo] * std::pow(ladder[lo + 1] / ladder[lo], f);
}

// --- HTTP plumbing ---------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t ThreadCpuNs(std::thread& thread) {
  clockid_t clock;
  if (::pthread_getcpuclockid(thread.native_handle(), &clock) != 0) return 0;
  return ClockNs(clock);
}

namespace {

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool StartsWithNoCase(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(s[i])) !=
        std::tolower(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

/// Parses one complete HTTP response from the front of `buffer`. Returns
/// the number of bytes consumed (0 = incomplete); fills status and body.
size_t ParseResponse(std::string_view buffer, int* status, std::string* body) {
  const size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) return 0;
  if (buffer.size() < 12 || buffer.substr(0, 5) != "HTTP/") {
    *status = 0;
    return buffer.size();  // garbage: consume everything
  }
  *status = std::atoi(std::string(buffer.substr(9, 3)).c_str());
  size_t content_length = 0;
  size_t line = buffer.find("\r\n") + 2;
  while (line < header_end) {
    const size_t eol = buffer.find("\r\n", line);
    const std::string_view header = buffer.substr(line, eol - line);
    if (StartsWithNoCase(header, "content-length:")) {
      content_length = static_cast<size_t>(
          std::strtoull(std::string(header.substr(15)).c_str(), nullptr, 10));
    }
    line = eol + 2;
  }
  const size_t total = header_end + 4 + content_length;
  if (buffer.size() < total) return 0;
  if (body != nullptr) {
    body->assign(buffer.substr(header_end + 4, content_length));
  }
  return total;
}

}  // namespace

OpenLoopSender::OpenLoopSender(uint16_t port, int connections) : port_(port) {
  conns_.resize(static_cast<size_t>(std::max(connections, 1)));
  for (Conn& conn : conns_) ok_ &= Reconnect(&conn);
}

OpenLoopSender::~OpenLoopSender() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

bool OpenLoopSender::Reconnect(Conn* conn) {
  if (conn->fd >= 0) ::close(conn->fd);
  conn->fd = ConnectLoopback(port_);
  conn->in.clear();
  conn->busy_index = -1;
  return conn->fd >= 0;
}

std::vector<RequestResult> OpenLoopSender::Run(
    const std::vector<PlannedRequest>& requests, const WireBuilder& build) {
  std::vector<RequestResult> results(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    results[i].due_ns = requests[i].due_ns;
  }
  std::map<int64_t, int> outstanding;  // barrier -> unanswered requests
  size_t next = 0;
  size_t completed = 0;
  bool next_blocked = false;
  int64_t last_release_ns = NowNs();
  std::string wire;
  std::vector<pollfd> pfds;
  std::vector<size_t> pfd_conn;
  char buf[64 * 1024];

  const auto finish = [&](Conn* conn, int status, int64_t now) {
    RequestResult& r = results[static_cast<size_t>(conn->busy_index)];
    r.done_ns = now;
    r.status = status;
    const int64_t barrier =
        requests[static_cast<size_t>(conn->busy_index)].barrier;
    if (--outstanding[barrier] == 0) outstanding.erase(barrier);
    conn->busy_index = -1;
    ++completed;
    last_release_ns = now;
  };

  while (completed < requests.size()) {
    int64_t now = NowNs();
    // Send every due request that has a free connection and an open
    // barrier.
    while (next < requests.size() && requests[next].due_ns <= now) {
      Conn* free_conn = nullptr;
      for (Conn& conn : conns_) {
        if (conn.busy_index < 0) {
          free_conn = &conn;
          break;
        }
      }
      const bool barrier_open = outstanding.empty() ||
                                outstanding.begin()->first >=
                                    requests[next].barrier;
      if (free_conn == nullptr || !barrier_open) {
        next_blocked = true;
        break;
      }
      RequestResult& r = results[next];
      // A request still unsent when a response freed the loop was gated
      // on that response (a busy connection or the barrier).
      r.ready_ns = std::max(last_release_ns, r.due_ns);
      next_blocked = false;
      wire.clear();
      build(requests[next], &wire);
      if (free_conn->fd < 0 && !Reconnect(free_conn)) {
        r.sent_ns = r.done_ns = NowNs();
        r.status = 0;
        ++completed;
        ++next;
        continue;
      }
      r.sent_ns = NowNs();
      free_conn->busy_index = static_cast<int64_t>(next);
      ++outstanding[requests[next].barrier];
      if (!SendAll(free_conn->fd, wire)) {
        finish(free_conn, 0, NowNs());
        Reconnect(free_conn);
      }
      ++next;
      now = NowNs();
    }
    if (completed >= requests.size()) break;

    pfds.clear();
    pfd_conn.clear();
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c].busy_index >= 0) {
        pfds.push_back({conns_[c].fd, POLLIN, 0});
        pfd_conn.push_back(c);
      }
    }
    // Wake at the next due time unless the next request is gated on a
    // response anyway. While a response is awaited, or the next request is
    // due within a millisecond, poll without sleeping: on a virtual
    // machine a thread's wake-up can take longer than the round trip.
    int64_t wait = 1'000'000'000;
    if (next < requests.size() && !next_blocked) {
      wait = std::max<int64_t>(requests[next].due_ns - now, 0);
    }
    if (!pfds.empty() || wait < 1'000'000) wait = 0;
    const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                           static_cast<long>(wait % 1'000'000'000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (size_t p = 0; p < pfds.size(); ++p) {
      if (pfds[p].revents == 0) continue;
      Conn* conn = &conns_[pfd_conn[p]];
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        finish(conn, 0, NowNs());
        Reconnect(conn);
        continue;
      }
      conn->in.append(buf, static_cast<size_t>(n));
      int status = 0;
      const size_t used = ParseResponse(conn->in, &status, nullptr);
      if (used == 0) continue;
      conn->in.erase(0, used);
      finish(conn, status, NowNs());
    }
  }
  return results;
}

IdleSpinners::IdleSpinners(int threads) {
  for (int t = 0; t < threads; ++t) {
    threads_.emplace_back([this] {
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();  // yield the core's pipeline to a sibling
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

int64_t IdleSpinners::CpuNs() {
  int64_t total = 0;
  for (std::thread& t : threads_) total += ThreadCpuNs(t);
  return total;
}

HttpConnection::HttpConnection(uint16_t port) : port_(port) {}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

int HttpConnection::RoundTrip(const std::string& wire, std::string* body) {
  if (fd_ < 0) {
    fd_ = ConnectLoopback(port_);
    in_.clear();
    if (fd_ < 0) return 0;
  }
  if (!SendAll(fd_, wire)) {
    ::close(fd_);
    fd_ = -1;
    return 0;
  }
  char buf[64 * 1024];
  while (true) {
    int status = 0;
    const size_t used = ParseResponse(in_, &status, body);
    if (used > 0) {
      in_.erase(0, used);
      return status;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd_);
      fd_ = -1;
      return 0;
    }
    in_.append(buf, static_cast<size_t>(n));
  }
}

// --- Report-latency anchor -------------------------------------------------

int64_t SendSchedule::DueNs(int64_t sec, size_t slot) const {
  const double offset =
      static_cast<double>(sec - first_sec) +
      static_cast<double>(slot) / static_cast<double>(std::max<size_t>(slots, 1));
  return origin_ns + static_cast<int64_t>(offset * ns_per_sim_sec);
}

int64_t ReportAnchorNs(const SendSchedule& schedule, int64_t trigger_sec,
                       int64_t diagnose_delay_sec) {
  return schedule.DueNs(trigger_sec + diagnose_delay_sec, 0);
}

// --- Spans -----------------------------------------------------------------

int32_t SpanBuffer::Begin(std::string_view name, int32_t parent,
                          uint64_t request_id) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  return Add(name, now, now, parent, request_id);
}

void SpanBuffer::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

int32_t SpanBuffer::Add(std::string_view name, int64_t start_ns,
                        int64_t end_ns, int32_t parent, uint64_t request_id) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::string(name), start_ns, end_ns, parent,
                        request_id});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, double> SpanBuffer::SelfNsByName() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    intervals.clear();
    for (size_t c : children[i]) {
      const int64_t lo = std::max(spans_[c].start_ns, span.start_ns);
      const int64_t hi = std::min(spans_[c].end_ns, span.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : intervals) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - covered);
  }
  return self;
}

std::map<std::string, double> SpanBuffer::TotalNsByName() const {
  std::map<std::string, double> total;
  for (const Span& span : spans_) {
    total[span.name] += static_cast<double>(span.end_ns - span.start_ns);
  }
  return total;
}

std::string SpanBuffer::ChromeTrace() const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request_id\":%llu}}",
                  i == 0 ? "" : ",\n", span.name.c_str(),
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                  span.parent,
                  static_cast<unsigned long long>(span.request_id));
    out += line;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
