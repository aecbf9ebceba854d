// Self-tests of the benchmark's measurement logic: the tail-percentile
// rule, open-loop due-time accounting against a stalling loopback server,
// the per-second barrier, the report-latency anchor and span self time.
// Exit code = number of failed checks.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("  %-66s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++failures;
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void PercentileRule() {
  std::printf("percentile rule\n");
  TailSummary s = SummarizeTail(Range(1000));
  Check(s.tail_pct == 99.0 && s.tail == 990.0 && s.beyond == 10,
        "n=1000: tail is p99 with 10 samples beyond");
  s = SummarizeTail(Range(2000));
  Check(s.tail_pct == 99.5 && s.tail == 1990.0 && s.beyond == 10,
        "n=2000: tail is p99.5, the rank with exactly 10 beyond");
  s = SummarizeTail(Range(100));
  Check(s.tail_pct == 90.0 && s.tail == 90.0, "n=100: tail is p90");
  s = SummarizeTail(Range(30));
  Check(s.tail == 20.0 && s.beyond == 10 &&
            std::fabs(s.tail_pct - 200.0 / 3.0) < 1e-9,
        "n=30: tail is rank n-10 with its exact percentile");
  s = SummarizeTail(Range(10));
  Check(s.tail_pct == 0.0 && s.tail == 10.0,
        "n=10: no percentile has 10 beyond; flagged, max reported");
  Check(SummarizeTail(Range(101)).p50 == 51.0, "median is nearest-rank");
}

/// A loopback HTTP server answering 202 to each request, stalling before
/// answering request number `stall_at` (0-based) for `stall_ms`.
class StallingServer {
 public:
  StallingServer(int stall_at, int stall_ms, int connections)
      : stall_at_(stall_at), stall_ms_(stall_ms), connections_(connections) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 8);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~StallingServer() {
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }
  StallingServer(const StallingServer&) = delete;
  StallingServer& operator=(const StallingServer&) = delete;
  uint16_t port() const { return port_; }

 private:
  void Serve() {
    std::vector<std::thread> workers;
    for (int c = 0; c < connections_; ++c) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      workers.emplace_back([this, fd] { ServeConn(fd); });
    }
    for (auto& t : workers) t.join();
  }
  void ServeConn(int fd) {
    std::string in;
    char buf[4096];
    while (true) {
      const size_t end = in.find("\r\n\r\n");
      if (end != std::string::npos) {
        in.erase(0, end + 4);  // requests here carry no body
        if (seen_++ == stall_at_) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
        }
        const std::string reply =
            "HTTP/1.1 202 Accepted\r\nContent-Length: 2\r\n\r\n{}";
        ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        continue;
      }
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      in.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
  }

  int stall_at_;
  int stall_ms_;
  int connections_;
  std::atomic<int> seen_{0};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

const WireBuilder kGet = [](const PlannedRequest&, std::string* wire) {
  *wire = "GET / HTTP/1.1\r\n\r\n";
};

void OpenLoopAccounting() {
  std::printf("open-loop due-time accounting\n");
  constexpr int kStallMs = 200;
  StallingServer server(/*stall_at=*/2, kStallMs, /*connections=*/1);
  std::vector<RequestResult> results;
  std::vector<PlannedRequest> plan;
  {
    OpenLoopSender sender(server.port(), 1);
    const int64_t origin = NowNs() + 5'000'000;
    for (int i = 0; i < 10; ++i) {
      plan.push_back({origin + i * 10'000'000LL, 0, 0, i});
    }
    results = sender.Run(plan, kGet);
  }
  bool all_ok = true;
  for (const auto& r : results) all_ok &= r.status == 202;
  Check(all_ok, "every request answered 202");
  const auto latency_ms = [&](int i) {
    return static_cast<double>(results[i].done_ns - results[i].due_ns) / 1e6;
  };
  Check(latency_ms(2) >= kStallMs, "the stalled request is charged its stall");
  // Request k was due (k - 2) * 10 ms after the stalled one, so it waited
  // at least stall - (k - 2) * 10 ms behind it.
  bool charged = true;
  for (int k = 3; k < 10; ++k) {
    charged &= latency_ms(k) >= kStallMs - (k - 2) * 10.0 - 1.0;
  }
  Check(charged, "requests queued behind the stall are charged its delay");
  bool lag_small = true;
  for (const auto& r : results) {
    lag_small &= static_cast<double>(r.sent_ns - r.ready_ns) / 1e6 < 20.0;
  }
  Check(lag_small, "the stall is not charged to the generator's own lag");
  Check(results[3].ready_ns >= results[2].done_ns,
        "a queued request is ready only once the connection frees");
}

void Barrier() {
  std::printf("per-second barrier\n");
  StallingServer server(/*stall_at=*/0, 100, /*connections=*/2);
  std::vector<RequestResult> results;
  {
    OpenLoopSender sender(server.port(), 2);
    const int64_t origin = NowNs() + 5'000'000;
    const std::vector<PlannedRequest> plan = {
        {origin, 0, 0, 0}, {origin + 1'000'000, 0, 1, 0},
        {origin + 2'000'000, 1, 0, 1}};
    results = sender.Run(plan, kGet);
  }
  Check(results[2].sent_ns >= results[0].done_ns &&
            results[2].sent_ns >= results[1].done_ns,
        "no request of second s+1 is sent before second s is answered");
  Check(results[2].done_ns - results[2].due_ns >= 90'000'000,
        "the barrier's wait is charged to the held request");
}

void ReportAnchor() {
  std::printf("report-latency anchor\n");
  SendSchedule s;
  s.origin_ns = 1'000;
  s.first_sec = 100;
  s.ns_per_sim_sec = 1e6;
  s.slots = 4;
  Check(s.DueNs(102, 2) == 1'000 + 2'500'000,
        "slot k of n pushes second s at origin + (s - first + k/n) * period");
  Check(ReportAnchorNs(s, 90, 12) == s.DueNs(102, 0),
        "anchor is the first push of second trigger_sec + delay");
  Check(ReportAnchorNs(s, 90, 12) < s.DueNs(102, 3),
        "anchor precedes the instance's own later push");
}

void ThroughputStaircase() {
  std::printf("throughput staircase\n");
  // A host whose probes pass below step 7 and fail from it on.
  Staircase s(20, 2, 10);
  std::vector<size_t> visited;
  while (!s.done()) {
    visited.push_back(s.level());
    s.Record(s.level() < 7);
  }
  Check(visited.size() == 13 && visited[0] == 2 && visited[1] == 4 &&
            visited[2] == 6 && visited[3] == 8,
        "two steps at a time until the first fail, then 10 counted probes");
  Check(visited[4] == 7 && visited[5] == 6 && visited[6] == 7,
        "one step at a time after the first reversal");
  Check(s.counted() == 10 && std::fabs(s.Estimate() - 6.7) < 1e-9,
        "estimate is the mean step from the reversal on");
  Staircase top(5, 3, 4);
  while (!top.done()) top.Record(true);
  Check(top.Estimate() == 4.0, "a host that passes every step reads the top");
  const std::vector<double> ladder = {100.0, 104.0, 108.16};
  Check(LadderRate(ladder, 1.0) == 104.0 &&
            std::fabs(LadderRate(ladder, 0.5) - 100.0 * std::sqrt(1.04)) <
                1e-9 &&
            LadderRate(ladder, 9.0) == 108.16,
        "fractional steps interpolate geometrically, clamped to the ladder");
}

void SelfTime() {
  std::printf("span self time\n");
  SpanBuffer spans(true);
  const int32_t root = spans.Add("root", 0, 100, -1, 1);
  const int32_t a = spans.Add("a", 10, 40, root, 1);
  spans.Add("b", 20, 30, a, 1);
  spans.Add("c", 35, 60, root, 1);  // overlaps a's tail
  const auto self = spans.SelfNsByName();
  Check(self.at("root") == 50.0, "parent self = duration - union of children");
  Check(self.at("a") == 20.0 && self.at("b") == 10.0 && self.at("c") == 25.0,
        "children's self times");
  SpanBuffer off(false);
  Check(off.Begin("x", -1, 0) == -1 && off.spans().empty(),
        "a disabled buffer records nothing");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileRule();
  perfbench::OpenLoopAccounting();
  perfbench::Barrier();
  perfbench::ReportAnchor();
  perfbench::ThroughputStaircase();
  perfbench::SelfTime();
  std::printf("%d check(s) failed\n", perfbench::failures);
  return perfbench::failures;
}
