#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "util/json.h"

namespace pinsql::serve {
namespace {

constexpr char kTenantHeader[] = "X-Pinsql-Tenant";

int64_t RetryAfterSec(int64_t retry_after_ms) {
  return std::max<int64_t>(1, (retry_after_ms + 999) / 1000);
}

/// Reads an integral JSON number within [min, max] (doubles carry 53 exact
/// integer bits — enough for every wire field we accept).
bool GetIntField(const Json& obj, std::string_view key, int64_t min,
                 int64_t max, int64_t* out) {
  const Json* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) return false;
  const double d = v->AsNumber();
  if (!std::isfinite(d) || d != std::floor(d)) return false;
  if (d < static_cast<double>(min) || d > static_cast<double>(max)) {
    return false;
  }
  *out = static_cast<int64_t>(d);
  return true;
}

bool GetFiniteField(const Json& obj, std::string_view key, double fallback,
                    double* out) {
  const Json* v = obj.Find(key);
  if (v == nullptr) {
    *out = fallback;
    return true;
  }
  if (!v->is_number() || !std::isfinite(v->AsNumber())) return false;
  *out = v->AsNumber();
  return true;
}

}  // namespace

int64_t Server::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Server::Server(fleet::FleetService* fleet, const ServerOptions& options)
    : fleet_(fleet), options_(options), admission_(options.admission) {}

Server::~Server() { Stop(); }

bool Server::running() const {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return started_ && !stopped_;
}

Status Server::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::FailedPrecondition("server already started");
  // A scope naming an instance the fleet lacks would answer 202 for batches
  // the fleet then drops uncounted: refuse the configuration instead.
  const std::vector<uint32_t> fleet_ids = fleet_->instance_ids();
  for (const auto& [tenant, quota] : options_.admission.tenants) {
    for (uint32_t id : quota.instances) {
      if (std::find(fleet_ids.begin(), fleet_ids.end(), id) ==
          fleet_ids.end()) {
        return Status::InvalidArgument("tenant " + tenant +
                                       " is scoped to instance " +
                                       std::to_string(id) +
                                       ", which the fleet lacks");
      }
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind() failed: " +
                            std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe2() failed");
  }

  SnapshotFleetStats();
  recovery_ = fleet_->recovery();

  stopping_.store(false);
  io_thread_ = std::thread(&Server::IoLoop, this);
  pump_thread_ = std::thread(&Server::PumpLoop, this);
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  // 1. Event loop: stop accepting, flush open connections, exit. Every
  //    request it answered 202 was admitted before the answer was queued.
  stopping_.store(true);
  Wake();
  if (io_thread_.joinable()) io_thread_.join();
  // 2. Pump: drain every staged batch into the fleet, advance, exit. The
  //    fleet (and its durable journals) is stopped by the owner.
  {
    std::lock_guard<std::mutex> lock(pump_mu_);
    pump_stop_ = true;
  }
  pump_cv_.notify_all();
  if (pump_thread_.joinable()) pump_thread_.join();

  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void Server::Wake() {
  if (wake_fds_[1] < 0) return;
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

// --- Event loop ----------------------------------------------------------

void Server::IoLoop() {
  std::vector<pollfd> pfds;
  int64_t drain_deadline_at = 0;
  while (true) {
    const int64_t now = NowMs();

    // Reap connections closed last turn.
    std::erase_if(conns_,
                  [](const auto& entry) { return entry.second.closed; });

    if (stopping_.load()) {
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      if (drain_deadline_at == 0) {
        drain_deadline_at = now + options_.drain_deadline_ms;
      }
      if (conns_.empty() || now >= drain_deadline_at) {
        for (auto& [fd, conn] : conns_) {
          if (!conn.closed) CloseConn(&conn);
        }
        conns_.clear();
        return;
      }
    }

    pfds.clear();
    if (listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
    }
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      short events = 0;
      if (conn.accepts_bytes()) events |= POLLIN;
      if (conn.out_off < conn.out.size()) events |= POLLOUT;
      pfds.push_back({fd, events, 0});
    }

    ::poll(pfds.data(), pfds.size(), 20);
    const int64_t after = NowMs();

    size_t idx = 0;
    if (listen_fd_ >= 0) {
      if ((pfds[idx].revents & POLLIN) != 0) AcceptPending(after);
      ++idx;
    }
    if ((pfds[idx].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    ++idx;
    for (; idx < pfds.size(); ++idx) {
      auto it = conns_.find(pfds[idx].fd);
      if (it == conns_.end() || it->second.closed) continue;
      Conn* conn = &it->second;
      if ((pfds[idx].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (pfds[idx].revents & POLLIN) == 0) {
        CloseConn(conn);
        continue;
      }
      if ((pfds[idx].revents & POLLOUT) != 0) {
        FlushConn(conn, after);
        if (!conn->closed && conn->out_off >= conn->out.size() &&
            !conn->close_after_write) {
          ProcessParserProgress(conn, after);
        }
      }
      if ((pfds[idx].revents & POLLIN) != 0 && conn->accepts_bytes()) {
        ReadFromConn(conn, after);
      }
    }

    SweepDeadlines(after);
  }
}

void Server::AcceptPending(int64_t now_ms) {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    size_t alive = 0;
    for (const auto& [cfd, conn] : conns_) {
      if (!conn.closed) ++alive;
    }
    if (alive >= options_.max_connections) {
      // Bounded connection table: the flood pays with an immediate close.
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_rejected_table_full;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.socket_send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                   &options_.socket_send_buffer_bytes,
                   sizeof(options_.socket_send_buffer_bytes));
    }
    auto [it, inserted] = conns_.emplace(fd, Conn(options_.http));
    Conn& conn = it->second;
    conn.fd = fd;
    conn.idle_deadline_at = now_ms + options_.idle_deadline_ms;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connections_accepted;
  }
}

void Server::ReadFromConn(Conn* conn, int64_t now_ms) {
  char buf[16 * 1024];
  bool got_data = false;
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      got_data = true;
      if (conn->read_deadline_at == 0) {
        conn->read_deadline_at = now_ms + options_.read_deadline_ms;
      }
      conn->idle_deadline_at = now_ms + options_.idle_deadline_ms;
      const HttpParser::State state =
          conn->parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      // Stop at a request boundary: Feed() ignores bytes once the parser is
      // complete (or failed), so pipelined bytes past this request must stay
      // in the kernel buffer until the parser is Reset.
      if (state == HttpParser::State::kComplete ||
          state == HttpParser::State::kError) {
        break;
      }
      continue;
    }
    if (n == 0) {
      // Peer closed. Mid-request (mid-body disconnect chaos) there is
      // nobody to answer; just reclaim the connection.
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  if (got_data) ProcessParserProgress(conn, now_ms);
}

void Server::ProcessParserProgress(Conn* conn, int64_t now_ms) {
  while (!conn->closed && !conn->close_after_write) {
    HttpParser& parser = conn->parser;
    const HttpParser::State state = parser.state();
    if (state == HttpParser::State::kHeaders) return;  // need more bytes

    if (state == HttpParser::State::kError) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.parse_errors;
      }
      PINSQL_OBS_COUNT("serve.http.parse_errors", 1);
      HttpResponse response =
          ErrorResponse(parser.error_status(), parser.error_reason());
      response.close = true;
      QueueResponse(conn, response, false, now_ms);
      conn->close_after_write = true;
      return;
    }

    const HttpRequest& request = parser.request();
    const bool is_ingest =
        request.method == "POST" && request.Path() == "/v1/ingest";

    // Header-time admission: a denied ingest request is refused before its
    // body is buffered, so floods cost the server only header bytes.
    if (is_ingest && !conn->pre_admit_done) {
      conn->pre_admit_done = true;
      const std::string* tenant = request.FindHeader(kTenantHeader);
      const AdmitDecision decision = admission_.PreAdmit(
          tenant != nullptr ? *tenant : "", request.content_length, now_ms);
      if (decision.outcome != AdmitOutcome::kAdmitted) {
        HttpResponse response;
        switch (decision.outcome) {
          case AdmitOutcome::kUnknownTenant:
            response = ErrorResponse(403, "unknown tenant");
            break;
          case AdmitOutcome::kShed:
            response = ErrorResponse(503, "overloaded: ingest shed",
                                     RetryAfterSec(decision.retry_after_ms));
            break;
          default:
            response = ErrorResponse(429, "tenant byte budget exhausted",
                                     RetryAfterSec(decision.retry_after_ms));
        }
        // The body will not be read; the connection cannot be reused.
        response.close = true;
        QueueResponse(conn, response, false, now_ms);
        conn->close_after_write = true;
        return;
      }
    }

    if (state == HttpParser::State::kHeadersDone) return;  // body pending

    // state == kComplete: answer on this turn — GETs from the caches, an
    // ingest body by decoding and admitting it — so nothing waits in a
    // queue between the read and the response.
    conn->read_deadline_at = 0;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.requests_received;
      if (is_ingest) ++stats_.ingest_requests;
    }
    const bool keep_alive = request.keep_alive && !stopping_.load();
    QueueResponse(conn, HandleRequest(request, now_ms), keep_alive, now_ms);
    if (conn->closed) return;
    // Reset must precede the partial-flush return: the POLLOUT path
    // re-enters this function once the flush drains, and a still-kComplete
    // parser would re-process (and re-answer) the same request.
    parser.Reset();
    conn->pre_admit_done = false;
    if (conn->out_off < conn->out.size()) return;  // resume after flush
  }
}

void Server::QueueResponse(Conn* conn, const HttpResponse& response,
                           bool keep_alive, int64_t now_ms) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.responses_sent;
    if (response.status >= 500) {
      ++stats_.responses_5xx;
    } else if (response.status >= 400) {
      ++stats_.responses_4xx;
    }
  }
  conn->out += SerializeResponse(response, keep_alive);
  if (response.close || !keep_alive) conn->close_after_write = true;
  if (conn->write_deadline_at == 0) {
    conn->write_deadline_at = now_ms + options_.write_deadline_ms;
  }
  FlushConn(conn, now_ms);
}

void Server::FlushConn(Conn* conn, int64_t now_ms) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  conn->out.clear();
  conn->out_off = 0;
  conn->write_deadline_at = 0;
  conn->idle_deadline_at = now_ms + options_.idle_deadline_ms;
  if (conn->close_after_write) CloseConn(conn);
}

void Server::CloseConn(Conn* conn) {
  if (conn->closed) return;
  ::close(conn->fd);
  conn->closed = true;
}

void Server::SweepDeadlines(int64_t now_ms) {
  for (auto& [fd, conn] : conns_) {
    if (conn.closed) continue;
    if (conn.read_deadline_at != 0 && now_ms > conn.read_deadline_at) {
      // Slow-loris: the request never completed. Best-effort 408, close.
      if (conn.out.empty()) {
        HttpResponse timeout = ErrorResponse(408, "request read deadline");
        timeout.close = true;
        const std::string bytes = SerializeResponse(timeout, false);
        [[maybe_unused]] ssize_t n =
            ::send(conn.fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      }
      CloseConn(&conn);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_closed_read_deadline;
      PINSQL_OBS_COUNT("serve.conn.read_deadline_closed", 1);
      continue;
    }
    if (conn.write_deadline_at != 0 && now_ms > conn.write_deadline_at) {
      CloseConn(&conn);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_closed_write_deadline;
      PINSQL_OBS_COUNT("serve.conn.write_deadline_closed", 1);
      continue;
    }
    if (conn.idle_deadline_at != 0 && now_ms > conn.idle_deadline_at &&
        conn.read_deadline_at == 0 && conn.out.empty()) {
      CloseConn(&conn);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_closed_idle;
    }
  }
}

// --- Delivery pump -------------------------------------------------------

void Server::PumpLoop() {
  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::milliseconds(options_.advance_interval_ms);
  int64_t advanced_to = std::numeric_limits<int64_t>::min();
  // The fleet-stats cache has not seen every delivery yet.
  bool stats_stale = false;
  Clock::time_point snapshot_at = Clock::now();
  const auto snapshot = [&] {
    SnapshotFleetStats();
    stats_stale = false;
    snapshot_at = Clock::now();
  };

  const auto deliver_round = [&]() -> bool {
    std::vector<StagedBatch> batches =
        admission_.DequeueFair(256, NowMs());
    if (batches.empty()) return false;
    int64_t max_sec = std::numeric_limits<int64_t>::min();
    for (StagedBatch& batch : batches) {
      max_sec = std::max(max_sec, DeliverBatch(std::move(batch)));
    }
    if (max_sec != std::numeric_limits<int64_t>::min() &&
        max_sec > advanced_to) {
      advanced_to = max_sec;
      fleet::FleetEvents events;
      std::vector<fleet::FleetOutcome> outcomes =
          fleet_->AdvanceTo(max_sec, &events);
      PublishOutcomes(outcomes, events.storms);
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.advanced_to_sec = max_sec;
    }
    stats_stale = true;
    return true;
  };

  while (true) {
    if (deliver_round()) {
      // A snapshot is a consistent cut over every instance, far dearer
      // than a delivery round: take it at most once per interval while
      // batches keep arriving.
      if (Clock::now() - snapshot_at >= interval) snapshot();
      continue;
    }
    std::unique_lock<std::mutex> lock(pump_mu_);
    // Producers notify under pump_mu_ after staging, so a batch staged
    // after the empty dequeue above is seen here or wakes the wait.
    const bool woken = pump_cv_.wait_for(lock, interval, [this] {
      return pump_stop_ || admission_.pending_batches() > 0;
    });
    if (pump_stop_) break;
    lock.unlock();
    // A whole interval without a batch: catch the snapshot up.
    if (!woken && stats_stale) snapshot();
  }
  // Graceful drain: everything admitted is flushed into the fleet (whose
  // durable journals capture it) before the pump exits, and the caches
  // end exact.
  while (deliver_round()) {
  }
  snapshot();
}

int64_t Server::DeliverBatch(StagedBatch batch) {
  size_t records_ok = 0;
  size_t samples_ok = 0;
  int64_t max_sec = std::numeric_limits<int64_t>::min();
  for (const QueryLogRecord& record : batch.records) {
    if (!fleet_->IngestRecord(batch.instance_id, record)) continue;
    ++records_ok;
    if (options_.capture_accepted) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      capture_[batch.instance_id].records.push_back(record);
    }
  }
  for (const online::PerfSample& sample : batch.samples) {
    if (!fleet_->IngestMetrics(batch.instance_id, sample)) continue;
    ++samples_ok;
    max_sec = std::max(max_sec, sample.sec);
    if (options_.capture_accepted) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      auto [it, inserted] = capture_last_sample_sec_.emplace(
          batch.instance_id, std::numeric_limits<int64_t>::min());
      if (sample.sec > it->second) {
        it->second = sample.sec;
        capture_[batch.instance_id].samples.push_back(sample);
      }
      // Non-monotone samples are still ingested (the ring accepts them);
      // the capture keeps the watermark-advancing subsequence replay
      // requires.
    }
  }
  admission_.NoteDelivered(batch.tenant, records_ok, samples_ok);
  PINSQL_OBS_COUNT("serve.pump.records_delivered", records_ok);
  PINSQL_OBS_COUNT("serve.pump.samples_delivered", samples_ok);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches_delivered;
    stats_.records_delivered += records_ok;
    stats_.samples_delivered += samples_ok;
  }
  return max_sec;
}

void Server::SnapshotFleetStats() {
  fleet::FleetStats fresh = fleet_->stats();
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    fleet_stats_cache_ = std::move(fresh);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.fleet_stats_snapshots;
}

void Server::PublishOutcomes(const std::vector<fleet::FleetOutcome>& outcomes,
                             const std::vector<fleet::StormBatch>& storms) {
  if (outcomes.empty() && storms.empty()) return;
  // Render outside cache_mu_: reads never wait on report serialization.
  std::vector<OutcomeEntry> entries;
  entries.reserve(outcomes.size());
  for (const fleet::FleetOutcome& fo : outcomes) {
    const online::AnomalyTrigger& t = fo.outcome.trigger;
    const bool storm_deferred =
        fo.disposition == fleet::FleetOutcome::Disposition::kStormDeferred;
    Json trigger = Json::MakeObject();
    trigger.Set("instance", static_cast<int64_t>(t.instance_id));
    trigger.Set("onset_sec", t.onset_sec);
    trigger.Set("trigger_sec", t.trigger_sec);
    trigger.Set("severity", t.severity);
    trigger.Set("source", t.source);
    trigger.Set("storm_deferred", storm_deferred);
    trigger.Set("storm_batch", static_cast<int64_t>(fo.storm_batch));
    OutcomeEntry entry;
    entry.instance_id = t.instance_id;
    entry.trigger = trigger.Dump();
    // A reports entry is its trigger entry plus the outcome.
    Json report = std::move(trigger);
    report.Set("ok", fo.outcome.ok);
    if (!fo.outcome.error.empty()) report.Set("error", fo.outcome.error);
    if (fo.outcome.ok) {
      Json report_json = fo.outcome.report.ToJson();
      Json repair = Json::MakeObject();
      repair.Set("instance", static_cast<int64_t>(t.instance_id));
      repair.Set("trigger_sec", t.trigger_sec);
      const Json* events = report_json.Find("repair_events");
      repair.Set("events", events != nullptr ? *events : Json::MakeArray());
      entry.repair = repair.Dump();
      report.Set("report", std::move(report_json));
    }
    entry.report = report.Dump();
    entries.push_back(std::move(entry));
  }
  std::vector<std::string> closed;
  for (const fleet::StormBatch& storm : storms) {
    Json s = Json::MakeObject();
    s.Set("id", static_cast<int64_t>(storm.id));
    s.Set("opened_sec", storm.opened_sec);
    s.Set("closed_sec", storm.closed_sec);
    s.Set("members", static_cast<int64_t>(storm.members.size()));
    s.Set("triaged", static_cast<int64_t>(storm.triaged.size()));
    closed.push_back(s.Dump());
  }

  std::lock_guard<std::mutex> lock(cache_mu_);
  for (OutcomeEntry& entry : entries) {
    outcome_cache_.push_back(std::move(entry));
  }
  for (std::string& storm : closed) storm_cache_.push_back(std::move(storm));
  // Evict oldest entries so a long-running server's caches stay bounded;
  // the read endpoints serve newest-first, so recent history survives.
  while (outcome_cache_.size() > options_.max_cached_outcomes) {
    outcome_cache_.pop_front();
  }
  while (storm_cache_.size() > options_.max_cached_storms) {
    storm_cache_.pop_front();
  }
}

// --- Request handling ----------------------------------------------------

HttpResponse Server::HandleRequest(const HttpRequest& request,
                                   int64_t now_ms) {
  const std::string_view path = request.Path();
  if (path == "/v1/ingest") {
    if (request.method != "POST") {
      return ErrorResponse(405, "POST required");
    }
    return HandleIngest(request, now_ms);
  }
  if (request.method != "GET") return ErrorResponse(405, "GET required");
  if (path == "/v1/healthz") return HandleHealthz();
  if (path == "/v1/metricsz") return HandleMetricsz();
  if (path == "/v1/reports") return HandleRead(request, &OutcomeEntry::report);
  if (path == "/v1/triggers") {
    return HandleRead(request, &OutcomeEntry::trigger);
  }
  if (path == "/v1/repairs") return HandleRead(request, &OutcomeEntry::repair);
  return ErrorResponse(404, "unknown endpoint");
}

StatusOr<StagedBatch> Server::ParseIngestBody(const std::string& tenant,
                                              const std::string& body) const {
  auto parsed = Json::Parse(body);
  if (!parsed.ok()) {
    return Status::ParseError("invalid JSON: " + parsed.status().message());
  }
  const Json& root = parsed.value();
  if (!root.is_object()) return Status::ParseError("body must be an object");

  StagedBatch batch;
  batch.tenant = tenant;
  batch.wire_bytes = body.size();

  int64_t instance = 0;
  if (!GetIntField(root, "instance", 0,
                   std::numeric_limits<uint32_t>::max(), &instance)) {
    return Status::ParseError("missing or invalid 'instance'");
  }
  batch.instance_id = static_cast<uint32_t>(instance);

  if (const Json* records = root.Find("records")) {
    if (!records->is_array()) {
      return Status::ParseError("'records' must be an array");
    }
    if (records->AsArray().size() > options_.max_records_per_batch) {
      return Status::ParseError("too many records in one batch");
    }
    batch.records.reserve(records->AsArray().size());
    for (const Json& item : records->AsArray()) {
      if (!item.is_object()) {
        return Status::ParseError("record must be an object");
      }
      QueryLogRecord record;
      int64_t sql_id = 0;
      // 2^53: the largest integer a JSON double carries exactly.
      constexpr int64_t kMaxExact = int64_t{1} << 53;
      constexpr int64_t kMaxMs = int64_t{4'000'000'000'000'000};
      if (!GetIntField(item, "arrival_ms", -kMaxMs, kMaxMs,
                       &record.arrival_ms) ||
          !GetIntField(item, "sql_id", 0, kMaxExact, &sql_id) ||
          !GetIntField(item, "examined_rows", 0, kMaxMs,
                       &record.examined_rows)) {
        return Status::ParseError("invalid record fields");
      }
      if (!GetFiniteField(item, "response_ms", 0.0, &record.response_ms) ||
          record.response_ms < 0.0) {
        return Status::ParseError("invalid record response_ms");
      }
      record.sql_id = static_cast<uint64_t>(sql_id);
      batch.records.push_back(record);
    }
  }

  if (const Json* samples = root.Find("samples")) {
    if (!samples->is_array()) {
      return Status::ParseError("'samples' must be an array");
    }
    if (samples->AsArray().size() > options_.max_samples_per_batch) {
      return Status::ParseError("too many samples in one batch");
    }
    batch.samples.reserve(samples->AsArray().size());
    for (const Json& item : samples->AsArray()) {
      if (!item.is_object()) {
        return Status::ParseError("sample must be an object");
      }
      online::PerfSample sample;
      constexpr int64_t kMaxSec = int64_t{4'000'000'000'000};
      if (!GetIntField(item, "sec", -kMaxSec, kMaxSec, &sample.sec)) {
        return Status::ParseError("invalid sample sec");
      }
      if (!GetFiniteField(item, "active_session", 0.0,
                          &sample.active_session) ||
          !GetFiniteField(item, "cpu_usage", 0.0, &sample.cpu_usage) ||
          !GetFiniteField(item, "iops_usage", 0.0, &sample.iops_usage) ||
          !GetFiniteField(item, "row_lock_waits", 0.0,
                          &sample.row_lock_waits) ||
          !GetFiniteField(item, "mdl_waits", 0.0, &sample.mdl_waits)) {
        return Status::ParseError("invalid sample metric");
      }
      batch.samples.push_back(sample);
    }
  }
  return batch;
}

HttpResponse Server::HandleIngest(const HttpRequest& request,
                                  int64_t now_ms) {
  const std::string* tenant_header = request.FindHeader(kTenantHeader);
  if (tenant_header == nullptr) {
    return ErrorResponse(403, "missing X-Pinsql-Tenant header");
  }
  const std::string& tenant = *tenant_header;
  if (!admission_.KnownTenant(tenant)) {
    return ErrorResponse(403, "unknown tenant");
  }
  auto batch = ParseIngestBody(tenant, request.body);
  if (!batch.ok()) {
    return ErrorResponse(400, batch.status().message());
  }
  const size_t records = batch.value().records.size();
  const size_t samples = batch.value().samples.size();
  const AdmitDecision decision =
      admission_.Enqueue(std::move(batch).value(), now_ms);
  switch (decision.outcome) {
    case AdmitOutcome::kAdmitted: {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.ingest_accepted;
      }
      {
        // Under pump_mu_: the pump checks for pending batches under it
        // before waiting, so this wake-up cannot fall in between.
        std::lock_guard<std::mutex> lock(pump_mu_);
        pump_cv_.notify_one();
      }
      HttpResponse response;
      response.status = 202;
      response.body = "{\"accepted\":true,\"records\":" +
                      std::to_string(records) +
                      ",\"samples\":" + std::to_string(samples) + "}";
      return response;
    }
    case AdmitOutcome::kRateLimited:
      return ErrorResponse(429, "tenant rate limit exceeded",
                           RetryAfterSec(decision.retry_after_ms));
    case AdmitOutcome::kOverQuota:
      return ErrorResponse(429, "tenant staging quota exceeded",
                           RetryAfterSec(decision.retry_after_ms));
    case AdmitOutcome::kShed:
      return ErrorResponse(503, "overloaded: ingest shed",
                           RetryAfterSec(decision.retry_after_ms));
    case AdmitOutcome::kForbiddenInstance:
      return ErrorResponse(403, "instance not owned by tenant");
    case AdmitOutcome::kUnknownTenant:
      return ErrorResponse(403, "unknown tenant");
  }
  return ErrorResponse(500, "unreachable");
}

HttpResponse Server::HandleHealthz() const {
  fleet::FleetStats cached;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    cached = fleet_stats_cache_;
  }
  Json body = Json::MakeObject();
  body.Set("status", "ok");
  body.Set("instances", static_cast<int64_t>(cached.instances));
  body.Set("seconds_processed", cached.seconds_processed);
  body.Set("stopping", stopping_.load());
  HttpResponse response;
  response.body = body.Dump();
  return response;
}

HttpResponse Server::HandleMetricsz() const {
  const auto tenant_stats = admission_.TenantStats();
  fleet::FleetStats cached;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    cached = fleet_stats_cache_;
  }
  ServerStats server_stats = stats();

  Json root = Json::MakeObject();

  Json tenants = Json::MakeObject();
  uint64_t rate_limited = 0, over_quota = 0, shed = 0;
  for (const auto& [name, s] : tenant_stats) {
    Json t = Json::MakeObject();
    t.Set("batches_admitted", static_cast<int64_t>(s.batches_admitted));
    t.Set("records_admitted", static_cast<int64_t>(s.records_admitted));
    t.Set("samples_admitted", static_cast<int64_t>(s.samples_admitted));
    t.Set("bytes_admitted", static_cast<int64_t>(s.bytes_admitted));
    t.Set("records_delivered", static_cast<int64_t>(s.records_delivered));
    t.Set("samples_delivered", static_cast<int64_t>(s.samples_delivered));
    t.Set("dropped_rate_limited",
          static_cast<int64_t>(s.dropped_rate_limited));
    t.Set("dropped_over_quota", static_cast<int64_t>(s.dropped_over_quota));
    t.Set("dropped_shed", static_cast<int64_t>(s.dropped_shed));
    tenants.Set(name, std::move(t));
    rate_limited += s.dropped_rate_limited;
    over_quota += s.dropped_over_quota;
    shed += s.dropped_shed;
  }
  Json admission = Json::MakeObject();
  admission.Set("tenants", std::move(tenants));
  admission.Set("pending_bytes",
                static_cast<int64_t>(admission_.pending_bytes()));
  admission.Set("pending_batches",
                static_cast<int64_t>(admission_.pending_batches()));
  root.Set("admission", std::move(admission));

  // The unified drop ledger: admission-layer drops (this PR) next to the
  // ingest layer's own backpressure/late drops — one place to see every
  // record the service refused, and why.
  Json drops = Json::MakeObject();
  Json admission_drops = Json::MakeObject();
  admission_drops.Set("rate_limited", static_cast<int64_t>(rate_limited));
  admission_drops.Set("over_quota", static_cast<int64_t>(over_quota));
  admission_drops.Set("shed", static_cast<int64_t>(shed));
  drops.Set("admission", std::move(admission_drops));
  Json ingest_drops = Json::MakeObject();
  ingest_drops.Set(
      "backpressure",
      static_cast<int64_t>(cached.ingest.records_dropped_backpressure));
  ingest_drops.Set("late",
                   static_cast<int64_t>(cached.ingest.records_dropped_late));
  ingest_drops.Set(
      "future", static_cast<int64_t>(cached.ingest.records_dropped_future));
  ingest_drops.Set(
      "metric_samples",
      static_cast<int64_t>(cached.ingest.metric_samples_dropped));
  drops.Set("ingest", std::move(ingest_drops));
  root.Set("drops", std::move(drops));

  Json fleet = Json::MakeObject();
  fleet.Set("instances", static_cast<int64_t>(cached.instances));
  fleet.Set("seconds_processed", cached.seconds_processed);
  fleet.Set("records_enqueued",
            static_cast<int64_t>(cached.ingest.records_enqueued));
  fleet.Set("records_folded",
            static_cast<int64_t>(cached.ingest.records_folded));
  fleet.Set("triggers_accepted",
            static_cast<int64_t>(cached.triggers_accepted));
  fleet.Set("diagnoses_ok", static_cast<int64_t>(cached.diagnoses_ok));
  fleet.Set("storm_deferred", static_cast<int64_t>(cached.storm_deferred));
  fleet.Set("pending_journal_records",
            static_cast<int64_t>(cached.pending_journal_records));
  // What the fleet's last recovery rebuilt, replayed and lost.
  Json recovery = Json::MakeObject();
  recovery.Set("attempted", recovery_.attempted);
  recovery.Set("checkpoint_loaded", recovery_.checkpoint_loaded);
  recovery.Set("checkpoints_corrupt_skipped",
               static_cast<int64_t>(recovery_.checkpoints_corrupt_skipped));
  recovery.Set("checkpoints_mismatched_skipped",
               static_cast<int64_t>(recovery_.checkpoints_mismatched_skipped));
  recovery.Set("frames_rebuilt",
               static_cast<int64_t>(recovery_.frames_rebuilt));
  recovery.Set("frames_replayed",
               static_cast<int64_t>(recovery_.frames_replayed));
  recovery.Set("frames_corrupt",
               static_cast<int64_t>(recovery_.frames_corrupt));
  recovery.Set("frames_malformed",
               static_cast<int64_t>(recovery_.frames_malformed));
  recovery.Set("frames_time_rejected",
               static_cast<int64_t>(recovery_.frames_time_rejected));
  recovery.Set("seq_gaps", static_cast<int64_t>(recovery_.seq_gaps));
  recovery.Set("stopped_early", static_cast<int64_t>(recovery_.stopped_early));
  recovery.Set("torn_tail_bytes_truncated",
               static_cast<int64_t>(recovery_.torn_tail_bytes_truncated));
  recovery.Set("recovery_ms", recovery_.recovery_ms);
  recovery.Set("scan_ms", recovery_.scan_ms);
  recovery.Set("replay_ms", recovery_.replay_ms);
  fleet.Set("recovery", std::move(recovery));
  root.Set("fleet", std::move(fleet));

  Json server = Json::MakeObject();
  server.Set("connections_accepted",
             static_cast<int64_t>(server_stats.connections_accepted));
  server.Set("connections_rejected_table_full",
             static_cast<int64_t>(
                 server_stats.connections_rejected_table_full));
  server.Set("connections_closed_read_deadline",
             static_cast<int64_t>(
                 server_stats.connections_closed_read_deadline));
  server.Set("parse_errors", static_cast<int64_t>(server_stats.parse_errors));
  server.Set("requests_received",
             static_cast<int64_t>(server_stats.requests_received));
  server.Set("records_delivered",
             static_cast<int64_t>(server_stats.records_delivered));
  server.Set("fleet_stats_snapshots",
             static_cast<int64_t>(server_stats.fleet_stats_snapshots));
  root.Set("server", std::move(server));

  if constexpr (obs::kEnabled) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    Json counters = Json::MakeObject();
    for (const auto& [name, value] : snapshot.counters) {
      counters.Set(name, static_cast<int64_t>(value));
    }
    Json gauges = Json::MakeObject();
    for (const auto& [name, g] : snapshot.gauges) {
      Json entry = Json::MakeObject();
      entry.Set("value", g.value);
      entry.Set("max", g.max);
      gauges.Set(name, std::move(entry));
    }
    Json obs_json = Json::MakeObject();
    obs_json.Set("counters", std::move(counters));
    obs_json.Set("gauges", std::move(gauges));
    root.Set("obs", std::move(obs_json));
  }

  HttpResponse response;
  response.body = root.Dump();
  return response;
}

namespace {

/// `limit` query parameter shared by the three read endpoints: default 100,
/// clamped to [1, 1000] so no response serializes an unbounded cache. It
/// reads the prefix atoll would (leading space, a sign, digits; no digits
/// reads 0), but a value too large for any integer type clamps like any
/// other instead of being undefined.
size_t ParseLimit(const HttpRequest& request) {
  const std::string param = request.QueryParam("limit");
  if (param.empty()) return 100;
  std::string_view digits = param;
  while (!digits.empty() &&
         std::isspace(static_cast<unsigned char>(digits.front()))) {
    digits.remove_prefix(1);
  }
  bool negative = false;
  if (!digits.empty() && (digits.front() == '+' || digits.front() == '-')) {
    negative = digits.front() == '-';
    digits.remove_prefix(1);
  }
  uint64_t value = 0;  // stays 0 when no digit follows
  if (std::from_chars(digits.data(), digits.data() + digits.size(), value)
          .ec == std::errc::result_out_of_range) {
    value = std::numeric_limits<uint64_t>::max();
  }
  if (negative && value != 0) return 1;
  return static_cast<size_t>(std::clamp<uint64_t>(value, 1, 1000));
}

/// Appends a JSON array of the pre-rendered values `select` picks from
/// `cache` (nullptr skips an entry), newest first, at most `limit`.
template <typename Entry, typename Select>
void AppendNewestFirst(const std::deque<Entry>& cache, size_t limit,
                       Select select, std::string* out) {
  out->push_back('[');
  size_t emitted = 0;
  for (auto it = cache.rbegin(); it != cache.rend() && emitted < limit;
       ++it) {
    const std::string* bytes = select(*it);
    if (bytes == nullptr) continue;
    if (emitted++ > 0) out->push_back(',');
    out->append(*bytes);
  }
  out->push_back(']');
}

}  // namespace

HttpResponse Server::HandleRead(const HttpRequest& request,
                                std::string OutcomeEntry::*field) const {
  const std::string* tenant = request.FindHeader(kTenantHeader);
  if (tenant == nullptr || !admission_.KnownTenant(*tenant)) {
    return ErrorResponse(403, "unknown tenant");
  }
  const std::vector<uint32_t> scope = admission_.TenantInstances(*tenant);
  const size_t limit = ParseLimit(request);
  const auto in_scope = [&](const OutcomeEntry& entry) -> const std::string* {
    const std::string& bytes = entry.*field;
    const bool visible = std::find(scope.begin(), scope.end(),
                                   entry.instance_id) != scope.end();
    return visible && !bytes.empty() ? &bytes : nullptr;
  };
  HttpResponse response;
  std::string& body = response.body;
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (field == &OutcomeEntry::trigger) {
    // Storms are fleet-wide: every tenant sees them.
    body = "{\"storms\":";
    AppendNewestFirst(storm_cache_, limit,
                      [](const std::string& storm) { return &storm; }, &body);
    body += ",\"triggers\":";
  } else {
    body = field == &OutcomeEntry::report ? "{\"reports\":" : "{\"repairs\":";
  }
  AppendNewestFirst(outcome_cache_, limit, in_scope, &body);
  body += '}';
  return response;
}

// --- Introspection -------------------------------------------------------

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::map<std::string, TenantAdmissionStats> Server::tenant_stats() const {
  return admission_.TenantStats();
}

std::map<uint32_t, online::ReplayLog> Server::accepted_streams() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return capture_;
}

}  // namespace pinsql::serve
