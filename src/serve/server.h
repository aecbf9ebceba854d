#ifndef PINSQL_SERVE_SERVER_H_
#define PINSQL_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet_service.h"
#include "online/replay.h"
#include "serve/admission.h"
#include "serve/http.h"
#include "util/status.h"

namespace pinsql::serve {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; the bound port is port() after Start().
  uint16_t port = 0;
  /// Bounded connection table: accepts past this are closed immediately
  /// (and counted), so a connection flood cannot exhaust fds or memory.
  size_t max_connections = 256;
  HttpLimits http;
  AdmissionOptions admission;
  /// A request must arrive completely within this window of its first
  /// byte; slow-loris connections are reaped with a best-effort 408.
  int64_t read_deadline_ms = 5000;
  /// A written response must drain within this window; slow readers are
  /// disconnected rather than allowed to pin buffers.
  int64_t write_deadline_ms = 5000;
  /// Keep-alive connections idle longer than this are closed.
  int64_t idle_deadline_ms = 30'000;
  /// Fleet-stats snapshot cadence: while batches keep arriving the pump
  /// snapshots FleetService::stats() for /v1/healthz and /v1/metricsz at
  /// most once per interval, and once more after an interval without a
  /// batch. Deliveries themselves are never delayed by it.
  int64_t advance_interval_ms = 10;
  /// Budget for the graceful drain of open connections on Stop().
  int64_t drain_deadline_ms = 1000;
  /// Per-request body shape bounds (beyond the byte limits in `http`).
  size_t max_records_per_batch = 65'536;
  size_t max_samples_per_batch = 4096;
  /// Bounds on the read-endpoint caches (reports/triggers/repairs serve
  /// from these); the oldest entries are evicted so a long-running server's
  /// memory stays bounded.
  size_t max_cached_outcomes = 1024;
  size_t max_cached_storms = 512;
  /// SO_SNDBUF for accepted sockets; 0 keeps the OS default. Tests use
  /// tiny values to exercise the partial-flush (POLLOUT resume) paths.
  int socket_send_buffer_bytes = 0;
  /// Record the per-instance accepted stream (records + watermark-
  /// advancing samples) so tests/benches can replay it and verify the
  /// deterministic-ingest fingerprint. Costs memory; off by default.
  bool capture_accepted = false;
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected_table_full = 0;
  uint64_t connections_closed_read_deadline = 0;
  uint64_t connections_closed_write_deadline = 0;
  uint64_t connections_closed_idle = 0;
  uint64_t parse_errors = 0;
  uint64_t requests_received = 0;
  uint64_t responses_sent = 0;
  uint64_t responses_4xx = 0;
  uint64_t responses_5xx = 0;
  uint64_t ingest_requests = 0;
  uint64_t ingest_accepted = 0;
  uint64_t batches_delivered = 0;
  uint64_t records_delivered = 0;
  uint64_t samples_delivered = 0;
  int64_t advanced_to_sec = 0;
  /// FleetService::stats() snapshots taken for the read caches.
  uint64_t fleet_stats_snapshots = 0;
};

/// HTTP/JSON front door for a FleetService: tenant-scoped ingest behind
/// the admission controller, plus report/trigger/repair/health/metrics
/// endpoints that stay responsive during ingest floods.
///
/// Architecture (see DESIGN.md §12): two threads. One poll()-based event
/// loop owns every socket and answers each request on the turn that
/// completes it: GET endpoints from caches, POST /v1/ingest by pre-admitting
/// at header time (byte quota + shed, before the body is read), then
/// decoding the body and admitting it into the admission controller's
/// per-tenant queues. A single pump thread delivers those into the fleet by
/// weighted-fair dequeue — so the order records enter the deterministic
/// ingest boundary is a single serialized stream, and replaying the
/// accepted set is bit-reproducible.
class Server {
 public:
  /// The server does not own the fleet; callers stop the fleet (flushing
  /// its journals) after Server::Stop() has drained the staging queues.
  Server(fleet::FleetService* fleet, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event loop and the delivery pump.
  /// InvalidArgument, before binding, when a tenant is scoped to an
  /// instance the fleet lacks; InvalidArgument / Internal on socket errors.
  Status Start();

  /// Graceful drain in two stages: the event loop stops accepting and
  /// flushes open connections (bounded by drain_deadline_ms); then the pump
  /// delivers every staged batch into the fleet. Idempotent. The fleet
  /// itself keeps running; the owner stops it afterwards.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const;

  ServerStats stats() const;
  std::map<std::string, TenantAdmissionStats> tenant_stats() const;

  /// The captured accepted streams (capture_accepted only); call after
  /// Stop() for a complete set.
  std::map<uint32_t, online::ReplayLog> accepted_streams() const;

  /// Routes one parsed request exactly as the serving path would —
  /// exposed so hardening tests can hammer the handlers without sockets.
  /// now_ms feeds the admission buckets (pass a monotonically
  /// nondecreasing clock).
  HttpResponse HandleRequest(const HttpRequest& request, int64_t now_ms);

  /// Monotonic clock used for deadlines/buckets (steady_clock ms).
  static int64_t NowMs();

 private:
  struct Conn {
    int fd = -1;
    HttpParser parser;
    std::string out;
    size_t out_off = 0;
    int64_t read_deadline_at = 0;   // 0 = no partial request pending
    int64_t write_deadline_at = 0;  // 0 = nothing buffered
    int64_t idle_deadline_at = 0;
    bool close_after_write = false;
    /// fd already closed; entry reaped at the top of the next loop turn.
    bool closed = false;
    /// Header-time admission already ran for the current request.
    bool pre_admit_done = false;

    explicit Conn(const HttpLimits& limits) : parser(limits) {}
    /// Reads pause while the parser holds a complete request whose answer
    /// waits for an earlier response to flush: Feed() would drop the bytes.
    bool accepts_bytes() const {
      return !closed && !close_after_write &&
             parser.state() != HttpParser::State::kComplete;
    }
  };

  void IoLoop();
  void PumpLoop();

  void AcceptPending(int64_t now_ms);
  void ReadFromConn(Conn* conn, int64_t now_ms);
  void ProcessParserProgress(Conn* conn, int64_t now_ms);
  void QueueResponse(Conn* conn, const HttpResponse& response,
                     bool keep_alive, int64_t now_ms);
  void FlushConn(Conn* conn, int64_t now_ms);
  void CloseConn(Conn* conn);
  void SweepDeadlines(int64_t now_ms);
  void Wake();

  /// Rendered read-endpoint entries of one fleet outcome. The pump renders
  /// them once; the read endpoints only filter and concatenate.
  struct OutcomeEntry {
    uint32_t instance_id = 0;
    std::string report;   // /v1/reports entry
    std::string trigger;  // /v1/triggers entry
    std::string repair;   // /v1/repairs entry; empty unless diagnosed ok
  };

  /// Delivers one staged batch into the fleet; returns the max accepted
  /// sample second (INT64_MIN if none).
  int64_t DeliverBatch(StagedBatch batch);
  /// Renders an advance's outcomes and the storms it closed into the read
  /// caches (pump thread only).
  void PublishOutcomes(const std::vector<fleet::FleetOutcome>& outcomes,
                       const std::vector<fleet::StormBatch>& storms);
  void SnapshotFleetStats();

  HttpResponse HandleIngest(const HttpRequest& request, int64_t now_ms);
  HttpResponse HandleHealthz() const;
  HttpResponse HandleMetricsz() const;
  /// /v1/reports, /v1/triggers and /v1/repairs: the tenant's newest cached
  /// outcomes, as their rendered `field`.
  HttpResponse HandleRead(const HttpRequest& request,
                          std::string OutcomeEntry::*field) const;
  StatusOr<StagedBatch> ParseIngestBody(const std::string& tenant,
                                        const std::string& body) const;

  fleet::FleetService* fleet_;
  /// The fleet's recovery accounting, read once by Start() (the fleet is
  /// started first) and constant after it.
  fleet::FleetRecoveryStats recovery_;
  ServerOptions options_;
  AdmissionController admission_;

  mutable std::mutex lifecycle_mu_;
  bool started_ = false;
  bool stopped_ = false;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  std::thread io_thread_;
  std::thread pump_thread_;

  // IO-thread-only state.
  std::map<int, Conn> conns_;

  // Pump control.
  std::mutex pump_mu_;
  std::condition_variable pump_cv_;
  bool pump_stop_ = false;

  // Read-mostly caches the GET endpoints serve from (never touching the
  // fleet's advance mutex on the request path).
  mutable std::mutex cache_mu_;
  fleet::FleetStats fleet_stats_cache_;
  std::deque<OutcomeEntry> outcome_cache_;
  std::deque<std::string> storm_cache_;  // rendered /v1/triggers storms
  std::map<uint32_t, online::ReplayLog> capture_;
  std::map<uint32_t, int64_t> capture_last_sample_sec_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace pinsql::serve

#endif  // PINSQL_SERVE_SERVER_H_
