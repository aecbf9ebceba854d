#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/fleet_replay.h"
#include "fleet/fleet_service.h"
#include "online/replay.h"
#include "serve/server.h"
#include "store/codec.h"
#include "store/crc32c.h"
#include "store/env.h"
#include "store/wal.h"
#include "util/json.h"

namespace pinsql::serve {
namespace {

// --- Minimal blocking HTTP client ----------------------------------------

struct ClientResponse {
  int status = 0;
  std::string headers;
  std::string body;
  bool ok = false;
};

int ConnectTo(uint16_t port) {
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
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one HTTP/1.1 response (Content-Length framing) off `fd`.
/// `carry` holds bytes read past the response (pipelined replies), so
/// calling again with the same carry parses the next response.
ClientResponse ReadResponse(int fd, std::string* carry = nullptr) {
  ClientResponse response;
  std::string local;
  std::string& buffer = carry != nullptr ? *carry : local;
  char chunk[4096];
  size_t header_end;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return response;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    if (buffer.size() > 1 << 20) return response;
  }
  response.headers = buffer.substr(0, header_end);
  response.status = std::atoi(response.headers.c_str() + 9);
  size_t content_length = 0;
  const size_t cl = response.headers.find("Content-Length: ");
  if (cl != std::string::npos) {
    content_length = static_cast<size_t>(
        std::atoll(response.headers.c_str() + cl + 16));
  }
  buffer.erase(0, header_end + 4);
  while (buffer.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return response;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  response.body = buffer.substr(0, content_length);
  buffer.erase(0, content_length);
  response.ok = true;
  return response;
}

std::string WireRequest(const std::string& method, const std::string& target,
                        const std::string& tenant, const std::string& body,
                        bool close) {
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  if (!tenant.empty()) wire += "X-Pinsql-Tenant: " + tenant + "\r\n";
  if (!body.empty()) {
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  if (close) wire += "Connection: close\r\n";
  return wire + "\r\n" + body;
}

/// One request on a fresh connection.
ClientResponse Request(uint16_t port, const std::string& method,
                       const std::string& target, const std::string& tenant,
                       const std::string& body = "") {
  const int fd = ConnectTo(port);
  ClientResponse response;
  if (fd < 0) return response;
  if (SendAll(fd, WireRequest(method, target, tenant, body, true))) {
    response = ReadResponse(fd);
  }
  ::close(fd);
  return response;
}

/// One request on an open keep-alive connection.
ClientResponse RoundTrip(int fd, const std::string& method,
                         const std::string& target, const std::string& tenant,
                         const std::string& body = "") {
  if (!SendAll(fd, WireRequest(method, target, tenant, body, false))) {
    return {};
  }
  return ReadResponse(fd);
}

// --- Synthetic incident (same shape as the online replay tests) ----------

online::PerfSample Sample(int64_t sec, double session) {
  online::PerfSample s;
  s.sec = sec;
  s.active_session = session;
  s.cpu_usage = session * 0.05;
  s.iops_usage = session * 0.1;
  return s;
}

/// 200 s of baseline, then a 120-s flood of sql_id 9 starting
/// `onset_shift` seconds later; baseline resumes after it until `end_sec`
/// (when that is later).
online::ReplayLog SyntheticIncident(int64_t onset_shift = 0,
                                    int64_t end_sec = 0) {
  online::ReplayLog log;
  const int64_t t0 = 100'000;
  const int64_t onset = t0 + 200 + onset_shift;
  const int64_t t1 = std::max(onset + 120, end_sec);
  for (int64_t sec = t0; sec < t1; ++sec) {
    const bool anomalous = sec >= onset && sec < onset + 120;
    log.samples.push_back(Sample(sec, anomalous ? 380.0 : 4.0));
    uint64_t state = static_cast<uint64_t>(sec) * 2654435761ULL + 17;
    const int base = 6;
    const int extra = anomalous ? 40 : 0;
    for (int i = 0; i < base + extra; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      QueryLogRecord r;
      r.sql_id = i < base ? 1 + (state >> 33) % 4 : 9;
      r.arrival_ms = sec * 1000 + static_cast<int64_t>((state >> 13) % 1000);
      r.response_ms = i < base ? 2.0 : 450.0;
      r.examined_rows = i < base ? 20 : 500'000;
      log.records.push_back(r);
    }
  }
  return log;
}

void RegisterCatalog(fleet::FleetService* fleet) {
  for (uint64_t id = 1; id <= 4; ++id) {
    TemplateCatalogEntry entry;
    entry.template_text = "SELECT * FROM t WHERE k = ?";
    entry.kind = sqltpl::StatementKind::kSelect;
    entry.tables = {"t"};
    fleet->RegisterTemplateFleetWide(id, entry);
  }
  TemplateCatalogEntry heavy;
  heavy.template_text = "SELECT * FROM big ORDER BY v";
  heavy.kind = sqltpl::StatementKind::kSelect;
  heavy.tables = {"big"};
  fleet->RegisterTemplateFleetWide(9, heavy);
}

LogStore CatalogStore() {
  LogStore catalog;
  for (uint64_t id = 1; id <= 4; ++id) {
    TemplateCatalogEntry entry;
    entry.template_text = "SELECT * FROM t WHERE k = ?";
    entry.kind = sqltpl::StatementKind::kSelect;
    entry.tables = {"t"};
    catalog.RegisterTemplate(id, entry);
  }
  TemplateCatalogEntry heavy;
  heavy.template_text = "SELECT * FROM big ORDER BY v";
  heavy.kind = sqltpl::StatementKind::kSelect;
  heavy.tables = {"big"};
  catalog.RegisterTemplate(9, heavy);
  return catalog;
}

std::string BatchBody(uint32_t instance,
                      const std::vector<QueryLogRecord>& records,
                      const std::vector<online::PerfSample>& samples) {
  Json root = Json::MakeObject();
  root.Set("instance", static_cast<int64_t>(instance));
  Json recs = Json::MakeArray();
  for (const auto& r : records) {
    Json item = Json::MakeObject();
    item.Set("arrival_ms", r.arrival_ms);
    item.Set("sql_id", static_cast<int64_t>(r.sql_id));
    item.Set("response_ms", r.response_ms);
    item.Set("examined_rows", r.examined_rows);
    recs.Append(std::move(item));
  }
  root.Set("records", std::move(recs));
  Json samps = Json::MakeArray();
  for (const auto& s : samples) {
    Json item = Json::MakeObject();
    item.Set("sec", s.sec);
    item.Set("active_session", s.active_session);
    item.Set("cpu_usage", s.cpu_usage);
    item.Set("iops_usage", s.iops_usage);
    item.Set("row_lock_waits", s.row_lock_waits);
    item.Set("mdl_waits", s.mdl_waits);
    samps.Append(std::move(item));
  }
  root.Set("samples", std::move(samps));
  return root.Dump();
}

/// A quota no test traffic exhausts.
TenantQuota OpenQuota(std::vector<uint32_t> instances) {
  TenantQuota quota;
  quota.records_per_sec = 1e9;
  quota.record_burst = 1e9;
  quota.bytes_per_sec = 1e12;
  quota.byte_burst = 1e12;
  quota.queue_capacity_batches = 100'000;
  quota.instances = std::move(instances);
  return quota;
}

struct Stack {
  std::unique_ptr<fleet::FleetService> fleet;
  std::unique_ptr<Server> server;

  Stack() = default;
  Stack(Stack&&) = default;
  Stack& operator=(Stack&&) = default;
  ~Stack() {
    if (server) server->Stop();
    if (fleet) fleet->Stop();
  }
};

Stack MakeStack(ServerOptions soptions = {},
                std::vector<fleet::FleetInstanceSpec> specs = {{1, 0}},
                const fleet::FleetOptions& foptions = {}) {
  Stack stack;
  stack.fleet =
      std::make_unique<fleet::FleetService>(specs, foptions);
  RegisterCatalog(stack.fleet.get());
  stack.fleet->Start();
  if (soptions.admission.tenants.empty()) {
    std::vector<uint32_t> instances;
    for (const auto& spec : specs) instances.push_back(spec.instance_id);
    soptions.admission.tenants["acme"] = OpenQuota(std::move(instances));
  }
  stack.server = std::make_unique<Server>(stack.fleet.get(), soptions);
  return stack;
}

// --- Tests ---------------------------------------------------------------

TEST(ServeServerTest, HealthAndMetricsEndpoints) {
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();
  ASSERT_GT(port, 0);

  const ClientResponse health = Request(port, "GET", "/v1/healthz", "");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);

  const ClientResponse metrics = Request(port, "GET", "/v1/metricsz", "");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  // The unified drop ledger is present with both layers.
  auto parsed = Json::Parse(metrics.body);
  ASSERT_TRUE(parsed.ok()) << metrics.body.substr(0, 200);
  const Json* drops = parsed.value().Find("drops");
  ASSERT_NE(drops, nullptr);
  EXPECT_NE(drops->Find("admission"), nullptr);
  EXPECT_NE(drops->Find("ingest"), nullptr);
  EXPECT_NE(parsed.value().Find("admission"), nullptr);
  EXPECT_NE(parsed.value().Find("server"), nullptr);

  const ClientResponse missing = Request(port, "GET", "/v1/nope", "");
  EXPECT_EQ(missing.status, 404);
}

TEST(ServeServerTest, MetricszServesTheLastRecovery) {
  // A data dir whose WAL holds a CRC-valid frame dated ten days after the
  // one before it: the recovery scan rejects it and stops early, and a
  // running server shows that loss in /v1/metricsz, next to the ingest
  // layer's drop ledger.
  std::string dir = ::testing::TempDir() + "pinsql_store_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::string wal_dir = dir + "/inst-1";
  ASSERT_TRUE(store::PosixEnv()->CreateDirs(wal_dir).ok());
  std::string segment;
  store::codec::Writer w(&segment);
  segment.append("PSQLWAL1", 8);
  w.U32(1);  // version
  w.U64(1);  // seq
  w.U32(store::Crc32c(segment.data(), segment.size()));
  store::WalFrame sample;
  sample.kind = store::FrameKind::kSample;
  sample.sample.sec = 100'000;
  sample.sample.active_session = 4.0;
  segment += store::WrapFrame(store::EncodeFramePayload(sample));
  sample.sample.sec += 10 * 24 * 3600;
  segment += store::WrapFrame(store::EncodeFramePayload(sample));
  {
    std::ofstream f(wal_dir + "/" + store::SegmentFileName(1),
                    std::ios::binary);
    f.write(segment.data(), static_cast<std::streamsize>(segment.size()));
  }

  fleet::FleetOptions foptions;
  foptions.data_dir = dir;
  Stack stack = MakeStack({}, {{1, 0}}, foptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const ClientResponse metrics =
      Request(stack.server->port(), "GET", "/v1/metricsz", "");
  ASSERT_TRUE(metrics.ok);
  auto parsed = Json::Parse(metrics.body);
  ASSERT_TRUE(parsed.ok()) << metrics.body.substr(0, 200);
  const Json* fleet = parsed.value().Find("fleet");
  ASSERT_NE(fleet, nullptr);
  const Json* recovery = fleet->Find("recovery");
  ASSERT_NE(recovery, nullptr) << metrics.body;
  EXPECT_TRUE(recovery->GetBoolOr("attempted", false));
  EXPECT_FALSE(recovery->GetBoolOr("checkpoint_loaded", true));
  EXPECT_EQ(recovery->GetNumberOr("frames_replayed", -1), 1);
  EXPECT_EQ(recovery->GetNumberOr("frames_rebuilt", -1), 0);
  EXPECT_EQ(recovery->GetNumberOr("frames_time_rejected", -1), 1);
  EXPECT_EQ(recovery->GetNumberOr("stopped_early", -1), 1);
  EXPECT_EQ(recovery->GetNumberOr("frames_corrupt", -1), 0);
  EXPECT_EQ(recovery->GetNumberOr("seq_gaps", -1), 0);
  const double recovery_ms = recovery->GetNumberOr("recovery_ms", -1);
  const double scan_ms = recovery->GetNumberOr("scan_ms", -1);
  const double replay_ms = recovery->GetNumberOr("replay_ms", -1);
  EXPECT_GE(recovery_ms, 0);
  EXPECT_GE(scan_ms, 0);
  EXPECT_GE(replay_ms, 0);
  EXPECT_LE(scan_ms + replay_ms, recovery_ms);
  const Json* ingest_drops = parsed.value().Find("drops")->Find("ingest");
  ASSERT_NE(ingest_drops, nullptr);
  EXPECT_EQ(ingest_drops->GetNumberOr("future", -1), 0);
}

TEST(ServeServerTest, TenantAuthIsEnforcedOverTheWire) {
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  // No tenant header → 403 at pre-admission, before the body is read.
  ClientResponse response =
      Request(port, "POST", "/v1/ingest", "", "{\"instance\":1}");
  EXPECT_EQ(response.status, 403);
  response = Request(port, "POST", "/v1/ingest", "mallory",
                     "{\"instance\":1}");
  EXPECT_EQ(response.status, 403);
  response = Request(port, "GET", "/v1/reports", "mallory");
  EXPECT_EQ(response.status, 403);
  // Authorized tenant, forbidden instance.
  response = Request(port, "POST", "/v1/ingest", "acme",
                     "{\"instance\":42,\"records\":[]}");
  EXPECT_EQ(response.status, 403);
}

TEST(ServeServerTest, StartRefusesATenantScopedToAnInstanceTheFleetLacks) {
  // Such a scope would answer 202 for batches the fleet then drops without
  // counting them anywhere: Start() refuses the configuration, before
  // binding a port.
  ServerOptions soptions;
  soptions.admission.tenants["acme"] = OpenQuota({1});
  soptions.admission.tenants["stale"] = OpenQuota({1, 42});
  Stack stack = MakeStack(soptions);
  const Status status = stack.server->Start();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("42"), std::string::npos);
  EXPECT_FALSE(stack.server->running());
  EXPECT_EQ(stack.server->port(), 0);
}

TEST(ServeServerTest, RateLimitAnswers429WithRetryAfter) {
  ServerOptions soptions;
  TenantQuota tight;
  tight.records_per_sec = 10.0;
  tight.record_burst = 10.0;
  tight.bytes_per_sec = 1e9;
  tight.byte_burst = 1e9;
  tight.instances = {1};
  soptions.admission.tenants["acme"] = tight;
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  std::vector<QueryLogRecord> records(10);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].arrival_ms = 1'000'000 + static_cast<int64_t>(i);
    records[i].sql_id = 1;
    records[i].response_ms = 1.0;
    records[i].examined_rows = 1;
  }
  const std::string body = BatchBody(1, records, {});
  const ClientResponse first =
      Request(port, "POST", "/v1/ingest", "acme", body);
  EXPECT_EQ(first.status, 202);
  const ClientResponse second =
      Request(port, "POST", "/v1/ingest", "acme", body);
  EXPECT_EQ(second.status, 429);
  EXPECT_NE(second.headers.find("Retry-After:"), std::string::npos);
  const auto tenant_stats = stack.server->tenant_stats().at("acme");
  EXPECT_EQ(tenant_stats.dropped_rate_limited, 1u);
}

TEST(ServeServerTest, KeepAlivePipeliningServesSequentialRequests) {
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const int fd = ConnectTo(stack.server->port());
  ASSERT_GE(fd, 0);
  // Two pipelined GETs on one connection.
  ASSERT_TRUE(SendAll(fd,
                      "GET /v1/healthz HTTP/1.1\r\n\r\n"
                      "GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string carry;
  const ClientResponse first = ReadResponse(fd, &carry);
  EXPECT_EQ(first.status, 200);
  EXPECT_NE(first.headers.find("Connection: keep-alive"), std::string::npos);
  const ClientResponse second = ReadResponse(fd, &carry);
  EXPECT_EQ(second.status, 200);
  EXPECT_NE(second.headers.find("Connection: close"), std::string::npos);
  ::close(fd);
}

TEST(ServeServerTest, PartialFlushDoesNotReplayOrDuplicateResponses) {
  ServerOptions soptions;
  soptions.socket_send_buffer_bytes = 2048;  // force partial flushes
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 2048;  // tiny receive window: responses cannot drain
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Pipeline large responses (metricsz) ahead of distinguishable small
  // ones. The server hits EAGAIN mid-response and must resume via POLLOUT
  // without re-processing an already-answered request — a stuck parser
  // here used to replay request 1 forever and the 404 would never arrive.
  std::string wire;
  constexpr int kBig = 16;
  for (int i = 0; i < kBig; ++i) {
    wire += "GET /v1/metricsz HTTP/1.1\r\n\r\n";
  }
  wire += "GET /v1/nope HTTP/1.1\r\n\r\n";
  wire += "GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_TRUE(SendAll(fd, wire));
  // Give the server time to attempt (and partially fail) the flushes
  // before we start draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::string carry;
  for (int i = 0; i < kBig; ++i) {
    const ClientResponse response = ReadResponse(fd, &carry);
    ASSERT_TRUE(response.ok) << "response " << i;
    EXPECT_EQ(response.status, 200) << "response " << i;
  }
  const ClientResponse not_found = ReadResponse(fd, &carry);
  ASSERT_TRUE(not_found.ok);
  EXPECT_EQ(not_found.status, 404);
  const ClientResponse last = ReadResponse(fd, &carry);
  ASSERT_TRUE(last.ok);
  EXPECT_EQ(last.status, 200);
  EXPECT_NE(last.headers.find("Connection: close"), std::string::npos);
  ::close(fd);

  const ServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.requests_received, static_cast<uint64_t>(kBig) + 2);
  EXPECT_EQ(stats.responses_sent, static_cast<uint64_t>(kBig) + 2);
}

TEST(ServeServerTest, BytesArrivingBehindAStalledResponseAreKept) {
  ServerOptions soptions;
  soptions.socket_send_buffer_bytes = 2048;  // force partial flushes
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(stack.server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // The responses stall while the parser already holds the next complete
  // request. Bytes the client sends meanwhile must wait in the kernel, not
  // be fed to (and dropped by) that complete parser.
  constexpr int kBig = 16;
  std::string wire;
  for (int i = 0; i < kBig; ++i) {
    wire += "GET /v1/metricsz HTTP/1.1\r\n\r\n";
  }
  ASSERT_TRUE(SendAll(fd, wire));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(
      SendAll(fd, "GET /v1/nope HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::string carry;
  for (int i = 0; i < kBig; ++i) {
    const ClientResponse response = ReadResponse(fd, &carry);
    ASSERT_TRUE(response.ok) << "response " << i;
    EXPECT_EQ(response.status, 200) << "response " << i;
  }
  const ClientResponse last = ReadResponse(fd, &carry);
  ASSERT_TRUE(last.ok) << "the late request was lost";
  EXPECT_EQ(last.status, 404);
  ::close(fd);
}

TEST(ServeServerTest, PipelinedRequestSpanningMultipleReadsIsNotLost) {
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const int fd = ConnectTo(stack.server->port());
  ASSERT_GE(fd, 0);

  // A tiny GET followed, in the same burst, by an ingest POST whose body
  // exceeds the server's 16 KiB read chunk: the POST's bytes span several
  // recv() calls after the GET already completed, and must wait in the
  // kernel buffer — not be fed into (and discarded by) a complete parser.
  std::vector<QueryLogRecord> records(400);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].arrival_ms = 700'000'000 + static_cast<int64_t>(i);
    records[i].sql_id = 1 + i % 4;
    records[i].response_ms = 2.0;
    records[i].examined_rows = 10;
  }
  const std::string body = BatchBody(1, records, {});
  ASSERT_GT(body.size(), 16u * 1024);
  std::string wire = "GET /v1/healthz HTTP/1.1\r\n\r\n";
  wire +=
      "POST /v1/ingest HTTP/1.1\r\nX-Pinsql-Tenant: acme\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  ASSERT_TRUE(SendAll(fd, wire));

  std::string carry;
  const ClientResponse first = ReadResponse(fd, &carry);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.status, 200);
  const ClientResponse second = ReadResponse(fd, &carry);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.status, 202);
  ::close(fd);
}

TEST(ServeServerTest, MalformedRequestsGetCleanErrors) {
  Stack stack = MakeStack();
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  const int fd = ConnectTo(port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "NOT-HTTP garbage\r\n\r\n"));
  const ClientResponse garbage = ReadResponse(fd);
  EXPECT_EQ(garbage.status, 400);
  ::close(fd);

  const int fd2 = ConnectTo(port);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(SendAll(fd2, "GET / HTTP/3.0\r\n\r\n"));
  EXPECT_EQ(ReadResponse(fd2).status, 505);
  ::close(fd2);

  EXPECT_GE(stack.server->stats().parse_errors, 2u);
}

TEST(ServeServerTest, EndToEndIncidentDiagnosisAndReplayFingerprint) {
  ServerOptions soptions;
  soptions.capture_accepted = true;
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  // Stream the incident second by second: each request carries one
  // second's records plus its sample, like a per-second agent flush.
  const online::ReplayLog incident = SyntheticIncident();
  size_t cursor = 0;
  for (const online::PerfSample& sample : incident.samples) {
    std::vector<QueryLogRecord> second_records;
    const int64_t end_ms = (sample.sec + 1) * 1000;
    while (cursor < incident.records.size() &&
           incident.records[cursor].arrival_ms < end_ms) {
      second_records.push_back(incident.records[cursor]);
      ++cursor;
    }
    const ClientResponse response =
        Request(port, "POST", "/v1/ingest", "acme",
                BatchBody(1, second_records, {sample}));
    ASSERT_EQ(response.status, 202) << "sec " << sample.sec;
  }

  // The pump delivers asynchronously; poll /v1/reports for the diagnosis.
  bool got_report = false;
  Json report;
  for (int attempt = 0; attempt < 200 && !got_report; ++attempt) {
    const ClientResponse response =
        Request(port, "GET", "/v1/reports?limit=10", "acme");
    ASSERT_TRUE(response.ok);
    ASSERT_EQ(response.status, 200);
    auto parsed = Json::Parse(response.body);
    ASSERT_TRUE(parsed.ok());
    const Json* reports = parsed.value().Find("reports");
    ASSERT_NE(reports, nullptr);
    if (!reports->AsArray().empty()) {
      report = reports->AsArray().front();
      got_report = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(got_report) << "no diagnosis surfaced via /v1/reports";
  EXPECT_EQ(report.GetNumberOr("instance", -1), 1.0);
  EXPECT_TRUE(report.GetBoolOr("ok", false));
  const Json* inner = report.Find("report");
  ASSERT_NE(inner, nullptr);
  // The root-cause ranking pinpoints the flooding template (sql_id 9).
  const std::string dumped = inner->Dump();
  EXPECT_NE(dumped.find("9"), std::string::npos);

  // Triggers endpoint sees the same trigger, tenant-scoped.
  const ClientResponse triggers = Request(port, "GET", "/v1/triggers", "acme");
  ASSERT_EQ(triggers.status, 200);
  auto tparsed = Json::Parse(triggers.body);
  ASSERT_TRUE(tparsed.ok());
  EXPECT_FALSE(tparsed.value().Find("triggers")->AsArray().empty());

  // Triggers/repairs honor the same limit parameter as reports, so their
  // responses stay bounded no matter how much history is cached.
  const ClientResponse limited =
      Request(port, "GET", "/v1/triggers?limit=1", "acme");
  ASSERT_EQ(limited.status, 200);
  auto lparsed = Json::Parse(limited.body);
  ASSERT_TRUE(lparsed.ok());
  EXPECT_LE(lparsed.value().Find("triggers")->AsArray().size(), 1u);

  // Repairs endpoint answers (events may be empty: no instance here has a
  // repair supervisor).
  const ClientResponse repairs =
      Request(port, "GET", "/v1/repairs?limit=5", "acme");
  EXPECT_EQ(repairs.status, 200);

  // Graceful stop, then verify the determinism contract: the accepted
  // stream replays bit-identically through a fleet of one at 1 and 4
  // ingest workers.
  stack.server->Stop();
  const auto streams = stack.server->accepted_streams();
  ASSERT_EQ(streams.count(1u), 1u);
  const online::ReplayLog& accepted = streams.at(1);
  EXPECT_EQ(accepted.records.size(), incident.records.size());
  EXPECT_EQ(accepted.samples.size(), incident.samples.size());

  const LogStore catalog = CatalogStore();
  fleet::FleetReplayOptions roptions;
  roptions.num_ingest_workers = 1;
  const std::string fp1 =
      fleet::RunFleetReplay({{1, 0}}, {accepted}, catalog, roptions)
          .InstanceFingerprint(1);
  roptions.num_ingest_workers = 4;
  const std::string fp4 =
      fleet::RunFleetReplay({{1, 0}}, {accepted}, catalog, roptions)
          .InstanceFingerprint(1);
  EXPECT_EQ(fp1, fp4);
  EXPECT_FALSE(fp1.empty());
}

TEST(ServeServerTest, StopDrainsAcceptedBatchesIntoTheFleet) {
  ServerOptions soptions;
  soptions.advance_interval_ms = 1000;  // pump likely idle until Stop
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  std::vector<QueryLogRecord> records(20);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].arrival_ms = 500'000'000 + static_cast<int64_t>(i * 10);
    records[i].sql_id = 1 + i % 4;
    records[i].response_ms = 2.0;
    records[i].examined_rows = 10;
  }
  const ClientResponse response =
      Request(port, "POST", "/v1/ingest", "acme",
              BatchBody(1, records, {Sample(500'000, 4.0)}));
  ASSERT_EQ(response.status, 202);

  stack.server->Stop();
  // Everything accepted was delivered before Stop() returned.
  const ServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.records_delivered, records.size());
  EXPECT_EQ(stats.samples_delivered, 1u);
  const fleet::FleetStats fstats = stack.fleet->stats();
  EXPECT_EQ(fstats.ingest.records_enqueued, records.size());

  // A second Stop is a no-op.
  stack.server->Stop();
}

TEST(ServeServerTest, ConnectionTableIsBounded) {
  ServerOptions soptions;
  soptions.max_connections = 4;
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  std::vector<int> fds;
  for (int i = 0; i < 12; ++i) {
    const int fd = ConnectTo(port);
    if (fd >= 0) fds.push_back(fd);
  }
  // Give the event loop time to accept/reject the backlog.
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (stack.server->stats().connections_rejected_table_full > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(stack.server->stats().connections_rejected_table_full, 0u);
  for (int fd : fds) ::close(fd);
}

// --- Read-endpoint rendering reference ------------------------------------
//
// One Json tree per response, built from the outcome fields and dumped:
// the bytes the read endpoints' pre-rendered caches must reproduce.

struct TreeEntry {
  uint32_t instance_id = 0;
  int64_t onset_sec = 0;
  int64_t trigger_sec = 0;
  double severity = 0.0;
  std::string source;
  bool ok = false;
  bool storm_deferred = false;
  uint64_t storm_batch = 0;
  std::string error;
  Json report_json;  // null unless ok
};

TreeEntry ToTreeEntry(const fleet::FleetOutcome& fo) {
  TreeEntry entry;
  entry.instance_id = fo.outcome.trigger.instance_id;
  entry.onset_sec = fo.outcome.trigger.onset_sec;
  entry.trigger_sec = fo.outcome.trigger.trigger_sec;
  entry.severity = fo.outcome.trigger.severity;
  entry.source = fo.outcome.trigger.source;
  entry.ok = fo.outcome.ok;
  entry.storm_deferred =
      fo.disposition == fleet::FleetOutcome::Disposition::kStormDeferred;
  entry.storm_batch = fo.storm_batch;
  entry.error = fo.outcome.error;
  if (fo.outcome.ok) entry.report_json = fo.outcome.report.ToJson();
  return entry;
}

bool InScope(const std::vector<uint32_t>& scope, uint32_t instance_id) {
  return std::find(scope.begin(), scope.end(), instance_id) != scope.end();
}

std::string TreeReports(const std::vector<TreeEntry>& cache,
                        const std::vector<uint32_t>& scope, size_t limit) {
  Json reports = Json::MakeArray();
  size_t emitted = 0;
  for (auto it = cache.rbegin(); it != cache.rend() && emitted < limit;
       ++it) {
    if (!InScope(scope, it->instance_id)) continue;
    Json entry = Json::MakeObject();
    entry.Set("instance", static_cast<int64_t>(it->instance_id));
    entry.Set("onset_sec", it->onset_sec);
    entry.Set("trigger_sec", it->trigger_sec);
    entry.Set("severity", it->severity);
    entry.Set("source", it->source);
    entry.Set("ok", it->ok);
    entry.Set("storm_deferred", it->storm_deferred);
    entry.Set("storm_batch", static_cast<int64_t>(it->storm_batch));
    if (!it->error.empty()) entry.Set("error", it->error);
    if (it->ok) entry.Set("report", it->report_json);
    reports.Append(std::move(entry));
    ++emitted;
  }
  Json root = Json::MakeObject();
  root.Set("reports", std::move(reports));
  return root.Dump();
}

std::string TreeTriggers(const std::vector<TreeEntry>& cache,
                         const std::vector<fleet::StormBatch>& storms,
                         const std::vector<uint32_t>& scope, size_t limit) {
  Json triggers = Json::MakeArray();
  size_t emitted = 0;
  for (auto it = cache.rbegin(); it != cache.rend() && emitted < limit;
       ++it) {
    if (!InScope(scope, it->instance_id)) continue;
    Json t = Json::MakeObject();
    t.Set("instance", static_cast<int64_t>(it->instance_id));
    t.Set("onset_sec", it->onset_sec);
    t.Set("trigger_sec", it->trigger_sec);
    t.Set("severity", it->severity);
    t.Set("source", it->source);
    t.Set("storm_deferred", it->storm_deferred);
    t.Set("storm_batch", static_cast<int64_t>(it->storm_batch));
    triggers.Append(std::move(t));
    ++emitted;
  }
  Json storm_list = Json::MakeArray();
  size_t storms_emitted = 0;
  for (auto it = storms.rbegin();
       it != storms.rend() && storms_emitted < limit; ++it) {
    Json s = Json::MakeObject();
    s.Set("id", static_cast<int64_t>(it->id));
    s.Set("opened_sec", it->opened_sec);
    s.Set("closed_sec", it->closed_sec);
    s.Set("members", static_cast<int64_t>(it->members.size()));
    s.Set("triaged", static_cast<int64_t>(it->triaged.size()));
    storm_list.Append(std::move(s));
    ++storms_emitted;
  }
  Json root = Json::MakeObject();
  root.Set("triggers", std::move(triggers));
  root.Set("storms", std::move(storm_list));
  return root.Dump();
}

std::string TreeRepairs(const std::vector<TreeEntry>& cache,
                        const std::vector<uint32_t>& scope, size_t limit) {
  Json repairs = Json::MakeArray();
  size_t emitted = 0;
  for (auto it = cache.rbegin(); it != cache.rend() && emitted < limit;
       ++it) {
    if (!it->ok) continue;
    if (!InScope(scope, it->instance_id)) continue;
    Json r = Json::MakeObject();
    r.Set("instance", static_cast<int64_t>(it->instance_id));
    r.Set("trigger_sec", it->trigger_sec);
    if (const Json* events = it->report_json.Find("repair_events")) {
      r.Set("events", *events);
    } else {
      r.Set("events", Json::MakeArray());
    }
    repairs.Append(std::move(r));
    ++emitted;
  }
  Json root = Json::MakeObject();
  root.Set("repairs", std::move(repairs));
  return root.Dump();
}

TEST(ServeServerTest, ReadEndpointsMatchTreeRenderingByteForByte) {
  // Six instances. 1-3 flood together, which opens a storm at
  // storm_min_instances 3 (two triaged, one deferred); 4-6 flood a minute
  // apart and are diagnosed directly.
  constexpr int64_t kFirstSec = 100'000;
  constexpr int64_t kEndSec = kFirstSec + 540;
  std::vector<fleet::FleetInstanceSpec> specs;
  std::vector<online::ReplayLog> streams;
  for (uint32_t id = 1; id <= 6; ++id) {
    specs.push_back({id, id});
    streams.push_back(
        SyntheticIncident(id <= 3 ? 0 : 60 * (int64_t{id} - 3), kEndSec));
  }
  fleet::FleetOptions foptions;
  foptions.correlator.storm_min_instances = 3;
  foptions.correlator.storm_triage_k = 2;
  // Byte-comparable reports: the expected cache is replayed below.
  foptions.scheduler.zero_timings = true;
  const std::map<std::string, std::vector<uint32_t>> scopes = {
      {"acme", {1, 2, 3, 4, 5, 6}}, {"beta", {2, 5}}};
  ServerOptions soptions;
  for (const auto& [tenant, instances] : scopes) {
    soptions.admission.tenants[tenant] = OpenQuota(instances);
  }
  Stack stack = MakeStack(soptions, specs, foptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const int fd = ConnectTo(stack.server->port());
  ASSERT_GE(fd, 0);

  // Ten seconds per batch, every instance in turn. Each batch is delivered
  // before the next is posted, so every pump round delivers exactly one
  // batch and the shadow fleet below can replay the rounds.
  struct Posted {
    uint32_t instance_id = 0;
    std::vector<QueryLogRecord> records;
    std::vector<online::PerfSample> samples;
  };
  std::vector<Posted> posted;
  std::vector<size_t> cursors(streams.size(), 0);
  uint64_t posts = 0;
  for (int64_t from = kFirstSec; from < kEndSec; from += 10) {
    for (size_t i = 0; i < streams.size(); ++i) {
      const online::ReplayLog& log = streams[i];
      std::vector<QueryLogRecord> records;
      while (cursors[i] < log.records.size() &&
             log.records[cursors[i]].arrival_ms < (from + 10) * 1000) {
        records.push_back(log.records[cursors[i]++]);
      }
      std::vector<online::PerfSample> samples;
      for (const online::PerfSample& sample : log.samples) {
        if (sample.sec >= from && sample.sec < from + 10) {
          samples.push_back(sample);
        }
      }
      const ClientResponse response =
          RoundTrip(fd, "POST", "/v1/ingest", "acme",
                    BatchBody(specs[i].instance_id, records, samples));
      ASSERT_EQ(response.status, 202) << "instance " << i + 1 << " @" << from;
      ++posts;
      posted.push_back({specs[i].instance_id, records, samples});
      for (int attempt = 0;
           attempt < 20'000 && stack.server->stats().batches_delivered < posts;
           ++attempt) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      ASSERT_EQ(stack.server->stats().batches_delivered, posts);
    }
  }
  // advanced_to_sec is set once the last advance's outcomes are cached.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const ServerStats stats = stack.server->stats();
    if (stats.batches_delivered == posts &&
        stats.advanced_to_sec == kEndSec - 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(stack.server->stats().batches_delivered, posts);
  ASSERT_EQ(stack.server->stats().advanced_to_sec, kEndSec - 1);

  struct Read {
    std::string tenant;
    std::string endpoint;
    size_t limit = 0;
    std::string body;
  };
  std::vector<Read> reads;
  for (const auto& [tenant, scope] : scopes) {
    for (const std::string endpoint :
         {"/v1/reports", "/v1/triggers", "/v1/repairs"}) {
      for (size_t limit : {1, 4, 100}) {
        const std::string target =
            endpoint + "?limit=" + std::to_string(limit);
        const ClientResponse response = RoundTrip(fd, "GET", target, tenant);
        ASSERT_EQ(response.status, 200) << tenant << " " << target;
        reads.push_back({tenant, endpoint, limit, response.body});
      }
    }
  }
  ::close(fd);
  stack.server->Stop();

  // What the pump cached: every outcome and closed storm AdvanceTo handed
  // out, in order — storm-deferred triggers included. The fleet keeps
  // none, so a shadow fleet replays the pump's rounds — deliver the batch,
  // then advance to its newest sample second when that moves the clock —
  // and hands out the same in the same order. Never Stop(): the served
  // fleet was not drained either.
  size_t posted_records = 0;
  size_t posted_samples = 0;
  fleet::FleetService shadow(specs, foptions);
  RegisterCatalog(&shadow);
  shadow.Start();
  std::vector<TreeEntry> cache;
  fleet::FleetEvents shadow_events;
  int64_t advanced_to = std::numeric_limits<int64_t>::min();
  for (const Posted& batch : posted) {
    for (const QueryLogRecord& record : batch.records) {
      shadow.IngestRecord(batch.instance_id, record);
    }
    int64_t max_sec = std::numeric_limits<int64_t>::min();
    for (const online::PerfSample& sample : batch.samples) {
      shadow.IngestMetrics(batch.instance_id, sample);
      max_sec = std::max(max_sec, sample.sec);
    }
    posted_records += batch.records.size();
    posted_samples += batch.samples.size();
    if (max_sec <= advanced_to) continue;
    advanced_to = max_sec;
    for (const fleet::FleetOutcome& fo :
         shadow.AdvanceTo(max_sec, &shadow_events)) {
      cache.push_back(ToTreeEntry(fo));
    }
  }
  // The served fleet accepted every posted record and sample.
  EXPECT_EQ(stack.server->stats().records_delivered, posted_records);
  EXPECT_EQ(stack.server->stats().samples_delivered, posted_samples);
  const std::vector<fleet::StormBatch>& storms = shadow_events.storms;
  // The scenario exercises truncation at limit 4, tenant scoping, storm
  // rendering, a deferred storm member and full reports with repair
  // arrays.
  ASSERT_GT(cache.size(), 4u);
  EXPECT_FALSE(storms.empty());
  const size_t deferred_count =
      std::count_if(cache.begin(), cache.end(),
                    [](const TreeEntry& e) { return e.storm_deferred; });
  EXPECT_EQ(deferred_count, 1u);
  bool deferred_served = false;
  for (const Read& read : reads) {
    if (read.tenant == "acme" && read.endpoint == "/v1/triggers" &&
        read.limit == 100) {
      deferred_served =
          read.body.find("\"storm_deferred\":true") != std::string::npos;
    }
  }
  EXPECT_TRUE(deferred_served) << "/v1/triggers never shows the deferral";
  const size_t ok_count = std::count_if(
      cache.begin(), cache.end(), [](const TreeEntry& e) { return e.ok; });
  EXPECT_GT(ok_count, 0u);
  const size_t beta_count =
      std::count_if(cache.begin(), cache.end(), [&](const TreeEntry& e) {
        return InScope(scopes.at("beta"), e.instance_id);
      });
  EXPECT_GT(beta_count, 0u);
  EXPECT_LT(beta_count, cache.size());

  for (const Read& read : reads) {
    const std::vector<uint32_t>& scope = scopes.at(read.tenant);
    std::string expected;
    if (read.endpoint == "/v1/reports") {
      expected = TreeReports(cache, scope, read.limit);
    } else if (read.endpoint == "/v1/triggers") {
      expected = TreeTriggers(cache, storms, scope, read.limit);
    } else {
      expected = TreeRepairs(cache, scope, read.limit);
    }
    EXPECT_EQ(read.body, expected)
        << read.tenant << " " << read.endpoint << " limit " << read.limit;
    // The handler serves the same bytes after Stop().
    HttpRequest request;
    request.method = "GET";
    request.target = read.endpoint + "?limit=" + std::to_string(read.limit);
    request.headers = {{"X-Pinsql-Tenant", read.tenant}};
    EXPECT_EQ(stack.server->HandleRequest(request, Server::NowMs()).body,
              expected);
  }

  // `limit` reads what atoll would where that is defined, and clamps where
  // it is not: 20 digits read as the maximum, negative values as 1.
  const std::vector<std::pair<std::string, size_t>> limits = {
      {"99999999999999999999", 1000}, {"+99999999999999999999", 1000},
      {"-99999999999999999999", 1},   {"-3", 1},
      {"", 100},                      {"abc", 1},
      {"2abc", 2},                    {"0", 1}};
  for (const auto& [param, limit] : limits) {
    HttpRequest request;
    request.method = "GET";
    request.target = "/v1/reports?limit=" + param;
    request.headers = {{"X-Pinsql-Tenant", "acme"}};
    EXPECT_EQ(stack.server->HandleRequest(request, Server::NowMs()).body,
              TreeReports(cache, scopes.at("acme"), limit))
        << "limit=" << param;
  }
}

// --- Fleet-stats snapshot cadence ------------------------------------------

std::vector<QueryLogRecord> Records(size_t n, int64_t first_ms) {
  std::vector<QueryLogRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].arrival_ms = first_ms + static_cast<int64_t>(i * 10);
    records[i].sql_id = 1 + i % 4;
    records[i].response_ms = 2.0;
    records[i].examined_rows = 10;
  }
  return records;
}

Json Metricsz(Server* server) {
  HttpRequest request;
  request.method = "GET";
  request.target = "/v1/metricsz";
  auto parsed =
      Json::Parse(server->HandleRequest(request, Server::NowMs()).body);
  return parsed.ok() ? std::move(parsed).value() : Json();
}

TEST(ServeServerTest, RecordsOnlyBatchReachesMetricszWithinAFewIntervals) {
  ServerOptions soptions;
  soptions.advance_interval_ms = 50;
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint16_t port = stack.server->port();

  // No sample, so the fleet never advances: only the snapshot cadence can
  // bring the enqueued count to /v1/metricsz.
  const auto posted = std::chrono::steady_clock::now();
  ASSERT_EQ(Request(port, "POST", "/v1/ingest", "acme",
                    BatchBody(1, Records(20, 600'000'000), {}))
                .status,
            202);
  double enqueued = 0.0;
  for (int attempt = 0; attempt < 500 && enqueued != 20.0; ++attempt) {
    const ClientResponse metrics = Request(port, "GET", "/v1/metricsz", "");
    ASSERT_EQ(metrics.status, 200);
    auto parsed = Json::Parse(metrics.body);
    ASSERT_TRUE(parsed.ok());
    enqueued = parsed.value().Find("fleet")->GetNumberOr("records_enqueued",
                                                         -1.0);
    if (enqueued != 20.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - posted);
  EXPECT_EQ(enqueued, 20.0);
  EXPECT_LT(waited.count(), 10 * soptions.advance_interval_ms);
}

TEST(ServeServerTest, BurstOfBatchesTakesFarFewerSnapshotsThanBatches) {
  ServerOptions soptions;
  soptions.advance_interval_ms = 1000;
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const uint64_t before = stack.server->stats().fleet_stats_snapshots;
  EXPECT_EQ(before, 1u);  // Start()'s

  // Back to back, each batch with a sample, so every delivery round also
  // advances the fleet.
  constexpr uint64_t kBatches = 200;
  const int fd = ConnectTo(stack.server->port());
  ASSERT_GE(fd, 0);
  for (uint64_t i = 0; i < kBatches; ++i) {
    const int64_t sec = 700'000 + static_cast<int64_t>(i);
    const std::string body =
        BatchBody(1, Records(5, sec * 1000), {Sample(sec, 4.0)});
    ASSERT_EQ(RoundTrip(fd, "POST", "/v1/ingest", "acme", body).status, 202);
  }
  ::close(fd);
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (stack.server->stats().batches_delivered == kBatches) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServerStats stats = stack.server->stats();
  ASSERT_EQ(stats.batches_delivered, kBatches);
  EXPECT_LT(stats.fleet_stats_snapshots - before, kBatches / 10);
  // The count is served with the other server counters.
  const Json metrics = Metricsz(stack.server.get());
  ASSERT_NE(metrics.Find("server"), nullptr);
  EXPECT_GE(metrics.Find("server")->GetNumberOr("fleet_stats_snapshots", -1),
            static_cast<double>(stats.fleet_stats_snapshots));
}

TEST(ServeServerTest, CachedStatsEqualFleetStatsAfterStop) {
  ServerOptions soptions;
  soptions.advance_interval_ms = 60'000;  // no cadence snapshot in the run
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const int fd = ConnectTo(stack.server->port());
  ASSERT_GE(fd, 0);
  for (int64_t i = 0; i < 30; ++i) {
    const int64_t sec = 800'000 + i;
    // The last batch is records-only: the stop snapshot must see it too.
    std::vector<online::PerfSample> samples;
    if (i < 29) samples.push_back(Sample(sec, 4.0));
    ASSERT_EQ(RoundTrip(fd, "POST", "/v1/ingest", "acme",
                        BatchBody(1, Records(7, sec * 1000), samples))
                  .status,
              202);
  }
  ::close(fd);
  stack.server->Stop();

  const fleet::FleetStats fleet = stack.fleet->stats();
  const Json metrics = Metricsz(stack.server.get());
  const Json* cached = metrics.Find("fleet");
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(fleet.ingest.records_enqueued, 30u * 7u);
  EXPECT_EQ(cached->GetNumberOr("instances", -1),
            static_cast<double>(fleet.instances));
  EXPECT_EQ(cached->GetNumberOr("seconds_processed", -1),
            static_cast<double>(fleet.seconds_processed));
  EXPECT_EQ(cached->GetNumberOr("records_enqueued", -1),
            static_cast<double>(fleet.ingest.records_enqueued));
  EXPECT_EQ(cached->GetNumberOr("records_folded", -1),
            static_cast<double>(fleet.ingest.records_folded));
  EXPECT_EQ(cached->GetNumberOr("triggers_accepted", -1),
            static_cast<double>(fleet.triggers_accepted));
  EXPECT_EQ(cached->GetNumberOr("diagnoses_ok", -1),
            static_cast<double>(fleet.diagnoses_ok));
  EXPECT_EQ(cached->GetNumberOr("pending_journal_records", -1),
            static_cast<double>(fleet.pending_journal_records));
  const Json* ingest_drops = metrics.Find("drops")->Find("ingest");
  EXPECT_EQ(ingest_drops->GetNumberOr("late", -1),
            static_cast<double>(fleet.ingest.records_dropped_late));
  EXPECT_EQ(ingest_drops->GetNumberOr("backpressure", -1),
            static_cast<double>(fleet.ingest.records_dropped_backpressure));
}

TEST(ServeServerTest, PumpWakesForEveryBatchWithoutWaitingForItsTimer) {
  // A lost wake-up would leave a batch staged until the timer fires, a
  // full minute here.
  ServerOptions soptions;
  soptions.advance_interval_ms = 60'000;
  Stack stack = MakeStack(soptions);
  ASSERT_TRUE(stack.server->Start().ok());
  const int fd = ConnectTo(stack.server->port());
  ASSERT_GE(fd, 0);
  for (uint64_t i = 0; i < 50; ++i) {
    const int64_t sec = 900'000 + static_cast<int64_t>(i);
    const std::string body =
        BatchBody(1, Records(3, sec * 1000), {Sample(sec, 4.0)});
    ASSERT_EQ(RoundTrip(fd, "POST", "/v1/ingest", "acme", body).status, 202);
    const auto posted = std::chrono::steady_clock::now();
    while (stack.server->stats().batches_delivered < i + 1 &&
           std::chrono::steady_clock::now() - posted <
               std::chrono::seconds(1)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_EQ(stack.server->stats().batches_delivered, i + 1)
        << "batch " << i << " not delivered within a second";
  }
  ::close(fd);
}

}  // namespace
}  // namespace pinsql::serve
