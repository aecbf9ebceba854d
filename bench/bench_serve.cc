/// Serving-layer overload benchmark: a real HTTP/1.1 server fronting the
/// fleet, N well-behaved tenants streaming a per-second diagnosis workload
/// while one abusive tenant floods ingest at ~10x its admitted budget.
/// Reports per-tenant goodput and GET /v1/reports latency percentiles,
/// then hard-checks the serving guarantees:
///
///   - every well-behaved tenant keeps >= 90% ingest goodput under flood;
///   - the abusive tenant is mostly rejected, with Retry-After guidance;
///   - well-behaved tenants see zero admission drops, the abuser sees >0;
///   - GET /v1/reports p99 stays under a (sanitizer-aware) bound;
///   - tenant-1's streamed incident is diagnosed and served back;
///   - fleet-of-one replay fingerprints over every accepted record stream
///     are byte-identical at 1 vs 4 ingest workers.
///
/// Environment knobs: PINSQL_BENCH_SERVE_TENANTS (well-behaved tenants,
/// default 3), PINSQL_BENCH_SERVE_FLOODS (flood requests, default 60),
/// PINSQL_BENCH_SERVE_P99_MS (report-read p99 bound). `--smoke` shrinks
/// everything for CI. Exit code = number of violated shape checks.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "faults/net_faults.h"
#include "fleet/fleet_replay.h"
#include "fleet/fleet_service.h"
#include "online/replay.h"
#include "serve/server.h"
#include "util/json.h"

namespace pinsql::serve {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return -1.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

// --- Minimal blocking HTTP client ----------------------------------------

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

struct ClientResponse {
  int status = 0;
  std::string body;
};

ClientResponse Request(uint16_t port, const std::string& method,
                       const std::string& target, const std::string& tenant,
                       const std::string& body = "") {
  ClientResponse response;
  const int fd = ConnectTo(port);
  if (fd < 0) return response;
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  if (!tenant.empty()) wire += "X-Pinsql-Tenant: " + tenant + "\r\n";
  if (!body.empty()) {
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += "Connection: close\r\n\r\n" + body;
  size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return response;
    }
    off += static_cast<size_t>(n);
  }
  std::string buffer;
  char chunk[4096];
  while (true) {  // Connection: close framing — read to EOF.
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  if (buffer.size() >= 12 && buffer.compare(0, 5, "HTTP/") == 0) {
    response.status = std::atoi(buffer.c_str() + 9);
    const size_t header_end = buffer.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      response.body = buffer.substr(header_end + 4);
    }
  }
  return response;
}

// --- Workload: one incident stream, plus flat baseline streams -----------

online::PerfSample Sample(int64_t sec, double session) {
  online::PerfSample s;
  s.sec = sec;
  s.active_session = session;
  s.cpu_usage = session * 0.05;
  s.iops_usage = session * 0.1;
  return s;
}

online::ReplayLog TenantStream(bool anomalous_tenant) {
  online::ReplayLog log;
  const int64_t t0 = 100'000;
  const int64_t onset = t0 + 200;
  const int64_t t1 = onset + 120;
  for (int64_t sec = t0; sec < t1; ++sec) {
    const bool anomalous = anomalous_tenant && sec >= onset;
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
    samps.Append(std::move(item));
  }
  root.Set("samples", std::move(samps));
  return root.Dump();
}

void RegisterTemplates(fleet::FleetService* fleet, LogStore* catalog) {
  for (uint64_t id = 1; id <= 4; ++id) {
    TemplateCatalogEntry entry;
    entry.template_text = "SELECT * FROM t WHERE k = ?";
    entry.kind = sqltpl::StatementKind::kSelect;
    entry.tables = {"t"};
    fleet->RegisterTemplateFleetWide(id, entry);
    catalog->RegisterTemplate(id, entry);
  }
  TemplateCatalogEntry heavy;
  heavy.template_text = "SELECT * FROM big ORDER BY v";
  heavy.kind = sqltpl::StatementKind::kSelect;
  heavy.tables = {"big"};
  fleet->RegisterTemplateFleetWide(9, heavy);
  catalog->RegisterTemplate(9, heavy);
}

int RunBench(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int num_tenants =
      std::max(1, EnvInt("PINSQL_BENCH_SERVE_TENANTS", smoke ? 2 : 3));
  const int flood_requests =
      EnvInt("PINSQL_BENCH_SERVE_FLOODS", smoke ? 24 : 60);
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  const double default_p99_ms = 2000.0;
#else
  const double default_p99_ms = 500.0;
#endif
  const double p99_bound_ms =
      EnvInt("PINSQL_BENCH_SERVE_P99_MS", static_cast<int>(default_p99_ms));

  // One instance per well-behaved tenant, plus instance 99 for the abuser.
  std::vector<fleet::FleetInstanceSpec> specs;
  for (int t = 1; t <= num_tenants; ++t) {
    specs.push_back({static_cast<uint32_t>(t), 0});
  }
  specs.push_back({99, 1});
  fleet::FleetOptions foptions;
  auto fleet = std::make_unique<fleet::FleetService>(specs, foptions);
  LogStore catalog;
  RegisterTemplates(fleet.get(), &catalog);
  fleet->Start();

  ServerOptions soptions;
  soptions.capture_accepted = true;
  for (int t = 1; t <= num_tenants; ++t) {
    TenantQuota quota;
    quota.records_per_sec = 1e6;
    quota.record_burst = 1e6;
    quota.bytes_per_sec = 1e9;
    quota.byte_burst = 1e9;
    quota.queue_capacity_batches = 10'000;
    quota.weight = 4;
    quota.instances = {static_cast<uint32_t>(t)};
    soptions.admission.tenants["tenant-" + std::to_string(t)] = quota;
  }
  TenantQuota abuser;
  // Budget low enough that the flood exceeds it by >= 10x even when a
  // sanitizer slows the client's send rate to a crawl.
  abuser.records_per_sec = 100.0;
  abuser.record_burst = 500.0;
  abuser.bytes_per_sec = 1e6;
  abuser.byte_burst = 2e6;
  abuser.queue_capacity_batches = 16;
  abuser.weight = 1;
  abuser.instances = {99};
  soptions.admission.tenants["abuser"] = abuser;

  Server server(fleet.get(), soptions);
  const auto served_from = std::chrono::steady_clock::now();
  if (const Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.message().c_str());
    return 1;
  }
  const uint16_t port = server.port();

  std::printf("Serving-layer overload bench: %d well-behaved tenants + 1 "
              "abusive tenant\n(flood: %d requests x 500 records against a "
              "%d rec/s budget; p99 bound %.0f ms)\n\n",
              num_tenants, flood_requests,
              static_cast<int>(abuser.records_per_sec), p99_bound_ms);

  // The abusive tenant floods from a background thread.
  faults::NetChaosOptions coptions;
  coptions.port = port;
  coptions.tenant = "abuser";
  coptions.instance_id = 99;
  coptions.flood_requests = flood_requests;
  coptions.flood_records_per_request = 500;
  faults::NetChaosStats flood_stats;
  std::atomic<bool> traffic_done{false};
  std::thread flooder([&] {
    faults::NetChaosClient client(coptions);
    flood_stats = client.RunTenantFlood();
  });

  // A reader polls GET /v1/reports throughout the flood, timing each read.
  std::vector<double> report_ms;
  std::thread reader([&] {
    while (!traffic_done.load(std::memory_order_relaxed) ||
           report_ms.size() < 50) {
      const auto t0 = std::chrono::steady_clock::now();
      const ClientResponse r =
          Request(port, "GET", "/v1/reports?limit=5", "tenant-1");
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      if (r.status == 200) report_ms.push_back(ms);
      if (report_ms.size() > 100'000) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Well-behaved tenants stream their seconds concurrently with the flood.
  std::vector<online::ReplayLog> streams;
  for (int t = 1; t <= num_tenants; ++t) {
    streams.push_back(TenantStream(/*anomalous_tenant=*/t == 1));
  }
  std::vector<size_t> sent(num_tenants, 0), accepted(num_tenants, 0);
  std::vector<std::thread> agents;
  for (int t = 1; t <= num_tenants; ++t) {
    agents.emplace_back([&, t] {
      const online::ReplayLog& stream = streams[t - 1];
      const std::string tenant = "tenant-" + std::to_string(t);
      size_t cursor = 0;
      for (const online::PerfSample& sample : stream.samples) {
        std::vector<QueryLogRecord> second_records;
        const int64_t end_ms = (sample.sec + 1) * 1000;
        while (cursor < stream.records.size() &&
               stream.records[cursor].arrival_ms < end_ms) {
          second_records.push_back(stream.records[cursor]);
          ++cursor;
        }
        ++sent[t - 1];
        const ClientResponse response =
            Request(port, "POST", "/v1/ingest", tenant,
                    BatchBody(static_cast<uint32_t>(t), second_records,
                              {sample}));
        if (response.status == 202) ++accepted[t - 1];
      }
    });
  }
  for (auto& agent : agents) agent.join();
  flooder.join();
  traffic_done.store(true, std::memory_order_relaxed);
  reader.join();

  // Wait for tenant-1's incident diagnosis to surface.
  bool report_served = false;
  for (int attempt = 0; attempt < 500 && !report_served; ++attempt) {
    const ClientResponse r =
        Request(port, "GET", "/v1/reports?limit=5", "tenant-1");
    report_served =
        r.status == 200 && r.body.find("\"ok\":true") != std::string::npos;
    if (!report_served) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  std::printf("%10s | %7s %9s %9s | %s\n", "tenant", "sent", "accepted",
              "goodput", "admission drops");
  std::printf("-----------+-----------------------------+----------------\n");
  const auto tenants = server.tenant_stats();
  bool goodput_ok = true;
  bool good_drops_zero = true;
  for (int t = 1; t <= num_tenants; ++t) {
    const std::string name = "tenant-" + std::to_string(t);
    const TenantAdmissionStats& stats = tenants.at(name);
    const uint64_t drops = stats.dropped_rate_limited +
                           stats.dropped_over_quota + stats.dropped_shed;
    const double goodput =
        sent[t - 1] == 0
            ? 0.0
            : 100.0 * static_cast<double>(accepted[t - 1]) /
                  static_cast<double>(sent[t - 1]);
    goodput_ok &= accepted[t - 1] * 10 >= sent[t - 1] * 9;
    good_drops_zero &= drops == 0;
    std::printf("%10s | %7zu %9zu %8.1f%% | %llu\n", name.c_str(),
                sent[t - 1], accepted[t - 1], goodput,
                static_cast<unsigned long long>(drops));
  }
  const TenantAdmissionStats& abuser_stats = tenants.at("abuser");
  const uint64_t abuser_drops = abuser_stats.dropped_rate_limited +
                                abuser_stats.dropped_over_quota +
                                abuser_stats.dropped_shed;
  std::printf("%10s | %7d %9d %8s | %llu\n", "abuser", flood_stats.flood_sent,
              flood_stats.flood_accepted, "-",
              static_cast<unsigned long long>(abuser_drops));
  const double p50 = Percentile(report_ms, 0.5);
  const double p99 = Percentile(report_ms, 0.99);
  std::printf("\nGET /v1/reports during flood: %zu reads, p50 %.2f ms, "
              "p99 %.2f ms\n",
              report_ms.size(), p50, p99);

  // Graceful stop, then the determinism contract over the accepted set.
  server.Stop();
  // The pump snapshots fleet stats at most once per advance interval, plus
  // Start()'s and the stop drain's: never once per delivery round.
  const ServerStats pump = server.stats();
  const double served_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - served_from)
                               .count();
  const double snapshot_bound =
      served_ms / static_cast<double>(soptions.advance_interval_ms) + 2.0;
  std::printf("\npump: %llu batches delivered, %llu fleet-stats snapshots "
              "over %.0f ms (bound %.0f)\n",
              static_cast<unsigned long long>(pump.batches_delivered),
              static_cast<unsigned long long>(pump.fleet_stats_snapshots),
              served_ms, snapshot_bound);
  const auto accepted_streams = server.accepted_streams();
  bool fingerprints_identical = !accepted_streams.empty();
  for (const auto& [instance, log] : accepted_streams) {
    // A fleet of one per accepted stream, at 1 vs 4 ingest workers.
    const std::vector<fleet::FleetInstanceSpec> solo = {{instance, 0}};
    fleet::FleetReplayOptions roptions;
    roptions.num_ingest_workers = 1;
    const std::string fp1 = fleet::RunFleetReplay(solo, {log}, catalog,
                                                  roptions)
                                .InstanceFingerprint(instance);
    roptions.num_ingest_workers = 4;
    const std::string fp4 = fleet::RunFleetReplay(solo, {log}, catalog,
                                                  roptions)
                                .InstanceFingerprint(instance);
    fingerprints_identical &= !fp1.empty() && fp1 == fp4;
  }
  fleet->Stop();

  const struct {
    const char* name;
    bool ok;
  } checks[] = {
      {"every well-behaved tenant kept >= 90% goodput", goodput_ok},
      {"well-behaved tenants saw zero admission drops", good_drops_zero},
      {"flood mostly rejected (rejected > accepted)",
       flood_stats.flood_rejected > flood_stats.flood_accepted},
      {"rejections carried Retry-After guidance",
       flood_stats.flood_retry_after > 0},
      {"abusive tenant charged for every drop", abuser_drops > 0},
      {"GET /v1/reports p99 within bound",
       !report_ms.empty() && p99 <= p99_bound_ms},
      {"tenant-1 incident diagnosed and served", report_served},
      {"accepted streams replay identically at 1 vs 4 ingest workers",
       fingerprints_identical},
      {"fleet-stats snapshots at most one per advance interval",
       static_cast<double>(pump.fleet_stats_snapshots) <= snapshot_bound},
  };
  std::printf("\nshape checks:\n");
  int violations = 0;
  for (const auto& check : checks) {
    std::printf("  %-62s %s\n", check.name, check.ok ? "OK" : "VIOLATED");
    violations += check.ok ? 0 : 1;
  }
  return violations;
}

}  // namespace
}  // namespace pinsql::serve

int main(int argc, char** argv) {
  return pinsql::serve::RunBench(argc, argv);
}
