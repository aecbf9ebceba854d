#include "served_run.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "fleet/fleet_replay.h"
#include "serve/http.h"
#include "serve/server.h"
#include "util/json.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using pinsql::Json;
using pinsql::fleet::FleetService;
using pinsql::serve::Server;

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Peak resident memory (VmHWM) since the last ResetPeakRss().
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Restarts the peak count from the current resident size.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t wait = deadline_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

using ReportKey = std::pair<uint32_t, std::pair<int64_t, int64_t>>;

std::vector<uint64_t> RankingIds(const Json* ranking) {
  std::vector<uint64_t> ids;
  if (ranking == nullptr || !ranking->is_array()) return ids;
  for (const Json& item : ranking->AsArray()) {
    const std::string hex = item.GetStringOr("sql_id", "");
    ids.push_back(std::strtoull(hex.c_str(), nullptr, 16));
  }
  return ids;
}

/// The reader: GET /v1/reports at a fixed rate on one keep-alive
/// connection, timing each read from its scheduled time and recording the
/// first time each report is seen.
class Reader {
 public:
  Reader(uint16_t port, double reads_per_s, Server* server, bool trace)
      : port_(port),
        period_ns_(static_cast<int64_t>(1e9 / reads_per_s)),
        server_(server),
        trace_(trace) {}

  void Start() { thread_ = std::thread(&Reader::Loop, this); }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  void SetMeasuring(bool on) { measuring_.store(on); }
  int64_t CpuNs() { return ThreadCpuNs(thread_); }

  std::mutex mu;
  std::map<ReportKey, ServedReport> reports;
  std::vector<double> read_ms;
  std::vector<int64_t> read_due_ns;
  std::vector<double> render_us;
  size_t reads = 0;
  size_t reads_failed = 0;

 private:
  static constexpr size_t kPage = 4;

  void Loop() {
    HttpConnection conn(port_);
    const std::string page = ReportsRequest(kPage);
    const std::string full = ReportsRequest(1000);
    pinsql::serve::HttpParser parser{pinsql::serve::HttpLimits{}};
    parser.Feed(page);
    const pinsql::serve::HttpRequest parsed = parser.request();
    std::string body;
    std::string previous;
    int64_t due = NowNs();
    // Spacing is jittered around the period (same mean rate): reports fall
    // due on the sender's simulated-second grid, and a strictly periodic
    // poll would lock onto it, so each run's report latency would snap to
    // whichever whole poll period its phase happened to land on.
    std::mt19937_64 jitter(0x7EAD);
    std::uniform_real_distribution<double> spacing(0.5, 1.5);
    while (!stop_.load()) {
      SleepUntilNs(due);
      const int status = conn.RoundTrip(page, &body);
      const int64_t done = NowNs();
      const bool measuring = measuring_.load();
      if (status == 200 && body != previous) {
        const size_t fresh = Absorb(body, done);
        if (fresh >= kPage) {
          // The page was all new: fetch the whole cache so nothing that
          // scrolled past is missed.
          std::string all;
          if (conn.RoundTrip(full, &all) == 200) Absorb(all, NowNs());
        }
        previous.swap(body);
      }
      double render = -1.0;
      if (trace_) {
        const int64_t t0 = NowNs();
        const auto response =
            server_->HandleRequest(parsed, Server::NowMs());
        render = static_cast<double>(NowNs() - t0) / 1e3;
        if (response.status != 200) render = -1.0;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (measuring) {
          ++reads;
          if (status != 200) ++reads_failed;
          read_ms.push_back(static_cast<double>(done - due) / 1e6);
          read_due_ns.push_back(due);
          if (render >= 0.0) render_us.push_back(render);
        }
      }
      due += static_cast<int64_t>(static_cast<double>(period_ns_) *
                                  spacing(jitter));
    }
  }

  /// Records reports not seen before; returns how many were new.
  size_t Absorb(const std::string& body, int64_t seen_ns) {
    auto parsed = Json::Parse(body);
    if (!parsed.ok()) return 0;
    const Json* list = parsed.value().Find("reports");
    if (list == nullptr || !list->is_array()) return 0;
    size_t fresh = 0;
    std::lock_guard<std::mutex> lock(mu);
    for (const Json& entry : list->AsArray()) {
      ServedReport r;
      r.instance_id =
          static_cast<uint32_t>(entry.GetNumberOr("instance", -1.0));
      r.onset_sec = static_cast<int64_t>(entry.GetNumberOr("onset_sec", 0.0));
      r.trigger_sec =
          static_cast<int64_t>(entry.GetNumberOr("trigger_sec", 0.0));
      const ReportKey key{r.instance_id, {r.onset_sec, r.trigger_sec}};
      if (reports.count(key) != 0) continue;
      ++fresh;
      r.ok = entry.GetBoolOr("ok", false);
      r.storm_deferred = entry.GetBoolOr("storm_deferred", false);
      r.first_seen_ns = seen_ns;
      if (const Json* report = entry.Find("report")) {
        r.rsqls = RankingIds(report->Find("rsqls"));
        r.hsqls = RankingIds(report->Find("hsqls"));
        if (const Json* trace = report->Find("trace")) {
          r.stage_seconds["total"] = trace->GetNumberOr("total_seconds", 0.0);
          if (const Json* stages = trace->Find("stages");
              stages != nullptr && stages->is_array()) {
            for (const Json& stage : stages->AsArray()) {
              const std::string name = stage.GetStringOr("name", "");
              r.stage_seconds[name] = stage.GetNumberOr("seconds", 0.0);
              if (const Json* counters = stage.Find("counters");
                  counters != nullptr && counters->is_object()) {
                for (const auto& [k, v] : counters->AsObject()) {
                  if (v.is_number()) {
                    r.stage_counters[name][k] =
                        static_cast<int64_t>(v.AsNumber());
                  }
                }
              }
            }
          }
        }
      }
      reports.emplace(key, std::move(r));
    }
    return fresh;
  }

  uint16_t port_;
  int64_t period_ns_;
  Server* server_;
  bool trace_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> measuring_{false};
  std::thread thread_;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::vector<PlannedRequest> Plan(const Workload& w, int64_t from_sec,
                                 int64_t to_sec, const SendSchedule& s) {
  std::vector<PlannedRequest> plan;
  plan.reserve(static_cast<size_t>(to_sec - from_sec) * w.specs.size());
  for (int64_t sec = from_sec; sec < to_sec; ++sec) {
    for (size_t i = 0; i < w.specs.size(); ++i) {
      if (!HasData(w, i, sec)) continue;
      plan.push_back({s.DueNs(sec, i), sec, static_cast<uint32_t>(i), sec});
    }
  }
  return plan;
}

/// Records and batches the server admitted vs. delivered so far.
struct Ledger {
  uint64_t batches_admitted = 0;
  uint64_t records_admitted = 0;
  uint64_t records_delivered = 0;
};

Ledger ReadLedger(const Server& server) {
  Ledger ledger;
  for (const auto& [name, s] : server.tenant_stats()) {
    ledger.batches_admitted += s.batches_admitted;
    ledger.records_admitted += s.records_admitted;
    ledger.records_delivered += s.records_delivered;
  }
  return ledger;
}

/// Waits until every admitted record has been delivered into the fleet
/// (or the budget runs out); returns whether it drained.
bool WaitDelivered(const Server& server, const pinsql::fleet::FleetService& fleet,
                   int64_t budget_ms) {
  const int64_t deadline = NowNs() + budget_ms * 1'000'000;
  while (true) {
    const Ledger ledger = ReadLedger(server);
    const auto stats = fleet.stats();
    const uint64_t dropped = stats.ingest.records_dropped_backpressure +
                             stats.ingest.records_dropped_late;
    if (ledger.records_delivered + dropped >= ledger.records_admitted) {
      return true;
    }
    if (NowNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

const ServedReport* MatchIncident(
    const Incident& incident,
    const std::map<ReportKey, ServedReport>& reports) {
  const ServedReport* best = nullptr;
  for (auto it = reports.lower_bound({incident.instance_id, {INT64_MIN, 0}});
       it != reports.end() && it->first.first == incident.instance_id; ++it) {
    const ServedReport& r = it->second;
    if (!r.ok || r.onset_sec < incident.onset_sec - 60 ||
        r.onset_sec > incident.end_sec) {
      continue;
    }
    if (best == nullptr || r.trigger_sec < best->trigger_sec) best = &r;
  }
  return best;
}

}  // namespace

ServedRunResult RunServed(const Workload& w, const std::string& data_dir,
                          bool trace) {
  ServedRunResult out;
  const int64_t run_start = NowNs();
  const auto phase = [run_start](const char* name) {
    std::fprintf(stderr, "[%7.3f s] %s\n",
                 static_cast<double>(NowNs() - run_start) / 1e9, name);
  };
  // Baseline: the generator's own data, with generation's freed heap
  // returned to the OS first.
  ::malloc_trim(0);
  const double rss_baseline = RssMb();
  const int64_t delay = w.fleet.scheduler.diagnose_delay_sec;
  fs::create_directories(data_dir);
  const std::string history = data_dir + "/history";
  WriteHistoryJournal(w, history);

  // Set-up, five times: construct the fleet, recover its journals, start
  // the server. The last incarnation serves the run.
  std::unique_ptr<FleetService> fleet;
  std::unique_ptr<Server> server;
  std::string run_dir;
  constexpr int kSetups = 5;
  for (int trial = 0; trial < kSetups; ++trial) {
    run_dir = data_dir + "/run-" + std::to_string(trial);
    fs::copy(history, run_dir, fs::copy_options::recursive);
    // Flush the copy, so its writeback does not land in the timed set-up.
    ::sync();
    pinsql::fleet::FleetOptions options = w.fleet;
    options.data_dir = run_dir;
    const int64_t t0 = NowNs();
    auto f = std::make_unique<FleetService>(w.specs, options);
    for (const auto& [id, entry] : w.catalog.catalog()) {
      f->RegisterTemplateFleetWide(id, entry);
    }
    f->Start();
    auto s = std::make_unique<Server>(f.get(), w.server);
    const pinsql::Status status = s->Start();
    out.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!status.ok()) {
      out.check_failures.push_back("server start: " + status.message());
      fs::remove_all(data_dir);
      return out;
    }
    if (trial < kSetups - 1) {
      s->Stop();
      f->Stop();
      s.reset();
      f.reset();
      fs::remove_all(run_dir);
    } else {
      fleet = std::move(f);
      server = std::move(s);
    }
  }
  out.recovery = fleet->recovery();
  // Hand the discarded incarnations' heap back to the OS, so peak memory
  // reads the serving incarnation, not allocator leftovers.
  ::malloc_trim(0);
  ResetPeakRss();
  phase("set up");

  // The generator's four threads: the sender (this thread), the reader and
  // two idle-priority spinners for the timed phases.
  auto keep_awake = std::make_unique<IdleSpinners>(2);
  Reader reader(server->port(), w.reads_per_s, server.get(), trace);
  reader.Start();
  OpenLoopSender sender(server->port(), 3);
  if (!sender.ok()) out.check_failures.push_back("connect failed");
  const WireBuilder build = [&w](const PlannedRequest& r, std::string* wire) {
    BuildIngestRequest(w, r.stream, r.sec, wire);
  };

  // CPU time of the serving side (the server's and the fleet's threads):
  // the process's, less the generator's own threads.
  const auto serving_cpu_ns = [&] {
    return ProcessCpuNs() - ThreadCpuNs() - reader.CpuNs() -
           keep_awake->CpuNs();
  };

  // Measured phase at the nominal rate.
  const int64_t cpu_start = serving_cpu_ns();
  SendSchedule schedule;
  schedule.origin_ns = NowNs() + 20'000'000;
  schedule.first_sec = w.journal_end_sec;
  schedule.ns_per_sim_sec = 1e9 / w.nominal_sim_sec_per_s;
  schedule.slots = w.specs.size();
  reader.SetMeasuring(true);
  const std::vector<PlannedRequest> plan =
      Plan(w, w.journal_end_sec, w.measured_end_sec, schedule);
  const std::vector<RequestResult> results = sender.Run(plan, build);
  size_t responses_202 = 0;
  for (const RequestResult& r : results) {
    out.ingest_ms.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e6);
    out.ingest_due_ns.push_back(r.due_ns);
    out.generator_lag_ms.push_back(
        static_cast<double>(r.sent_ns - r.ready_ns) / 1e6);
    ++out.ingest_requests;
    if (r.status == 202) {
      ++responses_202;
    } else {
      ++out.ingest_failed;
    }
  }
  int64_t last_done = 0;
  size_t records_accepted = 0;
  for (size_t k = 0; k < results.size(); ++k) {
    last_done = std::max(last_done, results[k].done_ns);
    if (results[k].status == 202) {
      const auto [b, e] = SecondRecords(w, plan[k].stream, plan[k].sec);
      records_accepted += static_cast<size_t>(e - b);
    }
  }
  const double measured_rate =
      results.empty()
          ? 0.0
          : static_cast<double>(records_accepted) * 1e9 /
                static_cast<double>(last_done - schedule.origin_ns);
  if (!results.empty()) {
    out.backlog_ms =
        static_cast<double>(last_done - results.back().due_ns) / 1e6;
  }
  if (!WaitDelivered(*server, *fleet, 10'000)) {
    out.check_failures.push_back("admitted records never delivered");
  }
  // Drain: wait for every expected incident's report.
  const int64_t drain_deadline = NowNs() + 20'000'000'000LL;
  while (NowNs() < drain_deadline) {
    size_t seen = 0;
    {
      std::lock_guard<std::mutex> lock(reader.mu);
      for (const Incident& incident : w.incidents) {
        if (MatchIncident(incident, reader.reports) != nullptr) ++seen;
      }
    }
    if (seen == w.incidents.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  reader.SetMeasuring(false);
  out.serving_cpu_us_per_record =
      static_cast<double>(serving_cpu_ns() - cpu_start) / 1e3 /
      static_cast<double>(std::max<size_t>(records_accepted, 1));
  out.measured_records = records_accepted;
  phase("measured phase drained");

  double offered_records = 0.0;
  for (size_t i = 0; i < w.specs.size(); ++i) {
    for (int64_t sec = w.journal_end_sec; sec < w.measured_end_sec; ++sec) {
      const auto [b, e] = SecondRecords(w, i, sec);
      offered_records += static_cast<double>(e - b);
    }
  }
  out.records_per_sim_sec =
      offered_records /
      static_cast<double>(w.measured_end_sec - w.journal_end_sec);

  // Throughput ladder: a staircase over the fixed ladder of offered rates
  // finds the step that meets the latency limit without a backlog half
  // the time; a failed probe's backlog drains before the next one.
  int64_t cursor = w.measured_end_sec;
  const auto probe_secs = [&](double rate) {
    return std::max<int64_t>(1, std::llround(rate * w.ladder_step_s));
  };
  const auto probe = [&](double rate) {
    LadderStep step;
    step.sim_sec_per_s = rate;
    step.records_per_s = rate * out.records_per_sim_sec;
    const int64_t secs = probe_secs(rate);
    SendSchedule s = schedule;
    s.origin_ns = NowNs() + 5'000'000;
    s.first_sec = cursor;
    s.ns_per_sim_sec = 1e9 / rate;
    const auto step_results =
        sender.Run(Plan(w, cursor, cursor + secs, s), build);
    cursor += secs;
    std::vector<double> lat;
    step.all_accepted = true;
    int64_t last_done = 0;
    for (const RequestResult& r : step_results) {
      lat.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e6);
      step.all_accepted &= r.status == 202;
      responses_202 += r.status == 202 ? 1 : 0;
      last_done = std::max(last_done, r.done_ns);
    }
    step.ingest_p99_ms = Percentile(lat, 99.0);
    // Offered load absorbed on schedule: the last response came within
    // the latency limit of the last due time.
    step.kept_pace =
        !step_results.empty() &&
        static_cast<double>(last_done - step_results.back().due_ns) / 1e6 <=
            w.ingest_p99_limit_ms;
    step.backlog_drained = WaitDelivered(*server, *fleet, 100);
    step.passed = step.all_accepted && step.kept_pace &&
                  step.backlog_drained &&
                  step.ingest_p99_ms <= w.ingest_p99_limit_ms;
    out.ladder.push_back(step);
    if (!step.passed) WaitDelivered(*server, *fleet, 10'000);
    return step;
  };
  if (!w.ladder.empty()) {
    // The streams hold a fixed budget of ladder seconds; a host fast
    // enough to exhaust it ends the staircase early.
    Staircase stairs(w.ladder.size(), w.ladder_start, w.ladder_probes);
    while (!stairs.done() &&
           cursor + probe_secs(w.ladder[stairs.level()]) <= w.end_sec) {
      stairs.Record(probe(w.ladder[stairs.level()]).passed);
    }
    out.ladder_counted = stairs.counted();
    out.sustained_records_per_s =
        LadderRate(w.ladder, stairs.Estimate()) * out.records_per_sim_sec;
  } else {
    // No ladder: the rate the measured phase delivered at its nominal
    // offered rate.
    out.sustained_records_per_s = measured_rate;
  }
  reader.Stop();
  keep_awake.reset();
  out.rss_mb = PeakRssMb() - rss_baseline;
  phase("ladder done");

  // Drop ledger from the server's own metrics endpoint.
  {
    HttpConnection conn(server->port());
    std::string body;
    if (conn.RoundTrip(MetricszRequest(), &body) == 200) {
      auto parsed = Json::Parse(body);
      if (parsed.ok()) {
        if (const Json* drops = parsed.value().Find("drops")) {
          for (const char* layer : {"admission", "ingest"}) {
            if (const Json* l = drops->Find(layer);
                l != nullptr && l->is_object()) {
              for (const auto& [k, v] : l->AsObject()) {
                out.drops[std::string(layer) + "." + k] =
                    static_cast<uint64_t>(v.AsNumber());
              }
            }
          }
        }
      }
    } else {
      out.check_failures.push_back("GET /v1/metricsz failed");
    }
  }
  const Ledger ledger = ReadLedger(*server);
  if (ledger.batches_admitted != responses_202) {
    out.check_failures.push_back(
        "admission: " + std::to_string(responses_202) + " responses 202 vs " +
        std::to_string(ledger.batches_admitted) + " batches admitted");
  }
  const uint64_t ingest_drops =
      out.drops["ingest.backpressure"] + out.drops["ingest.late"];
  if (ledger.records_admitted != ledger.records_delivered + ingest_drops) {
    out.check_failures.push_back(
        "ledger: admitted " + std::to_string(ledger.records_admitted) +
        " != delivered " + std::to_string(ledger.records_delivered) +
        " + drops " + std::to_string(ingest_drops));
  }

  server->Stop();
  fleet->Stop();
  out.fleet_stats = fleet->stats();
  out.disk_bytes = static_cast<double>(DirBytes(run_dir));
  out.accepted_records =
      static_cast<double>(out.fleet_stats.ingest.records_enqueued);
  server.reset();
  fleet.reset();
  fs::remove_all(data_dir);
  phase("stopped");

  {
    std::lock_guard<std::mutex> lock(reader.mu);
    out.reports = reader.reports;
    out.read_ms = reader.read_ms;
    out.read_due_ns = reader.read_due_ns;
    out.render_us = reader.render_us;
    out.reads = reader.reads;
    out.reads_failed = reader.reads_failed;
  }

  // Incidents: recall, R-SQL hit@1 and trigger-to-report latency.
  for (const Incident& incident : w.incidents) {
    ++out.incidents;
    const ServedReport* r = MatchIncident(incident, out.reports);
    if (r == nullptr) {
      std::fprintf(stderr, "unreported incident: instance %u onset %lld end %lld;",
                   incident.instance_id,
                   static_cast<long long>(incident.onset_sec),
                   static_cast<long long>(incident.end_sec));
      for (const auto& [key, rep] : out.reports) {
        if (key.first == incident.instance_id) {
          std::fprintf(stderr, " report onset %lld trigger %lld ok %d storm %d;",
                       static_cast<long long>(rep.onset_sec),
                       static_cast<long long>(rep.trigger_sec), rep.ok,
                       rep.storm_deferred);
        }
      }
      std::fprintf(stderr, "\n");
      continue;
    }
    ++out.incidents_reported;
    if (!r->rsqls.empty() &&
        std::find(incident.culprits.begin(), incident.culprits.end(),
                  r->rsqls.front()) != incident.culprits.end()) {
      ++out.incidents_hit1;
    }
    out.report_ms.push_back(
        static_cast<double>(r->first_seen_ns -
                            ReportAnchorNs(schedule, r->trigger_sec, delay)) /
        1e6);
  }

  // Correctness: every report due in the measured phase ranks exactly as
  // an uninterrupted in-process replay of the same streams does.
  std::vector<pinsql::online::ReplayLog> logs(w.logs.size());
  for (size_t i = 0; i < w.logs.size(); ++i) {
    for (const auto& s : w.logs[i].samples) {
      if (s.sec < cursor) logs[i].samples.push_back(s);
    }
    const size_t end_index =
        w.second_begin[i][static_cast<size_t>(cursor - w.first_sec)];
    logs[i].records.assign(w.logs[i].records.begin(),
                           w.logs[i].records.begin() +
                               static_cast<std::ptrdiff_t>(end_index));
  }
  pinsql::fleet::FleetReplayOptions replay;
  replay.fleet = w.fleet;
  replay.fleet.data_dir.clear();
  const pinsql::fleet::FleetResult reference =
      pinsql::fleet::RunFleetReplay(w.specs, logs, w.catalog, replay);
  std::map<ReportKey, const pinsql::fleet::FleetOutcome*> expected;
  for (const auto& outcome : reference.outcomes) {
    const auto& t = outcome.outcome.trigger;
    expected[{t.instance_id, {t.onset_sec, t.trigger_sec}}] = &outcome;
  }
  size_t compared = 0;
  for (const auto& [key, served] : out.reports) {
    const int64_t due_sec = served.trigger_sec + delay;
    if (due_sec < w.journal_end_sec || due_sec >= w.measured_end_sec) continue;
    if (!served.ok) ++out.diagnoses_failed;
    auto it = expected.find(key);
    if (it == expected.end()) {
      out.check_failures.push_back("served report missing from replay");
      continue;
    }
    const auto& ref = it->second->outcome;
    std::vector<uint64_t> rsqls, hsqls;
    for (const auto& t : ref.report.rsqls) rsqls.push_back(t.sql_id);
    for (const auto& t : ref.report.hsqls) hsqls.push_back(t.sql_id);
    ++compared;
    if (ref.ok != served.ok || rsqls != served.rsqls ||
        hsqls != served.hsqls) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "ranking mismatch: instance %u onset %lld trigger %lld",
                    key.first, static_cast<long long>(key.second.first),
                    static_cast<long long>(key.second.second));
      out.check_failures.push_back(buf);
    }
  }
  // ...and every diagnosis the replay made due in the measured phase was
  // served.
  for (const auto& [key, outcome] : expected) {
    const int64_t due_sec = key.second.second + delay;
    if (due_sec < w.journal_end_sec || due_sec >= w.measured_end_sec) continue;
    if (out.reports.count(key) == 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "replay diagnosis never served: instance %u onset %lld "
                    "trigger %lld",
                    key.first, static_cast<long long>(key.second.first),
                    static_cast<long long>(key.second.second));
      out.check_failures.push_back(buf);
    }
  }
  phase("reference replay compared");
  if (compared == 0 && !w.incidents.empty()) {
    out.check_failures.push_back("no served report to compare");
  }
  return out;
}

}  // namespace perfbench
