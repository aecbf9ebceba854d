#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <thread>

#include "detect/forecast.h"
#include "eval/case_generator.h"
#include "eval/fleet_cases.h"
#include "eval/online_e2e.h"
#include "online/online_detector.h"

namespace perfbench {
namespace {

using pinsql::QueryLogRecord;
using pinsql::online::PerfSample;
using pinsql::online::ReplayLog;

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL ^ (a + 0x632BE59BD9B4E019ULL);
  x = (x ^ (x >> 31)) * 0xBF58476D1CE4E5B9ULL ^ (b + 0x94D049BB133111EBULL);
  return x ^ (x >> 29);
}

/// Orders each log's records by second (stable) and indexes the seconds.
void IndexSeconds(Workload* w) {
  w->second_begin.assign(w->logs.size(), {});
  const int64_t span = w->end_sec - w->first_sec;
  for (size_t i = 0; i < w->logs.size(); ++i) {
    auto& records = w->logs[i].records;
    std::stable_sort(records.begin(), records.end(),
                     [](const QueryLogRecord& a, const QueryLogRecord& b) {
                       return a.arrival_ms / 1000 < b.arrival_ms / 1000;
                     });
    auto& begin = w->second_begin[i];
    begin.resize(static_cast<size_t>(span) + 1);
    size_t r = 0;
    for (int64_t s = 0; s <= span; ++s) {
      // Records older than first_sec ride with the first second.
      const int64_t limit_ms = (w->first_sec + s) * 1000;
      while (s > 0 && r < records.size() && records[r].arrival_ms < limit_ms) {
        ++r;
      }
      begin[static_cast<size_t>(s)] = r;
    }
    begin[static_cast<size_t>(span)] = records.size();
  }
}

/// Cuts every log to [first_sec, end_sec).
void CutLogs(Workload* w) {
  for (ReplayLog& log : w->logs) {
    std::erase_if(log.samples, [&](const PerfSample& s) {
      return s.sec < w->first_sec || s.sec >= w->end_sec;
    });
    std::erase_if(log.records, [&](const QueryLogRecord& r) {
      return r.arrival_ms < w->first_sec * 1000 ||
             r.arrival_ms >= w->end_sec * 1000;
    });
  }
}

void CommonOptions(Workload* w) {
  // kInterval, at an interval that keeps shared-disk fsync stalls (each
  // instance journals its own WAL) from dominating every latency figure.
  w->fleet.wal.fsync = pinsql::store::FsyncPolicy::kInterval;
  w->fleet.wal.fsync_interval_frames = 1024;
  pinsql::serve::TenantQuota quota;
  quota.records_per_sec = 1e9;
  quota.record_burst = 1e9;
  quota.bytes_per_sec = 1e12;
  quota.byte_burst = 1e12;
  quota.queue_capacity_batches = 1'000'000;
  quota.weight = 1;
  pinsql::serve::TenantQuota ops = quota;
  for (size_t t = 0; t < w->tenants.size(); ++t) {
    pinsql::serve::TenantQuota q = quota;
    for (size_t i = 0; i < w->specs.size(); ++i) {
      if (w->tenant_of[i] == t) q.instances.push_back(w->specs[i].instance_id);
    }
    w->server.admission.tenants[w->tenants[t]] = q;
  }
  for (const auto& spec : w->specs) ops.instances.push_back(spec.instance_id);
  // The on-call view: a read-only tenant scoped to the whole fleet.
  w->server.admission.tenants["ops"] = ops;
  // One DRR visit drains a tenant's whole backlog, so delivery keeps the
  // order the generator's per-second barrier established.
  w->server.admission.drr_quantum_bytes = 64ull << 20;
  w->server.max_cached_outcomes = 4096;
}

/// Fleet-scale streams: `groups` independent fleet cases of 48 instances
/// each, concatenated over 600-second epochs whose incident windows are
/// staggered so incidents arrive evenly. Epochs that would put six or more
/// onsets in one 45-second window (a correlator storm, which defers
/// diagnoses by design) are redrawn.
void MakeFleetStreams(uint64_t seed, Workload* w) {
  constexpr size_t kGroups = 4;
  constexpr size_t kPerGroup = 48;
  constexpr int64_t kEpoch = 600;
  const int64_t span_begin = w->first_sec - kEpoch;
  const size_t epochs =
      static_cast<size_t>((w->end_sec - span_begin) / kEpoch + 2);

  w->logs.assign(kGroups * kPerGroup, {});
  w->specs.clear();
  for (size_t g = 0; g < kGroups; ++g) {
    for (size_t i = 0; i < kPerGroup; ++i) {
      w->specs.push_back({static_cast<uint32_t>(g * kPerGroup + i),
                          static_cast<uint32_t>((g * kPerGroup + i) / 4)});
    }
  }
  struct Epoch {
    pinsql::eval::FleetCase fleet_case;
  };
  std::vector<std::vector<Epoch>> cases(kGroups);
  std::vector<int64_t> onsets;
  const auto epoch_case = [&](size_t g, size_t k, uint64_t attempt) {
    pinsql::eval::FleetCaseOptions o;
    o.num_instances = kPerGroup;
    o.instances_per_host = 4;
    o.seed = Mix(seed, g * 1000 + k, attempt);
    o.start_sec = span_begin + static_cast<int64_t>(g) * (kEpoch / kGroups) +
                  static_cast<int64_t>(k) * kEpoch;
    o.duration_sec = kEpoch;
    o.anomaly_fraction = 0.3;
    o.inject_noisy_host = g == 0;
    // Mid-window of its own group, so redrawing the group's independent
    // incidents can always clear a crowded window around the burst.
    o.neighbor_onset_offset_sec = 225;
    return pinsql::eval::GenerateFleetCase(o);
  };
  // A correlator storm needs 8 distinct instances within 30 s; keep every
  // 40-second window that holds a new onset below 7.
  const auto storm_risk = [](const std::vector<int64_t>& old_onsets,
                             const std::vector<int64_t>& fresh) {
    std::vector<int64_t> all = old_onsets;
    all.insert(all.end(), fresh.begin(), fresh.end());
    std::sort(all.begin(), all.end());
    for (int64_t x : fresh) {
      const auto lo = std::lower_bound(all.begin(), all.end(), x - 40);
      for (auto start = lo; start != all.end() && *start <= x; ++start) {
        const auto stop = std::upper_bound(start, all.end(), *start + 40);
        if (stop - start >= 7) return true;
      }
    }
    return false;
  };
  for (size_t k = 0; k < epochs; ++k) {
    for (size_t g = 0; g < kGroups; ++g) {
      for (uint64_t attempt = 0;; ++attempt) {
        pinsql::eval::FleetCase c = epoch_case(g, k, attempt);
        std::vector<int64_t> fresh;
        for (const auto& t : c.truth) {
          if (t.kind != pinsql::eval::FleetInstanceTruth::Kind::kClean) {
            fresh.push_back(t.onset_sec);
          }
        }
        if (attempt < 256 && storm_risk(onsets, fresh)) continue;
        onsets.insert(onsets.end(), fresh.begin(), fresh.end());
        cases[g].push_back({std::move(c)});
        break;
      }
    }
  }
  for (size_t g = 0; g < kGroups; ++g) {
    for (const Epoch& e : cases[g]) {
      const auto& c = e.fleet_case;
      for (size_t i = 0; i < kPerGroup; ++i) {
        ReplayLog& log = w->logs[g * kPerGroup + i];
        log.samples.insert(log.samples.end(), c.logs[i].samples.begin(),
                           c.logs[i].samples.end());
        log.records.insert(log.records.end(), c.logs[i].records.begin(),
                           c.logs[i].records.end());
        const auto& t = c.truth[i];
        if (t.kind != pinsql::eval::FleetInstanceTruth::Kind::kClean) {
          w->incidents.push_back({static_cast<uint32_t>(g * kPerGroup + i),
                                  t.onset_sec, t.end_sec, {t.culprit_sql_id}});
        }
      }
      if (&e == &cases[g].front()) {
        for (const auto& [id, entry] : c.catalog.catalog()) {
          if (w->catalog.catalog().count(id) == 0) {
            w->catalog.RegisterTemplate(id, entry);
          }
        }
      }
    }
  }
  w->tenants = {"tenant-a", "tenant-b", "tenant-c"};
  w->tenant_of.resize(w->specs.size());
  for (size_t i = 0; i < w->specs.size(); ++i) w->tenant_of[i] = i % 3;
}

/// Keeps the incidents a run can be held to: onset after the detector's
/// warm-up (and after the journaled history), early enough to be detected
/// and diagnosed before the measured phase ends.
/// Only an instance's first streamed incident counts: the fleet's trigger
/// dedup extends a finished incident's cooldown for as long as its
/// detector stays in a run, so a recurrence may be folded into it by
/// design.
void KeepMeasurableIncidents(int64_t from_sec, int64_t to_sec, Workload* w) {
  std::sort(w->incidents.begin(), w->incidents.end(),
            [](const Incident& a, const Incident& b) {
              return std::tie(a.onset_sec, a.instance_id) <
                     std::tie(b.onset_sec, b.instance_id);
            });
  std::map<uint32_t, bool> streamed_before;
  std::vector<Incident> kept;
  for (const Incident& incident : w->incidents) {
    if (incident.end_sec <= w->first_sec) continue;  // never streamed
    const bool recurrence = streamed_before[incident.instance_id];
    streamed_before[incident.instance_id] = true;
    if (!recurrence && incident.onset_sec >= from_sec &&
        incident.onset_sec <= to_sec) {
      kept.push_back(incident);
    }
  }
  w->incidents = std::move(kept);
}

void MakeFleetServe(uint64_t seed, double seconds, Workload* w) {
  // The nominal rate (4.8k requests/s) sits near a third of the knee, so
  // host noise on a shared machine rarely tips the measured phase into a
  // backlog. The detectors' two-minute warm-up is journaled beforehand,
  // so the measured phase streams incidents from its start.
  w->nominal_sim_sec_per_s = 25.0;
  w->ingest_p99_limit_ms = 50.0;
  w->generator_lag_limit_ms = 5.0;
  w->reads_per_s = 1000.0;
  w->first_sec = 1000;
  w->journal_end_sec = w->first_sec + 120;
  const double nominal_s = 0.7 * seconds;
  w->measured_end_sec =
      w->journal_end_sec +
      static_cast<int64_t>(std::llround(nominal_s * w->nominal_sim_sec_per_s));
  // Ladder: offered rates 4% apart from 60 simulated s/s (~150k records/s
  // at the top), walked by a staircase of 1.5-s probes from step 10
  // (~89 s/s) that averages 8 probes from its first reversal on. The
  // streams hold 14 probes at step 16 (~112 s/s, near the knee on a
  // 4-core host).
  for (int k = 0; k < 24; ++k) w->ladder.push_back(60.0 * std::pow(1.04, k));
  w->ladder_step_s = 1.5;
  w->ladder_start = 10;
  w->ladder_probes = 8;
  const int64_t ladder_secs =
      static_cast<int64_t>(14 * w->ladder[16] * w->ladder_step_s) + 10;
  w->end_sec = w->measured_end_sec + ladder_secs;
  MakeFleetStreams(seed, w);
  CutLogs(w);
  KeepMeasurableIncidents(w->journal_end_sec, w->measured_end_sec - 90, w);
  CommonOptions(w);
}

void MakeRestartRecover(uint64_t seed, double seconds, Workload* w) {
  w->nominal_sim_sec_per_s = 25.0;
  w->ingest_p99_limit_ms = 50.0;
  w->generator_lag_limit_ms = 5.0;
  w->reads_per_s = 1000.0;
  w->first_sec = 1000;
  w->journal_end_sec = w->first_sec + 1200;
  w->measured_end_sec =
      w->journal_end_sec +
      static_cast<int64_t>(std::llround(seconds * 0.75 *
                                        w->nominal_sim_sec_per_s));
  w->end_sec = w->measured_end_sec;
  MakeFleetStreams(seed, w);
  CutLogs(w);
  KeepMeasurableIncidents(w->journal_end_sec, w->measured_end_sec - 90, w);
  CommonOptions(w);
}

/// Whether the streaming detector first fires within [onset - 5,
/// onset + 30] on this stream.
bool DetectableAt(const ReplayLog& log,
                  const pinsql::online::OnlineDetectorOptions& options,
                  int64_t onset_sec) {
  pinsql::online::OnlineAnomalyDetector detector(options);
  for (const PerfSample& sample : log.samples) {
    if (detector.Observe(sample.sec, sample.active_session).has_value()) {
      return sample.sec >= onset_sec - 5 && sample.sec <= onset_sec + 30;
    }
  }
  return false;
}

/// A handful of instances, each streaming one SynADAC case
/// (RecordCaseReplay of GenerateCase) with the paper's 30-minute clean
/// lookback before its anomaly, weighted toward the lock and migration
/// categories whose long-running statements make session estimation
/// costly. The scenario has ~500 templates (30 business clusters) at
/// 4-18 queries/s per cluster, so each diagnosis window holds ~750k
/// records.
///
/// The clean lookback is journaled beforehand, untimed, and recovered at
/// set-up, as in restart-recover; the measured phase streams only the
/// seconds around the anomalies, so the serving layers carry little and
/// diagnosis does most of the work.
///
/// The cases come from one fixed pool: with a handful of incidents per
/// run, drawing fresh cases per seed would make R-SQL accuracy a coin
/// toss between seeds. The seed deals the pool to the instances and so
/// sets each case's onset; onsets are 5 s apart.
void MakeIncidentDiagnose(uint64_t seed, double seconds, Workload* w) {
  using pinsql::workload::AnomalyType;
  constexpr size_t kInstances = 4;
  constexpr uint64_t kPoolSeed = 19;
  constexpr int64_t kLookback = 1800;
  constexpr int64_t kStagger = 5;
  static constexpr AnomalyType kMix[kInstances] = {
      AnomalyType::kRowLock, AnomalyType::kMdlLock,
      AnomalyType::kMigrationStorm, AnomalyType::kRowLock};
  w->fleet.scheduler.diagnoser.delta_s_sec = kLookback;
  w->fleet.ingestor.window_sec = 2400;
  w->fleet.detector.forecasters = pinsql::detect::DefaultEnsembleForecasters();

  // Streamed: from 10 s before the first onset until every diagnosis is
  // due (detection within 30 s of onset, then the diagnose delay).
  const int64_t first_onset = 100'000 + kLookback;
  const int64_t last_onset =
      first_onset + static_cast<int64_t>(kInstances - 1) * kStagger;
  w->first_sec = 100'000;
  w->journal_end_sec = first_onset - 10;
  w->measured_end_sec =
      last_onset + 30 + w->fleet.scheduler.diagnose_delay_sec + 5;
  w->end_sec = w->measured_end_sec;
  w->nominal_sim_sec_per_s =
      static_cast<double>(w->measured_end_sec - w->journal_end_sec) /
      std::max(0.75 * seconds, 1.0);
  w->ingest_p99_limit_ms = 50.0;
  // Pushes are ~40 ms apart; a diagnosis holding a core may delay the
  // sender's wake-up by a scheduler slice.
  w->generator_lag_limit_ms = 20.0;
  w->reads_per_s = 500.0;
  w->logs.assign(kInstances, {});
  std::vector<size_t> slot_of_case(kInstances);
  for (size_t i = 0; i < kInstances; ++i) {
    w->specs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i)});
    slot_of_case[i] = i;
  }
  std::shuffle(slot_of_case.begin(), slot_of_case.end(),
               std::mt19937_64(Mix(seed, 77, 0)));
  // Cases are independent, so one thread simulates each; results land in
  // per-case slots.
  std::vector<pinsql::eval::AnomalyCaseData> cases(kInstances);
  std::vector<ReplayLog> logs(kInstances);
  const auto generate = [&](size_t c) {
    pinsql::eval::CaseGenOptions o;
    o.type = kMix[c];
    o.scenario.num_clusters = 30;
    o.scenario.min_cluster_qps = 4.0;
    o.scenario.max_cluster_qps = 18.0;
    o.window_start_sec = w->first_sec;
    o.pre_anomaly_sec = kLookback;
    // Redraw cases whose anomaly the streaming detector would not confirm
    // within 30 s of onset (or would fire on early): every
    // ground-truth incident is one the fleet must report.
    for (uint64_t attempt = 0;; ++attempt) {
      o.seed = Mix(kPoolSeed, c, attempt);
      cases[c] = pinsql::eval::GenerateCase(o);
      logs[c] = pinsql::eval::RecordCaseReplay(cases[c]);
      if (attempt >= 16 ||
          DetectableAt(logs[c], w->fleet.detector, cases[c].injected_as)) {
        break;
      }
    }
  };
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (size_t c = t; c < kInstances; c += 4) generate(c);
    });
  }
  for (auto& worker : workers) worker.join();
  // Instance i streams case c shifted to its slot's start.
  for (size_t c = 0; c < kInstances; ++c) {
    const size_t i = slot_of_case[c];
    const int64_t shift = kStagger * static_cast<int64_t>(i);
    for (PerfSample& sample : logs[c].samples) sample.sec += shift;
    for (QueryLogRecord& record : logs[c].records) {
      record.arrival_ms += shift * 1000;
    }
    w->logs[i] = std::move(logs[c]);
    cases[c].injected_as += shift;
    cases[c].injected_ae += shift;
  }
  for (size_t c = 0; c < kInstances; ++c) {
    for (const auto& [id, entry] : cases[c].logs.catalog()) {
      if (w->catalog.catalog().count(id) == 0) {
        w->catalog.RegisterTemplate(id, entry);
      }
    }
    w->incidents.push_back({static_cast<uint32_t>(slot_of_case[c]),
                            cases[c].injected_as, cases[c].injected_ae,
                            cases[c].rsql_truth});
  }
  // SynADAC template ids are 64-bit fingerprints, but the ingest API
  // carries JSON numbers (exact to 2^53): renumber templates densely.
  std::map<uint64_t, uint64_t> dense;
  for (const auto& [id, entry] : w->catalog.catalog()) dense[id] = 0;
  for (const ReplayLog& log : w->logs) {
    for (const QueryLogRecord& r : log.records) dense[r.sql_id] = 0;
  }
  uint64_t next_id = 1;
  for (auto& [id, mapped] : dense) mapped = next_id++;
  pinsql::LogStore catalog;
  for (const auto& [id, entry] : w->catalog.catalog()) {
    catalog.RegisterTemplate(dense[id], entry);
  }
  w->catalog = std::move(catalog);
  for (ReplayLog& log : w->logs) {
    for (QueryLogRecord& r : log.records) r.sql_id = dense[r.sql_id];
  }
  for (Incident& incident : w->incidents) {
    for (uint64_t& id : incident.culprits) id = dense[id];
  }
  // One tenant: its staged batches drain strictly first-in first-out, so
  // when diagnoses stall the pump and a backlog builds past one delivery
  // round, no instance's earlier second is left behind a later one. With
  // several tenants a deficit-round-robin round can deliver one tenant's
  // second s before another's second s - 1, and a diagnosis falling due
  // at s then misses the lagging instance's last second.
  w->tenants = {"tenant-a"};
  w->tenant_of.assign(kInstances, 0);
  CutLogs(w);
  KeepMeasurableIncidents(w->first_sec, w->end_sec, w);

  CommonOptions(w);
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  Workload* out) {
  Workload w;
  w.name = name;
  if (name == "fleet-serve") {
    MakeFleetServe(seed, seconds, &w);
  } else if (name == "incident-diagnose") {
    MakeIncidentDiagnose(seed, seconds, &w);
  } else if (name == "restart-recover") {
    MakeRestartRecover(seed, seconds, &w);
  } else {
    return false;
  }
  IndexSeconds(&w);
  *out = std::move(w);
  return true;
}

std::pair<const QueryLogRecord*, const QueryLogRecord*> SecondRecords(
    const Workload& w, size_t i, int64_t sec) {
  const auto& begin = w.second_begin[i];
  const size_t s = static_cast<size_t>(sec - w.first_sec);
  const QueryLogRecord* base = w.logs[i].records.data();
  return {base + begin[s], base + begin[s + 1]};
}

const PerfSample* SecondSample(const Workload& w, size_t i, int64_t sec) {
  const auto& samples = w.logs[i].samples;
  if (samples.empty()) return nullptr;
  const int64_t idx = sec - samples.front().sec;
  if (idx >= 0 && idx < static_cast<int64_t>(samples.size()) &&
      samples[static_cast<size_t>(idx)].sec == sec) {
    return &samples[static_cast<size_t>(idx)];
  }
  auto it = std::lower_bound(
      samples.begin(), samples.end(), sec,
      [](const PerfSample& s, int64_t v) { return s.sec < v; });
  return it != samples.end() && it->sec == sec ? &*it : nullptr;
}

bool HasData(const Workload& w, size_t i, int64_t sec) {
  const auto [begin, end] = SecondRecords(w, i, sec);
  return begin != end || SecondSample(w, i, sec) != nullptr;
}

void AppendIngestBody(uint32_t instance_id, const QueryLogRecord* begin,
                      const QueryLogRecord* end, const PerfSample* sample,
                      std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"instance\":%u,\"records\":[",
                instance_id);
  out->append(buf);
  for (const QueryLogRecord* r = begin; r != end; ++r) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"arrival_ms\":%" PRId64 ",\"sql_id\":%" PRIu64
                  ",\"response_ms\":%.17g,\"examined_rows\":%" PRId64 "}",
                  r == begin ? "" : ",", r->arrival_ms, r->sql_id,
                  r->response_ms, r->examined_rows);
    out->append(buf);
  }
  out->append("],\"samples\":[");
  if (sample != nullptr) {
    std::snprintf(buf, sizeof(buf),
                  "{\"sec\":%" PRId64
                  ",\"active_session\":%.17g,\"cpu_usage\":%.17g,"
                  "\"iops_usage\":%.17g,\"row_lock_waits\":%.17g,"
                  "\"mdl_waits\":%.17g}",
                  sample->sec, sample->active_session, sample->cpu_usage,
                  sample->iops_usage, sample->row_lock_waits,
                  sample->mdl_waits);
    out->append(buf);
  }
  out->append("]}");
}

void BuildIngestRequest(const Workload& w, size_t stream, int64_t sec,
                        std::string* wire) {
  std::string body;
  const auto [begin, end] = SecondRecords(w, stream, sec);
  AppendIngestBody(w.specs[stream].instance_id, begin, end,
                   SecondSample(w, stream, sec), &body);
  wire->append("POST /v1/ingest HTTP/1.1\r\nHost: bench\r\nX-Pinsql-Tenant: ");
  wire->append(w.tenants[w.tenant_of[stream]]);
  wire->append("\r\nContent-Type: application/json\r\nContent-Length: ");
  wire->append(std::to_string(body.size()));
  wire->append("\r\n\r\n");
  wire->append(body);
}

/// Journals [first_sec, journal_end_sec) through an in-process durable
/// fleet, with the same per-second discipline the fleet replay uses.
void WriteHistoryJournal(const Workload& w, const std::string& dir) {
  pinsql::fleet::FleetOptions options = w.fleet;
  options.data_dir = dir;
  pinsql::fleet::FleetService fleet(w.specs, options);
  for (const auto& [id, entry] : w.catalog.catalog()) {
    fleet.RegisterTemplateFleetWide(id, entry);
  }
  fleet.Start();
  for (int64_t sec = w.first_sec; sec < w.journal_end_sec; ++sec) {
    for (size_t i = 0; i < w.specs.size(); ++i) {
      const auto [begin, end] = SecondRecords(w, i, sec);
      for (auto* r = begin; r != end; ++r) {
        fleet.IngestRecord(w.specs[i].instance_id, *r);
      }
      if (const auto* sample = SecondSample(w, i, sec)) {
        fleet.IngestMetrics(w.specs[i].instance_id, *sample);
      }
    }
    fleet.AdvanceTo(sec);
  }
  fleet.Stop();
}

std::string ReportsRequest(size_t limit) {
  return "GET /v1/reports?limit=" + std::to_string(limit) +
         " HTTP/1.1\r\nHost: bench\r\nX-Pinsql-Tenant: ops\r\n\r\n";
}

std::string MetricszRequest() {
  return "GET /v1/metricsz HTTP/1.1\r\nHost: bench\r\n\r\n";
}

}  // namespace perfbench
