#include "traced_run.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>

#include "fleet/fleet_service.h"
#include "harness.h"
#include "online/online_detector.h"
#include "online/stream_ingestor.h"
#include "serve/admission.h"
#include "serve/http.h"
#include "store/env.h"
#include "store/wal.h"
#include "util/json.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using pinsql::Json;

/// The layer group each span name belongs to (for the share table).
/// Root spans ("request", "pump") and "bench.*" spans are the benchmark's
/// own glue; "fleet.start" is set-up, outside the measured phase.
std::string GroupOf(const std::string& name) {
  if (name.rfind("serve.", 0) == 0) return "serve";
  if (name == "fleet.ingest") return "fleet.ingest";
  if (name == "fleet.advance") return "fleet.advance";
  if (name.rfind("core.", 0) == 0 || name == "fleet.diagnose") return "core";
  return "";
}

/// The ingest-body walk Server::ParseIngestBody does after Json::Parse
/// (that function is private to the server).
bool DecodeBatch(const Json& root, const std::string& tenant,
                 size_t wire_bytes, pinsql::serve::StagedBatch* batch) {
  if (!root.is_object()) return false;
  batch->tenant = tenant;
  batch->wire_bytes = wire_bytes;
  batch->instance_id = static_cast<uint32_t>(root.GetNumberOr("instance", -1));
  if (const Json* records = root.Find("records");
      records != nullptr && records->is_array()) {
    batch->records.reserve(records->AsArray().size());
    for (const Json& item : records->AsArray()) {
      pinsql::QueryLogRecord r;
      r.arrival_ms = static_cast<int64_t>(item.GetNumberOr("arrival_ms", 0));
      r.sql_id = static_cast<uint64_t>(item.GetNumberOr("sql_id", 0));
      r.response_ms = item.GetNumberOr("response_ms", 0.0);
      r.examined_rows =
          static_cast<int64_t>(item.GetNumberOr("examined_rows", 0));
      batch->records.push_back(r);
    }
  }
  if (const Json* samples = root.Find("samples");
      samples != nullptr && samples->is_array()) {
    for (const Json& item : samples->AsArray()) {
      pinsql::online::PerfSample s;
      s.sec = static_cast<int64_t>(item.GetNumberOr("sec", 0));
      s.active_session = item.GetNumberOr("active_session", 0.0);
      s.cpu_usage = item.GetNumberOr("cpu_usage", 0.0);
      s.iops_usage = item.GetNumberOr("iops_usage", 0.0);
      s.row_lock_waits = item.GetNumberOr("row_lock_waits", 0.0);
      s.mdl_waits = item.GetNumberOr("mdl_waits", 0.0);
      batch->samples.push_back(s);
    }
  }
  return true;
}

struct DiagnosisWindow {
  size_t stream = 0;
  int64_t t0 = 0;
  int64_t t1 = 0;
};

struct PipelineOutput {
  double wall_s = 0.0;
  size_t requests = 0;
  size_t records = 0;
  size_t wire_bytes = 0;
  size_t reports = 0;
  std::vector<double> wait_ms;
  std::vector<DiagnosisWindow> windows;
  std::vector<std::string> failures;
};

/// One pass of the in-process serving path over the measured phase. Wall
/// time counts pipeline work only: each second's requests are serialized
/// before its clock starts. The diagnoser pool runs inline (size 1), so
/// every diagnosis nests inside the AdvanceTo call that ran it.
PipelineOutput RunPipeline(const Workload& w, const std::string& dir,
                           SpanBuffer* spans) {
  PipelineOutput out;
  const int64_t delay = w.fleet.scheduler.diagnose_delay_sec;
  WriteHistoryJournal(w, dir);
  pinsql::fleet::FleetOptions options = w.fleet;
  options.data_dir = dir;
  options.pool.pool_size = 1;
  pinsql::fleet::FleetService fleet(w.specs, options);
  for (const auto& [id, entry] : w.catalog.catalog()) {
    fleet.RegisterTemplateFleetWide(id, entry);
  }
  uint64_t request_id = 0;
  {
    // Set-up (journal recovery included) is in the trace but not in the
    // wall time: setup_s and store.recovery.* report it.
    ScopedSpan start(spans, "fleet.start", -1, ++request_id);
    fleet.Start();
  }
  int64_t wall_ns = 0;
  pinsql::serve::AdmissionController admission(w.server.admission);
  pinsql::serve::HttpParser parser(w.server.http);
  std::vector<std::string> wires(w.specs.size());
  // When each instance's batch of the current second was enqueued (ns):
  // StagedBatch::enqueued_ms has whole-millisecond resolution.
  std::map<uint32_t, int64_t> enqueued_ns;

  for (int64_t sec = w.journal_end_sec; sec < w.measured_end_sec; ++sec) {
    for (size_t i = 0; i < w.specs.size(); ++i) {
      wires[i].clear();
      if (HasData(w, i, sec)) BuildIngestRequest(w, i, sec, &wires[i]);
    }
    const int64_t second_start = NowNs();
    for (size_t i = 0; i < w.specs.size(); ++i) {
      if (wires[i].empty()) continue;
      ScopedSpan request(spans, "request", -1, ++request_id);
      out.wire_bytes += wires[i].size();
      ++out.requests;
      pinsql::serve::HttpParser::State state;
      {
        ScopedSpan s(spans, "serve.http.parse", request.index(), request_id);
        parser.Reset();
        state = parser.Feed(wires[i]);
      }
      if (state != pinsql::serve::HttpParser::State::kComplete) {
        out.failures.push_back("traced: HTTP parse failed");
        continue;
      }
      const auto& req = parser.request();
      const pinsql::StatusOr<Json> json = [&] {
        ScopedSpan s(spans, "serve.json.decode", request.index(), request_id);
        return Json::Parse(req.body);
      }();
      // The walk from document to batch stands in for the server's private
      // ParseIngestBody; it is the benchmark's glue, not a layer.
      pinsql::serve::StagedBatch batch;
      bool decoded = false;
      {
        ScopedSpan s(spans, "bench.body_walk", request.index(), request_id);
        decoded = json.ok() && DecodeBatch(json.value(),
                                           w.tenants[w.tenant_of[i]],
                                           req.body.size(), &batch);
      }
      if (!decoded) {
        out.failures.push_back("traced: ingest body decode failed");
        continue;
      }
      out.records += batch.records.size();
      pinsql::serve::AdmitDecision decision;
      {
        ScopedSpan s(spans, "serve.admission.enqueue", request.index(),
                     request_id);
        decision = admission.Enqueue(std::move(batch),
                                     pinsql::serve::Server::NowMs());
      }
      enqueued_ns[w.specs[i].instance_id] = NowNs();
      if (decision.outcome != pinsql::serve::AdmitOutcome::kAdmitted) {
        out.failures.push_back("traced: admission refused a batch");
      }
    }

    // One pump round per simulated second: dequeue, deliver, advance.
    ScopedSpan pump(spans, "pump", -1, ++request_id);
    std::vector<pinsql::serve::StagedBatch> batches;
    {
      ScopedSpan s(spans, "serve.admission.dequeue", pump.index(), request_id);
      batches = admission.DequeueFair(SIZE_MAX, pinsql::serve::Server::NowMs());
    }
    const int64_t dequeued_ns = NowNs();
    int64_t max_sec = INT64_MIN;
    {
      ScopedSpan s(spans, "fleet.ingest", pump.index(), request_id);
      for (const auto& b : batches) {
        out.wait_ms.push_back(
            static_cast<double>(dequeued_ns - enqueued_ns[b.instance_id]) /
            1e6);
        size_t records_ok = 0, samples_ok = 0;
        for (const auto& r : b.records) {
          records_ok += fleet.IngestRecord(b.instance_id, r) ? 1 : 0;
        }
        for (const auto& smp : b.samples) {
          if (fleet.IngestMetrics(b.instance_id, smp)) {
            ++samples_ok;
            max_sec = std::max(max_sec, smp.sec);
          }
        }
        admission.NoteDelivered(b.tenant, records_ok, samples_ok);
      }
    }
    std::vector<pinsql::fleet::FleetOutcome> outcomes;
    int32_t advance = -1;
    int64_t advance_end = 0;
    {
      ScopedSpan s(spans, "fleet.advance", pump.index(), request_id);
      advance = s.index();
      if (max_sec != INT64_MIN) outcomes = fleet.AdvanceTo(max_sec);
      advance_end = NowNs();
    }
    // Diagnoses ran inline at the end of the advance; place each one's
    // stages (as its report's trace block timed them) back to back, ending
    // where the advance ended.
    if (spans->enabled()) {
      int64_t cursor = advance_end;
      for (auto it = outcomes.rbegin(); it != outcomes.rend(); ++it) {
        if (!it->outcome.ok) continue;
        const auto& trace = it->outcome.report.trace;
        const int64_t total =
            static_cast<int64_t>(trace.total_seconds * 1e9);
        const int64_t begin =
            std::max(cursor - total, spans->spans()[advance].start_ns);
        const int32_t diag =
            spans->Add("fleet.diagnose", begin, cursor, advance, request_id);
        int64_t at = begin;
        for (const auto& stage : trace.stages) {
          const int64_t end =
              std::min(cursor, at + static_cast<int64_t>(stage.seconds * 1e9));
          spans->Add("core." + stage.name, at, end, diag, request_id);
          at = end;
        }
        cursor = begin;
      }
    }
    {
      // The server renders each finished report once, into its read cache.
      ScopedSpan s(spans, "core.report.to_json", pump.index(), request_id);
      for (const auto& fo : outcomes) {
        if (fo.outcome.ok) {
          [[maybe_unused]] Json json = fo.outcome.report.ToJson();
          ++out.reports;
        }
      }
    }
    for (const auto& fo : outcomes) {
      if (!fo.outcome.ok) continue;
      const auto& t = fo.outcome.trigger;
      for (size_t i = 0; i < w.specs.size(); ++i) {
        if (w.specs[i].instance_id == t.instance_id) {
          out.windows.push_back(
              {i, t.onset_sec - w.fleet.scheduler.diagnoser.delta_s_sec,
               t.trigger_sec + delay});
        }
      }
    }
    wall_ns += NowNs() - second_start;
  }
  fleet.Stop();
  out.wall_s = static_cast<double>(wall_ns) / 1e9;
  return out;
}

/// Per-instance breakdown of fleet.advance: a standalone StreamIngestor
/// and detector over the same streams, with the window assembly of every
/// diagnosis the pipeline ran.
void OnlineBreakdown(const Workload& w,
                     const std::vector<DiagnosisWindow>& windows,
                     TracedRunResult* result) {
  int64_t pump_ns = 0, tick_ns = 0;
  size_t records = 0, ticks = 0;
  std::vector<double> snapshot_ms;
  for (size_t i = 0; i < w.specs.size(); ++i) {
    pinsql::online::StreamIngestor ingestor(w.fleet.ingestor);
    pinsql::online::OnlineAnomalyDetector detector(w.fleet.detector);
    std::vector<DiagnosisWindow> mine;
    for (const auto& win : windows) {
      if (win.stream == i) mine.push_back(win);
    }
    const auto& samples = w.logs[i].samples;
    const int64_t from =
        samples.empty() ? w.measured_end_sec : samples.front().sec;
    for (int64_t sec = from; sec < w.measured_end_sec; ++sec) {
      const auto [begin, end] = SecondRecords(w, i, sec);
      for (auto* r = begin; r != end; ++r) ingestor.IngestRecord(*r);
      records += static_cast<size_t>(end - begin);
      const auto* sample = SecondSample(w, i, sec);
      if (sample != nullptr) ingestor.IngestMetrics(*sample);
      int64_t t0 = NowNs();
      ingestor.Pump();
      pump_ns += NowNs() - t0;
      const double value = sample != nullptr
                               ? sample->active_session
                               : std::numeric_limits<double>::quiet_NaN();
      t0 = NowNs();
      detector.Observe(sec, value);
      tick_ns += NowNs() - t0;
      ++ticks;
      for (const auto& win : mine) {
        if (win.t1 != sec + 1) continue;
        t0 = NowNs();
        [[maybe_unused]] auto templates =
            ingestor.SnapshotTemplates(win.t0, win.t1);
        [[maybe_unused]] auto metrics = ingestor.SnapshotMetrics(win.t0, win.t1);
        snapshot_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      }
    }
  }
  result->metrics["online.pump.us_per_record"] = {
      static_cast<double>(pump_ns) / 1e3 / std::max<double>(records, 1), "us",
      records};
  result->metrics["online.snapshot.ms"] = {Median(snapshot_ms), "ms",
                                           snapshot_ms.size()};
  result->metrics["detect.tick.us_per_sample"] = {
      static_cast<double>(tick_ns) / 1e3 / std::max<double>(ticks, 1), "us",
      ticks};
}

/// Breakdown of fleet.ingest's journal share: a standalone WalWriter per
/// instance over the same frames, under the same fsync policy.
void StoreBreakdown(const Workload& w, const std::string& dir,
                    TracedRunResult* result) {
  int64_t append_ns = 0;
  uint64_t frames = 0, fsyncs = 0, bytes = 0, records = 0;
  pinsql::store::Env* env = pinsql::store::PosixEnv();
  for (size_t i = 0; i < w.specs.size(); ++i) {
    const std::string wal_dir = dir + "/wal-" + std::to_string(i);
    env->CreateDirs(wal_dir);
    auto writer = pinsql::store::WalWriter::Open(env, wal_dir, w.fleet.wal, 1);
    if (!writer.ok()) {
      result->check_failures.push_back("traced: WAL open failed");
      return;
    }
    std::vector<pinsql::QueryLogRecord> batch;
    for (int64_t sec = w.journal_end_sec; sec < w.measured_end_sec; ++sec) {
      const auto [begin, end] = SecondRecords(w, i, sec);
      batch.assign(begin, end);
      records += batch.size();
      const auto* sample = SecondSample(w, i, sec);
      const int64_t t0 = NowNs();
      if (!batch.empty()) {
        writer.value()->AppendRecordBatch(batch);
        ++frames;
      }
      if (sample != nullptr) {
        writer.value()->AppendSample(*sample);
        ++frames;
      }
      append_ns += NowNs() - t0;
    }
    writer.value()->Close();
    fsyncs += writer.value()->stats().fsyncs;
    bytes += writer.value()->stats().bytes_written;
    fs::remove_all(wal_dir);
  }
  result->metrics["store.wal.append_us_per_frame"] = {
      static_cast<double>(append_ns) / 1e3 / std::max<double>(frames, 1), "us",
      frames};
  result->metrics["store.wal.fsyncs"] = {static_cast<double>(fsyncs), "count",
                                         frames};
  result->metrics["store.wal.bytes_per_record"] = {
      static_cast<double>(bytes) / std::max<double>(records, 1), "bytes",
      records};
}

}  // namespace

TracedRunResult RunTraced(const Workload& w, const std::string& data_dir) {
  TracedRunResult result;
  fs::create_directories(data_dir);

  SpanBuffer untraced(false);
  const PipelineOutput base =
      RunPipeline(w, data_dir + "/untraced", &untraced);
  SpanBuffer spans(true);
  const PipelineOutput out = RunPipeline(w, data_dir + "/traced", &spans);
  result.check_failures = out.failures;
  result.wall_untraced_s = base.wall_s;
  result.wall_traced_s = out.wall_s;
  result.chrome_trace = spans.ChromeTrace();

  const auto self = spans.SelfNsByName();
  const auto total = spans.TotalNsByName();
  double explained_ns = 0.0;
  for (const auto& [name, ns] : self) {
    result.self_s[name] = ns / 1e9;
    const std::string group = GroupOf(name);
    if (group.empty()) continue;
    result.group_share[group] += ns / 1e9 / out.wall_s;
    explained_ns += ns;
  }
  result.explained_share = explained_ns / 1e9 / out.wall_s;
  result.group_share["unexplained"] = 1.0 - result.explained_share;

  const auto total_of = [&](const char* name) {
    auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  const auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double requests = std::max<double>(out.requests, 1);
  const double records = std::max<double>(out.records, 1);
  auto& m = result.metrics;
  m["serve.http.parse_us"] = {total_of("serve.http.parse") / 1e3 / requests,
                              "us", out.requests};
  m["serve.http.bytes_per_record"] = {
      static_cast<double>(out.wire_bytes) / records, "bytes", out.records};
  m["serve.json.decode_us_per_record"] = {
      total_of("serve.json.decode") / 1e3 / records, "us", out.records};
  m["serve.admission.enqueue_us"] = {
      total_of("serve.admission.enqueue") / 1e3 / requests, "us",
      out.requests};
  m["serve.admission.wait_ms"] = {Median(out.wait_ms), "ms",
                                  out.wait_ms.size()};
  m["fleet.ingest.us_per_record"] = {total_of("fleet.ingest") / 1e3 / records,
                                     "us", out.records};
  const double instance_secs =
      static_cast<double>(w.specs.size()) *
      static_cast<double>(w.measured_end_sec - w.journal_end_sec);
  m["fleet.advance.self_us_per_instance_sec"] = {
      self_of("fleet.advance") / 1e3 / instance_secs, "us",
      static_cast<size_t>(instance_secs)};
  m["core.report.to_json_us"] = {
      total_of("core.report.to_json") / 1e3 /
          std::max<double>(out.reports, 1),
      "us", out.reports};
  m["bench.trace_overhead_pct"] = {
      100.0 * (out.wall_s - base.wall_s) / base.wall_s, "%", 2};
  m["bench.explained_share"] = {result.explained_share, "ratio",
                                spans.spans().size()};
  for (const char* group :
       {"serve", "fleet.ingest", "fleet.advance", "core", "unexplained"}) {
    m[std::string("bench.share.") + group] = {result.group_share[group],
                                              "ratio", 1};
  }

  OnlineBreakdown(w, out.windows, &result);
  StoreBreakdown(w, data_dir + "/wal", &result);
  fs::remove_all(data_dir);
  if (result.explained_share < 0.8) {
    result.check_failures.push_back(
        "reconciliation: layers explain only " +
        std::to_string(100.0 * result.explained_share) + "% of traced wall");
  }
  return result;
}

}  // namespace perfbench
