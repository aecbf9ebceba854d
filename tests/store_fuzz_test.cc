/// Seeded mutation fuzzers for the two decoders a CRC-valid but hostile
/// file reaches: WAL frame payloads (DecodeFramePayload, and ScanWal over a
/// segment of them) and the fleet checkpoint body (DecodeFleetState, then
/// ImportState, Start() and a 60 s advance whenever each step accepts).
/// Every case must end in ok or a clean Status — no exception, and under
/// ASan or UBSan no report.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "detect/forecast.h"
#include "fleet/fleet_service.h"
#include "fleet/fleet_state.h"
#include "store/codec.h"
#include "store/crc32c.h"
#include "store/env.h"
#include "store/wal.h"

namespace pinsql::store {
namespace {

constexpr uint64_t kSeed = 0x5eed'f022;
constexpr int kCasesPerLeg = 2000;

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "pinsql_fuzz_XXXXXX";
  EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

/// Overwrites bytes [pos, pos + 8) (clipped) with `value`, little-endian.
void Overwrite(std::string* bytes, size_t pos, uint64_t value, size_t width) {
  for (size_t i = 0; i < width && pos + i < bytes->size(); ++i) {
    (*bytes)[pos + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

/// One to three stacked mutations: byte flips, truncation, insertion, or a
/// 4- or 8-byte field set to a hostile count (2^32 - 1, 2^63, 2^64 - 1).
/// Uses the engine's raw output only, so a seed replays identically on
/// every standard library.
std::string Mutate(std::string bytes, std::mt19937_64* rng) {
  const auto pick = [rng](uint64_t n) { return n == 0 ? 0 : (*rng)() % n; };
  const uint64_t rounds = 1 + pick(3);
  for (uint64_t round = 0; round < rounds; ++round) {
    switch (pick(5)) {
      case 0:  // flip 1-4 bytes
        for (uint64_t k = 1 + pick(4); k > 0 && !bytes.empty(); --k) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1 + pick(255));
        }
        break;
      case 1:  // truncate
        bytes.resize(pick(bytes.size() + 1));
        break;
      case 2: {  // insert 1-8 random bytes
        std::string inserted(1 + pick(8), '\0');
        for (char& c : inserted) c = static_cast<char>(pick(256));
        bytes.insert(pick(bytes.size() + 1), inserted);
        break;
      }
      case 3:  // a u32 count set to 2^32 - 1
        Overwrite(&bytes, pick(bytes.size() + 1), 0xFFFF'FFFFull, 4);
        break;
      default:  // a u64 count set to 2^63 or 2^64 - 1
        Overwrite(&bytes, pick(bytes.size() + 1),
                  pick(2) == 0 ? (1ull << 63) : ~0ull, 8);
        break;
    }
  }
  return bytes;
}

QueryLogRecord Rec(int64_t arrival_ms, uint64_t sql_id, double response_ms,
                   int64_t rows) {
  QueryLogRecord r;
  r.arrival_ms = arrival_ms;
  r.sql_id = sql_id;
  r.response_ms = response_ms;
  r.examined_rows = rows;
  return r;
}

online::PerfSample Sample(int64_t sec, double session) {
  online::PerfSample s;
  s.sec = sec;
  s.active_session = session;
  s.cpu_usage = session * 0.05;
  s.iops_usage = session * 0.1;
  return s;
}

/// Runs one case body; an escaping exception fails the test with its case.
template <typename Fn>
void Case(int index, Fn body) {
  try {
    body();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "case " << index << " threw: " << e.what();
  } catch (...) {
    ADD_FAILURE() << "case " << index << " threw a non-standard exception";
  }
}

// --- WAL frame payloads ------------------------------------------------------

/// One valid payload of every frame kind.
std::vector<std::string> SeedPayloads() {
  std::vector<std::string> payloads;
  WalFrame batch;
  batch.kind = FrameKind::kRecordBatch;
  batch.records = {Rec(100'000'123, 9, 450.0, 500'000), Rec(100'000'456, 2, 2.0, 20),
                   Rec(100'000'789, 3, 2.5, 25)};
  payloads.push_back(EncodeFramePayload(batch));
  WalFrame sample;
  sample.kind = FrameKind::kSample;
  sample.sample = Sample(100'000, 380.0);
  payloads.push_back(EncodeFramePayload(sample));
  WalFrame tmpl;
  tmpl.kind = FrameKind::kTemplate;
  tmpl.template_id = 9;
  tmpl.template_entry.template_text = "SELECT * FROM big ORDER BY v";
  tmpl.template_entry.kind = sqltpl::StatementKind::kSelect;
  tmpl.template_entry.tables = {"big", "t"};
  payloads.push_back(EncodeFramePayload(tmpl));
  WalFrame event;
  event.kind = FrameKind::kRepairEvent;
  event.event.time_ms = 100'000'500.0;
  event.event.kind = repair::RepairEventKind::kApplied;
  event.event.action = repair::ActionType::kThrottle;
  event.event.sql_id = 9;
  event.event.ticket = 3;
  event.event.attempt = 1;
  event.event.detail = "throttle 9";
  payloads.push_back(EncodeFramePayload(event));
  return payloads;
}

/// A segment header for sequence 1 ("PSQLWAL1", version, seq, crc).
std::string SegmentHeader() {
  std::string file;
  codec::Writer w(&file);
  file.append("PSQLWAL1", 8);
  w.U32(1);
  w.U64(1);
  w.U32(Crc32c(file.data(), file.size()));
  return file;
}

TEST(WalFuzzTest, MutatedPayloadsBehindValidCrcsDecodeOrFailCleanly) {
  const std::vector<std::string> seeds = SeedPayloads();
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(DecodeFramePayload(seed).ok()) << "seed payloads are valid";
  }
  const std::string dir = MakeTempDir();
  const std::string segment = dir + "/" + SegmentFileName(1);
  std::mt19937_64 rng(kSeed);
  size_t decoded = 0;
  size_t scanned_valid = 0;
  for (int i = 0; i < kCasesPerLeg; ++i) {
    Case(i, [&] {
      const std::string payload =
          Mutate(seeds[static_cast<size_t>(i) % seeds.size()], &rng);
      if (DecodeFramePayload(payload).ok()) ++decoded;
      // The same payload behind a valid frame CRC, between two valid
      // frames of one segment: the scan validates, counts and goes on or
      // stops, but never believes what it cannot decode.
      std::string file = SegmentHeader();
      file += WrapFrame(seeds[1]);
      file += WrapFrame(payload);
      file += WrapFrame(seeds[0]);
      {
        std::ofstream out(segment, std::ios::binary | std::ios::trunc);
        out.write(file.data(), static_cast<std::streamsize>(file.size()));
      }
      WalScanStats stats;
      size_t delivered = 0;
      const Status status =
          ScanWal(PosixEnv(), dir, WalOptions(), WalPosition{},
                  [&](const WalFrame&, const WalPosition&) {
                    ++delivered;
                  },
                  &stats);
      EXPECT_TRUE(status.ok()) << "case " << i << ": " << status.ToString();
      EXPECT_EQ(delivered, stats.frames_valid);
      EXPECT_GE(delivered, 1u) << "case " << i;
      scanned_valid += stats.frames_valid;
    });
  }
  std::filesystem::remove_all(dir);
  // Not vacuous: some mutants still decode, most do not.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, static_cast<size_t>(kCasesPerLeg));
  EXPECT_GT(scanned_valid, static_cast<size_t>(kCasesPerLeg));
}

// --- Fleet checkpoint body ---------------------------------------------------

constexpr int64_t kT0 = 100'000;

fleet::FleetOptions FuzzFleetOptions() {
  fleet::FleetOptions options;
  options.scheduler.zero_timings = true;
  options.scheduler.diagnose_delay_sec = 120;
  options.detector.forecasters = detect::DefaultEnsembleForecasters();
  options.correlator.storm_min_instances = 2;
  options.correlator.storm_window_sec = 20;
  options.correlator.neighbor_min_cotenants = 0;
  options.advance_workers = 1;
  options.pool.pool_size = 1;
  return options;
}

std::vector<fleet::FleetInstanceSpec> FuzzSpecs() {
  return {{0, 0}, {1, 0}, {2, 1}};
}

void RegisterCatalog(fleet::FleetService* service) {
  for (uint64_t id : {1, 2, 3, 9}) {
    TemplateCatalogEntry entry;
    entry.template_text = id == 9 ? "SELECT * FROM big ORDER BY v"
                                  : "SELECT * FROM t WHERE k = ?";
    entry.kind = sqltpl::StatementKind::kSelect;
    entry.tables = {id == 9 ? "big" : "t"};
    service->RegisterTemplateFleetWide(id, entry);
  }
}

/// Instance `id`'s second `sec`: calm, or a step with template 9 flooding.
void FeedSecond(fleet::FleetService* service, uint32_t id, int64_t sec,
                bool anomalous) {
  uint64_t state = static_cast<uint64_t>(sec) * 2654435761ULL + 17 + id;
  for (int i = 0; i < (anomalous ? 12 : 3); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const bool heavy = i >= 3;
    service->IngestRecord(
        id, Rec(sec * 1000 + static_cast<int64_t>((state >> 13) % 1000),
                heavy ? 9 : 1 + (state >> 33) % 3, heavy ? 450.0 : 2.0,
                heavy ? 500'000 : 20));
  }
  service->IngestMetrics(id, Sample(sec, anomalous ? 380.0 : 4.0));
}

/// A real three-instance run, exported while a storm is open and another
/// instance's diagnosis still waits in the queue: instance 2 steps alone
/// at kT0 + 200, instances 0 and 1 step together at kT0 + 260.
fleet::FleetState LiveState() {
  fleet::FleetService service(FuzzSpecs(), FuzzFleetOptions());
  RegisterCatalog(&service);
  service.Start();
  for (int64_t sec = kT0;; ++sec) {
    for (uint32_t id : {0u, 1u, 2u}) {
      const int64_t onset = id == 2 ? kT0 + 200 : kT0 + 260;
      FeedSecond(&service, id, sec, sec >= onset);
    }
    service.AdvanceTo(sec);
    fleet::FleetState state = service.ExportState();
    if (state.correlator.open_batch.has_value() &&
        !state.scheduler.queue.empty()) {
      return state;
    }
    if (sec > kT0 + 400) {
      ADD_FAILURE() << "no second with an open storm and a queued trigger";
      return state;
    }
  }
}

TEST(CheckpointFuzzTest, MutatedFleetStatesDecodeImportAndRunOrFailCleanly) {
  const fleet::FleetState live = LiveState();
  ASSERT_TRUE(live.correlator.open_batch.has_value());
  ASSERT_FALSE(live.scheduler.queue.empty());
  for (const fleet::FleetInstanceState& slice : live.instances) {
    ASSERT_TRUE(slice.detector.ensemble.initialized);
    ASSERT_EQ(slice.detector.ensemble.forecasters.size(), 2u)
        << "both default forecasters";
  }
  const std::string body = fleet::EncodeFleetState(live);
  {  // The unmutated body round-trips, imports and runs.
    auto state = fleet::DecodeFleetState(body);
    ASSERT_TRUE(state.ok());
    fleet::FleetService service(FuzzSpecs(), FuzzFleetOptions());
    ASSERT_TRUE(service.ImportState(*state).ok());
  }

  std::mt19937_64 rng(kSeed + 1);
  size_t decoded = 0;
  size_t imported = 0;
  for (int i = 0; i < kCasesPerLeg; ++i) {
    Case(i, [&] {
      auto state = fleet::DecodeFleetState(Mutate(body, &rng));
      if (!state.ok()) return;
      ++decoded;
      fleet::FleetService service(FuzzSpecs(), FuzzFleetOptions());
      RegisterCatalog(&service);
      if (!service.ImportState(*state).ok()) return;
      ++imported;
      service.Start();
      // Advance 60 s past the restored fleet clock, every instance
      // streaming that second first — as far as seconds the WAL could
      // journal reach (ImportState bounded the fleet clock by kMaxEventSec,
      // so these sums cannot overflow).
      const int64_t from = state->last_fleet_sec;
      for (int64_t step = 1; step <= 60; ++step) {
        for (const fleet::FleetInstanceState& slice : state->instances) {
          const int64_t sec = from + step;
          if (sec < kMaxEventSec) {
            FeedSecond(&service, slice.instance_id, sec, step > 30);
          }
        }
        if (from + step < kMaxEventSec) service.AdvanceTo(from + step);
      }
      service.Stop();
    });
  }
  // Not vacuous: mutants reach every stage.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(imported, 0u);
  EXPECT_LT(imported, static_cast<size_t>(kCasesPerLeg));
}

}  // namespace
}  // namespace pinsql::store
