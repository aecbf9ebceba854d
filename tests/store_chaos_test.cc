// Kill-9 chaos verification for the durable store: a child process streams
// the synthetic incident into a durable fleet of one and is SIGKILLed at
// seeded points mid-ingest. The parent then derives the confirmed input by
// scanning the surviving WAL, replays it through the deterministic replay
// harness, and asserts the recovered fleet's fingerprint is byte-identical
// to that uninterrupted reference. A corruption variant flips a byte in the
// surviving segment and asserts detection plus clean-prefix equality.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_replay.h"
#include "fleet/fleet_service.h"
#include "online/replay.h"
#include "store/env.h"
#include "store/wal.h"

namespace pinsql::store {
namespace {

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "pinsql_chaos_XXXXXX";
  EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

/// Directory holding the test binary; the chaos child is built next to it.
std::string SelfDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  std::string path(buf, static_cast<size_t>(n));
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

LogStore SyntheticCatalog() {
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

pid_t SpawnChild(const std::string& data_dir, const std::string& progress,
                 int checkpoint_every_sec) {
  const std::string child = SelfDir() + "/store_chaos_child";
  const std::string ckpt = std::to_string(checkpoint_every_sec);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(child.c_str(), child.c_str(), data_dir.c_str(), progress.c_str(),
            ckpt.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  EXPECT_GT(pid, 0);
  return pid;
}

/// Polls the child's progress file until it reports at least
/// `threshold` samples ingested. Returns false on timeout or child death.
bool WaitForProgress(pid_t pid, const std::string& progress, long threshold) {
  for (int spins = 0; spins < 30'000; ++spins) {  // ~60 s ceiling
    std::ifstream in(progress);
    long value = -1;
    if (in >> value && value >= threshold) return true;
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) return false;  // died early
    ::usleep(2000);
  }
  return false;
}

void KillChild(pid_t pid) {
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
}

/// Runs the chaos child until `kill_after_samples` are ingested, then
/// SIGKILLs it. The data dir is left exactly as the crash left it.
void RunKilledChild(const std::string& data_dir, long kill_after_samples,
                    int checkpoint_every_sec) {
  const std::string progress = data_dir + "/progress";
  const pid_t pid = SpawnChild(data_dir, progress, checkpoint_every_sec);
  ASSERT_TRUE(WaitForProgress(pid, progress, kill_after_samples))
      << "child never reached sample " << kill_after_samples;
  KillChild(pid);
}

/// The instance's journal directory under a fleet data dir.
std::string WalDir(const std::string& data_dir) {
  return data_dir + "/inst-0";
}

/// The confirmed input is whatever the surviving WAL delivers: a full
/// scan from the stream base, torn tail truncated, corrupt frames
/// discarded. Trailing records without a sample are kept — the replay
/// folds them into its last second exactly as the recovered fleet stages
/// and drains them.
online::ReplayLog ScanConfirmedInput(const std::string& data_dir,
                                     WalScanStats* stats) {
  online::ReplayLog log;
  const Status status = ScanWal(
      PosixEnv(), WalDir(data_dir), WalOptions(), WalPosition{},
      [&log](const WalFrame& frame, const WalPosition&) {
        switch (frame.kind) {
          case FrameKind::kRecordBatch:
            log.records.insert(log.records.end(), frame.records.begin(),
                               frame.records.end());
            break;
          case FrameKind::kSample:
            log.samples.push_back(frame.sample);
            break;
          default:
            break;  // templates re-register from the catalog; no events yet
        }
      },
      stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return log;
}

/// Outcomes and confirmed triggers a loaded checkpoint had counted, which
/// the recovered fleet does not hand out again (0 without one). A fleet of
/// one closes no storm and flags no verdict.
struct Counted {
  size_t outcomes = 0;
  size_t confirmed = 0;
};

/// Drops the first `n` entries of `list`.
template <typename List>
void DropPrefix(List* list, size_t n) {
  EXPECT_LE(n, list->size());
  list->erase(list->begin(),
              list->begin() + static_cast<std::ptrdiff_t>(
                                  std::min(n, list->size())));
}

/// The uninterrupted replay's digest less what the checkpoint counted:
/// outcomes in completion order, detection latencies in firing order.
std::string ReferenceFingerprint(const online::ReplayLog& log,
                                 const Counted& checkpointed = {}) {
  fleet::FleetResult result = fleet::RunFleetReplay(
      {{0, 0}}, {log}, SyntheticCatalog(), fleet::FleetReplayOptions{});
  EXPECT_TRUE(result.storms.empty());
  EXPECT_TRUE(result.neighbors.empty());
  DropPrefix(&result.outcomes, checkpointed.outcomes);
  DropPrefix(&result.latencies[0], checkpointed.confirmed);
  return result.InstanceFingerprint(0);
}

/// Recovers `data_dir` into a fresh durable fleet of one, drains it, and
/// returns it with what its Start() and Stop() handed out and their digest.
struct Recovered {
  std::unique_ptr<fleet::FleetService> service;
  std::vector<fleet::FleetOutcome> outcomes;
  Counted checkpointed;
  std::string fingerprint;
};
Recovered Recover(const std::string& data_dir, int64_t checkpoint_every_sec) {
  fleet::FleetOptions options;
  options.data_dir = data_dir;
  options.scheduler.zero_timings = true;
  options.checkpoint_every_sec = checkpoint_every_sec;
  Recovered out;
  out.service = std::make_unique<fleet::FleetService>(
      std::vector<fleet::FleetInstanceSpec>{{0, 0}}, options);
  const LogStore catalog = SyntheticCatalog();
  for (const auto& [id, entry] : catalog.catalog()) {
    out.service->RegisterTemplateFleetWide(id, entry);
  }
  fleet::FleetEvents events;
  out.outcomes = out.service->Start(&events);
  if (out.service->recovery().checkpoint_loaded) {
    const fleet::FleetStats stats = out.service->stats();
    out.checkpointed.outcomes = stats.diagnoses_ok + stats.diagnoses_failed +
                                stats.storm_deferred - out.outcomes.size();
    out.checkpointed.confirmed =
        stats.triggers_confirmed - events.confirmed.size();
  }
  for (fleet::FleetOutcome& outcome : out.service->Stop(&events)) {
    out.outcomes.push_back(std::move(outcome));
  }
  out.fingerprint =
      fleet::CollectFleetResult(*out.service, out.outcomes, std::move(events))
          .InstanceFingerprint(0);
  return out;
}

class StoreChaosTest : public ::testing::TestWithParam<long> {};

/// The acceptance gate: SIGKILL mid-ingest at a seeded point, recover,
/// and the replay fingerprint over the confirmed input must be
/// byte-identical to an uninterrupted run of the same input.
TEST_P(StoreChaosTest, RecoveryAfterSigkillIsByteIdentical) {
  const long kill_after = GetParam();
  const std::string dir = MakeTempDir();
  // checkpoint_every_sec=0 in the child: the WAL alone is the complete
  // confirmed input, so the parent can reconstruct it exactly.
  RunKilledChild(dir, kill_after, /*checkpoint_every_sec=*/0);

  WalScanStats scan;
  const online::ReplayLog confirmed = ScanConfirmedInput(dir, &scan);
  ASSERT_FALSE(scan.seq_gap);
  ASSERT_GE(static_cast<long>(confirmed.samples.size()), kill_after);
  const std::string reference = ReferenceFingerprint(confirmed);

  const Recovered recovered = Recover(dir, 0);
  EXPECT_EQ(recovered.service->recovery().seq_gaps, 0u);
  EXPECT_GT(recovered.service->recovery().frames_valid, 0u);
  EXPECT_EQ(recovered.fingerprint, reference);
  if (kill_after >= 300) {
    // Past the onset (sample index 200) the trigger must have fired.
    EXPECT_FALSE(recovered.outcomes.empty());
  }
}

// Kill points: mid-baseline, just past onset, and deep into the incident.
INSTANTIATE_TEST_SUITE_P(KillPoints, StoreChaosTest,
                         ::testing::Values(80L, 230L, 300L));

/// The checkpointed path: with periodic checkpoints on, a SIGKILLed run
/// recovers from checkpoint + WAL suffix to the same digest as a replay of
/// the whole confirmed input (less the outcomes the checkpoint counted),
/// and the incident is diagnosed.
TEST(StoreChaosCheckpointTest, KilledRunWithCheckpointsRecovers) {
  const std::string dir = MakeTempDir();
  RunKilledChild(dir, /*kill_after_samples=*/300, /*checkpoint_every_sec=*/60);

  // Checkpoints never delete a segment inside the retention horizon, so
  // the WAL still holds the whole confirmed input.
  WalScanStats scan;
  const online::ReplayLog confirmed = ScanConfirmedInput(dir, &scan);

  const Recovered recovered = Recover(dir, 60);
  const fleet::FleetRecoveryStats& recovery = recovered.service->recovery();
  EXPECT_TRUE(recovery.checkpoint_loaded);
  EXPECT_EQ(recovery.seq_gaps, 0u);
  EXPECT_GT(recovered.service->stats().diagnoses_ok, 0u);
  EXPECT_EQ(recovered.fingerprint,
            ReferenceFingerprint(confirmed, recovered.checkpointed));
}

/// Corrupting a frame mid-WAL must be detected — never silently ingested —
/// and recovery must land on the clean prefix, still byte-identical to an
/// uninterrupted run over that prefix.
TEST(StoreChaosCorruptionTest, FlippedByteIsDetectedAndPrefixRecovers) {
  const std::string dir = MakeTempDir();
  RunKilledChild(dir, /*kill_after_samples=*/300, /*checkpoint_every_sec=*/0);

  // The whole run fits in one open segment; flip a byte halfway through,
  // safely past the 24-byte segment header.
  const std::string segment = WalDir(dir) + "/" + SegmentFileName(1);
  std::string bytes;
  ASSERT_TRUE(PosixEnv()->ReadFile(segment, &bytes).ok());
  ASSERT_GT(bytes.size(), 1024u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream f(segment, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // A fresh fleet opened on a copy of the corrupted segment must detect
  // the damage during its own recovery scan.
  const std::string copy_dir = MakeTempDir();
  ASSERT_TRUE(PosixEnv()->CreateDirs(WalDir(copy_dir)).ok());
  {
    std::ofstream f(WalDir(copy_dir) + "/" + SegmentFileName(1),
                    std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Recovered direct = Recover(copy_dir, 0);
  EXPECT_GE(direct.service->recovery().frames_corrupt, 1u);
  EXPECT_GT(direct.service->recovery().torn_tail_bytes_truncated, 0u);

  // The original dir: scan (detects + truncates the corrupt tail), then
  // recover and compare against the clean prefix.
  WalScanStats scan;
  const online::ReplayLog confirmed = ScanConfirmedInput(dir, &scan);
  EXPECT_GE(scan.frames_corrupt, 1u);
  EXPECT_LT(confirmed.samples.size(), 300u);  // corruption cost us data
  EXPECT_FALSE(confirmed.samples.empty());
  const std::string reference = ReferenceFingerprint(confirmed);

  const Recovered recovered = Recover(dir, 0);
  EXPECT_EQ(recovered.fingerprint, reference);
  EXPECT_EQ(recovered.fingerprint, direct.fingerprint);
}

}  // namespace
}  // namespace pinsql::store
