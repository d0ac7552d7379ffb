// Board replication bench: follower catch-up over the deterministic loopback
// transport (ROADMAP "Distributed multi-process deployment", first step).
//
// For each segment size, a leader serves a 16-segment bulletin board and a
// cold follower syncs it end to end. Measured per configuration:
//   * catch-up throughput — entries/s and frame messages/s over the wall
//     clock of SyncOnce (verify-then-apply included, that IS the catch-up),
//   * simulated sync lag — LoopbackNetwork's VirtualClock model output
//     (per-message base cost + per-byte cost), a scheduler-noise-free view
//     of how segment size trades message count against bytes on the wire,
//   * verification cost share — FollowerSyncStats' recv/verify/apply split
//     (verify is the checkpoint and proofs; the per-entry checks run inside
//     Ledger::AppendVerified and count as apply),
//   * peak pinned segment bytes on BOTH sides — the leader streams via a
//     LedgerCursor and the follower appends through the segmented store, so
//     each must stay O(segment), not O(ledger), while the log is 16x the
//     segment size (Require-enforced, same bound as fig_ledger_stream),
//   * an incremental round — half a segment of fresh appends, resynced, to
//     show delta sync costs O(delta) rather than O(log).
//
// The sync protocol is a serial request-response loop (one outstanding
// request per follower), so this bench runs on one thread by construction;
// "threads": 1 is recorded for artifact uniformity with the other benches.
//
// Emits BENCH_replication.json. CI runs a scaled-down sweep via
// VOTEGRAL_REPLICATION_BENCH_SEG=<entries> (single segment size).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/table.h"
#include "src/crypto/drbg.h"
#include "src/crypto/schnorr.h"
#include "src/net/loopback.h"
#include "src/replica/follower.h"
#include "src/replica/leader.h"

namespace votegral {
namespace {

namespace fs = std::filesystem;

// Realistic ballot payload size (matches fig_ledger_stream).
constexpr size_t kPayloadBytes = 330;
// The acceptance drill's log shape: sixteen sealed segments.
constexpr uint64_t kSegmentsPerLog = 16;

struct BenchRow {
  uint64_t segment_entries = 0;
  uint64_t entries = 0;
  double sync_s = 0;              // wall clock of the cold SyncOnce
  double entries_per_s = 0;
  double frames_per_s = 0;
  double simulated_lag_s = 0;     // loopback VirtualClock model output
  uint64_t wire_bytes = 0;        // frame bytes delivered by the transport
  double recv_share = 0;          // fractions of recv+verify+apply time
  double verify_share = 0;
  double apply_share = 0;
  uint64_t leader_pinned = 0;     // peak pinned segment bytes while serving
  uint64_t follower_pinned = 0;   // peak pinned segment bytes while applying
  uint64_t segment_bytes = 0;
  double delta_sync_s = 0;        // incremental half-segment round
  uint64_t delta_entries = 0;
  uint64_t delta_wire_bytes = 0;
};

LedgerStorageConfig FileConfig(const std::string& dir, uint64_t segment_entries) {
  LedgerStorageConfig config;
  config.backend = LedgerStorageConfig::Backend::kFile;
  config.directory = dir;
  config.segment_entries = segment_entries;
  return config;
}

const FileLedgerStore& FileStore(const Ledger& ledger) {
  const auto* store = dynamic_cast<const FileLedgerStore*>(&ledger.store());
  Require(store != nullptr, "replication bench: expected the file backend");
  return *store;
}

// Runs `fn` with a follower-side channel against a served loopback pair.
template <typename Fn>
void WithServedChannel(const ReplicationLeader& leader, LoopbackNetwork& net, Fn&& fn) {
  auto [leader_end, follower_end] = net.CreatePair(/*id_a=*/1, /*id_b=*/2);
  std::thread serve([&leader, ch = std::move(leader_end)]() mutable {
    Status done = leader.Serve(*ch);
    if (!done.ok() && done.code() != StatusCode::kUnavailable) {
      std::fprintf(stderr, "leader serve failed: %s\n", done.ToString().c_str());
      Require(false, "replication bench: leader serve failed");
    }
  });
  fn(*follower_end);
  follower_end->Close();
  serve.join();
}

BenchRow RunOne(uint64_t segment_entries, const std::string& scratch) {
  BenchRow row;
  row.segment_entries = segment_entries;
  row.entries = kSegmentsPerLog * segment_entries;

  const std::string leader_dir = scratch + "/leader";
  const std::string follower_dir = scratch + "/follower";
  fs::remove_all(leader_dir);
  fs::remove_all(follower_dir);

  Ledger board(FileConfig(leader_dir, segment_entries));
  ChaChaRng rng(0xB0A2D + segment_entries);
  for (uint64_t i = 0; i < row.entries; ++i) {
    board.Append("ballot", rng.RandomBytes(kPayloadBytes));
  }

  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  ReplicationLeader leader(board, key, rng);
  LoopbackNetwork net;

  auto follower = ReplicationFollower::Open(
      FileConfig(follower_dir, segment_entries), key.public_bytes(), /*replica_id=*/2);
  Require(follower.ok(), "replication bench: follower open failed");

  // Cold catch-up: the whole 16-segment log in one sync round.
  FollowerSyncStats stats;
  WithServedChannel(leader, net, [&](Channel& ch) {
    WallTimer timer;
    auto outcome = follower->SyncOnce(ch);
    row.sync_s = timer.Seconds();
    if (!outcome.ok()) {
      std::fprintf(stderr, "sync failed: %s\n", outcome.status.ToString().c_str());
      Require(false, "replication bench: sync failed");
    }
    stats = *outcome;
  });
  Require(stats.entries_applied == row.entries, "replication bench: short sync");
  Require(follower->ledger().MerkleRoot() == board.MerkleRoot(),
          "replication bench: roots diverged");

  row.entries_per_s = static_cast<double>(stats.entries_applied) / row.sync_s;
  row.frames_per_s = static_cast<double>(stats.frame_messages) / row.sync_s;
  row.simulated_lag_s = net.SimulatedSeconds();
  row.wire_bytes = net.BytesDelivered();
  const double accounted =
      stats.recv_seconds + stats.verify_seconds + stats.apply_seconds;
  if (accounted > 0) {
    row.recv_share = stats.recv_seconds / accounted;
    row.verify_share = stats.verify_seconds / accounted;
    row.apply_share = stats.apply_seconds / accounted;
  }

  // The O(segment) residency bound, on both ends, after a 16x-segment sync.
  row.leader_pinned = FileStore(board).PeakPinnedBytes();
  row.follower_pinned = FileStore(follower->ledger()).PeakPinnedBytes();
  row.segment_bytes = fs::file_size(FileStore(board).SegmentPath(0));
  Require(row.leader_pinned <= 4 * row.segment_bytes,
          "replication bench: leader resident memory exceeded O(segment size)");
  Require(row.follower_pinned <= 4 * row.segment_bytes,
          "replication bench: follower resident memory exceeded O(segment size)");

  // Incremental round: half a segment of fresh appends, then resync.
  row.delta_entries = segment_entries / 2;
  for (uint64_t i = 0; i < row.delta_entries; ++i) {
    board.Append("ballot", rng.RandomBytes(kPayloadBytes));
  }
  const uint64_t wire_before = net.BytesDelivered();
  WithServedChannel(leader, net, [&](Channel& ch) {
    WallTimer timer;
    auto outcome = follower->SyncOnce(ch);
    row.delta_sync_s = timer.Seconds();
    Require(outcome.ok(), "replication bench: delta sync failed");
    Require(outcome->entries_applied == row.delta_entries &&
                outcome->first_requested_index == row.entries,
            "replication bench: delta sync re-downloaded sealed history");
  });
  row.delta_wire_bytes = net.BytesDelivered() - wire_before;

  fs::remove_all(leader_dir);
  fs::remove_all(follower_dir);
  return row;
}

void RunSweep() {
  std::vector<uint64_t> segment_sizes = {128, 512, 2048};
  if (const char* env = std::getenv("VOTEGRAL_REPLICATION_BENCH_SEG")) {
    long parsed = std::atol(env);
    if (parsed > 0) {
      segment_sizes = {static_cast<uint64_t>(parsed)};
    }
  }

  const std::string scratch =
      (fs::temp_directory_path() / "votegral_replication_bench").string();
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  std::vector<BenchRow> rows;
  for (uint64_t segment : segment_sizes) {
    rows.push_back(RunOne(segment, scratch));
  }
  fs::remove_all(scratch);

  TextTable table("Board replication — follower catch-up over loopback (16-segment log)");
  table.SetHeader({"Seg entries", "Entries", "Sync", "Entries/s", "Frames/s",
                   "Sim lag", "Verify share", "Leader pin", "Follower pin"});
  for (const BenchRow& row : rows) {
    char entries_s[32], frames_s[32], share[32];
    std::snprintf(entries_s, sizeof(entries_s), "%.0f", row.entries_per_s);
    std::snprintf(frames_s, sizeof(frames_s), "%.0f", row.frames_per_s);
    std::snprintf(share, sizeof(share), "%.0f%%", row.verify_share * 100);
    table.AddRow({std::to_string(row.segment_entries), std::to_string(row.entries),
                  FormatSeconds(row.sync_s), entries_s, frames_s,
                  FormatSeconds(row.simulated_lag_s), share,
                  std::to_string(row.leader_pinned / 1024) + " KiB",
                  std::to_string(row.follower_pinned / 1024) + " KiB"});
  }
  std::printf("%s\n", table.Format().c_str());
  std::printf("Peak pinned bytes track the segment size on both ends while the log "
              "is %llux the segment — O(segment), not O(ledger). Incremental rounds "
              "start at the durable size (no sealed-segment re-download).\n\n",
              static_cast<unsigned long long>(kSegmentsPerLog));

  FILE* json = std::fopen("BENCH_replication.json", "w");
  Require(json != nullptr, "replication bench: cannot write BENCH_replication.json");
  std::fprintf(json,
               "{\n  \"bench\": \"replication\",\n  \"payload_bytes\": %zu,\n"
               "  \"segments_per_log\": %llu,\n  \"threads\": 1,\n  \"sweep\": [\n",
               kPayloadBytes, static_cast<unsigned long long>(kSegmentsPerLog));
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    std::fprintf(
        json,
        "    {\"segment_entries\": %llu, \"entries\": %llu, \"sync_s\": %.6f, "
        "\"entries_per_s\": %.1f, \"frames_per_s\": %.1f, "
        "\"simulated_lag_s\": %.6f, \"wire_bytes\": %llu, "
        "\"recv_share\": %.4f, \"verify_share\": %.4f, \"apply_share\": %.4f, "
        "\"leader_peak_pinned_bytes\": %llu, \"follower_peak_pinned_bytes\": %llu, "
        "\"segment_bytes\": %llu, \"delta_entries\": %llu, "
        "\"delta_sync_s\": %.6f, \"delta_wire_bytes\": %llu}%s\n",
        static_cast<unsigned long long>(row.segment_entries),
        static_cast<unsigned long long>(row.entries), row.sync_s, row.entries_per_s,
        row.frames_per_s, row.simulated_lag_s,
        static_cast<unsigned long long>(row.wire_bytes), row.recv_share,
        row.verify_share, row.apply_share,
        static_cast<unsigned long long>(row.leader_pinned),
        static_cast<unsigned long long>(row.follower_pinned),
        static_cast<unsigned long long>(row.segment_bytes),
        static_cast<unsigned long long>(row.delta_entries), row.delta_sync_s,
        static_cast<unsigned long long>(row.delta_wire_bytes),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("Wrote BENCH_replication.json\n");
}

}  // namespace
}  // namespace votegral

int main() {
  votegral::RunSweep();
  return 0;
}
