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
// request per follower), so this bench runs on one thread by construction.
//
// --segment E1,E2 (default 128,512,2048) sets the segment sizes. Emits
// BENCH_replication.json.
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/figure_bench.h"
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

figure::Row RunOne(uint64_t segment_entries, const std::filesystem::path& scratch) {
  const uint64_t entries = kSegmentsPerLog * segment_entries;
  const std::string leader_dir = (scratch / "leader").string();
  const std::string follower_dir = (scratch / "follower").string();

  Ledger board(FileConfig(leader_dir, segment_entries));
  ChaChaRng rng(0xB0A2D + segment_entries);
  for (uint64_t i = 0; i < entries; ++i) {
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
  double sync_s = 0.0;
  WithServedChannel(leader, net, [&](Channel& ch) {
    WallTimer timer;
    auto outcome = follower->SyncOnce(ch);
    sync_s = timer.Seconds();
    if (!outcome.ok()) {
      std::fprintf(stderr, "sync failed: %s\n", outcome.status.ToString().c_str());
      Require(false, "replication bench: sync failed");
    }
    stats = *outcome;
  });
  Require(stats.entries_applied == entries, "replication bench: short sync");
  Require(follower->ledger().MerkleRoot() == board.MerkleRoot(),
          "replication bench: roots diverged");
  const double simulated_lag_s = net.SimulatedSeconds();
  const uint64_t wire_bytes = net.BytesDelivered();
  const double accounted =
      stats.recv_seconds + stats.verify_seconds + stats.apply_seconds;
  auto share = [&](double seconds) { return accounted > 0 ? seconds / accounted : 0.0; };

  // The O(segment) residency bound, on both ends, after a 16x-segment sync.
  const uint64_t leader_pinned = FileStore(board).PeakPinnedBytes();
  const uint64_t follower_pinned = FileStore(follower->ledger()).PeakPinnedBytes();
  const uint64_t segment_bytes = fs::file_size(FileStore(board).SegmentPath(0));
  Require(leader_pinned <= 4 * segment_bytes,
          "replication bench: leader resident memory exceeded O(segment size)");
  Require(follower_pinned <= 4 * segment_bytes,
          "replication bench: follower resident memory exceeded O(segment size)");

  // Incremental round: half a segment of fresh appends, then resync.
  const uint64_t delta_entries = segment_entries / 2;
  for (uint64_t i = 0; i < delta_entries; ++i) {
    board.Append("ballot", rng.RandomBytes(kPayloadBytes));
  }
  double delta_sync_s = 0.0;
  WithServedChannel(leader, net, [&](Channel& ch) {
    WallTimer timer;
    auto outcome = follower->SyncOnce(ch);
    delta_sync_s = timer.Seconds();
    Require(outcome.ok(), "replication bench: delta sync failed");
    Require(outcome->entries_applied == delta_entries &&
                outcome->first_requested_index == entries,
            "replication bench: delta sync re-downloaded sealed history");
  });
  const uint64_t delta_wire_bytes = net.BytesDelivered() - wire_bytes;

  fs::remove_all(leader_dir);
  fs::remove_all(follower_dir);
  return {{"segment_entries", segment_entries},
          {"entries", entries},
          {"sync_s", sync_s},
          {"entries_per_s", static_cast<double>(stats.entries_applied) / sync_s},
          {"frames_per_s", static_cast<double>(stats.frame_messages) / sync_s},
          {"simulated_lag_s", simulated_lag_s},
          {"wire_bytes", wire_bytes},
          {"recv_share", share(stats.recv_seconds)},
          {"verify_share", share(stats.verify_seconds)},
          {"apply_share", share(stats.apply_seconds)},
          {"leader_peak_pinned_bytes", leader_pinned},
          {"follower_peak_pinned_bytes", follower_pinned},
          {"segment_bytes", segment_bytes},
          {"delta_entries", delta_entries},
          {"delta_sync_s", delta_sync_s},
          {"delta_wire_bytes", delta_wire_bytes}};
}

void Main(int argc, char** argv) {
  figure::Bench bench("replication", argc, argv);
  const std::vector<uint64_t> segment_sizes = bench.Counts("--segment", {128, 512, 2048});
  bench.RejectUnreadFlags();
  bench.Config("payload_bytes", uint64_t{kPayloadBytes});
  bench.Config("segments_per_log", kSegmentsPerLog);

  std::vector<figure::Row> rows;
  for (uint64_t segment : segment_sizes) {
    rows.push_back(RunOne(segment, bench.Scratch()));
  }
  bench.Table("sweep", std::move(rows));
  bench.Finish();
}

}  // namespace
}  // namespace votegral

int main(int argc, char** argv) {
  votegral::Main(argc, argv);
  return 0;
}
