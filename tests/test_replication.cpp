// Tests for the replicated bulletin board: loopback sync byte-identity
// (roots AND on-disk segment files), incremental catch-up, crash-restart
// drills over faults::kReplicaApply / faults::kNetRecv across many seeds,
// rejection of corrupted frames and forged checkpoints, equivocation
// verdicts with retained evidence, and an AF_UNIX multi-process-shaped sync.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "src/common/faults.h"
#include "src/common/files.h"
#include "src/common/serde.h"
#include "src/crypto/drbg.h"
#include "src/net/loopback.h"
#include "src/net/socket.h"
#include "src/replica/follower.h"
#include "src/replica/leader.h"

namespace votegral {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSegmentEntries = 16;

Bytes Payload(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("votegral_repl_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

LedgerStorageConfig FileConfig(const std::string& dir) {
  LedgerStorageConfig config;
  config.backend = LedgerStorageConfig::Backend::kFile;
  config.directory = dir;
  config.segment_entries = kSegmentEntries;
  return config;
}

// A leader-side ledger with `n` deterministic entries across several topics.
Ledger MakeBoard(uint64_t n, const LedgerStorageConfig& config) {
  Ledger ledger(config);
  for (uint64_t i = 0; i < n; ++i) {
    const char* topic = (i % 3 == 0) ? "registration" : (i % 3 == 1) ? "envelope" : "ballot";
    ledger.Append(topic, Payload("board-entry-" + std::to_string(i)));
  }
  return ledger;
}

Bytes ReadFile(const std::string& path) {
  Outcome<Bytes> bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status;
  return bytes.ok() ? std::move(*bytes) : Bytes{};
}

// Runs `leader`.Serve on one end of a fresh loopback pair in a thread and
// hands the follower end to `fn`; joins after `fn` returns (the follower end
// is closed first so Serve exits).
template <typename Fn>
void WithServedChannel(const ReplicationLeader& leader, LoopbackNetwork& net, Fn&& fn) {
  auto [leader_end, follower_end] = net.CreatePair(/*id_a=*/1, /*id_b=*/2);
  std::thread serve([&leader, ch = std::move(leader_end)]() mutable {
    Status done = leader.Serve(*ch);
    EXPECT_TRUE(done.ok() || done.code() == StatusCode::kUnavailable) << done;
  });
  fn(*follower_end);
  follower_end->Close();
  serve.join();
}

TEST(Replication, LoopbackSyncIsByteIdentical) {
  ScratchDir leader_dir("leader_ident");
  ScratchDir follower_dir("follower_ident");
  constexpr uint64_t kEntries = 5 * kSegmentEntries + 7;  // >4 sealed segments + tail
  Ledger board = MakeBoard(kEntries, FileConfig(leader_dir.path));
  ChaChaRng rng(7);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  ReplicationLeader leader(board, key, rng);

  auto follower = ReplicationFollower::Open(FileConfig(follower_dir.path),
                                            key.public_bytes(), /*replica_id=*/2);
  ASSERT_TRUE(follower.ok()) << follower.status;

  LoopbackNetwork net;
  WithServedChannel(leader, net, [&](Channel& ch) {
    auto stats = follower->SyncOnce(ch);
    ASSERT_TRUE(stats.ok()) << stats.status;
    EXPECT_EQ(stats->entries_applied, kEntries);
    EXPECT_EQ(stats->checkpoint_size, kEntries);
    EXPECT_EQ(stats->first_requested_index, 0u);
    EXPECT_GT(stats->frame_messages, 0u);
  });

  EXPECT_EQ(follower->ledger().size(), board.size());
  EXPECT_EQ(follower->ledger().MerkleRoot(), board.MerkleRoot());
  EXPECT_EQ(follower->ledger().Head(), board.Head());
  ASSERT_TRUE(follower->trusted_checkpoint().has_value());
  EXPECT_EQ(follower->trusted_checkpoint()->size, kEntries);

  // Byte-identity on disk: every segment file, sealed and tail alike.
  const auto& leader_store = dynamic_cast<const FileLedgerStore&>(board.store());
  const auto& follower_store =
      dynamic_cast<const FileLedgerStore&>(follower->ledger().store());
  ASSERT_EQ(leader_store.SegmentCount(), follower_store.SegmentCount());
  for (uint64_t s = 0; s < leader_store.SegmentCount(); ++s) {
    EXPECT_EQ(ReadFile(leader_store.SegmentPath(s)), ReadFile(follower_store.SegmentPath(s)))
        << "segment " << s << " differs on disk";
  }
}

TEST(Replication, IncrementalSyncFetchesOnlyTheDelta) {
  ScratchDir leader_dir("leader_incr");
  ScratchDir follower_dir("follower_incr");
  Ledger board = MakeBoard(2 * kSegmentEntries, FileConfig(leader_dir.path));
  ChaChaRng rng(11);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  ReplicationLeader leader(board, key, rng);
  auto follower = ReplicationFollower::Open(FileConfig(follower_dir.path),
                                            key.public_bytes(), 2);
  ASSERT_TRUE(follower.ok()) << follower.status;

  LoopbackNetwork net;
  WithServedChannel(leader, net, [&](Channel& ch) {
    ASSERT_TRUE(follower->SyncOnce(ch).ok());
  });
  const uint64_t bytes_first = net.BytesDelivered();

  // The board grows; the next round must start where the last one ended.
  for (uint64_t i = 0; i < 5; ++i) {
    board.Append("ballot", Payload("late-" + std::to_string(i)));
  }
  WithServedChannel(leader, net, [&](Channel& ch) {
    auto stats = follower->SyncOnce(ch);
    ASSERT_TRUE(stats.ok()) << stats.status;
    EXPECT_EQ(stats->first_requested_index, 2 * kSegmentEntries);
    EXPECT_EQ(stats->entries_applied, 5u);
  });
  EXPECT_EQ(follower->ledger().MerkleRoot(), board.MerkleRoot());
  // The delta round moved far fewer bytes than the initial catch-up.
  EXPECT_LT(net.BytesDelivered() - bytes_first, bytes_first);

  // An already-synced follower's round applies nothing.
  WithServedChannel(leader, net, [&](Channel& ch) {
    auto stats = follower->SyncOnce(ch);
    ASSERT_TRUE(stats.ok()) << stats.status;
    EXPECT_EQ(stats->entries_applied, 0u);
    EXPECT_EQ(stats->frame_messages, 0u);
  });
}

TEST(Replication, CrashedFollowerResumesWithoutRedownloadingSealedSegments) {
  // >=16 seeds; each arms crash rules on replica.apply (scope = segment) and
  // lossy net.recv, runs until the follower "dies" or finishes, then
  // restarts it disarmed and requires convergence from the recovered prefix.
  constexpr uint64_t kEntries = 6 * kSegmentEntries;
  ScratchDir leader_dir("leader_drill");
  Ledger board = MakeBoard(kEntries, FileConfig(leader_dir.path));
  ChaChaRng rng(13);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  ReplicationLeader leader(board, key, rng);

  uint64_t crashed_runs = 0;
  uint64_t resumed_with_progress = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    ScratchDir follower_dir("follower_drill_" + std::to_string(seed));
    const LedgerStorageConfig config = FileConfig(follower_dir.path);

    bool crashed = false;
    {
      auto follower = ReplicationFollower::Open(config, key.public_bytes(), 2);
      ASSERT_TRUE(follower.ok()) << follower.status;
      FaultPlan plan(seed);
      plan.Crash(faults::kReplicaApply, 0.35);
      plan.Timeout(faults::kNetRecv, 0.05, /*scope=*/2);
      ArmedFaults armed(plan);
      LoopbackNetwork net;
      net.SetRecvDeadlineMillis(50);
      WithServedChannel(leader, net, [&](Channel& ch) {
        try {
          auto stats = follower->SyncOnce(ch);
          // Lossy runs may fail cleanly (timeout budget); that's a value,
          // not a crash.
          if (!stats.ok()) {
            EXPECT_NE(stats.status.code(), StatusCode::kOk);
          }
        } catch (const InjectedCrash&) {
          crashed = true;
        }
      });
    }  // follower destroyed: the "process" is gone

    if (crashed) {
      ++crashed_runs;
    }
    // Restart: recover from disk, resume, converge.
    auto restarted = ReplicationFollower::Open(config, key.public_bytes(), 2);
    ASSERT_TRUE(restarted.ok()) << "seed " << seed << ": " << restarted.status;
    const uint64_t recovered = restarted->ledger().size();
    LoopbackNetwork net;
    WithServedChannel(leader, net, [&](Channel& ch) {
      auto stats = restarted->SyncOnce(ch);
      ASSERT_TRUE(stats.ok()) << "seed " << seed << ": " << stats.status;
      // Resume starts exactly at the recovered durable prefix — verified
      // sealed segments are never re-downloaded.
      EXPECT_EQ(stats->first_requested_index, recovered) << "seed " << seed;
      EXPECT_EQ(stats->entries_applied, kEntries - recovered) << "seed " << seed;
    });
    if (recovered >= kSegmentEntries) {
      ++resumed_with_progress;
    }
    EXPECT_EQ(restarted->ledger().MerkleRoot(), board.MerkleRoot()) << "seed " << seed;
    EXPECT_TRUE(restarted->ledger().VerifyChain().ok()) << "seed " << seed;
  }
  // The PRF schedule must actually have exercised both drill shapes.
  EXPECT_GT(crashed_runs, 0u) << "no seed crashed the follower mid-sync";
  EXPECT_GT(resumed_with_progress, 0u)
      << "no seed resumed with at least one sealed segment of durable progress";
}

TEST(Replication, CorruptedFrameIsRejectedWithLocalizedReason) {
  Ledger board = MakeBoard(10, LedgerStorageConfig{});
  ChaChaRng rng(17);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  ReplicationLeader leader(board, key, rng);
  auto follower =
      ReplicationFollower::Open(LedgerStorageConfig{}, key.public_bytes(), 2);
  ASSERT_TRUE(follower.ok());

  FaultPlan plan(23);
  plan.Corrupt(faults::kNetRecv, 1.0, /*scope=*/2);
  ArmedFaults armed(plan);
  LoopbackNetwork net;
  WithServedChannel(leader, net, [&](Channel& ch) {
    auto stats = follower->SyncOnce(ch);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status.code(), StatusCode::kCorrupted) << stats.status;
  });
  EXPECT_EQ(follower->ledger().size(), 0u) << "corrupt bytes were applied";
}

TEST(Replication, CorruptedApplyIsCaughtByTheRecomputedHash) {
  // The frames decode cleanly; the apply path then hands the ledger a
  // payload with one byte flipped. AppendVerified's recomputed hash must
  // reject it before anything is written.
  Ledger board = MakeBoard(10, LedgerStorageConfig{});
  ChaChaRng rng(29);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  ReplicationLeader leader(board, key, rng);
  auto follower =
      ReplicationFollower::Open(LedgerStorageConfig{}, key.public_bytes(), 2);
  ASSERT_TRUE(follower.ok());

  FaultPlan plan(31);
  plan.Corrupt(faults::kReplicaApply, 1.0);
  ArmedFaults armed(plan);
  LoopbackNetwork net;
  WithServedChannel(leader, net, [&](Channel& ch) {
    auto stats = follower->SyncOnce(ch);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status.code(), StatusCode::kCorrupted) << stats.status;
    EXPECT_NE(stats.status.reason().find("recomputed hash mismatch"), std::string::npos)
        << stats.status;
  });
  EXPECT_EQ(follower->ledger().size(), 0u) << "corrupt bytes were applied";
}

TEST(Replication, CheckpointSidecarThatIsADirectoryFailsUnavailable) {
  ScratchDir dir("sidecar_is_dir");
  const std::string sidecar = dir.path + "/checkpoint.bin";
  fs::create_directories(sidecar);
  ChaChaRng rng(37);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  auto follower = ReplicationFollower::Open(FileConfig(dir.path), key.public_bytes(), 2);
  ASSERT_FALSE(follower.ok());
  EXPECT_EQ(follower.status.code(), StatusCode::kUnavailable) << follower.status;
  EXPECT_NE(follower.status.reason().find(sidecar), std::string::npos) << follower.status;
}

TEST(Replication, ForgedCheckpointSignatureIsRejected) {
  Ledger board = MakeBoard(10, LedgerStorageConfig{});
  ChaChaRng rng(19);
  SchnorrKeyPair real_key = SchnorrKeyPair::Generate(rng);
  SchnorrKeyPair forger_key = SchnorrKeyPair::Generate(rng);
  // The leader signs with a key the follower does not trust.
  ReplicationLeader leader(board, forger_key, rng);
  auto follower =
      ReplicationFollower::Open(LedgerStorageConfig{}, real_key.public_bytes(), 2);
  ASSERT_TRUE(follower.ok());

  LoopbackNetwork net;
  WithServedChannel(leader, net, [&](Channel& ch) {
    auto stats = follower->SyncOnce(ch);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status.code(), StatusCode::kInvalidProof) << stats.status;
    EXPECT_NE(stats.status.reason().find("checkpoint signature"), std::string::npos)
        << stats.status;
  });
  EXPECT_EQ(follower->ledger().size(), 0u) << "unauthenticated bytes were applied";
}

TEST(Replication, EquivocatingLeaderYieldsEvidence) {
  ScratchDir follower_dir("follower_equiv");
  ChaChaRng rng(29);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);

  // Round 1: an honest board; the follower seals a trusted checkpoint.
  Ledger honest = MakeBoard(3 * kSegmentEntries, LedgerStorageConfig{});
  auto follower = ReplicationFollower::Open(FileConfig(follower_dir.path),
                                            key.public_bytes(), 2);
  ASSERT_TRUE(follower.ok());
  {
    ReplicationLeader leader(honest, key, rng);
    LoopbackNetwork net;
    WithServedChannel(leader, net, [&](Channel& ch) {
      ASSERT_TRUE(follower->SyncOnce(ch).ok());
    });
  }
  ASSERT_TRUE(follower->trusted_checkpoint().has_value());

  // Round 2: the same key signs a different history of the same length plus
  // growth — a split view.
  Ledger split(LedgerStorageConfig{});
  for (uint64_t i = 0; i < 3 * kSegmentEntries + 4; ++i) {
    split.Append("ballot", Payload("rewritten-" + std::to_string(i)));
  }
  {
    ReplicationLeader leader(split, key, rng);
    LoopbackNetwork net;
    WithServedChannel(leader, net, [&](Channel& ch) {
      auto stats = follower->SyncOnce(ch);
      ASSERT_FALSE(stats.ok());
      EXPECT_EQ(stats.status.code(), StatusCode::kEquivocation) << stats.status;
    });
  }
  ASSERT_TRUE(follower->equivocation().has_value());
  const EquivocationEvidence& evidence = *follower->equivocation();
  // Both sides of the split view verify under the leader key — portable
  // proof of misbehavior.
  EXPECT_TRUE(evidence.trusted.Verify(key.public_bytes()).ok());
  EXPECT_TRUE(evidence.conflicting.Verify(key.public_bytes()).ok());
  EXPECT_NE(evidence.trusted.root, evidence.conflicting.root);
  // Nothing from the split view was applied.
  EXPECT_EQ(follower->ledger().size(), 3 * kSegmentEntries);
  EXPECT_EQ(follower->ledger().MerkleRoot(), honest.MerkleRoot());
}

TEST(Replication, EquivocationSurvivesFollowerRestart) {
  // The trusted checkpoint sidecar is what makes the verdict durable: a
  // restarted follower confronted with the split view still equivocates.
  ScratchDir follower_dir("follower_equiv_restart");
  ChaChaRng rng(31);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  Ledger honest = MakeBoard(2 * kSegmentEntries, LedgerStorageConfig{});
  const LedgerStorageConfig config = FileConfig(follower_dir.path);
  {
    auto follower = ReplicationFollower::Open(config, key.public_bytes(), 2);
    ASSERT_TRUE(follower.ok());
    ReplicationLeader leader(honest, key, rng);
    LoopbackNetwork net;
    WithServedChannel(leader, net, [&](Channel& ch) {
      ASSERT_TRUE(follower->SyncOnce(ch).ok());
    });
  }
  auto restarted = ReplicationFollower::Open(config, key.public_bytes(), 2);
  ASSERT_TRUE(restarted.ok()) << restarted.status;
  ASSERT_TRUE(restarted->trusted_checkpoint().has_value())
      << "sidecar did not survive the restart";

  Ledger split(LedgerStorageConfig{});
  for (uint64_t i = 0; i < 2 * kSegmentEntries + 1; ++i) {
    split.Append("ballot", Payload("rewritten-" + std::to_string(i)));
  }
  ReplicationLeader leader(split, key, rng);
  LoopbackNetwork net;
  WithServedChannel(leader, net, [&](Channel& ch) {
    auto stats = restarted->SyncOnce(ch);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status.code(), StatusCode::kEquivocation) << stats.status;
  });
  EXPECT_TRUE(restarted->equivocation().has_value());
}

TEST(Replication, UnixSocketSyncMatchesLoopback) {
  ScratchDir leader_dir("leader_sock");
  ScratchDir follower_dir("follower_sock");
  constexpr uint64_t kEntries = 2 * kSegmentEntries + 3;
  Ledger board = MakeBoard(kEntries, FileConfig(leader_dir.path));
  ChaChaRng rng(37);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  ReplicationLeader leader(board, key, rng);

  const std::string sock_path =
      (fs::temp_directory_path() / ("votegral_repl_sock_" + std::to_string(::getpid())))
          .string();
  auto listener = SocketListener::Bind(sock_path);
  ASSERT_TRUE(listener.ok()) << listener.status;

  std::thread serve([&]() {
    auto accepted = (*listener)->Accept();
    ASSERT_TRUE(accepted.ok()) << accepted.status;
    Status done = leader.Serve(**accepted);
    EXPECT_TRUE(done.ok() || done.code() == StatusCode::kUnavailable) << done;
  });

  auto channel = ConnectUnixSocket(sock_path);
  ASSERT_TRUE(channel.ok()) << channel.status;
  auto follower = ReplicationFollower::Open(FileConfig(follower_dir.path),
                                            key.public_bytes(), 3);
  ASSERT_TRUE(follower.ok());
  auto stats = follower->SyncOnce(**channel);
  ASSERT_TRUE(stats.ok()) << stats.status;
  EXPECT_EQ(stats->entries_applied, kEntries);
  (*channel)->Close();
  serve.join();

  EXPECT_EQ(follower->ledger().MerkleRoot(), board.MerkleRoot());
  const auto& leader_store = dynamic_cast<const FileLedgerStore&>(board.store());
  const auto& follower_store =
      dynamic_cast<const FileLedgerStore&>(follower->ledger().store());
  for (uint64_t s = 0; s < leader_store.SegmentCount(); ++s) {
    EXPECT_EQ(ReadFile(leader_store.SegmentPath(s)), ReadFile(follower_store.SegmentPath(s)))
        << "segment " << s;
  }
}

TEST(Replication, WireMessageRoundTrips) {
  ChaChaRng rng(41);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);

  SignedCheckpoint cp;
  cp.root.fill(0xab);
  cp.size = 12345;
  cp.signature = key.Sign(cp.SignedStatement(), rng);
  EXPECT_TRUE(cp.Verify(key.public_bytes()).ok());
  auto cp2 = SignedCheckpoint::Parse(cp.Serialize());
  ASSERT_TRUE(cp2.ok());
  EXPECT_EQ(cp2->root, cp.root);
  EXPECT_EQ(cp2->size, cp.size);
  EXPECT_TRUE(cp2->Verify(key.public_bytes()).ok());
  // The signature binds the size, not just the root.
  SignedCheckpoint resized = cp;
  resized.size = 12346;
  EXPECT_EQ(resized.Verify(key.public_bytes()).code(), StatusCode::kInvalidProof);

  CheckpointMsg msg;
  msg.request_id = 77;
  msg.checkpoint = cp;
  msg.proof = ConsistencyProof{100, 12345, {LedgerHash{}, LedgerHash{}}};
  auto decoded = DecodeCheckpoint(EncodeCheckpoint(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status;
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->proof.path.size(), 2u);

  FramesMsg frames;
  frames.request_id = 78;
  frames.first_index = 3;
  LedgerEntry entry;
  entry.index = 3;
  entry.topic = "ballot";
  entry.payload = Payload("payload");
  entry.prev_hash.fill(1);
  entry.entry_hash = HashLedgerEntry(3, "ballot", entry.payload, entry.prev_hash);
  frames.entries.push_back(entry);
  auto frames2 = DecodeFrames(EncodeFrames(frames));
  ASSERT_TRUE(frames2.ok()) << frames2.status;
  ASSERT_EQ(frames2->entries.size(), 1u);
  EXPECT_EQ(frames2->entries[0].entry_hash, entry.entry_hash);
  EXPECT_EQ(frames2->entries[0].topic, "ballot");

  // Cross-type decode is a kCorrupted value.
  EXPECT_EQ(DecodeFrames(EncodeCheckpoint(msg)).status.code(), StatusCode::kCorrupted);
  // Truncated payload is a kCorrupted value, not a throw.
  WireMessage cut = EncodeFrames(frames);
  cut.payload.pop_back();
  EXPECT_EQ(DecodeFrames(cut).status.code(), StatusCode::kCorrupted);
}

TEST(Replication, FramesCountBeyondPayloadFailsCodedBeforeAllocating) {
  // u64 request_id | u64 first_index | u32 count = 2^32 - 1 and no frames:
  // sizing the entry vector by the peer's count would ask for 512 GiB.
  ByteWriter w;
  w.U64(1);
  w.U64(0);
  w.U32(UINT32_MAX);
  WireMessage hostile{static_cast<uint16_t>(ReplicaMsgType::kFrames), w.Take()};
  ASSERT_EQ(hostile.payload.size(), 20u);
  Outcome<FramesMsg> decoded = Outcome<FramesMsg>::Fail(StatusCode::kFailed, "threw");
  ASSERT_NO_THROW(decoded = DecodeFrames(hostile));
  EXPECT_EQ(decoded.status.code(), StatusCode::kCorrupted);
  EXPECT_EQ(decoded.status.reason(), "replica frames: entry count exceeds payload at offset 16");
  // One byte short of the smallest frame does not license an entry either.
  hostile.payload[16] = 1;
  hostile.payload[17] = hostile.payload[18] = hostile.payload[19] = 0;
  hostile.payload.resize(20 + kMinEntryFrameBytes - 1);
  EXPECT_EQ(DecodeFrames(hostile).status.reason(),
            "replica frames: entry count exceeds payload at offset 16");
}

TEST(Replication, NewFaultPointsAreRegistered) {
  auto points = RegisteredFaultPoints();
  auto has = [&](std::string_view name) {
    for (std::string_view p : points) {
      if (p == name) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has(faults::kNetSend));
  EXPECT_TRUE(has(faults::kNetRecv));
  EXPECT_TRUE(has(faults::kReplicaApply));
}

}  // namespace
}  // namespace votegral
