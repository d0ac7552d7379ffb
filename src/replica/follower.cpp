#include "src/replica/follower.h"

#include <filesystem>
#include <fstream>

#include "src/common/clock.h"
#include "src/common/faults.h"
#include "src/common/files.h"

namespace votegral {

Outcome<ReplicationFollower> ReplicationFollower::Open(
    const LedgerStorageConfig& config, const CompressedRistretto& leader_pk,
    uint64_t replica_id, FollowerOptions options) {
  using Out = Outcome<ReplicationFollower>;
  Outcome<Ledger> ledger = Ledger::Open(config);
  if (!ledger.ok()) {
    return Out::Fail(ledger.status);
  }
  std::string checkpoint_path;
  if (config.backend == LedgerStorageConfig::Backend::kFile) {
    checkpoint_path = config.directory + "/checkpoint.bin";
  }
  ReplicationFollower follower(std::move(*ledger), leader_pk, replica_id,
                               checkpoint_path, options);
  if (!checkpoint_path.empty() && std::filesystem::exists(checkpoint_path)) {
    Outcome<Bytes> raw = ReadFileBytes(checkpoint_path);
    if (!raw.ok()) {
      return Out::Fail(raw.status);
    }
    Outcome<SignedCheckpoint> checkpoint = SignedCheckpoint::Parse(*raw);
    if (!checkpoint.ok()) {
      return Out::Fail(StatusCode::kCorrupted,
                       "replica: trusted checkpoint sidecar " + checkpoint_path +
                           ": " + checkpoint.status.reason());
    }
    if (Status s = checkpoint->Verify(leader_pk); !s.ok()) {
      return Out::Fail(StatusCode::kCorrupted,
                       "replica: trusted checkpoint sidecar " + checkpoint_path +
                           " does not verify: " + s.reason());
    }
    // The sidecar is only written after a fully verified sync, so the
    // recovered ledger must contain (at least) the checkpointed prefix, and
    // that prefix must still hash to the checkpoint root.
    if (checkpoint->size > follower.ledger_.size()) {
      return Out::Fail(StatusCode::kCorrupted,
                       "replica: trusted checkpoint covers " +
                           std::to_string(checkpoint->size) +
                           " entries but the recovered ledger holds only " +
                           std::to_string(follower.ledger_.size()));
    }
    if (follower.ledger_.MerkleRootAt(checkpoint->size) != checkpoint->root) {
      return Out::Fail(StatusCode::kCorrupted,
                       "replica: recovered ledger prefix does not hash to the "
                       "trusted checkpoint root");
    }
    follower.trusted_ = std::move(*checkpoint);
  }
  return Out::Ok(std::move(follower));
}

Outcome<WireMessage> ReplicationFollower::RoundTrip(Channel& channel,
                                                    const WireMessage& request,
                                                    uint64_t request_id,
                                                    FollowerSyncStats* stats) {
  using Out = Outcome<WireMessage>;
  if (Status sent = channel.Send(request); !sent.ok()) {
    return Out::Fail(sent);
  }
  while (true) {
    WallTimer timer;
    Outcome<WireMessage> response = channel.Recv();
    stats->recv_seconds += timer.Seconds();
    if (!response.ok()) {
      return response;
    }
    stats->bytes_received += 6 + response->payload.size();  // frame header + body
    if (response->payload.size() < 8) {
      return Out::Fail(StatusCode::kCorrupted,
                       "replica: response too short to carry a request id");
    }
    const uint64_t echoed = LoadLe64(response->payload.data());
    if (echoed != request_id) {
      // A late answer to a timed-out earlier request: drain and keep waiting
      // for ours — ids only move forward, so this cannot loop on live data.
      continue;
    }
    if (response->type == static_cast<uint16_t>(ReplicaMsgType::kError)) {
      Outcome<ErrorMsg> err = DecodeError(*response);
      if (!err.ok()) {
        return Out::Fail(err.status);
      }
      return Out::Fail(err->ToStatus());
    }
    return response;
  }
}

Status ReplicationFollower::VerifyCheckpoint(const CheckpointMsg& msg,
                                             FollowerSyncStats* stats) {
  WallTimer timer;
  Status result = [&]() -> Status {
    const SignedCheckpoint& checkpoint = msg.checkpoint;
    if (Status s = checkpoint.Verify(leader_pk_); !s.ok()) {
      return s;
    }
    const uint64_t have = ledger_.size();
    if (checkpoint.size < have) {
      if (trusted_ && checkpoint.size < trusted_->size) {
        equivocation_ = EquivocationEvidence{*trusted_, checkpoint};
        return Status::Error(
            StatusCode::kEquivocation,
            "replica: leader signed a checkpoint of size " +
                std::to_string(checkpoint.size) + " after signing size " +
                std::to_string(trusted_->size) +
                " — both cannot belong to one append-only history");
      }
      return Status::Error(StatusCode::kFailed,
                           "replica: leader reports size " +
                               std::to_string(checkpoint.size) +
                               ", smaller than the local prefix " +
                               std::to_string(have));
    }
    if (msg.proof.old_size != have || msg.proof.new_size != checkpoint.size) {
      return Status::Error(
          StatusCode::kInvalidProof,
          "replica: consistency proof covers " + std::to_string(msg.proof.old_size) +
              " -> " + std::to_string(msg.proof.new_size) + ", wanted " +
              std::to_string(have) + " -> " + std::to_string(checkpoint.size));
    }
    if (Status s = VerifyConsistency(ledger_.MerkleRoot(), checkpoint.root, msg.proof);
        !s.ok()) {
      if (trusted_) {
        // The signature is valid but the history is not an extension of the
        // prefix this leader previously signed: split view.
        equivocation_ = EquivocationEvidence{*trusted_, checkpoint};
        return Status::Error(StatusCode::kEquivocation,
                             "replica: signed checkpoint (size " +
                                 std::to_string(checkpoint.size) +
                                 ") does not extend the durable prefix: " + s.reason());
      }
      return s;
    }
    return Status::Ok();
  }();
  stats->verify_seconds += timer.Seconds();
  return result;
}

Status ReplicationFollower::ApplyFrames(FramesMsg msg, uint64_t limit,
                                        FollowerSyncStats* stats) {
  for (LedgerEntry& entry : msg.entries) {
    if (entry.index >= limit) {
      break;  // beyond the checkpoint this round verified; next round's work
    }
    // Scope = the entry's segment (matching faults::kLedgerAppend): a crash
    // rule takes the replica down when it first touches a PRF-chosen segment,
    // i.e. mid-sync with durable progress behind it — the restart drill.
    const uint64_t segment = entry.index / ledger_.store().SegmentEntries();
    const FaultDecision fault = ProbeFaultPoint(faults::kReplicaApply, segment, entry.index);
    switch (fault.kind) {
      case FaultKind::kCrash:
        throw InjectedCrash("replica " + std::to_string(replica_id_) +
                            ": crash injected at " + std::string(faults::kReplicaApply) +
                            ", entry " + std::to_string(entry.index));
      case FaultKind::kTimeout:
        return Status::Error(StatusCode::kTimeout,
                             "replica: apply stalled (timeout injected at " +
                                 std::string(faults::kReplicaApply) + ", entry " +
                                 std::to_string(entry.index) + ")");
      case FaultKind::kCorrupt:
        // A buggy apply path hands the verifier different bytes than the
        // wire carried; verify-then-apply must catch this below.
        if (entry.payload.empty()) {
          entry.payload.push_back(0xff);
        } else {
          entry.payload[entry.index % entry.payload.size()] ^= 0x01;
        }
        break;
      case FaultKind::kDelay:
      case FaultKind::kNone:
        break;
    }
    // Index, chain link and recomputed hash against the local head, then
    // the append: one hash per entry.
    WallTimer apply_timer;
    const Status applied = ledger_.AppendVerified(std::move(entry));
    stats->apply_seconds += apply_timer.Seconds();
    if (!applied.ok()) {
      return Status::Error(applied.code(), "replica: " + applied.reason());
    }
    ++stats->entries_applied;
  }
  return Status::Ok();
}

Status ReplicationFollower::PersistTrusted(const SignedCheckpoint& checkpoint) {
  if (checkpoint_path_.empty()) {
    return Status::Ok();
  }
  const std::string tmp = checkpoint_path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Error(StatusCode::kUnavailable,
                           "replica: cannot write " + tmp);
    }
    const Bytes bytes = checkpoint.Serialize();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      return Status::Error(StatusCode::kUnavailable,
                           "replica: write failed on " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, checkpoint_path_, ec);
  if (ec) {
    return Status::Error(StatusCode::kUnavailable,
                         "replica: rename " + tmp + " failed: " + ec.message());
  }
  return Status::Ok();
}

Outcome<FollowerSyncStats> ReplicationFollower::SyncOnce(Channel& channel) {
  using Out = Outcome<FollowerSyncStats>;
  FollowerSyncStats stats;
  stats.first_requested_index = ledger_.size();

  // Sends a request built by `make(request_id)`, retrying lost messages
  // (kTimeout from either direction) under fresh ids up to the attempt
  // budget; everything else propagates.
  auto request = [&](auto&& make) -> Outcome<WireMessage> {
    Outcome<WireMessage> last = Outcome<WireMessage>::Fail(
        StatusCode::kExhausted, "replica: request attempt budget is zero");
    for (int attempt = 0; attempt < options_.request_attempts; ++attempt) {
      const uint64_t id = next_request_id_++;
      Outcome<WireMessage> response = RoundTrip(channel, make(id), id, &stats);
      if (response.ok() || response.status.code() != StatusCode::kTimeout) {
        return response;
      }
      last = std::move(response);
    }
    return last;
  };

  Outcome<WireMessage> checkpoint_response = request([&](uint64_t id) {
    return EncodeGetCheckpoint(GetCheckpointMsg{id, ledger_.size()});
  });
  if (!checkpoint_response.ok()) {
    return Out::Fail(checkpoint_response.status);
  }
  Outcome<CheckpointMsg> checkpoint_msg = DecodeCheckpoint(*checkpoint_response);
  if (!checkpoint_msg.ok()) {
    return Out::Fail(checkpoint_msg.status);
  }
  if (Status s = VerifyCheckpoint(*checkpoint_msg, &stats); !s.ok()) {
    return Out::Fail(s);
  }
  const SignedCheckpoint checkpoint = checkpoint_msg->checkpoint;
  stats.checkpoint_size = checkpoint.size;

  while (ledger_.size() < checkpoint.size) {
    const uint64_t from = ledger_.size();
    Outcome<WireMessage> frames_response = request([&](uint64_t id) {
      return EncodeGetFrames(GetFramesMsg{id, from, options_.batch_entries});
    });
    if (!frames_response.ok()) {
      return Out::Fail(frames_response.status);
    }
    Outcome<FramesMsg> frames = DecodeFrames(*frames_response);
    if (!frames.ok()) {
      return Out::Fail(frames.status);
    }
    if (frames->first_index != from || frames->entries.empty()) {
      return Out::Fail(StatusCode::kFailed,
                       "replica: leader answered with " +
                           std::to_string(frames->entries.size()) +
                           " frames at index " + std::to_string(frames->first_index) +
                           ", wanted progress from " + std::to_string(from));
    }
    if (Status s = ApplyFrames(std::move(*frames), checkpoint.size, &stats); !s.ok()) {
      return Out::Fail(s);
    }
    ++stats.frame_messages;
  }

  // The consistency proof bound only the old prefix; this binds every entry
  // applied this round to the signed root.
  WallTimer verify_timer;
  const LedgerHash local_root = ledger_.MerkleRoot();
  stats.verify_seconds += verify_timer.Seconds();
  if (local_root != checkpoint.root) {
    return Out::Fail(StatusCode::kInvalidProof,
                     "replica: post-sync Merkle root does not match the signed "
                     "checkpoint root");
  }
  if (Status s = PersistTrusted(checkpoint); !s.ok()) {
    return Out::Fail(s);
  }
  trusted_ = checkpoint;
  return Out::Ok(std::move(stats));
}

}  // namespace votegral
