// Replication follower: verifies and mirrors a leader's bulletin board.
//
// Trust model: the follower trusts nothing it receives until it re-derives
// it. Every sync round is
//
//   1. checkpoint  — fetch the leader's SignedCheckpoint; verify the Schnorr
//      signature, then verify the consistency proof linking the follower's
//      *durable* Merkle root (over everything it has applied) to the
//      checkpoint root. Only a checkpoint that provably extends local
//      history admits any bytes to step 2.
//   2. catch-up    — stream entry frames from local size to checkpoint size,
//      *verify-then-apply* in Ledger::AppendVerified: each entry's index,
//      chain link (prev_hash) and recomputed entry hash are checked against
//      the local head before the entry is persisted, hashing it once. A
//      frame that fails any check is rejected with a localized kCorrupted
//      reason and nothing is written.
//   3. seal        — recompute the full local Merkle root and require it to
//      equal the checkpoint root (the consistency proof binds only the old
//      prefix; this binds the new entries), then persist the checkpoint as
//      the new trusted sidecar (checkpoint.bin, tmp+rename).
//
// Equivocation: a checkpoint whose signature verifies but whose consistency
// proof does NOT link the follower's durable root is a split view — the
// leader signed two histories that cannot both be append-only extensions of
// what it signed before. When a trusted checkpoint exists, the follower
// returns StatusCode::kEquivocation and retains both signed checkpoints as
// portable evidence (docs/REPLICATION.md "Equivocation").
//
// Crash safety: the ledger store is the crash-recovering FileLedgerStore;
// a follower killed mid-catch-up (the faults::kReplicaApply drill) reopens,
// recovers its applied prefix, and resumes from its recovered size — sealed
// segments are never re-downloaded (stats.first_requested_index pins this in
// tests).
#ifndef SRC_REPLICA_FOLLOWER_H_
#define SRC_REPLICA_FOLLOWER_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/ledger/ledger.h"
#include "src/replica/messages.h"
#include "src/net/transport.h"

namespace votegral {

struct FollowerOptions {
  // Entries requested per kGetFrames round trip.
  uint64_t batch_entries = 128;
  // Attempts per request: a kTimeout (lost message) triggers a resend under
  // a fresh request_id; other failures propagate immediately.
  int request_attempts = 3;
};

// One sync round's accounting (feeds BENCH_replication.json).
struct FollowerSyncStats {
  uint64_t checkpoint_size = 0;         // leader size this round converged to
  uint64_t first_requested_index = 0;   // local size when the round started
  uint64_t entries_applied = 0;
  uint64_t frame_messages = 0;          // kFrames responses consumed
  uint64_t bytes_received = 0;          // wire bytes of all responses
  double recv_seconds = 0.0;            // blocked on Channel::Recv
  // Checkpoint signature, consistency proof and the post-sync root.
  double verify_seconds = 0.0;
  // Ledger::AppendVerified: each entry's index, chain link and recomputed
  // hash (its one hash), then the persist. The per-entry checks count here.
  double apply_seconds = 0.0;
};

// Both sides of a split view, each independently signed by the leader key.
struct EquivocationEvidence {
  SignedCheckpoint trusted;      // what the follower durably verified earlier
  SignedCheckpoint conflicting;  // the incompatible checkpoint just received
};

class ReplicationFollower {
 public:
  // Opens (or crash-recovers) the local mirror described by `config` and
  // loads the trusted-checkpoint sidecar if one exists. `replica_id` labels
  // diagnostics (fault probes scope by segment/endpoint, not by replica —
  // see faults.h). Fails as a value on local corruption
  // (recovered store damage, sidecar that does not verify).
  static Outcome<ReplicationFollower> Open(const LedgerStorageConfig& config,
                                           const CompressedRistretto& leader_pk,
                                           uint64_t replica_id,
                                           FollowerOptions options = {});

  ReplicationFollower(ReplicationFollower&&) = default;
  ReplicationFollower& operator=(ReplicationFollower&&) = default;

  // Runs one checkpoint + catch-up + seal round against a connected leader.
  // On success the local ledger equals the leader's checkpointed prefix.
  // Failures leave the applied prefix intact and durable; a later SyncOnce
  // (or a restart + Open) resumes from it.
  Outcome<FollowerSyncStats> SyncOnce(Channel& channel);

  const Ledger& ledger() const { return ledger_; }
  uint64_t replica_id() const { return replica_id_; }

  // Last checkpoint that fully verified (signature + consistency + root).
  const std::optional<SignedCheckpoint>& trusted_checkpoint() const { return trusted_; }

  // Set when SyncOnce returned kEquivocation: both signed checkpoints.
  const std::optional<EquivocationEvidence>& equivocation() const { return equivocation_; }

 private:
  ReplicationFollower(Ledger ledger, const CompressedRistretto& leader_pk,
                      uint64_t replica_id, std::string checkpoint_path,
                      FollowerOptions options)
      : ledger_(std::move(ledger)),
        leader_pk_(leader_pk),
        replica_id_(replica_id),
        checkpoint_path_(std::move(checkpoint_path)),
        options_(options) {}

  // Sends `request` and blocks for the response whose leading request_id
  // matches; stale responses (earlier ids) are drained and dropped.
  Outcome<WireMessage> RoundTrip(Channel& channel, const WireMessage& request,
                                 uint64_t request_id, FollowerSyncStats* stats);

  Status VerifyCheckpoint(const CheckpointMsg& msg, FollowerSyncStats* stats);
  // Applies entries below `limit` (the checkpoint size this round verified),
  // moving each out of `msg` into Ledger::AppendVerified.
  Status ApplyFrames(FramesMsg msg, uint64_t limit, FollowerSyncStats* stats);
  Status PersistTrusted(const SignedCheckpoint& checkpoint);

  Ledger ledger_;
  CompressedRistretto leader_pk_;
  uint64_t replica_id_ = 0;
  std::string checkpoint_path_;  // empty for the in-memory backend
  FollowerOptions options_;
  uint64_t next_request_id_ = 1;
  std::optional<SignedCheckpoint> trusted_;
  std::optional<EquivocationEvidence> equivocation_;
};

}  // namespace votegral

#endif  // SRC_REPLICA_FOLLOWER_H_
