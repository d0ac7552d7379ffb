// Replication protocol messages for the public bulletin board.
//
// The protocol is strict request-response over one Channel: the follower
// sends a request carrying a fresh request_id, the leader answers with a
// message echoing it. The echo lets a follower that timed out and retried
// drain a stale late answer instead of desyncing — every response is either
// matched to the outstanding request or discarded by id.
//
// Message payloads (all little-endian, framed by src/net/transport.h; see
// docs/REPLICATION.md "Protocol messages"):
//
//   kGetCheckpoint  u64 request_id | u64 have_size
//   kCheckpoint     u64 request_id | SignedCheckpoint | var ConsistencyProof
//   kGetFrames      u64 request_id | u64 from | u64 max_entries
//   kFrames         u64 request_id | u64 first_index | u32 count | frames...
//   kError          u64 request_id | u8 status_code | str reason
//
// kFrames carries ledger entry frames in the exact segment-file codec
// (AppendEntryFrame / DecodeEntryFrame, src/ledger/store.h) — the same bytes
// the leader's disk holds — so a follower that re-verifies and re-appends
// them lands on byte-identical segment files.
//
// A SignedCheckpoint is the leader's commitment to its entire history: a
// Schnorr signature over the domain-separated statement
//   "votegral/replica/checkpoint/v1" || root || LE64(size).
// Two validly-signed checkpoints whose (root, size) pairs cannot belong to
// one append-only history are equivocation evidence (StatusCode::kEquivocation).
#ifndef SRC_REPLICA_MESSAGES_H_
#define SRC_REPLICA_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/crypto/schnorr.h"
#include "src/ledger/consistency.h"
#include "src/ledger/store.h"
#include "src/net/transport.h"

namespace votegral {

// Domain separator for checkpoint signatures (docs/TRANSCRIPTS.md table).
inline constexpr std::string_view kCheckpointDomain = "votegral/replica/checkpoint/v1";

// Wire type tags for WireMessage::type.
enum class ReplicaMsgType : uint16_t {
  kGetCheckpoint = 1,
  kCheckpoint = 2,
  kGetFrames = 3,
  kFrames = 4,
  kError = 5,
};

// The leader's signed commitment to its first `size` entries.
struct SignedCheckpoint {
  LedgerHash root{};
  uint64_t size = 0;
  SchnorrSignature signature;

  // The domain-separated statement the signature covers.
  Bytes SignedStatement() const;
  // Verifies the signature under the leader's public key (kInvalidProof on
  // rejection).
  Status Verify(const CompressedRistretto& leader_pk) const;

  // Wire form: 32B root | u64 size | 64B signature.
  Bytes Serialize() const;
  static Outcome<SignedCheckpoint> Parse(std::span<const uint8_t> bytes);
};

struct GetCheckpointMsg {
  uint64_t request_id = 0;
  uint64_t have_size = 0;  // follower's durable size; sizes the proof
};

struct CheckpointMsg {
  uint64_t request_id = 0;
  SignedCheckpoint checkpoint;
  // Consistency proof from the requester's have_size (clamped to the
  // leader's size) to checkpoint.size.
  ConsistencyProof proof;
};

struct GetFramesMsg {
  uint64_t request_id = 0;
  uint64_t from = 0;         // first entry index wanted
  uint64_t max_entries = 0;  // upper bound on entries in the response
};

struct FramesMsg {
  uint64_t request_id = 0;
  uint64_t first_index = 0;
  std::vector<LedgerEntry> entries;
};

struct ErrorMsg {
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kFailed;
  std::string reason;

  Status ToStatus() const { return Status::Error(code, reason); }
};

// Encoders (infallible: inputs are locally constructed).
WireMessage EncodeGetCheckpoint(const GetCheckpointMsg& msg);
WireMessage EncodeCheckpoint(const CheckpointMsg& msg);
WireMessage EncodeGetFrames(const GetFramesMsg& msg);
WireMessage EncodeFrames(const FramesMsg& msg);
WireMessage EncodeError(const ErrorMsg& msg);

// Decoders: fail kCorrupted on a wrong type tag or a malformed payload (the
// bytes crossed a channel; truncation is data, not API misuse), except that
// a checkpoint's implausible consistency-proof node count keeps
// kInvalidProof. Reasons name the message and the byte offset.
Outcome<GetCheckpointMsg> DecodeGetCheckpoint(const WireMessage& msg);
Outcome<CheckpointMsg> DecodeCheckpoint(const WireMessage& msg);
Outcome<GetFramesMsg> DecodeGetFrames(const WireMessage& msg);
Outcome<FramesMsg> DecodeFrames(const WireMessage& msg);
Outcome<ErrorMsg> DecodeError(const WireMessage& msg);

}  // namespace votegral

#endif  // SRC_REPLICA_MESSAGES_H_
