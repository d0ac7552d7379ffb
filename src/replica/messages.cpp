#include "src/replica/messages.h"

#include "src/common/serde.h"

namespace votegral {

namespace {

uint16_t TypeTag(ReplicaMsgType type) { return static_cast<uint16_t>(type); }

// A reader over `msg`'s payload that has already failed unless the type tag
// is `want`.
ByteReader PayloadReader(const WireMessage& msg, ReplicaMsgType want, const char* what) {
  ByteReader reader(msg.payload, what);
  if (msg.type != TypeTag(want)) {
    reader.Fail("wrong message type " + std::to_string(msg.type));
  }
  return reader;
}

}  // namespace

Bytes SignedCheckpoint::SignedStatement() const {
  uint8_t size_le[8];
  StoreLe64(size_le, size);
  return Concat({AsBytes(kCheckpointDomain), root, size_le});
}

Status SignedCheckpoint::Verify(const CompressedRistretto& leader_pk) const {
  Status s = SchnorrVerify(leader_pk, SignedStatement(), signature);
  if (!s.ok()) {
    return Status::Error(StatusCode::kInvalidProof,
                         "replica: checkpoint signature invalid for (root, size=" +
                             std::to_string(size) + "): " + s.reason());
  }
  return Status::Ok();
}

Bytes SignedCheckpoint::Serialize() const {
  ByteWriter w;
  w.Fixed(root);
  w.U64(size);
  w.Fixed(signature.Serialize());
  return w.Take();
}

Outcome<SignedCheckpoint> SignedCheckpoint::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "signed checkpoint");
  SignedCheckpoint cp;
  r.Fixed(cp.root);
  cp.size = r.U64();
  r.Decode(&cp.signature, 64, SchnorrSignature::Parse);
  return r.Finish(std::move(cp));
}

WireMessage EncodeGetCheckpoint(const GetCheckpointMsg& msg) {
  ByteWriter w;
  w.U64(msg.request_id);
  w.U64(msg.have_size);
  return {TypeTag(ReplicaMsgType::kGetCheckpoint), w.Take()};
}

WireMessage EncodeCheckpoint(const CheckpointMsg& msg) {
  ByteWriter w;
  w.U64(msg.request_id);
  w.Fixed(msg.checkpoint.Serialize());
  w.Var(msg.proof.Serialize());
  return {TypeTag(ReplicaMsgType::kCheckpoint), w.Take()};
}

WireMessage EncodeGetFrames(const GetFramesMsg& msg) {
  ByteWriter w;
  w.U64(msg.request_id);
  w.U64(msg.from);
  w.U64(msg.max_entries);
  return {TypeTag(ReplicaMsgType::kGetFrames), w.Take()};
}

WireMessage EncodeFrames(const FramesMsg& msg) {
  ByteWriter w;
  w.U64(msg.request_id);
  w.U64(msg.first_index);
  w.U32(static_cast<uint32_t>(msg.entries.size()));
  Bytes frames;
  for (const LedgerEntry& entry : msg.entries) {
    AppendEntryFrame(&frames, entry);
  }
  w.Fixed(frames);
  return {TypeTag(ReplicaMsgType::kFrames), w.Take()};
}

WireMessage EncodeError(const ErrorMsg& msg) {
  ByteWriter w;
  w.U64(msg.request_id);
  w.U8(static_cast<uint8_t>(msg.code));
  w.Str(msg.reason);
  return {TypeTag(ReplicaMsgType::kError), w.Take()};
}

Outcome<GetCheckpointMsg> DecodeGetCheckpoint(const WireMessage& msg) {
  ByteReader r = PayloadReader(msg, ReplicaMsgType::kGetCheckpoint, "replica get_checkpoint");
  GetCheckpointMsg out;
  out.request_id = r.U64();
  out.have_size = r.U64();
  return r.Finish(out);
}

Outcome<CheckpointMsg> DecodeCheckpoint(const WireMessage& msg) {
  ByteReader r = PayloadReader(msg, ReplicaMsgType::kCheckpoint, "replica checkpoint");
  CheckpointMsg out;
  out.request_id = r.U64();
  // SignedCheckpoint is a fixed 32+8+64 bytes.
  r.Decode(&out.checkpoint, 32 + 8 + 64, SignedCheckpoint::Parse);
  r.DecodeVar(&out.proof, ConsistencyProof::Parse);
  return r.Finish(std::move(out));
}

Outcome<GetFramesMsg> DecodeGetFrames(const WireMessage& msg) {
  ByteReader r = PayloadReader(msg, ReplicaMsgType::kGetFrames, "replica get_frames");
  GetFramesMsg out;
  out.request_id = r.U64();
  out.from = r.U64();
  out.max_entries = r.U64();
  return r.Finish(out);
}

Outcome<FramesMsg> DecodeFrames(const WireMessage& msg) {
  ByteReader r = PayloadReader(msg, ReplicaMsgType::kFrames, "replica frames");
  FramesMsg out;
  out.request_id = r.U64();
  out.first_index = r.U64();
  const uint32_t count = r.U32();
  // The peer chose `count`; bound it by what the payload can hold before
  // sizing anything by it.
  if (r.Check(count <= r.remaining() / kMinEntryFrameBytes, "entry count exceeds payload")) {
    out.entries.resize(count);
  }
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    r.DecodeAt(&out.entries[i], DecodeEntryFrame);
  }
  return r.Finish(std::move(out));
}

Outcome<ErrorMsg> DecodeError(const WireMessage& msg) {
  ByteReader r = PayloadReader(msg, ReplicaMsgType::kError, "replica error");
  ErrorMsg out;
  out.request_id = r.U64();
  const uint8_t raw_code = r.U8();
  r.Check(raw_code > 0 && raw_code <= static_cast<uint8_t>(StatusCode::kEquivocation),
          "unknown status code");
  out.code = static_cast<StatusCode>(raw_code);
  out.reason = r.Str();
  return r.Finish(std::move(out));
}

}  // namespace votegral
