#include "src/trip/messages.h"

#include <algorithm>

#include "src/common/serde.h"
#include "src/crypto/sha256.h"

namespace votegral {

namespace {

// Domain tags keep the kiosk's three signatures mutually non-malleable.
constexpr std::string_view kCommitDomain = "trip/sig/commit/v1";
constexpr std::string_view kCheckoutDomain = "trip/sig/checkout/v1";
constexpr std::string_view kResponseDomain = "trip/sig/response/v1";
constexpr std::string_view kEnvelopeDomain = "trip/sig/envelope/v1";

}  // namespace

Bytes CheckInTicket::Serialize() const {
  ByteWriter w;
  w.Str(voter_id);
  w.Fixed(mac_tag);
  return w.Take();
}

Outcome<CheckInTicket> CheckInTicket::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "check-in ticket");
  CheckInTicket t;
  t.voter_id = r.Str();
  r.Fixed(t.mac_tag);
  return r.Finish(std::move(t));
}

Bytes Envelope::Serialize() const {
  ByteWriter w;
  w.Fixed(printer_pk);
  w.Fixed(challenge.ToBytes());
  w.Fixed(printer_sig.Serialize());
  w.U8(static_cast<uint8_t>(symbol));
  return w.Take();
}

Outcome<Envelope> Envelope::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "envelope");
  Envelope e;
  r.Fixed(e.printer_pk);
  r.Decode(&e.challenge, 32, Scalar::FromCanonicalBytes);
  r.Decode(&e.printer_sig, 64, SchnorrSignature::Parse);
  e.symbol = r.U8();
  r.Check(e.symbol < kNumEnvelopeSymbols, "symbol out of range");
  return r.Finish(std::move(e));
}

std::array<uint8_t, 32> Envelope::ChallengeHash() const {
  return Sha256::Hash(challenge.ToBytes());
}

Bytes Envelope::SignedPayload() const {
  ByteWriter w;
  w.Str(kEnvelopeDomain);
  w.Fixed(ChallengeHash());
  return w.Take();
}

Bytes CommitSegment::Serialize() const {
  ByteWriter w;
  w.Str(voter_id);
  w.Fixed(public_credential.Serialize());
  w.Fixed(commit_y1.Encode());
  w.Fixed(commit_y2.Encode());
  w.Fixed(kiosk_sig.Serialize());
  return w.Take();
}

Outcome<CommitSegment> CommitSegment::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "commit segment");
  CommitSegment c;
  c.voter_id = r.Str();
  const size_t points_at = bytes.size() - r.remaining();
  r.Decode(&c.public_credential, 64, ElGamalCiphertext::Parse);
  r.Decode(&c.commit_y1, 32, RistrettoPoint::Decode);
  r.Decode(&c.commit_y2, 32, RistrettoPoint::Decode);
  r.Decode(&c.kiosk_sig, 64, SchnorrSignature::Parse);
  if (r.ok()) {
    // Decode accepts only canonical encodings, so these bytes are the cache.
    std::span<const uint8_t> points = bytes.subspan(points_at, 128);
    c.wire.emplace();
    std::copy_n(points.begin(), 64, c.wire->public_credential.begin());
    std::copy_n(points.begin() + 64, 32, c.wire->commit_y1.begin());
    std::copy_n(points.begin() + 96, 32, c.wire->commit_y2.begin());
  }
  return r.Finish(std::move(c));
}

Bytes CommitSegment::SignedPayload() const {
  return SignedPayload(voter_id, public_credential.Wire(), commit_y1.Encode(),
                       commit_y2.Encode());
}

Bytes CommitSegment::SignedPayload(std::string_view voter_id, const ElGamalWire& credential_wire,
                                   const CompressedRistretto& y1,
                                   const CompressedRistretto& y2) {
  ByteWriter w;
  w.Str(kCommitDomain);
  w.Str(voter_id);
  w.Fixed(credential_wire);
  w.Fixed(y1);
  w.Fixed(y2);
  return w.Take();
}

Bytes CheckOutSegment::Serialize() const {
  ByteWriter w;
  w.Str(voter_id);
  w.Fixed(public_credential.Serialize());
  w.Fixed(kiosk_pk);
  w.Fixed(kiosk_sig.Serialize());
  return w.Take();
}

Outcome<CheckOutSegment> CheckOutSegment::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "check-out segment");
  CheckOutSegment c;
  c.voter_id = r.Str();
  r.Decode(&c.public_credential, 64, ElGamalCiphertext::Parse);
  r.Fixed(c.kiosk_pk);
  r.Decode(&c.kiosk_sig, 64, SchnorrSignature::Parse);
  return r.Finish(std::move(c));
}

Bytes CheckOutSegment::SignedPayload() const {
  return SignedPayload(voter_id, public_credential.Wire());
}

Bytes CheckOutSegment::SignedPayload(std::string_view voter_id,
                                     const ElGamalWire& credential_wire) {
  ByteWriter w;
  w.Str(kCheckoutDomain);
  w.Str(voter_id);
  w.Fixed(credential_wire);
  return w.Take();
}

Bytes ResponseSegment::Serialize() const {
  ByteWriter w;
  w.Fixed(credential_sk.ToBytes());
  w.Fixed(zkp_response.ToBytes());
  w.Fixed(kiosk_pk);
  w.Fixed(kiosk_sig.Serialize());
  return w.Take();
}

Outcome<ResponseSegment> ResponseSegment::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "response segment");
  ResponseSegment seg;
  r.Decode(&seg.credential_sk, 32, Scalar::FromCanonicalBytes);
  r.Decode(&seg.zkp_response, 32, Scalar::FromCanonicalBytes);
  r.Fixed(seg.kiosk_pk);
  r.Decode(&seg.kiosk_sig, 64, SchnorrSignature::Parse);
  return r.Finish(std::move(seg));
}

Bytes ResponseSegment::SignedPayload(const CompressedRistretto& credential_pk,
                                     const std::array<uint8_t, 32>& challenge_response_hash) {
  ByteWriter w;
  w.Str(kResponseDomain);
  w.Fixed(credential_pk);
  w.Fixed(challenge_response_hash);
  return w.Take();
}

std::array<uint8_t, 32> ChallengeResponseHash(const Scalar& challenge, const Scalar& response) {
  return Sha256::HashParts({challenge.ToBytes(), response.ToBytes()});
}

CompressedRistretto PaperCredential::CredentialPublicKey() const {
  return RistrettoPoint::MulBase(response.credential_sk).Encode();
}

}  // namespace votegral
