#include "src/votegral/ballot.h"

#include <algorithm>

#include "src/common/serde.h"
#include "src/crypto/sha512.h"
#include "src/trip/messages.h"

namespace votegral {

namespace {

constexpr std::string_view kCandidateDomain = "votegral/candidate/v1";
constexpr std::string_view kBallotDomain = "votegral/ballot/v1";
constexpr std::string_view kRevoteBallotDomain = "votegral/revote/ballot/v1";
constexpr std::string_view kRevoteBindingDomain = "votegral/revote/binding/v1";
constexpr std::string_view kRevoteBottomDomain = "votegral/revote/bottom/v1";

// Fiat–Shamir challenge for the binding proof: SHA-512 over the domain, the
// ballot body bytes, and both commitments, reduced mod L.
Scalar BindingChallenge(std::span<const uint8_t> body, const CompressedRistretto& t1,
                        const CompressedRistretto& t2) {
  Sha512 h;
  h.Update(AsBytes(kRevoteBindingDomain));
  h.Update(body);
  h.Update(t1);
  h.Update(t2);
  return Scalar::FromBytesWide(h.Finalize());
}

}  // namespace

CandidateList::CandidateList(std::vector<std::string> names) : names_(std::move(names)) {
  Require(!names_.empty(), "CandidateList: need at least one candidate");
  points_.reserve(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    RistrettoPoint point = RistrettoPoint::HashToGroup(kCandidateDomain, AsBytes(names_[i]));
    by_encoding_[point.Encode()] = i;
    points_.push_back(point);
  }
  Require(by_encoding_.size() == names_.size(), "CandidateList: duplicate candidate");
}

std::optional<size_t> CandidateList::IndexOfPoint(const RistrettoPoint& point) const {
  return IndexOfEncoding(point.Encode());
}

std::optional<size_t> CandidateList::IndexOfEncoding(const CompressedRistretto& encoding) const {
  auto it = by_encoding_.find(encoding);
  if (it == by_encoding_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Bytes Ballot::SignedPayload() const { return SignedPayloadFromWire(Serialize()); }

Bytes Ballot::SignedPayloadFromWire(std::span<const uint8_t> wire) {
  Require(wire.size() >= kSignedBodySize, "ballot: wire shorter than the signed body");
  ByteWriter w;
  w.Str(kBallotDomain);
  w.Fixed(wire.first(kSignedBodySize));
  return w.Take();
}

Bytes Ballot::Serialize() const {
  ByteWriter w;
  w.Fixed(encrypted_vote.Serialize());
  w.Fixed(credential_pk);
  w.Fixed(kiosk_pk);
  w.Fixed(kiosk_cert_hash);
  w.Fixed(kiosk_cert.Serialize());
  w.Fixed(credential_sig.Serialize());
  return w.Take();
}

Outcome<Ballot> Ballot::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "ballot");
  Ballot b;
  r.Decode(&b.encrypted_vote, 64, ElGamalCiphertext::Parse);
  r.Fixed(b.credential_pk);
  r.Fixed(b.kiosk_pk);
  r.Fixed(b.kiosk_cert_hash);
  r.Decode(&b.kiosk_cert, 64, SchnorrSignature::Parse);
  r.Decode(&b.credential_sig, 64, SchnorrSignature::Parse);
  if (r.ok()) {
    b.vote_wire.emplace();
    std::copy_n(bytes.begin(), b.vote_wire->size(), b.vote_wire->begin());
  }
  return r.Finish(std::move(b));
}

Ballot MakeBallot(const ActivatedCredential& credential, const CandidateList& candidates,
                  size_t candidate_index, const RistrettoPoint& authority_pk, Rng& rng) {
  Ballot ballot;
  ballot.encrypted_vote =
      ElGamalEncrypt(authority_pk, candidates.point(candidate_index), rng);
  ballot.credential_pk = credential.credential_pk;
  ballot.kiosk_pk = credential.kiosk_pk;
  ballot.kiosk_cert_hash = credential.challenge_response_hash;
  ballot.kiosk_cert = credential.kiosk_response_sig;
  SchnorrKeyPair key = SchnorrKeyPair::FromSecret(credential.credential_sk);
  ballot.credential_sig = key.Sign(ballot.SignedPayload(), rng);
  return ballot;
}

const RistrettoPoint& RevoteBottomPoint() {
  static const RistrettoPoint bottom =
      RistrettoPoint::HashToGroup(kRevoteBottomDomain, {});
  return bottom;
}

Bytes RevoteBindingProof::Serialize() const {
  ByteWriter w;
  w.Fixed(t1);
  w.Fixed(t2);
  w.Fixed(z1.ToBytes());
  w.Fixed(z2.ToBytes());
  return w.Take();
}

Outcome<RevoteBindingProof> RevoteBindingProof::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "revote binding proof");
  RevoteBindingProof p;
  r.Fixed(p.t1);
  r.Fixed(p.t2);
  r.Decode(&p.z1, 32, Scalar::FromCanonicalBytes);
  r.Decode(&p.z2, 32, Scalar::FromCanonicalBytes);
  return r.Finish(std::move(p));
}

Bytes RevoteBallot::BoundPayload() const { return BoundPayloadFromWire(Serialize()); }

Bytes RevoteBallot::BoundPayloadFromWire(std::span<const uint8_t> wire) {
  Require(wire.size() >= kBoundBodySize, "revote ballot: wire shorter than the bound body");
  ByteWriter w;
  w.Str(kRevoteBallotDomain);
  w.Fixed(wire.first(kBoundBodySize));
  return w.Take();
}

Bytes RevoteBallot::Serialize() const {
  ByteWriter w;
  w.Fixed(encrypted_vote.Serialize());
  w.Fixed(encrypted_credential.Serialize());
  w.Fixed(encrypted_counter.Serialize());
  w.Fixed(proof.Serialize());
  return w.Take();
}

Outcome<RevoteBallot> RevoteBallot::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "revote ballot");
  RevoteBallot b;
  r.Decode(&b.encrypted_vote, 64, ElGamalCiphertext::Parse);
  r.Decode(&b.encrypted_credential, 64, ElGamalCiphertext::Parse);
  r.Decode(&b.encrypted_counter, 64, ElGamalCiphertext::Parse);
  r.Decode(&b.proof, 128, RevoteBindingProof::Parse);
  return r.Finish(std::move(b));
}

RevoteBallot MakeRevoteBallot(const ActivatedCredential& credential,
                              const CandidateList& candidates, size_t candidate_index,
                              const RistrettoPoint& authority_pk, uint64_t counter,
                              Rng& rng) {
  RevoteBallot ballot;
  ballot.encrypted_vote =
      ElGamalEncrypt(authority_pk, candidates.point(candidate_index), rng);
  Scalar credential_r;
  ballot.encrypted_credential =
      ElGamalEncrypt(authority_pk, RistrettoPoint::MulBase(credential.credential_sk), rng,
                     &credential_r);
  ballot.encrypted_counter = ElGamalEncrypt(
      authority_pk, RistrettoPoint::MulBase(Scalar::FromU64(counter)), rng);
  // Okamoto AND-sigma for (r, c_sk): T1 = a*B, T2 = a*A + b*B.
  const Scalar a = Scalar::Random(rng);
  const Scalar b = Scalar::Random(rng);
  ballot.proof.t1 = RistrettoPoint::MulBase(a).Encode();
  ballot.proof.t2 = (a * authority_pk + RistrettoPoint::MulBase(b)).Encode();
  const Scalar e = BindingChallenge(ballot.BoundPayload(), ballot.proof.t1, ballot.proof.t2);
  ballot.proof.z1 = a + e * credential_r;
  ballot.proof.z2 = b + e * credential.credential_sk;
  return ballot;
}

Status CheckRevoteBallot(const RevoteBallot& ballot, const RistrettoPoint& authority_pk) {
  return CheckRevoteBallot(ballot, ballot.Serialize(), authority_pk);
}

Status CheckRevoteBallot(const RevoteBallot& ballot, std::span<const uint8_t> wire,
                         const RistrettoPoint& authority_pk) {
  const Scalar e = BindingChallenge(RevoteBallot::BoundPayloadFromWire(wire), ballot.proof.t1,
                                    ballot.proof.t2);
  const ElGamalCiphertext& c = ballot.encrypted_credential;
  // z1*B == T1 + e*C1  and  z1*A + z2*B == T2 + e*C2.
  auto t1 = RistrettoPoint::Decode(ballot.proof.t1);
  auto t2 = RistrettoPoint::Decode(ballot.proof.t2);
  if (!t1.has_value() || !t2.has_value()) {
    return Status::Error("revote ballot: binding proof commitment undecodable");
  }
  const RistrettoPoint lhs1 = RistrettoPoint::DoubleScalarMulBase(-e, c.c1, ballot.proof.z1);
  if (!(lhs1 == *t1)) {
    return Status::Error("revote ballot: binding proof first equation failed");
  }
  const RistrettoPoint lhs2 =
      ballot.proof.z1 * authority_pk + RistrettoPoint::MulBase(ballot.proof.z2) - e * c.c2;
  if (!(lhs2 == *t2)) {
    return Status::Error("revote ballot: binding proof second equation failed");
  }
  return Status::Ok();
}

Status CheckBallot(const Ballot& ballot,
                   const std::set<CompressedRistretto>& authorized_kiosks) {
  if (authorized_kiosks.count(ballot.kiosk_pk) == 0) {
    return Status::Error("ballot: kiosk not authorized");
  }
  // Kiosk certificate: σ_kr over (c_pk ‖ H(e‖r)) — proves the credential was
  // issued by a registrar kiosk (real or fake, deliberately indistinct).
  Status cert = SchnorrVerify(
      ballot.kiosk_pk,
      ResponseSegment::SignedPayload(ballot.credential_pk, ballot.kiosk_cert_hash),
      ballot.kiosk_cert);
  if (!cert.ok()) {
    return Status::Error("ballot: kiosk certificate invalid");
  }
  Status sig = SchnorrVerify(ballot.credential_pk, ballot.SignedPayload(),
                             ballot.credential_sig);
  if (!sig.ok()) {
    return Status::Error("ballot: credential signature invalid");
  }
  return Status::Ok();
}

std::array<SchnorrBatchEntry, 2> BallotSignatureEntries(const Ballot& ballot,
                                                        std::span<const uint8_t> wire) {
  return {SchnorrBatchEntry{ballot.kiosk_pk,
                            ResponseSegment::SignedPayload(ballot.credential_pk,
                                                           ballot.kiosk_cert_hash),
                            ballot.kiosk_cert},
          SchnorrBatchEntry{ballot.credential_pk, Ballot::SignedPayloadFromWire(wire),
                            ballot.credential_sig}};
}

}  // namespace votegral
