#include "src/trip/vsd.h"

#include "src/crypto/batch.h"
#include "src/crypto/dleq.h"
#include "src/crypto/drbg.h"
#include "src/crypto/msm.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

constexpr std::string_view kActivationWeightDomain = "votegral/vsd/activation-weights/v1";

// The receipt of one paper credential as the checks of Fig. 11 lines 3-8
// read it: the messages σ_kc, σ_kr and σ_p sign, and X = C2 - c_pk.
struct Receipt {
  const PaperCredential& credential;
  Bytes commit_message;
  Bytes response_message;
  Bytes envelope_message;
  RistrettoPoint big_x;
};

// The reference: the checks one at a time, in the order of Fig. 11. Returns
// the reason of the first that fails, or nullptr when all hold.
const char* FirstFailedReceiptCheck(const Receipt& receipt, const RistrettoPoint& authority_pk,
                                    const std::set<CompressedRistretto>& trusted_printers) {
  const PaperCredential& credential = receipt.credential;
  // (line 3) Receipt integrity check 1: σ_kc over (V_id ‖ c_pc ‖ Y).
  if (!SchnorrVerify(credential.response.kiosk_pk, receipt.commit_message,
                     credential.commit.kiosk_sig)
           .ok()) {
    return "activation: kiosk commit signature invalid";
  }
  // (line 4) Receipt integrity check 2: σ_kr over (c_pk ‖ H(e‖r)).
  if (!SchnorrVerify(credential.response.kiosk_pk, receipt.response_message,
                     credential.response.kiosk_sig)
           .ok()) {
    return "activation: kiosk response signature invalid";
  }
  // (line 5) Envelope integrity: σ_p over H(e), from a trusted printer.
  if (trusted_printers.count(credential.envelope.printer_pk) == 0) {
    return "activation: envelope printer not trusted";
  }
  if (!SchnorrVerify(credential.envelope.printer_pk, receipt.envelope_message,
                     credential.envelope.printer_sig)
           .ok()) {
    return "activation: envelope printer signature invalid";
  }
  // (lines 6-8) The proof transcript: Y1 == g^r · C1^e and Y2 == A^r · X^e.
  DleqStatement statement = DleqStatement::MakePair(
      RistrettoPoint::Base(), credential.commit.public_credential.c1, authority_pk,
      receipt.big_x);
  DleqTranscript transcript;
  transcript.commits = {credential.commit.commit_y1, credential.commit.commit_y2};
  transcript.challenge = credential.envelope.challenge;
  transcript.response = credential.response.zkp_response;
  if (!VerifyDleqTranscript(statement, transcript).ok()) {
    return "activation: zero-knowledge proof transcript invalid";
  }
  return nullptr;
}

// The five equations of lines 3-8 as one random linear combination:
//   w1 (R_kc + c_kc·K - s_kc·B) + w2 (R_kr + c_kr·K - s_kr·B)
//     + w3 (R_p + c_p·P - s_p·B) + w4 (Y1 - r·B - e·C1) + w5 (Y2 - r·A - e·X)
// is the identity, evaluated as one MultiScalarMulWithBase of ten variable
// terms (K carries both kiosk signatures). Each equation's own point (an R
// or a Y) carries its short weight; the shared terms take the products, so
// the MSM pays the short scalars' half length. The 128-bit weights come from a
// ChaCha stream seeded with SHA-512 over every byte the check binds, so the
// party that printed the receipt cannot predict them. False when a point
// does not decode or the sum is not the identity; true only when all five
// equations hold, except with probability 2^-128.
bool ReceiptEquationsHold(const Receipt& receipt, const RistrettoPoint& authority_pk) {
  const PaperCredential& credential = receipt.credential;
  const CommitSegment& commit = credential.commit;
  const ResponseSegment& response = credential.response;
  const Envelope& envelope = credential.envelope;

  const std::array<const CompressedRistretto*, 5> wires = {
      &response.kiosk_pk, &commit.kiosk_sig.r_bytes, &response.kiosk_sig.r_bytes,
      &envelope.printer_pk, &envelope.printer_sig.r_bytes};
  std::array<RistrettoPoint, 5> decoded;
  for (size_t i = 0; i < wires.size(); ++i) {
    std::optional<RistrettoPoint> point = RistrettoPoint::Decode(*wires[i]);
    if (!point.has_value()) {
      return false;
    }
    decoded[i] = *point;
  }
  const auto& [kiosk_key, commit_r, response_r, printer_key, envelope_r] = decoded;

  const std::array<std::pair<const Bytes*, const SchnorrSignature*>, 3> signed_messages = {{
      {&receipt.commit_message, &commit.kiosk_sig},
      {&receipt.response_message, &response.kiosk_sig},
      {&receipt.envelope_message, &envelope.printer_sig},
  }};
  Sha512 seed;
  seed.Update(AsBytes(kActivationWeightDomain));
  seed.Update(response.kiosk_pk);
  seed.Update(envelope.printer_pk);
  for (const auto& [message, sig] : signed_messages) {
    std::array<uint8_t, 8> length;
    StoreLe64(length.data(), message->size());
    seed.Update(length);
    seed.Update(*message);
    seed.Update(sig->r_bytes);
    seed.Update(sig->s.ToBytes());
  }
  seed.Update(envelope.challenge.ToBytes());
  seed.Update(response.zkp_response.ToBytes());
  ChaChaRng weight_stream(seed.Finalize());
  std::array<Scalar, 5> w;
  for (Scalar& weight : w) {
    weight = RandomRlcWeight(weight_stream);
  }

  const Scalar c_kc = SchnorrChallenge(commit.kiosk_sig.r_bytes, response.kiosk_pk,
                                       receipt.commit_message);
  const Scalar c_kr = SchnorrChallenge(response.kiosk_sig.r_bytes, response.kiosk_pk,
                                       receipt.response_message);
  const Scalar c_p = SchnorrChallenge(envelope.printer_sig.r_bytes, envelope.printer_pk,
                                      receipt.envelope_message);
  const Scalar& e = envelope.challenge;
  const Scalar& r = response.zkp_response;
  const Scalar base = -(w[0] * commit.kiosk_sig.s + w[1] * response.kiosk_sig.s +
                        w[2] * envelope.printer_sig.s + w[3] * r);
  const std::array<Scalar, 10> scalars = {
      w[0] * c_kc + w[1] * c_kr, w[0], w[1], w[2] * c_p, w[2],
      -(w[3] * e),               w[3], -(w[4] * r), -(w[4] * e), w[4]};
  const std::array<RistrettoPoint, 10> points = {
      kiosk_key,  commit_r,         response_r,     printer_key,    envelope_r,
      commit.public_credential.c1, commit.commit_y1, authority_pk, receipt.big_x,
      commit.commit_y2};
  return MultiScalarMulWithBase(base, scalars, points).IsIdentity();
}

// The printed bytes of c_pc and Y when the segment carries them and one
// BatchValidateEncodings pass (no inverse square root) finds them to encode
// its points; otherwise the points' fresh encodings. Either way the result
// is the canonical encoding, so σ_kc's message and the ledger match read
// the same bytes they would from the points.
CommitSegment::Wire PrintedCommitWire(const CommitSegment& commit) {
  if (commit.wire.has_value()) {
    const CommitSegment::Wire& wire = *commit.wire;
    const std::array<RistrettoPoint, 4> points = {
        commit.public_credential.c1, commit.public_credential.c2, commit.commit_y1,
        commit.commit_y2};
    const std::array<CompressedRistretto, 4> bytes = {
        ElGamalWireHalf(wire.public_credential, 0), ElGamalWireHalf(wire.public_credential, 1),
        wire.commit_y1, wire.commit_y2};
    std::array<uint8_t, 4> ok{};
    Executor::Scope serial(Executor::Serial());  // four points: not worth a pool
    if (BatchValidateEncodings(points, bytes, ok) == 0) {
      return wire;
    }
  }
  return {commit.public_credential.Wire(), commit.commit_y1.Encode(), commit.commit_y2.Encode()};
}

}  // namespace

Vsd::Vsd(RistrettoPoint authority_pk, std::set<CompressedRistretto> trusted_printer_keys)
    : authority_pk_(authority_pk), trusted_printer_keys_(std::move(trusted_printer_keys)) {}

Outcome<ActivatedCredential> Vsd::Activate(const PaperCredential& credential,
                                           PublicLedger& ledger) {
  using Out = Outcome<ActivatedCredential>;
  const CommitSegment& commit = credential.commit;
  const ResponseSegment& response = credential.response;
  const Envelope& envelope = credential.envelope;

  // (Fig. 11 line 2) c_pk <- PubKey(c_sk).
  RistrettoPoint credential_pk_point = RistrettoPoint::MulBase(response.credential_sk);
  CompressedRistretto credential_pk = credential_pk_point.Encode();

  // (lines 3-8) The receipt checks, batched; an untrusted printer fails
  // line 5 whatever the equations say, so it goes straight to the reference.
  auto h_er = ChallengeResponseHash(envelope.challenge, response.zkp_response);
  const CommitSegment::Wire printed = PrintedCommitWire(commit);
  const Receipt receipt{credential,
                        CommitSegment::SignedPayload(commit.voter_id, printed.public_credential,
                                                     printed.commit_y1, printed.commit_y2),
                        ResponseSegment::SignedPayload(credential_pk, h_er),
                        envelope.SignedPayload(),
                        commit.public_credential.c2 - credential_pk_point};
  if (trusted_printer_keys_.count(envelope.printer_pk) == 0 ||
      !ReceiptEquationsHold(receipt, authority_pk_)) {
    const char* reason = FirstFailedReceiptCheck(receipt, authority_pk_, trusted_printer_keys_);
    return Out::Fail(reason != nullptr ? reason : "activation: batched receipt check failed");
  }

  // (lines 9-10) Ledger match: the voter's active registration record must
  // carry the same c_pc and kiosk key, compared as canonical bytes.
  auto record = ledger.ActiveRegistrationKeys(commit.voter_id);
  if (!record.has_value()) {
    return Out::Fail("activation: no registration record on ledger for voter");
  }
  if (record->public_credential != printed.public_credential) {
    return Out::Fail("activation: public credential does not match ledger record");
  }
  if (record->kiosk_pk != response.kiosk_pk) {
    return Out::Fail("activation: kiosk key does not match ledger record");
  }

  // (line 11) Envelope challenge must be committed and previously unused;
  // publishing it enforces global uniqueness (App. F.3.5).
  if (Status s = ledger.RevealEnvelopeChallenge(envelope.challenge); !s.ok()) {
    return Out::Fail("activation: " + s.reason());
  }

  ActivatedCredential activated;
  activated.voter_id = commit.voter_id;
  activated.credential_sk = response.credential_sk;
  activated.credential_pk = credential_pk;
  activated.public_credential = commit.public_credential;
  activated.kiosk_pk = response.kiosk_pk;
  activated.kiosk_response_sig = response.kiosk_sig;
  activated.challenge_response_hash = h_er;
  credentials_.push_back(activated);
  return Out::Ok(std::move(activated));
}

size_t Vsd::UnexpectedRegistrationEvents(const std::string& voter_id,
                                         const PublicLedger& ledger) const {
  size_t on_ledger = ledger.RegistrationEventCount(voter_id);
  auto it = acknowledged_events_.find(voter_id);
  size_t acknowledged = it == acknowledged_events_.end() ? 0 : it->second;
  return on_ledger > acknowledged ? on_ledger - acknowledged : 0;
}

void Vsd::AcknowledgeRegistration(const std::string& voter_id) {
  acknowledged_events_[voter_id] += 1;
}

}  // namespace votegral
