#include "src/trip/kiosk.h"

#include "src/crypto/hmac.h"

namespace votegral {

std::array<uint8_t, 16> ComputeCheckInMac(std::span<const uint8_t> mac_key,
                                          const std::string& voter_id) {
  auto full = HmacSha256(mac_key, AsBytes(voter_id));
  std::array<uint8_t, 16> truncated;
  std::copy(full.begin(), full.begin() + 16, truncated.begin());
  return truncated;
}

Kiosk::Kiosk(SchnorrKeyPair key, Bytes mac_key, RistrettoPoint authority_pk)
    : key_(std::move(key)),
      mac_key_(std::move(mac_key)),
      authority_pk_(authority_pk),
      authority_pk_wire_(authority_pk.Encode()) {}

namespace {

// The statement underlying every TRIP credential proof, real or fake:
// C1 = g^x ∧ X = A^x, i.e. DLEQ((B, A_pk), (C1, X)). The base section —
// generator and authority key — is backed by standing wire caches; the
// publics are per-session points the interactive protocol never hashes, so
// their cache section stays empty (the sections are independent).
DleqStatement CredentialStatement(const RistrettoPoint& authority_pk,
                                  const CompressedRistretto& authority_pk_wire,
                                  const RistrettoPoint& c1, const RistrettoPoint& big_x) {
  DleqStatement statement =
      DleqStatement::MakePair(RistrettoPoint::Base(), c1, authority_pk, big_x);
  statement.base_wire = {RistrettoPoint::BaseWire(), authority_pk_wire};
  return statement;
}

}  // namespace

Status Kiosk::StartSession(const CheckInTicket& ticket) {
  if (in_session_) {
    return Status::Error("kiosk: session already in progress");
  }
  auto expected = ComputeCheckInMac(mac_key_, ticket.voter_id);
  if (!ConstantTimeEqual(expected, ticket.mac_tag)) {
    return Status::Error("kiosk: check-in ticket MAC invalid");
  }
  in_session_ = true;
  voter_id_ = ticket.voter_id;
  actions_.clear();
  session_challenges_.clear();
  pending_real_.reset();
  real_issued_ = false;
  RecordAction(KioskAction::kSessionStarted);
  return Status::Ok();
}

SchnorrSignature Kiosk::SignCommit(const ElGamalWire& credential_wire,
                                   const CompressedRistretto& y1, const CompressedRistretto& y2,
                                   Rng& rng) const {
  return key_.Sign(CommitSegment::SignedPayload(voter_id_, credential_wire, y1, y2), rng);
}

SchnorrSignature Kiosk::SignCheckout(const ElGamalWire& credential_wire, Rng& rng) const {
  return key_.Sign(CheckOutSegment::SignedPayload(voter_id_, credential_wire), rng);
}

SchnorrSignature Kiosk::SignResponse(const CompressedRistretto& credential_pk,
                                     const std::array<uint8_t, 32>& h_er, Rng& rng) const {
  return key_.Sign(ResponseSegment::SignedPayload(credential_pk, h_er), rng);
}

Status Kiosk::ConsumeEnvelope(const Envelope& envelope) {
  auto hash = envelope.ChallengeHash();
  if (session_challenges_.count(hash) > 0) {
    RecordAction(KioskAction::kRejectedEnvelope);
    return Status::Error("kiosk: envelope already used in this session");
  }
  session_challenges_.insert(hash);
  return Status::Ok();
}

void Kiosk::RecordSessionCredential(const ElGamalCiphertext& public_credential,
                                    const ElGamalWire& credential_wire,
                                    const CheckOutSegment& checkout) {
  real_issued_ = true;
  session_public_credential_ = public_credential;
  session_credential_wire_ = credential_wire;
  session_checkout_ = checkout;
}

Outcome<PrintedCommit> Kiosk::BeginRealCredential(Rng& rng) {
  if (!in_session_) {
    return Outcome<PrintedCommit>::Fail("kiosk: no active session");
  }
  if (real_issued_ || pending_real_ != nullptr) {
    return Outcome<PrintedCommit>::Fail("kiosk: real credential already in progress/issued");
  }

  auto pending = std::make_unique<PendingReal>(PendingReal{
      .credential_key = SchnorrKeyPair::Generate(rng),
      .public_credential = {},
      .credential_wire = {},
      .prover = nullptr,
      .symbol = static_cast<int>(rng.Uniform(kNumEnvelopeSymbols)),
      .commit = {},
  });

  // c_pc = (g^x, A^x · c_pk): ElGamal encryption of the real credential's
  // public key under the authority key, with randomness x as the witness.
  Scalar x = Scalar::Random(rng);
  pending->public_credential =
      ElGamalEncrypt(authority_pk_, pending->credential_key.public_point(), x);
  pending->credential_wire = pending->public_credential.Wire();

  // Sound Σ-protocol: fix the commitment *now*, before any challenge exists.
  RistrettoPoint big_x = pending->public_credential.c2 - pending->credential_key.public_point();
  DleqStatement statement = CredentialStatement(authority_pk_, authority_pk_wire_,
                                                pending->public_credential.c1, big_x);
  pending->prover = std::make_unique<DleqProver>(statement, x, rng);

  pending->commit.voter_id = voter_id_;
  pending->commit.public_credential = pending->public_credential;
  pending->commit.commit_y1 = pending->prover->commits()[0];
  pending->commit.commit_y2 = pending->prover->commits()[1];
  pending->commit.wire = CommitSegment::Wire{
      pending->credential_wire, pending->prover->commit_wire()[0],
      pending->prover->commit_wire()[1]};
  pending->commit.kiosk_sig = SignCommit(pending->credential_wire,
                                         pending->prover->commit_wire()[0],
                                         pending->prover->commit_wire()[1], rng);

  PrintedCommit printed{pending->symbol, pending->commit};
  pending_real_ = std::move(pending);
  RecordAction(KioskAction::kPrintedSymbolAndCommit);
  return Outcome<PrintedCommit>::Ok(std::move(printed));
}

Outcome<PaperCredential> Kiosk::FinishRealCredential(const Envelope& envelope, Rng& rng) {
  if (!in_session_ || pending_real_ == nullptr) {
    return Outcome<PaperCredential>::Fail("kiosk: no pending real credential");
  }
  RecordAction(KioskAction::kScannedEnvelope);
  if (envelope.symbol != pending_real_->symbol) {
    // The honest kiosk gently rejects a non-matching envelope (§4.4) —
    // training the voter to wait for the printed symbol.
    RecordAction(KioskAction::kRejectedEnvelope);
    return Outcome<PaperCredential>::Fail("kiosk: envelope symbol does not match receipt");
  }
  if (Status s = ConsumeEnvelope(envelope); !s.ok()) {
    return Outcome<PaperCredential>::Fail(s.reason());
  }

  PendingReal& pending = *pending_real_;
  DleqTranscript transcript = pending.prover->Respond(envelope.challenge);

  PaperCredential credential;
  credential.symbol = pending.symbol;
  credential.commit = pending.commit;
  credential.envelope = envelope;

  credential.checkout.voter_id = voter_id_;
  credential.checkout.public_credential = pending.public_credential;
  credential.checkout.kiosk_pk = key_.public_bytes();
  credential.checkout.kiosk_sig = SignCheckout(pending.credential_wire, rng);

  credential.response.credential_sk = pending.credential_key.secret();
  credential.response.zkp_response = transcript.response;
  credential.response.kiosk_pk = key_.public_bytes();
  auto h_er = ChallengeResponseHash(envelope.challenge, transcript.response);
  credential.response.kiosk_sig =
      SignResponse(pending.credential_key.public_bytes(), h_er, rng);

  // Session material reused verbatim by fake credentials: identical t_ot.
  RecordSessionCredential(pending.public_credential, pending.credential_wire,
                          credential.checkout);
  pending_real_.reset();

  RecordAction(KioskAction::kPrintedCheckoutAndResponse);
  return Outcome<PaperCredential>::Ok(std::move(credential));
}

Outcome<PaperCredential> Kiosk::CreateFakeCredential(const Envelope& envelope, Rng& rng) {
  if (!in_session_) {
    return Outcome<PaperCredential>::Fail("kiosk: no active session");
  }
  if (!real_issued_) {
    return Outcome<PaperCredential>::Fail(
        "kiosk: fake credentials require the session's real credential first");
  }
  RecordAction(KioskAction::kScannedEnvelope);
  if (Status s = ConsumeEnvelope(envelope); !s.ok()) {
    return Outcome<PaperCredential>::Fail(s.reason());
  }

  // Fresh fake credential key; derive the "ElGamal secret" X̃ = C2 - c̃_pk so
  // the (false) statement reads "c_pc encrypts c̃_pk".
  SchnorrKeyPair fake_key = SchnorrKeyPair::Generate(rng);
  RistrettoPoint fake_x = session_public_credential_.c2 - fake_key.public_point();
  DleqStatement statement = CredentialStatement(authority_pk_, authority_pk_wire_,
                                                session_public_credential_.c1, fake_x);

  // Unsound order: the challenge is already known, so simulate (Fig. 9b).
  DleqTranscript transcript = SimulateDleq(statement, envelope.challenge, rng);

  PaperCredential credential;
  credential.symbol = envelope.symbol;
  credential.envelope = envelope;

  credential.commit.voter_id = voter_id_;
  credential.commit.public_credential = session_public_credential_;
  credential.commit.commit_y1 = transcript.commits[0];
  credential.commit.commit_y2 = transcript.commits[1];
  credential.commit.wire = CommitSegment::Wire{session_credential_wire_, transcript.commit_wire[0],
                                               transcript.commit_wire[1]};
  credential.commit.kiosk_sig = SignCommit(session_credential_wire_, transcript.commit_wire[0],
                                           transcript.commit_wire[1], rng);

  // Identical in content and bytes to the real credential's t_ot (§E.5).
  credential.checkout = session_checkout_;

  credential.response.credential_sk = fake_key.secret();
  credential.response.zkp_response = transcript.response;
  credential.response.kiosk_pk = key_.public_bytes();
  auto h_er = ChallengeResponseHash(envelope.challenge, transcript.response);
  credential.response.kiosk_sig = SignResponse(fake_key.public_bytes(), h_er, rng);

  RecordAction(KioskAction::kPrintedFullReceipt);
  return Outcome<PaperCredential>::Ok(std::move(credential));
}

Status Kiosk::EndSession() {
  if (!in_session_) {
    return Status::Error("kiosk: no active session");
  }
  in_session_ = false;
  pending_real_.reset();
  RecordAction(KioskAction::kSessionEnded);
  return Status::Ok();
}

}  // namespace votegral
