#include "src/trip/attacks.h"

namespace votegral {

CredentialStealingKiosk::CredentialStealingKiosk(SchnorrKeyPair key, Bytes mac_key,
                                                 RistrettoPoint authority_pk)
    : Kiosk(std::move(key), std::move(mac_key), authority_pk) {}

Outcome<PrintedCommit> CredentialStealingKiosk::BeginRealCredential(Rng& rng) {
  (void)rng;
  // The malicious kiosk prints nothing yet; it needs the challenge first.
  // On a real screen it would display "please scan an envelope to continue".
  return Outcome<PrintedCommit>::Fail(
      "kiosk display: please scan any envelope to begin (malicious order)");
}

Outcome<PaperCredential> CredentialStealingKiosk::FinishRealCredential(const Envelope& envelope,
                                                                       Rng& rng) {
  if (!in_session_) {
    return Outcome<PaperCredential>::Fail("kiosk: no active session");
  }
  // Envelope scanned BEFORE any commit was printed — the inverted order.
  RecordAction(KioskAction::kScannedEnvelope);
  if (Status s = ConsumeEnvelope(envelope); !s.ok()) {
    return Outcome<PaperCredential>::Fail(s.reason());
  }

  // The credential key handed to the voter...
  SchnorrKeyPair decoy_key = SchnorrKeyPair::Generate(rng);
  // ...but c_pc encrypts the *attacker's* key: only the attacker's ballots
  // will match the roster tag.
  SchnorrKeyPair stolen = SchnorrKeyPair::Generate(rng);
  Scalar x = Scalar::Random(rng);
  ElGamalCiphertext c_pc = ElGamalEncrypt(authority_pk_, stolen.public_point(), x);
  stolen_keys_.push_back(stolen);

  // Simulate the "this is your real credential" proof — possible because the
  // challenge is already known.
  RistrettoPoint fake_x = c_pc.c2 - decoy_key.public_point();
  DleqStatement statement =
      DleqStatement::MakePair(RistrettoPoint::Base(), c_pc.c1, authority_pk_, fake_x);
  statement.base_wire = {RistrettoPoint::BaseWire(), authority_pk_wire_};
  DleqTranscript transcript = SimulateDleq(statement, envelope.challenge, rng);

  PaperCredential credential;
  credential.symbol = envelope.symbol;
  credential.envelope = envelope;

  const ElGamalWire c_pc_wire = c_pc.Wire();
  credential.commit.voter_id = voter_id_;
  credential.commit.public_credential = c_pc;
  credential.commit.commit_y1 = transcript.commits[0];
  credential.commit.commit_y2 = transcript.commits[1];
  credential.commit.wire =
      CommitSegment::Wire{c_pc_wire, transcript.commit_wire[0], transcript.commit_wire[1]};
  credential.commit.kiosk_sig =
      SignCommit(c_pc_wire, transcript.commit_wire[0], transcript.commit_wire[1], rng);

  credential.checkout.voter_id = voter_id_;
  credential.checkout.public_credential = c_pc;
  credential.checkout.kiosk_pk = key_.public_bytes();
  credential.checkout.kiosk_sig = SignCheckout(c_pc_wire, rng);

  credential.response.credential_sk = decoy_key.secret();
  credential.response.zkp_response = transcript.response;
  credential.response.kiosk_pk = key_.public_bytes();
  auto h_er = ChallengeResponseHash(envelope.challenge, transcript.response);
  credential.response.kiosk_sig = SignResponse(decoy_key.public_bytes(), h_er, rng);

  RecordSessionCredential(c_pc, c_pc_wire, credential.checkout);

  // The whole receipt prints at once — the fake-credential signature.
  RecordAction(KioskAction::kPrintedFullReceipt);
  return Outcome<PaperCredential>::Ok(std::move(credential));
}

bool ActionsShowSoundRealOrder(const std::vector<KioskAction>& actions) {
  for (const KioskAction action : actions) {
    if (action == KioskAction::kPrintedSymbolAndCommit) {
      return true;  // commit printed before any envelope scan
    }
    if (action == KioskAction::kScannedEnvelope) {
      return false;  // envelope demanded first: the unsound order
    }
  }
  return false;
}

bool VoterBehavior::DetectsMisbehavior(const std::vector<KioskAction>& actions,
                                       Rng& rng) const {
  if (ActionsShowSoundRealOrder(actions)) {
    return false;  // nothing to detect
  }
  double p = security_educated ? kDetectWithEducation : kDetectWithoutEducation;
  return rng.Uniform(1000000) < static_cast<uint64_t>(p * 1000000.0);
}

EnvelopeSupply BuildStuffedSupply(EnvelopePrinter& printer, PublicLedger& ledger,
                                  size_t total, size_t duplicates, Scalar known_challenge,
                                  Rng& rng) {
  Require(duplicates <= total, "BuildStuffedSupply: duplicates exceed total");
  std::vector<Envelope> stock = printer.IssueBatch(total - duplicates, ledger, rng);
  for (size_t i = 0; i < duplicates; ++i) {
    // The malicious printer reprints the same challenge on many envelopes,
    // each properly signed so the forgery survives activation checks —
    // unless two of them are ever revealed, which the ledger's duplicate
    // check catches (App. F.3.5).
    stock.push_back(printer.IssueEnvelopeWithChallenge(known_challenge, ledger, rng));
  }
  return EnvelopeSupply(std::move(stock));
}

double IvAdversaryBound(size_t n_envelopes, size_t k_duplicates, size_t credentials) {
  Require(credentials >= 1, "IvAdversaryBound: at least one credential");
  if (k_duplicates == 0 || n_envelopes == 0 || credentials > n_envelopes) {
    return 0.0;
  }
  const double n = static_cast<double>(n_envelopes);
  const double k = static_cast<double>(k_duplicates);
  const size_t fakes = credentials - 1;
  // (k/n_E) * C(n_E-k, n_c-1) / C(n_E-1, n_c-1), computed as a product of
  // ratios to avoid overflow.
  if (n_envelopes - k_duplicates < fakes) {
    return 0.0;
  }
  double prob = k / n;
  for (size_t j = 0; j < fakes; ++j) {
    double numer = static_cast<double>(n_envelopes - k_duplicates - j);
    double denom = static_cast<double>(n_envelopes - 1 - j);
    prob *= numer / denom;
  }
  return prob;
}

}  // namespace votegral
