// Integration tests for the full TRIP registration protocol: setup, check-in,
// real/fake credential creation, check-out, activation — and every activation
// check's failure path (tamper injection).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "src/crypto/drbg.h"
#include "src/trip/registrar.h"
#include "src/trip/setup.h"

namespace votegral {
namespace {

TripSystem MakeSystem(Rng& rng, std::vector<std::string> roster = {"alice", "bob", "carol"}) {
  TripSystemParams params;
  params.roster = std::move(roster);
  params.authority_members = 4;
  return TripSystem::Create(params, rng);
}

TEST(TripSetup, CreatesWorkingSystem) {
  ChaChaRng rng(100);
  TripSystem system = MakeSystem(rng);
  EXPECT_TRUE(system.authority().VerifySetup().ok());
  EXPECT_EQ(system.ledger().eligible_count(), 3u);
  // n_E > c|V| + λ_E|K| = 3*3 + 16.
  EXPECT_GE(system.booth_envelopes().remaining(), 3u * 3u + 16u);
  EXPECT_EQ(system.ledger().envelope_commitment_count(),
            system.booth_envelopes().remaining());
}

TEST(TripRegistration, HappyPathRealAndFakes) {
  ChaChaRng rng(101);
  TripSystem system = MakeSystem(rng);
  RegistrationDesk desk(system);
  auto outcome = desk.RegisterVoter("alice", /*fake_count=*/2, rng);
  ASSERT_TRUE(outcome.ok()) << outcome.status.reason();

  // Registration record on the ledger, with the same c_pc as all receipts.
  auto record = system.ledger().ActiveRegistration("alice");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->public_credential, outcome->real.checkout.public_credential);
  for (const auto& fake : outcome->fakes) {
    // Fakes share the identical check-out ticket and public credential.
    EXPECT_EQ(fake.checkout.public_credential, outcome->real.checkout.public_credential);
    EXPECT_EQ(fake.checkout.kiosk_sig.Serialize(),
              outcome->real.checkout.kiosk_sig.Serialize());
  }
  // But carry distinct credential keys.
  EXPECT_NE(outcome->fakes[0].CredentialPublicKey(), outcome->real.CredentialPublicKey());
  EXPECT_NE(outcome->fakes[0].CredentialPublicKey(), outcome->fakes[1].CredentialPublicKey());
}

TEST(TripRegistration, IneligibleVoterRejectedAtCheckIn) {
  ChaChaRng rng(102);
  TripSystem system = MakeSystem(rng);
  RegistrationDesk desk(system);
  auto outcome = desk.RegisterVoter("mallory", 1, rng);
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status.reason().find("roll"), std::string::npos);
}

TEST(TripRegistration, ForgedTicketRejectedByKiosk) {
  ChaChaRng rng(103);
  TripSystem system = MakeSystem(rng);
  CheckInTicket forged;
  forged.voter_id = "alice";
  forged.mac_tag.fill(0x42);
  EXPECT_FALSE(system.kiosk().StartSession(forged).ok());
}

TEST(TripRegistration, KioskEnforcesSessionDiscipline) {
  ChaChaRng rng(104);
  TripSystem system = MakeSystem(rng);
  Kiosk& kiosk = system.kiosk();
  // No session: all operations fail.
  EXPECT_FALSE(kiosk.BeginRealCredential(rng).ok());
  auto official_ticket = system.official().CheckIn("alice", system.ledger());
  ASSERT_TRUE(official_ticket.ok());
  ASSERT_TRUE(kiosk.StartSession(*official_ticket).ok());
  // Double session start fails.
  EXPECT_FALSE(kiosk.StartSession(*official_ticket).ok());
  // Fake before real fails (fakes need the session c_pc / t_ot).
  auto envelope = system.booth_envelopes().TakeAny(rng);
  ASSERT_TRUE(envelope.ok());
  EXPECT_FALSE(kiosk.CreateFakeCredential(*envelope, rng).ok());
  // Real twice fails.
  ASSERT_TRUE(kiosk.BeginRealCredential(rng).ok());
  EXPECT_FALSE(kiosk.BeginRealCredential(rng).ok());
}

TEST(TripRegistration, KioskRejectsWrongSymbolEnvelope) {
  ChaChaRng rng(105);
  TripSystem system = MakeSystem(rng);
  Kiosk& kiosk = system.kiosk();
  auto ticket = system.official().CheckIn("alice", system.ledger());
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(kiosk.StartSession(*ticket).ok());
  auto printed = kiosk.BeginRealCredential(rng);
  ASSERT_TRUE(printed.ok());
  // Pick an envelope with a deliberately different symbol.
  int wrong_symbol = (printed->symbol + 1) % kNumEnvelopeSymbols;
  auto envelope = system.booth_envelopes().TakeWithSymbol(wrong_symbol, rng);
  ASSERT_TRUE(envelope.ok());
  auto result = kiosk.FinishRealCredential(*envelope, rng);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status.reason().find("symbol"), std::string::npos);
  // The correct symbol still completes.
  auto good = system.booth_envelopes().TakeWithSymbol(printed->symbol, rng);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(kiosk.FinishRealCredential(*good, rng).ok());
}

TEST(TripRegistration, KioskRejectsEnvelopeReuseWithinSession) {
  ChaChaRng rng(106);
  TripSystem system = MakeSystem(rng);
  Kiosk& kiosk = system.kiosk();
  auto ticket = system.official().CheckIn("alice", system.ledger());
  ASSERT_TRUE(kiosk.StartSession(*ticket).ok());
  auto printed = kiosk.BeginRealCredential(rng);
  ASSERT_TRUE(printed.ok());
  auto envelope = system.booth_envelopes().TakeWithSymbol(printed->symbol, rng);
  ASSERT_TRUE(envelope.ok());
  ASSERT_TRUE(kiosk.FinishRealCredential(*envelope, rng).ok());
  // Same envelope again for a fake: rejected.
  auto reused = kiosk.CreateFakeCredential(*envelope, rng);
  EXPECT_FALSE(reused.ok());
  EXPECT_NE(reused.status.reason().find("already used"), std::string::npos);
}

TEST(TripRegistration, ActionLogShowsDistinctOrders) {
  ChaChaRng rng(107);
  TripSystem system = MakeSystem(rng);
  RegistrationDesk desk(system);
  auto outcome = desk.RegisterVoter("alice", 1, rng);
  ASSERT_TRUE(outcome.ok());
  const auto& actions = system.kiosk().session_actions();
  // Expected order: start, print commit, scan envelope, print rest (real);
  // then scan envelope, print full receipt (fake); end.
  std::vector<KioskAction> expected = {
      KioskAction::kSessionStarted,        KioskAction::kPrintedSymbolAndCommit,
      KioskAction::kScannedEnvelope,       KioskAction::kPrintedCheckoutAndResponse,
      KioskAction::kScannedEnvelope,       KioskAction::kPrintedFullReceipt,
      KioskAction::kSessionEnded,
  };
  EXPECT_EQ(actions, expected);
}

TEST(TripActivation, RealAndFakeCredentialsActivate) {
  ChaChaRng rng(108);
  TripSystem system = MakeSystem(rng);
  Vsd vsd = system.MakeVsd();
  auto voter = RegisterAndActivate(system, "alice", 2, vsd, rng);
  ASSERT_TRUE(voter.ok()) << voter.status.reason();
  EXPECT_EQ(voter->activated.size(), 3u);
  EXPECT_EQ(vsd.credentials().size(), 3u);
  // Challenges were revealed on L_E (3 credentials = 3 envelopes).
  EXPECT_EQ(system.ledger().revealed_challenge_count(), 3u);
}

TEST(TripActivation, ChecksCatchEveryTamperClass) {
  ChaChaRng rng(109);
  TripSystem system = MakeSystem(rng);
  RegistrationDesk desk(system);
  auto outcome = desk.RegisterVoter("alice", 0, rng);
  ASSERT_TRUE(outcome.ok());
  const PaperCredential& good = outcome->real;

  auto expect_fail = [&](PaperCredential credential, const std::string& fragment) {
    Vsd vsd = system.MakeVsd();
    auto result = vsd.Activate(credential, system.ledger());
    EXPECT_FALSE(result.ok()) << "expected failure containing: " << fragment;
    EXPECT_NE(result.status.reason().find(fragment), std::string::npos)
        << "got: " << result.status.reason();
  };

  // (1) Tampered commit signature.
  {
    PaperCredential bad = good;
    bad.commit.kiosk_sig.s = bad.commit.kiosk_sig.s + Scalar::One();
    expect_fail(bad, "commit signature");
  }
  // (2) Tampered response signature / wrong credential key.
  {
    PaperCredential bad = good;
    bad.response.credential_sk = bad.response.credential_sk + Scalar::One();
    expect_fail(bad, "response signature");
  }
  // (3) Untrusted envelope printer.
  {
    PaperCredential bad = good;
    SchnorrKeyPair rogue = SchnorrKeyPair::Generate(rng);
    bad.envelope.printer_pk = rogue.public_bytes();
    bad.envelope.printer_sig = rogue.Sign(bad.envelope.SignedPayload(), rng);
    expect_fail(bad, "printer not trusted");
  }
  // (4) Corrupted envelope signature.
  {
    PaperCredential bad = good;
    bad.envelope.printer_sig.s = bad.envelope.printer_sig.s + Scalar::One();
    expect_fail(bad, "printer signature");
  }
  // (5) Broken ZKP transcript (wrong challenge on the envelope).
  {
    PaperCredential bad = good;
    // Re-sign H(e') so the signature checks pass but the transcript breaks.
    Scalar wrong = bad.envelope.challenge + Scalar::One();
    bad.envelope.challenge = wrong;
    // Find the printer to re-sign: use the system's printer.
    bad.envelope.printer_pk = system.envelope_printer().public_key();
    bad.envelope =
        [&] {
          Envelope e = bad.envelope;
          // Build a properly signed envelope with the wrong challenge.
          e = system.envelope_printer().IssueEnvelopeWithChallenge(wrong, system.ledger(), rng);
          e.symbol = bad.envelope.symbol;
          return e;
        }();
    // σ_kr binds H(e‖r), so with a swapped envelope the response signature
    // check fails first — still a detection.
    Vsd vsd = system.MakeVsd();
    EXPECT_FALSE(vsd.Activate(bad, system.ledger()).ok());
  }
  // (6) Ledger mismatch: another voter's record (different c_pc).
  {
    RegistrationDesk desk2(system);
    auto other = desk2.RegisterVoter("bob", 0, rng);
    ASSERT_TRUE(other.ok());
    PaperCredential bad = good;
    bad.commit.voter_id = "bob";  // commit sig breaks; even if it didn't,
                                  // c_pc wouldn't match bob's record
    expect_fail(bad, "signature");
  }
  // The untampered credential still activates.
  {
    Vsd vsd = system.MakeVsd();
    EXPECT_TRUE(vsd.Activate(good, system.ledger()).ok());
  }
}

TEST(TripActivation, DuplicateEnvelopeChallengeDetected) {
  ChaChaRng rng(110);
  TripSystem system = MakeSystem(rng);
  Vsd vsd = system.MakeVsd();
  auto voter = RegisterAndActivate(system, "alice", 0, vsd, rng);
  ASSERT_TRUE(voter.ok());
  // Activating the same credential twice reveals the same challenge twice.
  auto again = vsd.Activate(voter->paper.real, system.ledger());
  EXPECT_FALSE(again.ok());
  EXPECT_NE(again.status.reason().find("duplicate"), std::string::npos);
}

TEST(TripActivation, RecordSupersedeInvalidatesOldCredential) {
  ChaChaRng rng(111);
  TripSystem system = MakeSystem(rng);
  Vsd vsd = system.MakeVsd();
  RegistrationDesk desk(system);
  auto first = desk.RegisterVoter("alice", 0, rng);
  ASSERT_TRUE(first.ok());
  // Voter re-registers (e.g. lost device); new record supersedes.
  auto second = desk.RegisterVoter("alice", 0, rng);
  ASSERT_TRUE(second.ok());
  // The first credential now fails the ledger match.
  auto stale = vsd.Activate(first->real, system.ledger());
  EXPECT_FALSE(stale.ok());
  EXPECT_NE(stale.status.reason().find("ledger"), std::string::npos);
  // The new one activates.
  EXPECT_TRUE(vsd.Activate(second->real, system.ledger()).ok());
}

TEST(TripActivation, RegistrationEventMonitoring) {
  ChaChaRng rng(112);
  TripSystem system = MakeSystem(rng);
  Vsd vsd = system.MakeVsd();
  auto voter = RegisterAndActivate(system, "alice", 0, vsd, rng);
  ASSERT_TRUE(voter.ok());
  EXPECT_EQ(vsd.UnexpectedRegistrationEvents("alice", system.ledger()), 0u);
  // An impersonator registers as alice (insider at the desk).
  RegistrationDesk desk(system);
  ASSERT_TRUE(desk.RegisterVoter("alice", 0, rng).ok());
  EXPECT_EQ(vsd.UnexpectedRegistrationEvents("alice", system.ledger()), 1u);
}

// --- Each activation equation on its own ---------------------------------
//
// The VSD checks a receipt's three signatures and two transcript equations
// as one random linear combination and, only when that fails, one at a
// time. These tests hold the kiosk's signing key, so a tampered receipt can
// be re-signed to break exactly the equation a case means to break, and
// compare every verdict with the sequential checks written out below.

constexpr const char* kCommitSigInvalid = "activation: kiosk commit signature invalid";
constexpr const char* kResponseSigInvalid = "activation: kiosk response signature invalid";
constexpr const char* kPrinterNotTrusted = "activation: envelope printer not trusted";
constexpr const char* kPrinterSigInvalid = "activation: envelope printer signature invalid";
constexpr const char* kTranscriptInvalid = "activation: zero-knowledge proof transcript invalid";

// Fig. 11 lines 3-8 one check at a time, in order: the reason activation
// must report, or "" when the receipt passes them all.
std::string SequentialReceiptReason(const PaperCredential& c, const RistrettoPoint& authority_pk,
                                    const std::set<CompressedRistretto>& trusted_printers) {
  const RistrettoPoint c_pk = RistrettoPoint::MulBase(c.response.credential_sk);
  if (!SchnorrVerify(c.response.kiosk_pk, c.commit.SignedPayload(), c.commit.kiosk_sig).ok()) {
    return kCommitSigInvalid;
  }
  const auto h_er = ChallengeResponseHash(c.envelope.challenge, c.response.zkp_response);
  if (!SchnorrVerify(c.response.kiosk_pk, ResponseSegment::SignedPayload(c_pk.Encode(), h_er),
                     c.response.kiosk_sig)
           .ok()) {
    return kResponseSigInvalid;
  }
  if (trusted_printers.count(c.envelope.printer_pk) == 0) {
    return kPrinterNotTrusted;
  }
  if (!SchnorrVerify(c.envelope.printer_pk, c.envelope.SignedPayload(), c.envelope.printer_sig)
           .ok()) {
    return kPrinterSigInvalid;
  }
  const Scalar& e = c.envelope.challenge;
  const Scalar& r = c.response.zkp_response;
  const RistrettoPoint big_x = c.commit.public_credential.c2 - c_pk;
  if (!(c.commit.commit_y1 ==
        r * RistrettoPoint::Base() + e * c.commit.public_credential.c1) ||
      !(c.commit.commit_y2 == r * authority_pk + e * big_x)) {
    return kTranscriptInvalid;
  }
  return "";
}

// A registration whose kiosk signs with a key the test holds.
struct HeldKioskRegistration {
  explicit HeldKioskRegistration(uint64_t seed)
      : rng(seed), system(MakeSystem(rng)), kiosk_key(SchnorrKeyPair::Generate(rng)) {
    system.ReplaceKiosk(0, std::make_unique<Kiosk>(kiosk_key, system.shared_mac_key(),
                                                   system.authority_pk()));
    RegistrationDesk desk(system);
    auto outcome = desk.RegisterVoter("alice", 1, rng);
    EXPECT_TRUE(outcome.ok()) << outcome.status.reason();
    credentials = {outcome->real, outcome->fakes.at(0)};
  }

  void ResignCommit(PaperCredential& c) {
    c.commit.kiosk_sig = kiosk_key.Sign(c.commit.SignedPayload(), rng);
  }
  void ResignResponse(PaperCredential& c) {
    const auto h_er = ChallengeResponseHash(c.envelope.challenge, c.response.zkp_response);
    c.response.kiosk_sig =
        kiosk_key.Sign(ResponseSegment::SignedPayload(c.CredentialPublicKey(), h_er), rng);
  }

  // Activates on a fresh device; the reason, or "" on success.
  std::string ActivationReason(const PaperCredential& c) {
    Vsd vsd = system.MakeVsd();
    auto result = vsd.Activate(c, system.ledger());
    return result.ok() ? "" : result.status.reason();
  }
  std::string Reference(const PaperCredential& c) {
    return SequentialReceiptReason(c, system.authority_pk(), system.trusted_printers());
  }

  ChaChaRng rng;
  TripSystem system;
  SchnorrKeyPair kiosk_key;
  std::vector<PaperCredential> credentials;  // the real one, then a fake
};

TEST(TripActivation, EachReceiptEquationFailsAlone) {
  HeldKioskRegistration reg(120);
  struct Case {
    const char* name;
    void (*tamper)(HeldKioskRegistration&, PaperCredential&);
    const char* reason;
  };
  const Case cases[] = {
      {"Y1 moved",
       [](HeldKioskRegistration& h, PaperCredential& c) {
         c.commit.commit_y1 = c.commit.commit_y1 + RistrettoPoint::Base();
         h.ResignCommit(c);
       },
       kTranscriptInvalid},
      {"Y2 moved",
       [](HeldKioskRegistration& h, PaperCredential& c) {
         c.commit.commit_y2 = c.commit.commit_y2 + RistrettoPoint::Base();
         h.ResignCommit(c);
       },
       kTranscriptInvalid},
      {"r changed",
       [](HeldKioskRegistration& h, PaperCredential& c) {
         c.response.zkp_response = c.response.zkp_response + Scalar::One();
         h.ResignResponse(c);
       },
       kTranscriptInvalid},
      {"s of the commit signature changed",
       [](HeldKioskRegistration&, PaperCredential& c) {
         c.commit.kiosk_sig.s = c.commit.kiosk_sig.s + Scalar::One();
       },
       kCommitSigInvalid},
      {"s of the response signature changed",
       [](HeldKioskRegistration&, PaperCredential& c) {
         c.response.kiosk_sig.s = c.response.kiosk_sig.s + Scalar::One();
       },
       kResponseSigInvalid},
      {"s of the envelope signature changed",
       [](HeldKioskRegistration&, PaperCredential& c) {
         c.envelope.printer_sig.s = c.envelope.printer_sig.s + Scalar::One();
       },
       kPrinterSigInvalid},
  };
  for (size_t k = 0; k < reg.credentials.size(); ++k) {
    for (const Case& test_case : cases) {
      SCOPED_TRACE(std::string(test_case.name) + (k == 0 ? ", real" : ", fake"));
      PaperCredential bad = reg.credentials[k];
      test_case.tamper(reg, bad);
      EXPECT_EQ(reg.Reference(bad), test_case.reason);
      EXPECT_EQ(reg.ActivationReason(bad), test_case.reason);
    }
  }
  // Untampered, both still activate.
  for (const PaperCredential& c : reg.credentials) {
    EXPECT_EQ(reg.Reference(c), "");
    EXPECT_EQ(reg.ActivationReason(c), "");
  }
}

TEST(TripActivation, UndecodablePointsKeepTheirReasons) {
  HeldKioskRegistration reg(121);
  CompressedRistretto undecodable;
  undecodable.fill(0xFF);  // above the field prime: no canonical encoding
  ASSERT_FALSE(RistrettoPoint::Decode(undecodable).has_value());
  const PaperCredential& good = reg.credentials[0];
  struct Case {
    const char* name;
    CompressedRistretto& (*field)(PaperCredential&);
    const char* reason;
  };
  const Case cases[] = {
      {"kiosk key", [](PaperCredential& c) -> CompressedRistretto& { return c.response.kiosk_pk; },
       kCommitSigInvalid},
      {"R of the commit signature",
       [](PaperCredential& c) -> CompressedRistretto& { return c.commit.kiosk_sig.r_bytes; },
       kCommitSigInvalid},
      {"R of the response signature",
       [](PaperCredential& c) -> CompressedRistretto& { return c.response.kiosk_sig.r_bytes; },
       kResponseSigInvalid},
      {"R of the envelope signature",
       [](PaperCredential& c) -> CompressedRistretto& { return c.envelope.printer_sig.r_bytes; },
       kPrinterSigInvalid},
  };
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    PaperCredential bad = good;
    test_case.field(bad) = undecodable;
    EXPECT_EQ(reg.Reference(bad), test_case.reason);
    EXPECT_EQ(reg.ActivationReason(bad), test_case.reason);
  }
  // A printer key that does not decode can only be reached through a device
  // that trusts it.
  PaperCredential bad = good;
  bad.envelope.printer_pk = undecodable;
  const std::set<CompressedRistretto> trusted = {undecodable};
  EXPECT_EQ(SequentialReceiptReason(bad, reg.system.authority_pk(), trusted), kPrinterSigInvalid);
  Vsd vsd(reg.system.authority_pk(), trusted);
  auto result = vsd.Activate(bad, reg.system.ledger());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.reason(), kPrinterSigInvalid);
}

TEST(TripActivation, UntrustedPrinterReasonsFollowTheSequentialOrder) {
  HeldKioskRegistration reg(122);
  SchnorrKeyPair rogue = SchnorrKeyPair::Generate(reg.rng);
  PaperCredential bad = reg.credentials[1];
  bad.envelope.printer_pk = rogue.public_bytes();
  bad.envelope.printer_sig = rogue.Sign(bad.envelope.SignedPayload(), reg.rng);
  EXPECT_EQ(reg.ActivationReason(bad), kPrinterNotTrusted);
  // Break the checks after line 5 as well: still the printer.
  bad.envelope.printer_sig.s = bad.envelope.printer_sig.s + Scalar::One();
  bad.commit.commit_y1 = bad.commit.commit_y1 + RistrettoPoint::Base();
  reg.ResignCommit(bad);
  EXPECT_EQ(reg.ActivationReason(bad), kPrinterNotTrusted);
  // Then the ones before it, last first.
  bad.response.kiosk_sig.s = bad.response.kiosk_sig.s + Scalar::One();
  EXPECT_EQ(reg.ActivationReason(bad), kResponseSigInvalid);
  bad.commit.kiosk_sig.s = bad.commit.kiosk_sig.s + Scalar::One();
  EXPECT_EQ(reg.ActivationReason(bad), kCommitSigInvalid);
  EXPECT_EQ(reg.Reference(bad), kCommitSigInvalid);
}

TEST(TripActivation, SeededMutationsMatchTheSequentialReference) {
  HeldKioskRegistration reg(123);
  // One field of the receipt replaced by random bytes (often undecodable),
  // moved by a random multiple of B, or shifted by a random scalar; then,
  // half the time, both kiosk signatures re-signed over the result.
  auto point_field = [](PaperCredential& c, size_t i) -> CompressedRistretto* {
    switch (i) {
      case 0: return &c.response.kiosk_pk;
      case 1: return &c.envelope.printer_pk;
      case 2: return &c.commit.kiosk_sig.r_bytes;
      case 3: return &c.response.kiosk_sig.r_bytes;
      default: return &c.envelope.printer_sig.r_bytes;
    }
  };
  auto scalar_field = [](PaperCredential& c, size_t i) -> Scalar* {
    switch (i) {
      case 0: return &c.commit.kiosk_sig.s;
      case 1: return &c.response.kiosk_sig.s;
      case 2: return &c.envelope.printer_sig.s;
      case 3: return &c.envelope.challenge;
      case 4: return &c.response.zkp_response;
      default: return &c.response.credential_sk;
    }
  };
  auto group_field = [](PaperCredential& c, size_t i) -> RistrettoPoint* {
    switch (i) {
      case 0: return &c.commit.commit_y1;
      case 1: return &c.commit.commit_y2;
      case 2: return &c.commit.public_credential.c1;
      default: return &c.commit.public_credential.c2;
    }
  };
  std::set<std::string> reasons;
  for (int trial = 0; trial < 240; ++trial) {
    PaperCredential c = reg.credentials[reg.rng.Uniform(2)];
    switch (reg.rng.Uniform(3)) {
      case 0: {
        CompressedRistretto* field = point_field(c, reg.rng.Uniform(5));
        if (reg.rng.Uniform(2) == 0) {
          reg.rng.Fill(*field);
        } else {
          *field = (*RistrettoPoint::Decode(*field) + RistrettoPoint::Base()).Encode();
        }
        break;
      }
      case 1: {
        Scalar* field = scalar_field(c, reg.rng.Uniform(6));
        *field = *field + Scalar::Random(reg.rng);
        break;
      }
      default: {
        RistrettoPoint* field = group_field(c, reg.rng.Uniform(4));
        *field = *field + Scalar::FromU64(1 + reg.rng.Uniform(1000)) * RistrettoPoint::Base();
        break;
      }
    }
    if (reg.rng.Uniform(2) == 0 && RistrettoPoint::Decode(c.response.kiosk_pk).has_value()) {
      reg.ResignCommit(c);
      reg.ResignResponse(c);
    }
    const std::string want = reg.Reference(c);
    const std::string got = reg.ActivationReason(c);
    SCOPED_TRACE("trial " + std::to_string(trial));
    if (want.empty()) {
      // Past the receipt checks only the ledger stage can object.
      for (const char* receipt_reason : {kCommitSigInvalid, kResponseSigInvalid,
                                         kPrinterNotTrusted, kPrinterSigInvalid,
                                         kTranscriptInvalid}) {
        EXPECT_NE(got, receipt_reason);
      }
    } else {
      EXPECT_EQ(got, want);
    }
    reasons.insert(want);
  }
  // The loop reached every receipt check (and the ledger stage).
  EXPECT_EQ(reasons.size(), 6u);
}

TEST(TripActivation, EncodesEachPointOnce) {
  // Per activation: c_pk only, since c_pc and Y reach σ_kc's message and the
  // ledger match as the printed bytes, and five decodes (the kiosk key, the
  // printer key and the three signatures' R; the ledger record's c_pc is
  // compared as bytes). Per registration with f fakes: the kiosk's real
  // session (c_pk, c_pc once, Y, three signatures' R), 5 per fake (c_pk, Y,
  // two R), the official's check-out (c_pc once, two R) and the activations.
  ChaChaRng rng(124);
  TripSystem system = MakeSystem(rng);
  Vsd vsd = system.MakeVsd();
  const char* voters[] = {"alice", "bob", "carol"};
  for (size_t fakes = 0; fakes < 3; ++fakes) {
    SCOPED_TRACE(fakes);
    RegistrationDesk desk(system);
    uint64_t before = RistrettoEncodeInvocations();
    auto outcome = desk.RegisterVoter(voters[fakes], fakes, rng);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(RistrettoEncodeInvocations() - before, 12 + 5 * fakes);
    before = RistrettoEncodeInvocations();
    uint64_t decodes = RistrettoDecodeInvocations();
    ASSERT_TRUE(vsd.Activate(outcome->real, system.ledger()).ok());
    EXPECT_EQ(RistrettoEncodeInvocations() - before, 1u);
    EXPECT_EQ(RistrettoDecodeInvocations() - decodes, 5u);
    for (const PaperCredential& fake : outcome->fakes) {
      before = RistrettoEncodeInvocations();
      decodes = RistrettoDecodeInvocations();
      ASSERT_TRUE(vsd.Activate(fake, system.ledger()).ok());
      EXPECT_EQ(RistrettoEncodeInvocations() - before, 1u);
      EXPECT_EQ(RistrettoDecodeInvocations() - decodes, 5u);
    }
  }
}

TEST(TripActivation, PrintedBytesBindNothingTheirPointsDoNot) {
  // The commit segment's printed bytes reach σ_kc's message and the ledger
  // match only when they encode its points, so forged or stale bytes give
  // the verdict and reason of the same points carrying their true bytes.
  ChaChaRng rng(126);
  std::vector<std::string> roster;
  for (int i = 0; i < 8; ++i) {
    roster.push_back("voter-" + std::to_string(i));
  }
  TripSystem system = MakeSystem(rng, roster);
  Vsd vsd = system.MakeVsd();
  RegistrationDesk desk(system);
  auto credential_for = [&](size_t voter) {
    auto outcome = desk.RegisterVoter(roster[voter], 0, rng);
    EXPECT_TRUE(outcome.ok());
    return outcome->real;
  };

  // Parse keeps the bytes it consumed, which are the kiosk's.
  const PaperCredential printed = credential_for(0);
  auto parsed = CommitSegment::Parse(printed.commit.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->wire.has_value() && printed.commit.wire.has_value());
  EXPECT_EQ(parsed->wire->public_credential, printed.commit.public_credential.Wire());
  EXPECT_EQ(parsed->wire->commit_y1, printed.commit.commit_y1.Encode());
  EXPECT_EQ(parsed->wire->commit_y2, printed.commit.commit_y2.Encode());

  struct Forgery {
    const char* name;
    void (*forge)(CommitSegment&);
  };
  const Forgery forgeries[] = {
      {"no bytes", [](CommitSegment& c) { c.wire.reset(); }},
      {"Y1 bytes encode -Y1", [](CommitSegment& c) { c.wire->commit_y1 = (-c.commit_y1).Encode(); }},
      {"Y1 and Y2 bytes swapped",
       [](CommitSegment& c) { std::swap(c.wire->commit_y1, c.wire->commit_y2); }},
      {"c_pc bytes non-canonical", [](CommitSegment& c) { c.wire->public_credential.fill(0xFF); }},
      {"c_pc bytes of another ciphertext",
       [](CommitSegment& c) {
         c.wire->public_credential = ElGamalCiphertext{c.public_credential.c2,
                                                       c.public_credential.c1}.Wire();
       }},
  };
  size_t voter = 1;
  for (const Forgery& forgery : forgeries) {
    SCOPED_TRACE(forgery.name);
    PaperCredential credential = credential_for(voter++);
    forgery.forge(credential.commit);
    auto activated = vsd.Activate(credential, system.ledger());
    EXPECT_TRUE(activated.ok()) << activated.status.reason();
  }
  // A moved commit is refused for its signature, stale bytes or not.
  for (bool stale : {true, false}) {
    SCOPED_TRACE(stale ? "stale bytes" : "fresh bytes");
    PaperCredential credential = credential_for(voter++);
    credential.commit.commit_y1 = credential.commit.commit_y1 + RistrettoPoint::Base();
    if (!stale) {
      credential.commit.wire->commit_y1 = credential.commit.commit_y1.Encode();
    }
    EXPECT_EQ(vsd.Activate(credential, system.ledger()).status.reason(),
              "activation: kiosk commit signature invalid");
  }
}

TEST(TripMessages, SerializationRoundTrips) {
  ChaChaRng rng(113);
  TripSystem system = MakeSystem(rng);
  RegistrationDesk desk(system);
  auto outcome = desk.RegisterVoter("alice", 1, rng);
  ASSERT_TRUE(outcome.ok());

  const PaperCredential& c = outcome->real;
  auto ticket = CheckInTicket::Parse(outcome->ticket.Serialize());
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(ticket->voter_id, "alice");

  auto commit = CommitSegment::Parse(c.commit.Serialize());
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->public_credential, c.commit.public_credential);

  auto checkout = CheckOutSegment::Parse(c.checkout.Serialize());
  ASSERT_TRUE(checkout.ok());
  EXPECT_EQ(checkout->kiosk_pk, c.checkout.kiosk_pk);

  auto response = ResponseSegment::Parse(c.response.Serialize());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->credential_sk, c.response.credential_sk);

  auto envelope = Envelope::Parse(c.envelope.Serialize());
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->challenge, c.envelope.challenge);

  // Truncated parses fail cleanly.
  Bytes wire = c.commit.Serialize();
  wire.pop_back();
  EXPECT_FALSE(CommitSegment::Parse(wire).ok());
}

TEST(TripRegistration, ManyVotersShareOneSystem) {
  ChaChaRng rng(114);
  std::vector<std::string> roster;
  for (int i = 0; i < 10; ++i) {
    roster.push_back("voter-" + std::to_string(i));
  }
  TripSystemParams params;
  params.roster = roster;
  TripSystem system = TripSystem::Create(params, rng);
  Vsd vsd = system.MakeVsd();
  for (const auto& id : roster) {
    auto voter = RegisterAndActivate(system, id, 1, vsd, rng);
    ASSERT_TRUE(voter.ok()) << id << ": " << voter.status.reason();
  }
  EXPECT_EQ(system.ledger().ActiveRegistrations().size(), 10u);
  EXPECT_EQ(vsd.credentials().size(), 20u);
  EXPECT_TRUE(system.ledger().VerifyChains().ok());
}

}  // namespace
}  // namespace votegral
