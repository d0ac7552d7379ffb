// Additional adversarial coverage beyond test_trip_attacks: corrupt
// check-out officials, ballot-log flooding (the linear-filter defense of
// Appendix M / [82]), ballot replay and malleability, and cross-voter
// credential substitution.
#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/crypto/drbg.h"
#include "src/trip/registrar.h"
#include "src/votegral/election.h"

namespace votegral {
namespace {

ElectionConfig SmallConfig(std::vector<std::string> roster) {
  ElectionConfig config;
  config.roster = std::move(roster);
  config.candidates = {"A", "B"};
  return config;
}

TEST(MaliciousOfficial, UnauthorizedKioskRejectedAtCheckOut) {
  // A corrupt desk tries to check out a credential "issued" by a rogue
  // kiosk the authority never certified.
  ChaChaRng rng(1000);
  TripSystemParams params;
  params.roster = {"alice"};
  TripSystem system = TripSystem::Create(params, rng);

  Kiosk rogue(SchnorrKeyPair::Generate(rng), system.shared_mac_key(),
              system.authority_pk());
  auto ticket = system.official().CheckIn("alice", system.ledger());
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(rogue.StartSession(*ticket).ok());
  auto printed = rogue.BeginRealCredential(rng);
  ASSERT_TRUE(printed.ok());
  auto envelope = system.booth_envelopes().TakeWithSymbol(printed->symbol, rng);
  ASSERT_TRUE(envelope.ok());
  auto credential = rogue.FinishRealCredential(*envelope, rng);
  ASSERT_TRUE(credential.ok());

  Status checkout = system.official().CheckOut(
      credential->checkout, system.authorized_kiosks(), system.ledger(), rng);
  EXPECT_FALSE(checkout.ok());
  EXPECT_NE(checkout.reason().find("unauthorized"), std::string::npos);
}

TEST(MaliciousOfficial, ForgedRecordFailsPublicVerification) {
  // An official who invents a registration record (e.g. to impersonate an
  // absent voter) cannot produce a valid kiosk signature for it.
  ChaChaRng rng(1001);
  TripSystemParams params;
  params.roster = {"alice"};
  TripSystem system = TripSystem::Create(params, rng);

  RegistrationRecord forged;
  forged.voter_id = "alice";
  forged.public_credential =
      ElGamalEncrypt(system.authority_pk(), RistrettoPoint::Base(), rng);
  forged.kiosk_pk = system.kiosk().public_key();
  SchnorrKeyPair official_key = SchnorrKeyPair::Generate(rng);
  forged.kiosk_sig = official_key.Sign(AsBytes("not a kiosk"), rng);  // garbage
  forged.official_pk = official_key.public_bytes();
  forged.official_sig = official_key.Sign(AsBytes("self-approved"), rng);
  ASSERT_TRUE(system.ledger().PostRegistration(forged).ok());  // ledger accepts bytes...

  // ...but the public record verification (run by auditors and the
  // universal verifier) rejects it.
  Status verdict = VerifyRegistrationRecord(forged, system.authorized_kiosks(),
                                            system.authorized_officials());
  EXPECT_FALSE(verdict.ok());
  // And the voter's device notices the unexpected registration event.
  Vsd vsd = system.MakeVsd();
  EXPECT_EQ(vsd.UnexpectedRegistrationEvents("alice", system.ledger()), 1u);
}

TEST(BoardFlooding, InvalidBallotsRejectedLinearly) {
  // Appendix M / [82]: because every ballot must carry a kiosk certificate,
  // flooding the board costs the attacker real rejections, each O(1) — the
  // tally never enters the quadratic JCJ regime.
  ChaChaRng rng(1002);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "A", rng).ok());

  // Flood with 200 self-signed ballots.
  for (int i = 0; i < 200; ++i) {
    SchnorrKeyPair forged = SchnorrKeyPair::Generate(rng);
    Ballot junk;
    junk.encrypted_vote =
        ElGamalEncrypt(election.trip().authority_pk(), RistrettoPoint::Base(), rng);
    junk.credential_pk = forged.public_bytes();
    junk.kiosk_pk = forged.public_bytes();
    junk.kiosk_cert = forged.Sign(AsBytes("x"), rng);
    junk.credential_sig = forged.Sign(junk.SignedPayload(), rng);
    election.ledger().PostBallot(junk.Serialize());
  }

  TallyDiscards discards;
  WallTimer timer;
  std::vector<Ballot> accepted = ValidateAndDeduplicate(
      election.ledger(), election.trip().authorized_kiosks(), &discards);
  double elapsed = timer.Seconds();
  EXPECT_EQ(accepted.size(), 1u);
  EXPECT_EQ(discards.invalid_signature, 200u);
  // O(1) per junk ballot: the whole flood filters in well under a second.
  EXPECT_LT(elapsed, 2.0);

  // The tally and verification still succeed.
  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 1u);
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(BallotMalleability, ResignedCopyCannotHijackAVote) {
  // An attacker lifts Alice's posted ballot, swaps the encrypted vote for
  // its own, and re-posts. Without c_sk it cannot re-sign: the mutated
  // ballot fails the credential signature check.
  ChaChaRng rng(1003);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "A", rng).ok());

  auto posted = Ballot::Parse(election.ledger().AllBallots()[0]);
  ASSERT_TRUE(posted.ok());
  Ballot mutated = *posted;
  mutated.encrypted_vote =
      ElGamalEncrypt(election.trip().authority_pk(),
                     RistrettoPoint::HashToGroup("votegral/candidate/v1", AsBytes("B")), rng);
  election.ledger().PostBallot(mutated.Serialize());

  TallyOutput output = election.Tally(rng);
  // The mutated "later" ballot is rejected (bad signature), so it does NOT
  // supersede Alice's genuine ballot.
  EXPECT_EQ(output.result.counts.at("A"), 1u);
  EXPECT_EQ(output.result.counts.at("B"), 0u);
  EXPECT_EQ(output.result.discards.invalid_signature, 1u);
}

TEST(BallotReplay, ExactReplaySupersedesHarmlessly) {
  // Replaying the identical ballot bytes is valid (same signature) but
  // changes nothing: dedup keeps one ballot with the same vote.
  ChaChaRng rng(1004);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "A", rng).ok());
  Bytes ballot_bytes = election.ledger().AllBallots()[0];
  election.ledger().PostBallot(ballot_bytes);
  election.ledger().PostBallot(ballot_bytes);

  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 1u);
  EXPECT_EQ(output.result.counts.at("A"), 1u);
  EXPECT_EQ(output.result.discards.superseded, 2u);
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(CredentialSubstitution, CoercerCannotUseVictimsCertForOwnKey) {
  // The §4.5 "credential signing" defense: the kiosk certificate binds the
  // exact credential key, so a coercer cannot graft Alice's certificate
  // onto a key it controls (the forged-related-credential attack of [142]).
  ChaChaRng rng(1005);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());

  SchnorrKeyPair attacker = SchnorrKeyPair::Generate(rng);
  ActivatedCredential franken = alice->activated[0];
  franken.credential_sk = attacker.secret();
  franken.credential_pk = attacker.public_bytes();
  // kiosk_response_sig still covers Alice's original c_pk.
  Ballot ballot = MakeBallot(franken, election.candidates(), 1,
                             election.trip().authority_pk(), rng);
  EXPECT_FALSE(CheckBallot(ballot, election.trip().authorized_kiosks()).ok());
}

TEST(Availability, TallyToleratesGarbageAndEmptyLogs) {
  // Defensive-parsing sweep at the tally boundary: arbitrary junk in L_V
  // must never break the pipeline.
  ChaChaRng rng(1006);
  Election election(SmallConfig({"alice"}), rng);
  for (int i = 0; i < 50; ++i) {
    election.ledger().PostBallot(rng.RandomBytes(rng.Uniform(300)));
  }
  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 0u);
  EXPECT_EQ(output.result.discards.invalid_structure +
                output.result.discards.invalid_signature,
            50u);
  EXPECT_TRUE(election.Verify(output).ok());
}

}  // namespace
}  // namespace votegral
