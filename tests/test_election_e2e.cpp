// End-to-end election tests: the paper's Fig. 3 walkthrough (Alice with one
// real and one fake credential), coercion scenarios, re-voting, and the
// universal verifier's rejection of every tamper class.
#include <gtest/gtest.h>

#include "src/crypto/drbg.h"
#include "src/votegral/election.h"

namespace votegral {
namespace {

ElectionConfig SmallConfig(std::vector<std::string> roster) {
  ElectionConfig config;
  config.roster = std::move(roster);
  config.candidates = {"Alice's Choice", "Coercer's Choice", "Third Option"};
  return config;
}

TEST(ElectionE2E, Fig3Walkthrough) {
  // Alice creates one real and one fake credential, casts her true vote with
  // the real one and a coerced vote with the fake one. Only the real vote
  // counts.
  ChaChaRng rng(150);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 1, vsd, rng);
  ASSERT_TRUE(alice.ok()) << alice.status.reason();

  const ActivatedCredential& real = alice->activated[0];
  const ActivatedCredential& fake = alice->activated[1];
  ASSERT_TRUE(election.Cast(real, "Alice's Choice", rng).ok());
  ASSERT_TRUE(election.Cast(fake, "Coercer's Choice", rng).ok());

  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 1u);
  EXPECT_EQ(output.result.counts.at("Alice's Choice"), 1u);
  EXPECT_EQ(output.result.counts.at("Coercer's Choice"), 0u);
  EXPECT_EQ(output.result.discards.unmatched_tag, 1u);  // the fake ballot

  // Universal verification passes.
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(ElectionE2E, MultiVoterElection) {
  ChaChaRng rng(151);
  std::vector<std::string> roster;
  for (int i = 0; i < 8; ++i) {
    roster.push_back("voter-" + std::to_string(i));
  }
  Election election(SmallConfig(roster), rng);
  Vsd vsd = election.trip().MakeVsd();

  // Voters 0-4 vote candidate 0; 5-6 vote candidate 1; 7 abstains.
  // Everyone also creates one fake and casts a decoy vote for candidate 1.
  for (int i = 0; i < 8; ++i) {
    auto voter = election.Register(roster[static_cast<size_t>(i)], 1, vsd, rng);
    ASSERT_TRUE(voter.ok());
    if (i < 7) {
      const char* choice = i < 5 ? "Alice's Choice" : "Coercer's Choice";
      ASSERT_TRUE(election.Cast(voter->activated[0], choice, rng).ok());
    }
    ASSERT_TRUE(election.Cast(voter->activated[1], "Coercer's Choice", rng).ok());
  }

  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 7u);
  EXPECT_EQ(output.result.counts.at("Alice's Choice"), 5u);
  EXPECT_EQ(output.result.counts.at("Coercer's Choice"), 2u);
  EXPECT_EQ(output.result.discards.unmatched_tag, 8u);  // 8 fake ballots
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(ElectionE2E, ReVotingLastBallotCounts) {
  ChaChaRng rng(152);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  // Alice changes her mind twice; the last cast ballot wins.
  ASSERT_TRUE(election.Cast(alice->activated[0], "Alice's Choice", rng).ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "Third Option", rng).ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "Coercer's Choice", rng).ok());

  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 1u);
  EXPECT_EQ(output.result.counts.at("Coercer's Choice"), 1u);
  EXPECT_EQ(output.result.discards.superseded, 2u);
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(ElectionE2E, StolenRealCredentialDoubleCastDeduplicates) {
  // If a coercer obtains the voter's *real* credential and votes with it,
  // then the voter re-votes later, the last ballot under that credential
  // counts — the re-voting defense within the fake-credential design.
  ChaChaRng rng(153);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "Coercer's Choice", rng).ok());  // coercer
  ASSERT_TRUE(election.Cast(alice->activated[0], "Alice's Choice", rng).ok());    // Alice later

  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counts.at("Alice's Choice"), 1u);
  EXPECT_EQ(output.result.counts.at("Coercer's Choice"), 0u);
}

TEST(ElectionE2E, UnregisteredCredentialNeverCounts) {
  // A forged "credential" (random keys, no kiosk certificate) is rejected at
  // validation; a fake credential passes validation but never matches a tag.
  ChaChaRng rng(154);
  Election election(SmallConfig({"alice", "bob"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 2, vsd, rng);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "Alice's Choice", rng).ok());

  // Forge a ballot with self-made keys and a self-signed "certificate".
  SchnorrKeyPair forged = SchnorrKeyPair::Generate(rng);
  ActivatedCredential bogus;
  bogus.voter_id = "alice";
  bogus.credential_sk = forged.secret();
  bogus.credential_pk = forged.public_bytes();
  bogus.kiosk_pk = forged.public_bytes();  // not an authorized kiosk
  bogus.kiosk_response_sig = forged.Sign(AsBytes("x"), rng);
  bogus.challenge_response_hash.fill(7);
  ASSERT_TRUE(election.Cast(bogus, "Coercer's Choice", rng).ok());  // posts to ledger

  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 1u);
  EXPECT_EQ(output.result.counts.at("Coercer's Choice"), 0u);
  EXPECT_EQ(output.result.discards.invalid_signature, 1u);
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(ElectionE2E, AbstentionAndEmptyTally) {
  ChaChaRng rng(155);
  Election election(SmallConfig({"alice", "bob"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  ASSERT_TRUE(election.Register("alice", 1, vsd, rng).ok());
  // Nobody casts anything.
  TallyOutput output = election.Tally(rng);
  EXPECT_EQ(output.result.counted, 0u);
  EXPECT_TRUE(election.Verify(output).ok());
}

TEST(ElectionE2E, CastRejectsUnknownCandidate) {
  ChaChaRng rng(156);
  Election election(SmallConfig({"alice"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  EXPECT_FALSE(election.Cast(alice->activated[0], "Write-In Willy", rng).ok());
}

TEST(ElectionVerifier, RejectsForgedResultAndTranscript) {
  ChaChaRng rng(157);
  Election election(SmallConfig({"alice", "bob", "carol"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  for (const char* id : {"alice", "bob", "carol"}) {
    auto voter = election.Register(id, 1, vsd, rng);
    ASSERT_TRUE(voter.ok());
    ASSERT_TRUE(election.Cast(voter->activated[0], "Alice's Choice", rng).ok());
    ASSERT_TRUE(election.Cast(voter->activated[1], "Coercer's Choice", rng).ok());
  }
  TallyOutput good = election.Tally(rng);
  ASSERT_TRUE(election.Verify(good).ok());

  // (1) Announce flipped counts.
  {
    TallyOutput bad = good;
    bad.result.counts["Coercer's Choice"] = 3;
    bad.result.counts["Alice's Choice"] = 0;
    EXPECT_FALSE(election.Verify(bad).ok());
  }
  // (2) Drop a counted ballot.
  {
    TallyOutput bad = good;
    ASSERT_FALSE(bad.transcript.counted_indices.empty());
    bad.transcript.counted_indices.pop_back();
    bad.transcript.counted_weights.pop_back();
    bad.transcript.vote_shares.pop_back();
    bad.transcript.vote_points.pop_back();
    EXPECT_FALSE(election.Verify(bad).ok());
  }
  // (3) Substitute a mixed ballot (mix output tamper).
  {
    TallyOutput bad = good;
    bad.transcript.ballot_mix_output[0].cts[0] =
        ElGamalEncrypt(election.trip().authority_pk(), RistrettoPoint::Base(), rng);
    EXPECT_FALSE(election.Verify(bad).ok());
  }
  // (4) Claim a different tag list (join tamper).
  {
    TallyOutput bad = good;
    ASSERT_FALSE(bad.transcript.ballot_tags.empty());
    bad.transcript.ballot_tags[0] = bad.transcript.roster_tags[0];
    EXPECT_FALSE(election.Verify(bad).ok());
  }
  // (5) Remove a tagging step (skip a tallier).
  {
    TallyOutput bad = good;
    bad.transcript.roster_tag_steps.pop_back();
    EXPECT_FALSE(election.Verify(bad).ok());
  }
  // (6) Tamper with a vote decryption share.
  {
    TallyOutput bad = good;
    ASSERT_FALSE(bad.transcript.vote_shares.empty());
    bad.transcript.vote_shares[0][0].share =
        bad.transcript.vote_shares[0][0].share + RistrettoPoint::Base();
    EXPECT_FALSE(election.Verify(bad).ok());
  }
  // (7) Tamper with the ballot log after tallying.
  {
    TallyOutput bad = good;
    election.ledger().PostBallot(Bytes{1, 2, 3});  // unaccounted garbage entry
    // The verifier recomputes ValidateAndDeduplicate; a garbage entry only
    // adds an invalid_structure discard, so verification still passes...
    EXPECT_TRUE(election.Verify(bad).ok());
    // ...but a *valid* late ballot changes the accepted set and is caught.
    Vsd vsd2 = election.trip().MakeVsd();
    // alice re-registers on a new device and casts after the tally.
    auto again = election.Register("alice", 0, vsd2, rng);
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE(election.Cast(again->activated[0], "Third Option", rng).ok());
    EXPECT_FALSE(election.Verify(bad).ok());
  }
}

TEST(ElectionVerifier, BallotMixInputComparesWiredItemsByTheirBytes) {
  // A mix input item is checked by its bytes against the accepted ballot's,
  // and an item without bytes differs from it; either way a swapped item is
  // named by the same reason. A stale cache that copies the honest bytes
  // passes the byte check and is caught by the cascade's input validation.
  ChaChaRng rng(158);
  Election election(SmallConfig({"alice", "bob", "carol"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  for (const char* id : {"alice", "bob", "carol"}) {
    auto voter = election.Register(id, 1, vsd, rng);
    ASSERT_TRUE(voter.ok());
    ASSERT_TRUE(election.Cast(voter->activated[0], "Alice's Choice", rng).ok());
  }
  TallyOutput good = election.Tally(rng);
  ASSERT_TRUE(election.Verify(good).ok());
  ASSERT_GE(good.transcript.ballot_mix_input.size(), 2u);
  const MixItem& first = good.transcript.ballot_mix_input[0];
  ASSERT_EQ(first.wire.size(), 64 * first.cts.size());

  for (bool wired : {true, false}) {
    SCOPED_TRACE(wired ? "wired" : "unwired");
    TallyOutput bad = good;
    MixBatch& input = bad.transcript.ballot_mix_input;
    std::swap(input[0], input[1]);
    if (!wired) {
      for (MixItem& item : input) {
        item.wire.clear();
      }
    }
    Status status = election.Verify(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.reason(), "verifier: ballot mix input 0 differs");
  }
  {
    TallyOutput bad = good;
    MixBatch& input = bad.transcript.ballot_mix_input;
    input[0].cts = input[1].cts;  // item 0 keeps its own, now stale, bytes
    Status status = election.Verify(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.reason().find("input: wire cache does not match points at index 0"),
              std::string::npos)
        << status.reason();
  }
}

TEST(ElectionVerifier, PublishedDiscardsMustMatchTheReplay) {
  // Every voter recasts with the real credential and casts once with a
  // fake one, so the tally supersedes and discards unmatched tags. The
  // verifier recomputes superseded, unmatched_tag, duplicate_tag and
  // invalid_vote, and a tally that misreports one is rejected by name.
  for (bool revoting : {false, true}) {
    SCOPED_TRACE(revoting ? "revoting" : "legacy");
    ChaChaRng rng(159);
    ElectionConfig config = SmallConfig({"alice", "bob", "carol"});
    config.revoting = revoting;
    Election election(config, rng);
    Vsd vsd = election.trip().MakeVsd();
    for (const char* id : {"alice", "bob", "carol"}) {
      auto voter = election.Register(id, 1, vsd, rng);
      ASSERT_TRUE(voter.ok());
      ASSERT_TRUE(election.Cast(voter->activated[0], "Coercer's Choice", rng).ok());
      ASSERT_TRUE(election.Cast(voter->activated[0], "Alice's Choice", rng).ok());
      ASSERT_TRUE(election.Cast(voter->activated[1], "Coercer's Choice", rng).ok());
    }
    TallyOutput good = election.Tally(rng);
    ASSERT_TRUE(election.Verify(good).ok());
    const TallyDiscards& d = good.result.discards;
    if (!revoting) {
      EXPECT_EQ(d.unmatched_tag, 3u);
      EXPECT_EQ(d.superseded, 3u);
      // The tamper that used to verify: no fake-credential ballots, and a
      // thousand bad signatures.
      TallyOutput bad = good;
      bad.result.discards.unmatched_tag = 0;
      bad.result.discards.invalid_signature = 1000;
      EXPECT_EQ(election.Verify(bad).reason(),
                "verifier: published discards.unmatched_tag is 0, the replay gives 3");
    }
    const std::pair<const char*, size_t TallyDiscards::*> counters[] = {
        {"superseded", &TallyDiscards::superseded},
        {"unmatched_tag", &TallyDiscards::unmatched_tag},
        {"duplicate_tag", &TallyDiscards::duplicate_tag},
        {"invalid_vote", &TallyDiscards::invalid_vote},
    };
    for (const auto& [name, field] : counters) {
      TallyOutput bad = good;
      bad.result.discards.*field += 1;
      EXPECT_EQ(election.Verify(bad).reason(),
                "verifier: published discards." + std::string(name) + " is " +
                    std::to_string(good.result.discards.*field + 1) + ", the replay gives " +
                    std::to_string(good.result.discards.*field));
    }
    // Not checked until a close of polls fixes the tallied board prefix: a
    // garbage entry posted after the tally moves these two.
    TallyOutput moved = good;
    moved.result.discards.invalid_structure += 1;
    moved.result.discards.invalid_signature += 1;
    EXPECT_TRUE(election.Verify(moved).ok());
  }
}

TEST(ElectionE2E, CredentialsReusableAcrossElections) {
  // The amortization property (§3.1): the same TRIP credentials vote in two
  // successive tallies without re-registration.
  ChaChaRng rng(158);
  Election election(SmallConfig({"alice", "bob"}), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 1, vsd, rng);
  auto bob = election.Register("bob", 1, vsd, rng);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  // Election round 1.
  ASSERT_TRUE(election.Cast(alice->activated[0], "Alice's Choice", rng).ok());
  ASSERT_TRUE(election.Cast(bob->activated[0], "Coercer's Choice", rng).ok());
  TallyOutput round1 = election.Tally(rng);
  EXPECT_EQ(round1.result.counted, 2u);

  // Round 2: same credentials, new votes (re-voting semantics apply within
  // one ballot log; a production deployment opens a fresh L_V per election —
  // here the later ballots supersede, which exercises the same property).
  ASSERT_TRUE(election.Cast(alice->activated[0], "Third Option", rng).ok());
  ASSERT_TRUE(election.Cast(bob->activated[0], "Third Option", rng).ok());
  TallyOutput round2 = election.Tally(rng);
  EXPECT_EQ(round2.result.counted, 2u);
  EXPECT_EQ(round2.result.counts.at("Third Option"), 2u);
  EXPECT_TRUE(election.Verify(round2).ok());
}

}  // namespace
}  // namespace votegral
