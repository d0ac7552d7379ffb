// Tests for ledger persistence: save/load round trips, index rebuilding,
// and tamper-evidence at rest.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "src/crypto/drbg.h"
#include "src/ledger/persistence.h"
#include "src/votegral/election.h"

namespace votegral {
namespace {

TEST(Persistence, PlainLedgerRoundTrip) {
  Ledger ledger;
  for (int i = 0; i < 9; ++i) {
    ledger.Append("topic-" + std::to_string(i % 2), Bytes{static_cast<uint8_t>(i)});
  }
  Bytes wire = SerializeLedger(ledger);
  auto restored = ParseLedger(wire);
  ASSERT_TRUE(restored.ok()) << restored.status.reason();
  EXPECT_EQ(restored->size(), ledger.size());
  EXPECT_EQ(restored->Head(), ledger.Head());
  EXPECT_EQ(restored->MerkleRoot(), ledger.MerkleRoot());
}

TEST(Persistence, TamperedFileIsRejected) {
  Ledger ledger;
  ledger.Append("t", Bytes{1, 2, 3});
  ledger.Append("t", Bytes{4, 5, 6});
  Bytes wire = SerializeLedger(ledger);
  // Flip a payload byte: the recomputed head no longer matches the stored
  // one.
  Bytes tampered = wire;
  tampered[12] ^= 1;
  auto restored = ParseLedger(tampered);
  EXPECT_FALSE(restored.ok());
  // Truncation is caught too.
  Bytes truncated(wire.begin(), wire.end() - 5);
  EXPECT_FALSE(ParseLedger(truncated).ok());
}

TEST(Persistence, FullElectionStateSurvivesRoundTrip) {
  ChaChaRng rng(900);
  ElectionConfig config;
  config.roster = {"alice", "bob"};
  config.candidates = {"A", "B"};
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 1, vsd, rng);
  auto bob = election.Register("bob", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "A", rng).ok());
  ASSERT_TRUE(election.Cast(alice->activated[1], "B", rng).ok());
  ASSERT_TRUE(election.Cast(bob->activated[0], "B", rng).ok());

  Bytes wire = SerializePublicLedger(election.ledger());
  auto restored = ParsePublicLedger(wire);
  ASSERT_TRUE(restored.ok()) << restored.status.reason();

  // Derived indices rebuilt: roster, registrations, challenges, ballots.
  EXPECT_EQ(restored->eligible_count(), 2u);
  EXPECT_TRUE(restored->IsEligible("alice"));
  EXPECT_EQ(restored->ActiveRegistrations().size(), 2u);
  EXPECT_EQ(restored->revealed_challenge_count(),
            election.ledger().revealed_challenge_count());
  EXPECT_EQ(restored->AllBallots().size(), 3u);
  EXPECT_TRUE(restored->VerifyChains().ok());

  // The restored ledger supports the same queries (supersede semantics etc.)
  auto record = restored->ActiveRegistration("alice");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->public_credential,
            election.ledger().ActiveRegistration("alice")->public_credential);

  // A duplicate challenge reveal is still refused after restore.
  // (Re-reveal of the first credential's challenge.)
  EXPECT_FALSE(restored->RevealEnvelopeChallenge(alice->paper.real.envelope.challenge).ok());
}

TEST(Persistence, AuditFromRestoredLedger) {
  // The offline-audit scenario: tally on the live system, write the ledger
  // to disk, reload it elsewhere, and run universal verification against
  // the published transcript.
  ChaChaRng rng(901);
  ElectionConfig config;
  config.roster = {"alice", "bob", "carol"};
  config.candidates = {"A", "B"};
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  for (const char* id : {"alice", "bob", "carol"}) {
    auto voter = election.Register(id, 1, vsd, rng);
    ASSERT_TRUE(voter.ok());
    ASSERT_TRUE(election.Cast(voter->activated[0], "A", rng).ok());
  }
  TallyOutput output = election.Tally(rng);
  ASSERT_TRUE(election.Verify(output).ok());

  const std::string path = "/tmp/votegral_audit_test.ledger";
  ASSERT_TRUE(SavePublicLedger(election.ledger(), path).ok());
  auto restored = LoadPublicLedger(path);
  ASSERT_TRUE(restored.ok()) << restored.status.reason();
  std::remove(path.c_str());

  // The auditor verifies from the restored state + public parameters only.
  Status verdict = VerifyElection(*restored, election.verifier_params(),
                                  election.candidates(), output);
  EXPECT_TRUE(verdict.ok()) << verdict.reason();
}

TEST(Persistence, MissingFileFailsCleanly) {
  auto restored = LoadPublicLedger("/tmp/does-not-exist-votegral.ledger");
  EXPECT_FALSE(restored.ok());
}

TEST(Persistence, DirectoryInsteadOfSnapshotFailsUnavailable) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("votegral_snapshot_dir_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::create_directories(dir);
  auto restored = LoadPublicLedger(dir);
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status.code(), StatusCode::kUnavailable) << restored.status.reason();
  EXPECT_NE(restored.status.reason().find(dir), std::string::npos) << restored.status.reason();
}

}  // namespace
}  // namespace votegral
