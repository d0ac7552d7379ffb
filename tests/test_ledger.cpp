// Tests for the tamper-evident ledger and the typed sub-ledgers, against the
// storage-backend API: cursor streaming, incremental Merkle commitments and
// the deprecated index-poke shims.
#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/ledger/ledger.h"
#include "src/ledger/subledgers.h"

namespace votegral {
namespace {

Bytes Payload(const std::string& s) { return Bytes(s.begin(), s.end()); }

// Materializes entry `index` through the cursor API (the supported way to
// read one entry).
LedgerEntry EntryAt(const Ledger& ledger, uint64_t index) {
  LedgerCursor cursor = ledger.Scan(index, index + 1);
  LedgerEntryView view;
  EXPECT_TRUE(cursor.Next(&view));
  return view.Materialize();
}

TEST(Ledger, AppendAndRead) {
  Ledger ledger;
  EXPECT_EQ(ledger.size(), 0u);
  uint64_t a = ledger.Append("topic-a", Payload("hello"));
  uint64_t b = ledger.Append("topic-b", Payload("world"));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(EntryAt(ledger, 0).topic, "topic-a");
  EXPECT_EQ(EntryAt(ledger, 1).payload, Payload("world"));
  // A cursor past the end yields nothing.
  LedgerEntryView view;
  EXPECT_FALSE(ledger.Scan(2).Next(&view));
}

TEST(Ledger, CursorStreamsInOrder) {
  Ledger ledger;
  for (int i = 0; i < 10; ++i) {
    ledger.Append("t", Payload(std::to_string(i)));
  }
  LedgerCursor cursor = ledger.Scan();
  LedgerEntryView view;
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(cursor.Next(&view));
    EXPECT_EQ(view.index, i);
    EXPECT_EQ(Bytes(view.payload.begin(), view.payload.end()), Payload(std::to_string(i)));
  }
  EXPECT_FALSE(cursor.Next(&view));

  // Bounded range + seek.
  LedgerCursor range = ledger.Scan(3, 6);
  ASSERT_TRUE(range.Next(&view));
  EXPECT_EQ(view.index, 3u);
  range.Seek(5);
  ASSERT_TRUE(range.Next(&view));
  EXPECT_EQ(view.index, 5u);
  EXPECT_FALSE(range.Next(&view));
  // Seek clamps at both ends of the construction-time range: a shard's
  // cursor cannot wander into another shard's entries.
  range.Seek(0);
  ASSERT_TRUE(range.Next(&view));
  EXPECT_EQ(view.index, 3u);
  range.Seek(9);
  EXPECT_FALSE(range.Next(&view));
}

TEST(Ledger, SeekAndTopicIndexReplaceRandomAccess) {
  // The cursor + TopicIndices pair covers everything the removed
  // random-access shims (At / IndicesWithTopic) did.
  Ledger ledger;
  ledger.Append("a", Payload("1"));
  ledger.Append("b", Payload("2"));
  LedgerCursor cursor = ledger.Scan();
  LedgerEntryView view;
  ASSERT_TRUE(cursor.Next(&view));
  EXPECT_EQ(view.topic, "a");
  cursor.Seek(1);
  ASSERT_TRUE(cursor.Next(&view));
  EXPECT_EQ(view.Materialize().payload, Payload("2"));
  EXPECT_FALSE(cursor.Next(&view));
  const std::vector<uint64_t>& indices = ledger.TopicIndices("a");
  ASSERT_EQ(indices.size(), 1u);
  EXPECT_EQ(indices[0], 0u);
}

TEST(Ledger, ChainVerifies) {
  Ledger ledger;
  for (int i = 0; i < 20; ++i) {
    ledger.Append("t", Payload("entry " + std::to_string(i)));
  }
  EXPECT_TRUE(ledger.VerifyChain().ok());
}

TEST(Ledger, TamperingIsDetected) {
  Ledger ledger;
  for (int i = 0; i < 10; ++i) {
    ledger.Append("t", Payload("entry " + std::to_string(i)));
  }
  ledger.TamperWithPayloadForTest(4, Payload("forged"));
  Status status = ledger.VerifyChain();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("4"), std::string::npos);
}

TEST(Ledger, HeadChangesOnAppend) {
  Ledger ledger;
  auto h0 = ledger.Head();
  ledger.Append("t", Payload("x"));
  auto h1 = ledger.Head();
  ledger.Append("t", Payload("y"));
  auto h2 = ledger.Head();
  EXPECT_NE(h0, h1);
  EXPECT_NE(h1, h2);
}

TEST(Ledger, InclusionProofsVerify) {
  Ledger ledger;
  for (int i = 0; i < 13; ++i) {  // deliberately not a power of two
    ledger.Append("t", Payload("entry " + std::to_string(i)));
  }
  auto root = ledger.MerkleRoot();
  for (uint64_t i = 0; i < 13; ++i) {
    auto proof = ledger.ProveInclusion(i);
    ASSERT_TRUE(proof.ok()) << proof.status.reason();
    EXPECT_TRUE(Ledger::VerifyInclusion(root, ledger.LeafHash(i), *proof).ok())
        << "entry " << i;
  }
}

TEST(Ledger, InclusionProofRejectsWrongLeafOrRoot) {
  Ledger ledger;
  for (int i = 0; i < 8; ++i) {
    ledger.Append("t", Payload("entry " + std::to_string(i)));
  }
  auto root = ledger.MerkleRoot();
  auto proof = ledger.ProveInclusion(3);
  ASSERT_TRUE(proof.ok());
  // Wrong leaf.
  EXPECT_FALSE(Ledger::VerifyInclusion(root, ledger.LeafHash(4), *proof).ok());
  // Wrong root.
  LedgerHash bad_root = root;
  bad_root[0] ^= 1;
  EXPECT_FALSE(Ledger::VerifyInclusion(bad_root, ledger.LeafHash(3), *proof).ok());
  // Mutated path.
  auto bad_proof = *proof;
  bad_proof.path[0][0] ^= 1;
  EXPECT_FALSE(Ledger::VerifyInclusion(root, ledger.LeafHash(3), bad_proof).ok());
}

TEST(Ledger, ProofBoundsAreStatusValuesNotUb) {
  Ledger ledger;
  // Empty ledger: proving is a value failure, not UB or a throw.
  auto empty = ledger.ProveInclusion(0);
  EXPECT_FALSE(empty.ok());
  EXPECT_NE(empty.status.reason().find("empty"), std::string::npos);

  ledger.Append("t", Payload("x"));
  ledger.Append("t", Payload("y"));
  auto oob = ledger.ProveInclusion(2);
  EXPECT_FALSE(oob.ok());
  EXPECT_NE(oob.status.reason().find("out of range"), std::string::npos);
  EXPECT_NE(oob.status.reason().find("2"), std::string::npos);

  // Verification-side bounds: index >= tree_size and empty trees are named.
  InclusionProof malformed;
  malformed.index = 5;
  malformed.tree_size = 3;
  Status bad_index = Ledger::VerifyInclusion(ledger.MerkleRoot(), ledger.LeafHash(0),
                                             malformed);
  EXPECT_FALSE(bad_index.ok());
  EXPECT_NE(bad_index.reason().find(">= tree size"), std::string::npos);

  malformed.index = 0;
  malformed.tree_size = 0;
  Status empty_tree = Ledger::VerifyInclusion(ledger.MerkleRoot(), ledger.LeafHash(0),
                                              malformed);
  EXPECT_FALSE(empty_tree.ok());
  EXPECT_NE(empty_tree.reason().find("empty tree"), std::string::npos);
}

TEST(Ledger, SingleEntryTree) {
  Ledger ledger;
  ledger.Append("t", Payload("only"));
  auto proof = ledger.ProveInclusion(0);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(proof->path.empty());
  EXPECT_TRUE(Ledger::VerifyInclusion(ledger.MerkleRoot(), ledger.LeafHash(0), *proof).ok());
}

TEST(Ledger, TopicIndexMaintainedAtAppend) {
  Ledger ledger;
  ledger.Append("a", Payload("1"));
  ledger.Append("b", Payload("2"));
  ledger.Append("a", Payload("3"));
  const auto& indices = ledger.TopicIndices("a");
  ASSERT_EQ(indices.size(), 2u);
  EXPECT_EQ(indices[0], 0u);
  EXPECT_EQ(indices[1], 2u);
  EXPECT_TRUE(ledger.TopicIndices("missing").empty());

  // Topic cursor walks exactly the matching entries, in order.
  TopicCursor cursor = ledger.ScanTopic("a");
  LedgerEntryView view;
  ASSERT_TRUE(cursor.Next(&view));
  EXPECT_EQ(Bytes(view.payload.begin(), view.payload.end()), Payload("1"));
  ASSERT_TRUE(cursor.Next(&view));
  EXPECT_EQ(Bytes(view.payload.begin(), view.payload.end()), Payload("3"));
  EXPECT_FALSE(cursor.Next(&view));
}

TEST(Ledger, CommitmentsAreIncremental) {
  Ledger ledger;
  const uint64_t n = 3000;
  for (uint64_t i = 0; i < n; ++i) {
    ledger.Append("t", Payload(std::to_string(i)));
  }
  // MerkleRoot folds the frontier: O(log n) internal hashes per call, not a
  // full-tree recompute (which would be ~n hashes).
  uint64_t before = ledger.MerkleHashInvocationsForTest();
  auto root = ledger.MerkleRoot();
  auto root_again = ledger.MerkleRoot();
  uint64_t root_cost = ledger.MerkleHashInvocationsForTest() - before;
  EXPECT_EQ(root, root_again);
  EXPECT_LE(root_cost, 2 * 64u) << "MerkleRoot is recomputing the tree";

  // ProveInclusion reads stored nodes plus the right spine: O(log^2 n)
  // worst case, far below one full-tree recompute.
  before = ledger.MerkleHashInvocationsForTest();
  auto proof = ledger.ProveInclusion(n / 2);
  ASSERT_TRUE(proof.ok());
  uint64_t proof_cost = ledger.MerkleHashInvocationsForTest() - before;
  EXPECT_LE(proof_cost, 500u) << "ProveInclusion is recomputing the tree";
  EXPECT_LT(proof_cost, n / 2);
  EXPECT_TRUE(Ledger::VerifyInclusion(root, ledger.LeafHash(n / 2), *proof).ok());
}

// ---------------------------------------------------------------------------
// PublicLedger (sub-ledger semantics)
// ---------------------------------------------------------------------------

RegistrationRecord MakeRecord(const std::string& voter, Rng& rng) {
  auto kiosk = SchnorrKeyPair::Generate(rng);
  auto official = SchnorrKeyPair::Generate(rng);
  RegistrationRecord record;
  record.voter_id = voter;
  record.public_credential = ElGamalEncrypt(RistrettoPoint::Base(), RistrettoPoint::Base(), rng);
  record.kiosk_pk = kiosk.public_bytes();
  record.kiosk_sig = kiosk.Sign(AsBytes("x"), rng);
  record.official_pk = official.public_bytes();
  record.official_sig = official.Sign(AsBytes("y"), rng);
  return record;
}

TEST(PublicLedger, EligibilityGate) {
  ChaChaRng rng(90);
  PublicLedger ledger;
  ledger.AddEligibleVoter("alice");
  EXPECT_TRUE(ledger.IsEligible("alice"));
  EXPECT_FALSE(ledger.IsEligible("mallory"));
  EXPECT_TRUE(ledger.PostRegistration(MakeRecord("alice", rng)).ok());
  EXPECT_FALSE(ledger.PostRegistration(MakeRecord("mallory", rng)).ok());
}

TEST(PublicLedger, RosterIsTamperEvident) {
  PublicLedger ledger;
  ledger.AddEligibleVoter("alice");
  ledger.AddEligibleVoter("alice");  // duplicate: indexed once, logged once
  ledger.AddEligibleVoter("bob");
  EXPECT_EQ(ledger.eligible_count(), 2u);
  EXPECT_EQ(ledger.roster_log().size(), 2u);
  EXPECT_TRUE(ledger.roster_log().VerifyChain().ok());
}

TEST(PublicLedger, ReRegistrationSupersedes) {
  ChaChaRng rng(91);
  PublicLedger ledger;
  ledger.AddEligibleVoter("alice");
  auto first = MakeRecord("alice", rng);
  auto second = MakeRecord("alice", rng);
  ASSERT_TRUE(ledger.PostRegistration(first).ok());
  ASSERT_TRUE(ledger.PostRegistration(second).ok());
  auto active = ledger.ActiveRegistration("alice");
  ASSERT_TRUE(active.has_value());
  // The active record is the latest one.
  EXPECT_EQ(active->public_credential, second.public_credential);
  EXPECT_EQ(ledger.RegistrationEventCount("alice"), 2u);
  // Exactly one active record per voter.
  EXPECT_EQ(ledger.ActiveRegistrations().size(), 1u);
}

TEST(PublicLedger, RegistrationRecordSerializationRoundTrip) {
  ChaChaRng rng(92);
  auto record = MakeRecord("bob", rng);
  auto parsed = RegistrationRecord::Parse(record.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->voter_id, "bob");
  EXPECT_EQ(parsed->public_credential, record.public_credential);
  EXPECT_EQ(parsed->kiosk_pk, record.kiosk_pk);
}

TEST(PublicLedger, EnvelopeChallengeLifecycle) {
  ChaChaRng rng(93);
  PublicLedger ledger;
  Scalar challenge = Scalar::Random(rng);

  // Reveal before commitment: rejected (forged envelope).
  EXPECT_FALSE(ledger.RevealEnvelopeChallenge(challenge).ok());

  EnvelopeCommitment commitment;
  commitment.challenge_hash = Sha256::Hash(challenge.ToBytes());
  ledger.PostEnvelopeCommitment(commitment);
  EXPECT_TRUE(ledger.HasEnvelopeCommitment(commitment.challenge_hash));

  // First reveal succeeds; duplicate reveal is the stuffing defense.
  EXPECT_TRUE(ledger.RevealEnvelopeChallenge(challenge).ok());
  Status dup = ledger.RevealEnvelopeChallenge(challenge);
  EXPECT_FALSE(dup.ok());
  EXPECT_NE(dup.reason().find("duplicate"), std::string::npos);
  EXPECT_EQ(ledger.revealed_challenge_count(), 1u);
}

TEST(PublicLedger, BallotLogRoundTrip) {
  PublicLedger ledger;
  ledger.PostBallot(Payload("ballot-1"));
  ledger.PostBallot(Payload("ballot-2"));
  auto ballots = ledger.AllBallots();
  ASSERT_EQ(ballots.size(), 2u);
  EXPECT_EQ(ballots[0], Payload("ballot-1"));
  EXPECT_EQ(ballots[1], Payload("ballot-2"));

  // The cursor path sees the same bytes without copying.
  LedgerCursor cursor = ledger.BallotCursor();
  LedgerEntryView view;
  ASSERT_TRUE(cursor.Next(&view));
  EXPECT_EQ(Bytes(view.payload.begin(), view.payload.end()), Payload("ballot-1"));
}

TEST(PublicLedger, ChainsVerifyAcrossSubLedgers) {
  ChaChaRng rng(94);
  PublicLedger ledger;
  ledger.AddEligibleVoter("alice");
  ASSERT_TRUE(ledger.PostRegistration(MakeRecord("alice", rng)).ok());
  ledger.PostBallot(Payload("b"));
  EXPECT_TRUE(ledger.VerifyChains().ok());
  ledger.mutable_registration_log().TamperWithPayloadForTest(0, Payload("forged"));
  EXPECT_FALSE(ledger.VerifyChains().ok());
}

// Parameterized: inclusion proofs across tree sizes.
class LedgerTreeSizes : public ::testing::TestWithParam<int> {};

TEST_P(LedgerTreeSizes, AllInclusionProofsVerify) {
  int n = GetParam();
  Ledger ledger;
  for (int i = 0; i < n; ++i) {
    ledger.Append("t", Payload(std::to_string(i)));
  }
  auto root = ledger.MerkleRoot();
  for (uint64_t i = 0; i < static_cast<uint64_t>(n); ++i) {
    auto proof = ledger.ProveInclusion(i);
    ASSERT_TRUE(proof.ok());
    ASSERT_TRUE(Ledger::VerifyInclusion(root, ledger.LeafHash(i), *proof).ok())
        << "size " << n << " entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, LedgerTreeSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100));

}  // namespace
}  // namespace votegral
