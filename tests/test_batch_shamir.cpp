// Tests for batch verification (random linear combination), for
// Shamir/Feldman sharing, and for t-of-n decryption on the threshold DKG.
#include <gtest/gtest.h>

#include "src/crypto/batch.h"
#include "src/crypto/dkg.h"
#include "src/crypto/drbg.h"
#include "src/crypto/shamir.h"

namespace votegral {
namespace {

// ---------------------------------------------------------------------------
// Batch verification
// ---------------------------------------------------------------------------

std::vector<SchnorrBatchEntry> MakeSchnorrBatch(size_t n, Rng& rng) {
  std::vector<SchnorrBatchEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    auto kp = SchnorrKeyPair::Generate(rng);
    SchnorrBatchEntry entry;
    entry.public_key = kp.public_bytes();
    entry.message = rng.RandomBytes(40);
    entry.signature = kp.Sign(entry.message, rng);
    entries.push_back(std::move(entry));
  }
  return entries;
}

TEST(BatchSchnorr, AcceptsAllValid) {
  ChaChaRng rng(800);
  auto entries = MakeSchnorrBatch(20, rng);
  EXPECT_TRUE(BatchVerifySchnorr(entries, rng).ok());
  // Empty batch trivially verifies.
  EXPECT_TRUE(BatchVerifySchnorr({}, rng).ok());
}

TEST(BatchSchnorr, RejectsOneBadSignatureAmongMany) {
  ChaChaRng rng(801);
  auto entries = MakeSchnorrBatch(20, rng);
  entries[13].signature.s = entries[13].signature.s + Scalar::One();
  EXPECT_FALSE(BatchVerifySchnorr(entries, rng).ok());
}

TEST(BatchSchnorr, RejectsSwappedMessages) {
  ChaChaRng rng(802);
  auto entries = MakeSchnorrBatch(4, rng);
  std::swap(entries[0].message, entries[1].message);
  EXPECT_FALSE(BatchVerifySchnorr(entries, rng).ok());
}

TEST(BatchSchnorr, CancellationAttackDefeated) {
  // Two complementary forgeries that cancel under *fixed* weights must not
  // cancel under the verifier's random weights: perturb one signature by
  // +delta and another by -delta.
  ChaChaRng rng(803);
  auto entries = MakeSchnorrBatch(4, rng);
  Scalar delta = Scalar::Random(rng);
  entries[0].signature.s = entries[0].signature.s + delta;
  entries[1].signature.s = entries[1].signature.s - delta;
  EXPECT_FALSE(BatchVerifySchnorr(entries, rng).ok());
}

TEST(BatchDleq, AcceptsAllValidAndRejectsTampering) {
  ChaChaRng rng(804);
  std::vector<DleqBatchEntry> entries;
  for (size_t i = 0; i < 12; ++i) {
    Scalar x = Scalar::Random(rng);
    RistrettoPoint g2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
    DleqBatchEntry entry;
    entry.domain = "batch-test";
    entry.statement = DleqStatement::MakePair(RistrettoPoint::Base(),
                                              RistrettoPoint::MulBase(x), g2, x * g2);
    entry.transcript = ProveDleqFs(entry.domain, entry.statement, x, rng);
    entries.push_back(std::move(entry));
  }
  EXPECT_TRUE(BatchVerifyDleq(entries, rng).ok());

  auto bad = entries;
  bad[7].transcript.response = bad[7].transcript.response + Scalar::One();
  EXPECT_FALSE(BatchVerifyDleq(bad, rng).ok());

  // A wrong statement under a *correct* challenge binding is caught too.
  bad = entries;
  bad[3].statement.publics[1] =
      bad[3].statement.publics[1] + RistrettoPoint::Base();
  EXPECT_FALSE(BatchVerifyDleq(bad, rng).ok());
}

TEST(BatchDleq, ChallengeBindingStillPerItem) {
  // Simulated (unsound-order) transcripts pass the plain equation check but
  // must fail the batch because the FS challenge does not recompute.
  ChaChaRng rng(805);
  DleqStatement false_st;
  false_st.bases = {RistrettoPoint::Base(),
                    RistrettoPoint::FromUniformBytes(rng.RandomBytes(64))};
  false_st.publics = {RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)),
                      RistrettoPoint::FromUniformBytes(rng.RandomBytes(64))};
  DleqBatchEntry entry;
  entry.domain = "batch-test";
  entry.statement = false_st;
  entry.transcript = SimulateDleq(false_st, Scalar::Random(rng), rng);
  std::vector<DleqBatchEntry> entries = {entry};
  EXPECT_FALSE(BatchVerifyDleq(entries, rng).ok());
}

// An entry over (B, X) and, with `two_pairs`, (g2, x*g2), proved with x.
// `cached` gives the statement its bytes, and without it the statement goes
// bare (the transcript always carries its commit bytes). `forged` makes
// X = x*B + B: the challenge binds the statement as claimed, so only the B
// pair's equation fails.
DleqBatchEntry BasePairEntry(bool two_pairs, bool cached, bool forged, Rng& rng) {
  const Scalar x = Scalar::Random(rng);
  const RistrettoPoint xb = RistrettoPoint::MulBase(x);
  DleqBatchEntry entry;
  entry.domain = "batch-test/base";
  entry.statement.bases = {RistrettoPoint::Base()};
  entry.statement.publics = {forged ? xb + RistrettoPoint::Base() : xb};
  if (two_pairs) {
    const RistrettoPoint g2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
    entry.statement.bases.push_back(g2);
    entry.statement.publics.push_back(x * g2);
  }
  if (cached) {
    entry.statement.EnsureWire();
  }
  entry.transcript = ProveDleqFs(entry.domain, entry.statement, x, rng);
  return entry;
}

TEST(BatchDleq, BasePairsRideTheBaseSlotWithAndWithoutCachedBytes) {
  ChaChaRng rng(806);
  std::vector<DleqBatchEntry> entries;
  for (size_t i = 0; i < 12; ++i) {
    entries.push_back(BasePairEntry(i % 3 != 0, i % 2 == 0, false, rng));
  }
  ASSERT_TRUE(BatchVerifyDleq(entries, rng).ok());
  for (size_t victim = 0; victim < entries.size(); ++victim) {
    auto bad = entries;
    bad[victim] = BasePairEntry(victim % 3 != 0, victim % 2 == 0, true, rng);
    Status s = BatchVerifyDleq(bad, rng);
    EXPECT_EQ(s.reason(), "batch-dleq: combined verification equation failed")
        << "victim " << victim;
  }
}

TEST(BatchDleq, ShapeMismatchIsAMalformedEntry) {
  ChaChaRng rng(807);
  const std::vector<DleqBatchEntry> entries = {BasePairEntry(true, true, false, rng),
                                               BasePairEntry(true, false, false, rng)};
  ASSERT_TRUE(BatchVerifyDleq(entries, rng).ok());
  auto extra_public = entries;
  extra_public[1].statement.publics.push_back(RistrettoPoint::Base());
  auto missing_commit = entries;
  missing_commit[0].transcript.commits.pop_back();
  for (const auto& bad : {extra_public, missing_commit}) {
    EXPECT_EQ(BatchVerifyDleq(bad, rng).reason(), "batch-dleq: malformed entry");
  }
}

// ---------------------------------------------------------------------------
// Shamir / Feldman / threshold DKG decryption
// ---------------------------------------------------------------------------

TEST(Shamir, SplitAndReconstruct) {
  ChaChaRng rng(810);
  Scalar secret = Scalar::Random(rng);
  FeldmanCommitments commitments;
  auto shares = ShamirSplit(secret, /*threshold=*/3, /*n=*/5, rng, &commitments);
  ASSERT_EQ(shares.size(), 5u);
  ASSERT_EQ(commitments.size(), 3u);
  // Any 3 shares reconstruct.
  std::vector<ShamirShare> subset = {shares[0], shares[2], shares[4]};
  EXPECT_EQ(ShamirReconstruct(subset), secret);
  std::vector<ShamirShare> other = {shares[1], shares[3], shares[0]};
  EXPECT_EQ(ShamirReconstruct(other), secret);
  // All 5 also work.
  EXPECT_EQ(ShamirReconstruct(shares), secret);
}

TEST(Shamir, TooFewSharesYieldGarbage) {
  ChaChaRng rng(811);
  Scalar secret = Scalar::Random(rng);
  auto shares = ShamirSplit(secret, 3, 5, rng, nullptr);
  std::vector<ShamirShare> two = {shares[0], shares[1]};
  // Interpolating a degree-2 polynomial from 2 points gives a wrong value
  // (with overwhelming probability).
  EXPECT_NE(ShamirReconstruct(two), secret);
}

TEST(Shamir, FeldmanVerificationCatchesBadShares) {
  ChaChaRng rng(812);
  Scalar secret = Scalar::Random(rng);
  FeldmanCommitments commitments;
  auto shares = ShamirSplit(secret, 2, 4, rng, &commitments);
  for (const ShamirShare& share : shares) {
    EXPECT_TRUE(VerifyShamirShare(share, commitments).ok());
  }
  ShamirShare bad = shares[1];
  bad.value = bad.value + Scalar::One();
  EXPECT_FALSE(VerifyShamirShare(bad, commitments).ok());
  ShamirShare wrong_index = shares[1];
  wrong_index.index = 3;
  EXPECT_FALSE(VerifyShamirShare(wrong_index, commitments).ok());
}

TEST(Shamir, LagrangeCoefficientsSumCorrectly) {
  // For the constant polynomial f(x) = c, any interpolation returns c, i.e.
  // sum of Lagrange coefficients is 1.
  std::vector<size_t> indices = {1, 3, 7};
  Scalar sum = Scalar::Zero();
  for (size_t i : indices) {
    sum = sum + LagrangeAtZero(indices, i);
  }
  EXPECT_EQ(sum, Scalar::One());
  EXPECT_THROW((void)LagrangeAtZero(indices, 5), ProtocolError);
}

// The dealerless t-of-n DKG over a (threshold, n) sweep: the first t members
// decrypt, and so do the last t.
class ThresholdDkgQuorums : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(ThresholdDkgQuorums, AnyTMembersDecrypt) {
  auto [t, n] = GetParam();
  ChaChaRng rng(815 + t * 10 + n);
  auto authority = ElectionAuthority::CreateThreshold(t, n, rng);
  ASSERT_TRUE(authority.VerifySetup().ok()) << authority.VerifySetup().reason();
  RistrettoPoint message = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto ct = ElGamalEncrypt(authority.public_key(), message, rng);
  for (size_t first : {size_t{0}, n - t}) {
    std::vector<DecryptionShare> shares;
    for (size_t member = first; member < first + t; ++member) {
      shares.push_back(authority.ComputeShare(member, ct, rng));
      ASSERT_TRUE(authority.VerifyShare(ct, shares.back()).ok());
    }
    EXPECT_TRUE(authority.CombineShares(ct, shares) == message) << "first member " << first;
  }
}

INSTANTIATE_TEST_SUITE_P(Quorums, ThresholdDkgQuorums,
                         ::testing::Values(std::pair<size_t, size_t>{1, 1},
                                           std::pair<size_t, size_t>{1, 3},
                                           std::pair<size_t, size_t>{2, 3},
                                           std::pair<size_t, size_t>{3, 4},
                                           std::pair<size_t, size_t>{4, 7},
                                           std::pair<size_t, size_t>{7, 7}));

}  // namespace
}  // namespace votegral
