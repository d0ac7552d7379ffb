// Tests for the Chaum–Pedersen DLEQ Σ-protocol — including the *designed*
// unsoundness of simulated transcripts that TRIP's fake credentials rely on —
// and for the election-authority DKG / verifiable decryption.
#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/dkg.h"
#include "src/crypto/dleq.h"
#include "src/crypto/drbg.h"
#include "src/crypto/elgamal.h"

namespace votegral {
namespace {

DleqStatement TrueStatement(const Scalar& x, Rng& rng) {
  RistrettoPoint g1 = RistrettoPoint::Base();
  RistrettoPoint g2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  return DleqStatement::MakePair(g1, x * g1, g2, x * g2);
}

TEST(Dleq, SoundInteractiveProofVerifies) {
  ChaChaRng rng(70);
  Scalar x = Scalar::Random(rng);
  DleqStatement st = TrueStatement(x, rng);
  DleqProver prover(st, x, rng);
  Scalar challenge = Scalar::Random(rng);  // verifier-chosen
  DleqTranscript t = prover.Respond(challenge);
  EXPECT_TRUE(VerifyDleqTranscript(st, t).ok());
  EXPECT_EQ(t.challenge, challenge);
}

TEST(Dleq, ProofFailsForWrongWitness) {
  ChaChaRng rng(71);
  Scalar x = Scalar::Random(rng);
  DleqStatement st = TrueStatement(x, rng);
  // Prover uses the wrong witness in the sound order: verification fails
  // (overwhelmingly) because the response no longer matches.
  DleqProver prover(st, x + Scalar::One(), rng);
  DleqTranscript t = prover.Respond(Scalar::Random(rng));
  EXPECT_FALSE(VerifyDleqTranscript(st, t).ok());
}

TEST(Dleq, SimulatedTranscriptVerifiesForFalseStatement) {
  // The crux of TRIP's fake credentials: with the challenge known first, a
  // structurally valid transcript exists for *any* statement, including
  // false ones — and is indistinguishable from a sound one.
  ChaChaRng rng(72);
  DleqStatement false_st;
  false_st.bases = {RistrettoPoint::Base(),
                    RistrettoPoint::FromUniformBytes(rng.RandomBytes(64))};
  // Unrelated publics: no witness exists.
  false_st.publics = {RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)),
                      RistrettoPoint::FromUniformBytes(rng.RandomBytes(64))};
  Scalar challenge = Scalar::Random(rng);
  DleqTranscript t = SimulateDleq(false_st, challenge, rng);
  EXPECT_TRUE(VerifyDleqTranscript(false_st, t).ok());
}

TEST(Dleq, SimulatedAndSoundTranscriptsShareStructure) {
  // Same statement, same challenge: a verifier cannot tell which transcript
  // came from the sound order. (Here we check structural interchangeability;
  // indistinguishability is information-theoretic for Chaum–Pedersen.)
  ChaChaRng rng(73);
  Scalar x = Scalar::Random(rng);
  DleqStatement st = TrueStatement(x, rng);
  Scalar challenge = Scalar::Random(rng);
  DleqProver prover(st, x, rng);
  DleqTranscript sound = prover.Respond(challenge);
  DleqTranscript simulated = SimulateDleq(st, challenge, rng);
  EXPECT_TRUE(VerifyDleqTranscript(st, sound).ok());
  EXPECT_TRUE(VerifyDleqTranscript(st, simulated).ok());
  EXPECT_EQ(sound.commits.size(), simulated.commits.size());
  EXPECT_EQ(sound.Serialize().size(), simulated.Serialize().size());
}

TEST(Dleq, VerifierRejectsMismatchedTranscripts) {
  ChaChaRng rng(74);
  Scalar x = Scalar::Random(rng);
  DleqStatement st = TrueStatement(x, rng);
  DleqProver prover(st, x, rng);
  DleqTranscript t = prover.Respond(Scalar::Random(rng));

  DleqTranscript bad = t;
  bad.response = bad.response + Scalar::One();
  EXPECT_FALSE(VerifyDleqTranscript(st, bad).ok());

  bad = t;
  bad.challenge = bad.challenge + Scalar::One();
  EXPECT_FALSE(VerifyDleqTranscript(st, bad).ok());

  bad = t;
  bad.commits[0] = bad.commits[0] + RistrettoPoint::Base();
  EXPECT_FALSE(VerifyDleqTranscript(st, bad).ok());

  bad = t;
  bad.commits.pop_back();
  EXPECT_FALSE(VerifyDleqTranscript(st, bad).ok());
}

TEST(Dleq, FiatShamirRoundTrip) {
  ChaChaRng rng(75);
  Scalar x = Scalar::Random(rng);
  DleqStatement st = TrueStatement(x, rng);
  DleqTranscript t = ProveDleqFs("test/fs", st, x, rng);
  EXPECT_TRUE(VerifyDleqFs("test/fs", st, t).ok());
  // Wrong domain fails (challenge binding).
  EXPECT_FALSE(VerifyDleqFs("test/other", st, t).ok());
}

TEST(Dleq, FiatShamirBindsExtraContext) {
  ChaChaRng rng(76);
  Scalar x = Scalar::Random(rng);
  DleqStatement st = TrueStatement(x, rng);
  auto extra = AsBytes("ballot #42");
  DleqTranscript t = ProveDleqFs("test/fs", st, x, rng, extra);
  EXPECT_TRUE(VerifyDleqFs("test/fs", st, t, extra).ok());
  EXPECT_FALSE(VerifyDleqFs("test/fs", st, t, AsBytes("ballot #43")).ok());
  EXPECT_FALSE(VerifyDleqFs("test/fs", st, t).ok());
}

TEST(Dleq, FiatShamirCannotBeSimulated) {
  // With Fiat–Shamir the challenge depends on the commits, so the simulator's
  // commit-from-challenge order cannot close the loop: simulating with any
  // guessed challenge fails the challenge-recomputation check.
  ChaChaRng rng(77);
  DleqStatement false_st;
  false_st.bases = {RistrettoPoint::Base(),
                    RistrettoPoint::FromUniformBytes(rng.RandomBytes(64))};
  false_st.publics = {RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)),
                      RistrettoPoint::FromUniformBytes(rng.RandomBytes(64))};
  DleqTranscript t = SimulateDleq(false_st, Scalar::Random(rng), rng);
  EXPECT_FALSE(VerifyDleqFs("test/fs", false_st, t).ok());
}

TEST(Dleq, VectorStatementAcrossThreePairs) {
  // Tagging uses 3-element statements: same exponent on (B, C1, C2).
  ChaChaRng rng(78);
  Scalar z = Scalar::Random(rng);
  RistrettoPoint c1 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  RistrettoPoint c2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  DleqStatement st;
  st.bases = {RistrettoPoint::Base(), c1, c2};
  st.publics = {z * RistrettoPoint::Base(), z * c1, z * c2};
  DleqTranscript t = ProveDleqFs("test/tag", st, z, rng);
  EXPECT_TRUE(VerifyDleqFs("test/tag", st, t).ok());
  ASSERT_EQ(t.commits.size(), 3u);
  // Inconsistent exponent on one component is rejected.
  DleqStatement bad = st;
  bad.publics[2] = (z + Scalar::One()) * c2;
  EXPECT_FALSE(VerifyDleqFs("test/tag", bad, t).ok());
}

TEST(Dleq, TranscriptSerializationRoundTrip) {
  ChaChaRng rng(79);
  Scalar x = Scalar::Random(rng);
  DleqStatement st = TrueStatement(x, rng);
  DleqTranscript t = ProveDleqFs("test/serde", st, x, rng);
  Bytes wire = t.Serialize();
  auto parsed = DleqTranscript::Parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(VerifyDleqFs("test/serde", st, *parsed).ok());
  // Corrupt / truncated wire data parses to nullopt or fails verification.
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(DleqTranscript::Parse(truncated).ok());
}

TEST(Dkg, SetupProducesVerifiableAuthority) {
  ChaChaRng rng(80);
  auto authority = ElectionAuthority::Create(4, rng);
  EXPECT_EQ(authority.size(), 4u);
  EXPECT_TRUE(authority.VerifySetup().ok());
  // Collective key equals the sum of shares (checked via combined secret).
  EXPECT_TRUE(RistrettoPoint::MulBase(authority.CombinedSecret()) == authority.public_key());
}

TEST(Dkg, VerifiableDecryption) {
  ChaChaRng rng(81);
  auto authority = ElectionAuthority::Create(4, rng);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto ct = ElGamalEncrypt(authority.public_key(), msg, rng);

  std::vector<DecryptionShare> shares;
  for (size_t i = 0; i < authority.size(); ++i) {
    auto share = authority.ComputeShare(i, ct, rng);
    EXPECT_TRUE(authority.VerifyShare(ct, share).ok());
    shares.push_back(std::move(share));
  }
  EXPECT_TRUE(authority.CombineShares(ct, shares) == msg);
  EXPECT_TRUE(authority.Decrypt(ct) == msg);
}

TEST(Dkg, BadShareIsDetected) {
  ChaChaRng rng(82);
  auto authority = ElectionAuthority::Create(3, rng);
  auto ct = ElGamalEncrypt(authority.public_key(), RistrettoPoint::Base(), rng);
  auto share = authority.ComputeShare(1, ct, rng);
  // A malicious member substitutes a bogus share but cannot forge the proof.
  share.share = share.share + RistrettoPoint::Base();
  EXPECT_FALSE(authority.VerifyShare(ct, share).ok());
}

TEST(Dkg, MissingOrDuplicateSharesRejected) {
  ChaChaRng rng(83);
  auto authority = ElectionAuthority::Create(3, rng);
  auto ct = ElGamalEncrypt(authority.public_key(), RistrettoPoint::Base(), rng);
  std::vector<DecryptionShare> shares;
  for (size_t i = 0; i < 2; ++i) {
    shares.push_back(authority.ComputeShare(i, ct, rng));
  }
  EXPECT_THROW((void)authority.CombineShares(ct, shares), ProtocolError);
  shares.push_back(authority.ComputeShare(0, ct, rng));  // duplicate of member 0
  EXPECT_THROW((void)authority.CombineShares(ct, shares), ProtocolError);
}

TEST(Dkg, SingleMemberAuthorityStillWorks) {
  ChaChaRng rng(84);
  auto authority = ElectionAuthority::Create(1, rng);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto ct = ElGamalEncrypt(authority.public_key(), msg, rng);
  auto share = authority.ComputeShare(0, ct, rng);
  EXPECT_TRUE(authority.VerifyShare(ct, share).ok());
  EXPECT_TRUE(authority.CombineShares(ct, {share}) == msg);
}

// Parameterized over authority size: the privacy threat model allows n-1
// compromised members; decryption must require all n.
class DkgSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DkgSizeTest, PartialSecretsDoNotDecrypt) {
  size_t n = GetParam();
  ChaChaRng rng(85 + n);
  auto authority = ElectionAuthority::Create(n, rng);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto ct = ElGamalEncrypt(authority.public_key(), msg, rng);
  // Sum of any n-1 secrets fails to decrypt.
  Scalar partial = Scalar::Zero();
  for (size_t i = 0; i + 1 < n; ++i) {
    partial = partial + authority.member(i).secret;
  }
  if (n > 1) {
    EXPECT_FALSE(ElGamalDecrypt(partial, ct) == msg);
  }
  EXPECT_TRUE(authority.Decrypt(ct) == msg);
}

INSTANTIATE_TEST_SUITE_P(AuthoritySizes, DkgSizeTest, ::testing::Values(1, 2, 3, 4, 7));

}  // namespace
}  // namespace votegral
