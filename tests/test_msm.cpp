// Multi-scalar multiplication engine: differential tests against the naive
// per-term evaluation across both dispatch regimes (Straus and Pippenger),
// edge cases, and negative batch-verification tests showing that a single
// corrupted entry in a large batch still flips the verdict.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/status.h"
#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/crypto/msm.h"
#include "src/crypto/schnorr.h"

namespace votegral {
namespace {

RistrettoPoint RandomPoint(Rng& rng) {
  Bytes b = rng.RandomBytes(64);
  return RistrettoPoint::FromUniformBytes(b);
}

struct MsmInput {
  std::vector<Scalar> scalars;
  std::vector<RistrettoPoint> points;
};

MsmInput RandomInput(size_t n, Rng& rng) {
  MsmInput in;
  in.scalars.reserve(n);
  in.points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    in.scalars.push_back(Scalar::Random(rng));
    in.points.push_back(RandomPoint(rng));
  }
  return in;
}

TEST(Msm, EmptyInputIsIdentity) {
  EXPECT_TRUE(MultiScalarMul({}, {}).IsIdentity());
  EXPECT_TRUE(MultiScalarMulNaive({}, {}).IsIdentity());
}

TEST(Msm, EmptyInputWithBaseIsMulBase) {
  ChaChaRng rng(1001);
  Scalar b = Scalar::Random(rng);
  EXPECT_TRUE(MultiScalarMulWithBase(b, {}, {}) == RistrettoPoint::MulBase(b));
}

TEST(Msm, SingleTermMatchesOperatorMul) {
  ChaChaRng rng(1002);
  for (int trial = 0; trial < 8; ++trial) {
    Scalar s = Scalar::Random(rng);
    RistrettoPoint p = RandomPoint(rng);
    EXPECT_TRUE(MultiScalarMul({&s, 1}, {&p, 1}) == s * p);
  }
}

TEST(Msm, SmallScalarsAndEdgeDigits) {
  // Scalars chosen to exercise NAF corner cases: 0, 1, 2^k, 2^k - 1, ℓ - 1
  // (the largest canonical scalar, = -1 mod ℓ).
  ChaChaRng rng(1003);
  std::vector<Scalar> scalars = {Scalar::Zero(), Scalar::One(), Scalar::FromU64(2),
                                 Scalar::FromU64(255), Scalar::FromU64(256),
                                 Scalar::FromU64((uint64_t{1} << 63) - 1),
                                 -Scalar::One()};
  std::vector<RistrettoPoint> points;
  for (size_t i = 0; i < scalars.size(); ++i) {
    points.push_back(RandomPoint(rng));
  }
  EXPECT_TRUE(MultiScalarMul(scalars, points) == MultiScalarMulNaive(scalars, points));
}

TEST(Msm, IdentityPointsContributeNothing) {
  ChaChaRng rng(1004);
  auto in = RandomInput(10, rng);
  RistrettoPoint without = MultiScalarMul(in.scalars, in.points);
  for (int i = 0; i < 5; ++i) {
    in.scalars.push_back(Scalar::Random(rng));
    in.points.push_back(RistrettoPoint::Identity());
  }
  EXPECT_TRUE(MultiScalarMul(in.scalars, in.points) == without);
}

TEST(Msm, ZeroScalarsContributeNothing) {
  ChaChaRng rng(1005);
  auto in = RandomInput(10, rng);
  RistrettoPoint without = MultiScalarMul(in.scalars, in.points);
  for (int i = 0; i < 5; ++i) {
    in.scalars.push_back(Scalar::Zero());
    in.points.push_back(RandomPoint(rng));
  }
  EXPECT_TRUE(MultiScalarMul(in.scalars, in.points) == without);
}

TEST(Msm, AllZeroScalarsGiveIdentity) {
  ChaChaRng rng(1006);
  std::vector<Scalar> scalars(20, Scalar::Zero());
  std::vector<RistrettoPoint> points;
  for (int i = 0; i < 20; ++i) {
    points.push_back(RandomPoint(rng));
  }
  EXPECT_TRUE(MultiScalarMul(scalars, points).IsIdentity());
}

TEST(Msm, MismatchedLengthsRejected) {
  ChaChaRng rng(1007);
  auto in = RandomInput(3, rng);
  std::span<const Scalar> short_scalars(in.scalars.data(), 2);
  EXPECT_THROW(MultiScalarMul(short_scalars, in.points), ProtocolError);
  EXPECT_THROW(MultiScalarMulNaive(short_scalars, in.points), ProtocolError);
  EXPECT_THROW(MultiScalarMulWithBase(Scalar::One(), short_scalars, in.points),
               ProtocolError);
}

// Differential sweep across the Straus regime, the dispatch boundary, and
// into the Pippenger regime (random n up to 1000).
TEST(Msm, MatchesNaiveAcrossSizes) {
  ChaChaRng rng(1008);
  std::vector<size_t> sizes = {2, 3, 7, 31, 64, kPippengerThreshold - 1,
                               kPippengerThreshold, kPippengerThreshold + 1, 300};
  for (int trial = 0; trial < 4; ++trial) {
    sizes.push_back(1 + rng.Uniform(1000));
  }
  for (size_t n : sizes) {
    auto in = RandomInput(n, rng);
    EXPECT_TRUE(MultiScalarMul(in.scalars, in.points) ==
                MultiScalarMulNaive(in.scalars, in.points))
        << "n = " << n;
  }
}

TEST(Msm, WithBaseMatchesNaivePlusMulBase) {
  ChaChaRng rng(1009);
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{40},
                   kPippengerThreshold + 10}) {
    auto in = RandomInput(n, rng);
    Scalar b = Scalar::Random(rng);
    RistrettoPoint expected =
        MultiScalarMulNaive(in.scalars, in.points) + RistrettoPoint::MulBase(b);
    EXPECT_TRUE(MultiScalarMulWithBase(b, in.scalars, in.points) == expected)
        << "n = " << n;
  }
}

TEST(Msm, DoubleScalarMulBaseStillCorrect) {
  ChaChaRng rng(1010);
  for (int trial = 0; trial < 8; ++trial) {
    Scalar a = Scalar::Random(rng);
    Scalar b = Scalar::Random(rng);
    RistrettoPoint p = RandomPoint(rng);
    EXPECT_TRUE(RistrettoPoint::DoubleScalarMulBase(a, p, b) ==
                (a * p) + RistrettoPoint::MulBase(b));
  }
}

// ---- Negative batch-verification tests over the MSM paths ----

SchnorrBatchEntry Signed(const SchnorrKeyPair& kp, Rng& rng) {
  SchnorrBatchEntry entry;
  entry.public_key = kp.public_bytes();
  entry.message = rng.RandomBytes(24);
  entry.signature = kp.Sign(entry.message, rng);
  return entry;
}

std::vector<SchnorrBatchEntry> MakeSchnorrBatch(size_t n, Rng& rng) {
  std::vector<SchnorrBatchEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(Signed(SchnorrKeyPair::Generate(rng), rng));
  }
  return entries;
}

// A batch that verifies, and fails whichever single signature is corrupted.
void ExpectEverySingleCorruptionFlipsVerdict(const std::vector<SchnorrBatchEntry>& entries,
                                             Rng& rng) {
  ASSERT_TRUE(BatchVerifySchnorr(entries, rng).ok());
  for (size_t victim = 0; victim < entries.size(); ++victim) {
    auto bad = entries;
    bad[victim].signature.s = bad[victim].signature.s + Scalar::One();
    EXPECT_FALSE(BatchVerifySchnorr(bad, rng).ok()) << "victim " << victim;
  }
}

// Besides 100 signers, the two shapes where BatchVerifySchnorr folds
// repeated keys into one term: one signer's 256 signatures (257 terms after
// the fold, so Pippenger), and a ballot shard's 18 kiosk certificates under
// one kiosk key beside 18 credential signatures (1 + 18 key terms and 36 R
// terms, so Straus). A key whose later signatures drop out of the fold
// fails the honest batch.
TEST(MsmBatch, CorruptingAnySingleSignatureIn100EntryBatchFlipsVerdict) {
  ChaChaRng rng(1011);
  {
    SCOPED_TRACE("100 signers");
    ExpectEverySingleCorruptionFlipsVerdict(MakeSchnorrBatch(100, rng), rng);
  }
  {
    SCOPED_TRACE("one signer, 256 signatures");
    static_assert(257 >= kPippengerThreshold);
    const SchnorrKeyPair signer = SchnorrKeyPair::Generate(rng);
    std::vector<SchnorrBatchEntry> entries;
    for (size_t i = 0; i < 256; ++i) {
      entries.push_back(Signed(signer, rng));
    }
    ExpectEverySingleCorruptionFlipsVerdict(entries, rng);
  }
  {
    SCOPED_TRACE("a ballot shard: 18 kiosk certificates, 18 credential signatures");
    static_assert(55 < kPippengerThreshold);
    const SchnorrKeyPair kiosk = SchnorrKeyPair::Generate(rng);
    std::vector<SchnorrBatchEntry> entries;
    for (size_t i = 0; i < 18; ++i) {
      entries.push_back(Signed(kiosk, rng));
      entries.push_back(Signed(SchnorrKeyPair::Generate(rng), rng));
    }
    ExpectEverySingleCorruptionFlipsVerdict(entries, rng);
  }
}

TEST(MsmBatch, CorruptingAnySingleDleqProofIn100EntryBatchFlipsVerdict) {
  ChaChaRng rng(1012);
  std::vector<DleqBatchEntry> entries;
  entries.reserve(100);
  for (int i = 0; i < 100; ++i) {
    Scalar x = Scalar::Random(rng);
    RistrettoPoint g2 = RandomPoint(rng);
    DleqBatchEntry entry;
    entry.domain = "msm-batch-test";
    entry.statement = DleqStatement::MakePair(RistrettoPoint::Base(),
                                              RistrettoPoint::MulBase(x), g2, x * g2);
    entry.transcript = ProveDleqFs(entry.domain, entry.statement, x, rng);
    entries.push_back(std::move(entry));
  }
  ASSERT_TRUE(BatchVerifyDleq(entries, rng).ok());
  for (size_t victim = 0; victim < entries.size(); ++victim) {
    auto bad = entries;
    // Tamper with the statement (equation side), leaving the Fiat–Shamir
    // challenge binding untouched is impossible — both rejection paths are
    // valid outcomes; the batch must simply not accept.
    bad[victim].statement.publics[1] =
        bad[victim].statement.publics[1] + RistrettoPoint::Base();
    EXPECT_FALSE(BatchVerifyDleq(bad, rng).ok()) << "victim " << victim;
  }
}

}  // namespace
}  // namespace votegral
