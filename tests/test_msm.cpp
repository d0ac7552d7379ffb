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

std::vector<SchnorrBatchEntry> MakeSchnorrBatch(size_t n, Rng& rng) {
  std::vector<SchnorrBatchEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto kp = SchnorrKeyPair::Generate(rng);
    SchnorrBatchEntry entry;
    entry.public_key = kp.public_bytes();
    entry.message = rng.RandomBytes(24);
    entry.signature = kp.Sign(entry.message, rng);
    entries.push_back(std::move(entry));
  }
  return entries;
}

// Builds a shared-MSM input where every term carries its wire key, with
// repeated base points sprinkled in: `repeat_every` terms reuse one of
// `distinct` recurring points, and every 7th keyed term is the group
// generator (exercising the fold into the fixed-base coefficient).
struct SharedInput {
  MsmInput in;
  std::vector<CompressedRistretto> keys;
  std::vector<uint8_t> present;
};

SharedInput RandomSharedInput(size_t n, size_t distinct, Rng& rng) {
  SharedInput s;
  std::vector<RistrettoPoint> pool;
  std::vector<CompressedRistretto> pool_wire;
  for (size_t i = 0; i < distinct; ++i) {
    pool.push_back(RandomPoint(rng));
    pool_wire.push_back(pool.back().Encode());
  }
  for (size_t i = 0; i < n; ++i) {
    s.in.scalars.push_back(Scalar::Random(rng));
    if (i % 7 == 3) {
      s.in.points.push_back(RistrettoPoint::Base());
      s.keys.push_back(RistrettoPoint::BaseWire());
      s.present.push_back(1);
    } else if (i % 3 != 0) {
      size_t j = i % distinct;
      s.in.points.push_back(pool[j]);
      s.keys.push_back(pool_wire[j]);
      s.present.push_back(1);
    } else {
      s.in.points.push_back(RandomPoint(rng));
      s.keys.push_back(CompressedRistretto{});
      s.present.push_back(0);  // unkeyed term: no collapse
    }
  }
  return s;
}

TEST(MsmShared, MatchesUnsharedEvaluationAcrossRegimes) {
  ChaChaRng rng(77);
  ResetSharedMsmForTest();
  // Sizes straddle kPippengerThreshold so both regimes run the collapse.
  for (size_t n : {1u, 5u, 60u, 190u, 300u, 700u}) {
    SharedInput s = RandomSharedInput(n, 9, rng);
    Scalar base = Scalar::Random(rng);
    RistrettoPoint expected = MultiScalarMulWithBase(base, s.in.scalars, s.in.points);
    RistrettoPoint got =
        MultiScalarMulShared(base, s.in.scalars, s.in.points, s.keys, s.present);
    EXPECT_TRUE(got == expected) << "n = " << n;
  }
  EXPECT_GT(SharedMsmStats().collapsed_terms, 0u);
}

TEST(MsmShared, AllTermsOnOneKeyCollapseToASingleTerm) {
  ChaChaRng rng(78);
  ResetSharedMsmForTest();
  RistrettoPoint p = RandomPoint(rng);
  CompressedRistretto wire = p.Encode();
  const size_t n = 64;
  std::vector<Scalar> scalars;
  std::vector<RistrettoPoint> points(n, p);
  std::vector<CompressedRistretto> keys(n, wire);
  std::vector<uint8_t> present(n, 1);
  Scalar sum = Scalar::Zero();
  for (size_t i = 0; i < n; ++i) {
    scalars.push_back(Scalar::Random(rng));
    sum = sum + scalars.back();
  }
  RistrettoPoint got =
      MultiScalarMulShared(Scalar::Zero(), scalars, points, keys, present);
  EXPECT_TRUE(got == sum * p);
  EXPECT_EQ(SharedMsmStats().collapsed_terms, n - 1);
}

TEST(MsmBatch, CorruptingAnySingleSignatureIn100EntryBatchFlipsVerdict) {
  ChaChaRng rng(1011);
  auto entries = MakeSchnorrBatch(100, rng);
  ASSERT_TRUE(BatchVerifySchnorr(entries, rng).ok());
  for (size_t victim = 0; victim < entries.size(); ++victim) {
    auto bad = entries;
    bad[victim].signature.s = bad[victim].signature.s + Scalar::One();
    EXPECT_FALSE(BatchVerifySchnorr(bad, rng).ok()) << "victim " << victim;
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
