// Property and vector tests for the GF(2^255-19) field arithmetic.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/fe25519.h"

namespace votegral {
namespace {

Fe25519 RandomFe(Rng& rng) {
  Bytes b = rng.RandomBytes(32);
  b[31] &= 0x7f;
  return FeFromBytes(b);
}

constexpr uint64_t kLooseBound = (uint64_t{1} << 51) + (uint64_t{1} << 13);

// Every limb at the loose-reduction bound: the largest input any operation
// may receive.
Fe25519 LooseExtreme() {
  Fe25519 f;
  for (uint64_t& limb : f.limb) {
    limb = kLooseBound - 1;
  }
  return f;
}

Fe25519 Canonical(const Fe25519& f) { return FeFromBytes(FeToBytes(f)); }

bool LooselyReduced(const Fe25519& f) {
  for (uint64_t limb : f.limb) {
    if (limb >= kLooseBound) {
      return false;
    }
  }
  return true;
}

TEST(Fe25519, ZeroAndOneRoundTrip) {
  EXPECT_EQ(HexEncode(FeToBytes(FeZero())),
            "0000000000000000000000000000000000000000000000000000000000000000");
  EXPECT_EQ(HexEncode(FeToBytes(FeOne())),
            "0100000000000000000000000000000000000000000000000000000000000000");
}

TEST(Fe25519, EdwardsDMatchesKnownConstant) {
  // d = -121665/121666 mod p, the edwards25519 constant (RFC 7748).
  EXPECT_EQ(HexEncode(FeToBytes(FeEdwardsD())),
            "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352");
}

TEST(Fe25519, SqrtM1SquaresToMinusOne) {
  Fe25519 i = FeSqrtM1();
  EXPECT_TRUE(FeEqual(FeSquare(i), FeNeg(FeOne())));
}

TEST(Fe25519, CanonicalEncodingRejectsP) {
  // p itself is a non-canonical encoding of zero.
  Bytes p_bytes = HexDecode("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  EXPECT_FALSE(FeBytesAreCanonical(p_bytes));
  // p - 1 is canonical.
  Bytes p_minus_1 = HexDecode("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  EXPECT_TRUE(FeBytesAreCanonical(p_minus_1));
  // p reduces to zero.
  EXPECT_TRUE(FeIsZero(FeFromBytes(p_bytes)));
}

TEST(Fe25519, PMinusOneIsMinusOne) {
  Bytes p_minus_1 = HexDecode("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  EXPECT_TRUE(FeEqual(FeFromBytes(p_minus_1), FeNeg(FeOne())));
}

TEST(Fe25519, AdditionProperties) {
  ChaChaRng rng(1);
  for (int iter = 0; iter < 50; ++iter) {
    Fe25519 a = RandomFe(rng);
    Fe25519 b = RandomFe(rng);
    Fe25519 c = RandomFe(rng);
    EXPECT_TRUE(FeEqual(FeAdd(a, b), FeAdd(b, a)));
    EXPECT_TRUE(FeEqual(FeAdd(FeAdd(a, b), c), FeAdd(a, FeAdd(b, c))));
    EXPECT_TRUE(FeEqual(FeAdd(a, FeZero()), a));
    EXPECT_TRUE(FeEqual(FeSub(a, a), FeZero()));
    EXPECT_TRUE(FeEqual(FeAdd(a, FeNeg(a)), FeZero()));
    EXPECT_TRUE(FeEqual(FeSub(a, b), FeAdd(a, FeNeg(b))));
  }
}

TEST(Fe25519, MultiplicationProperties) {
  ChaChaRng rng(2);
  for (int iter = 0; iter < 50; ++iter) {
    Fe25519 a = RandomFe(rng);
    Fe25519 b = RandomFe(rng);
    Fe25519 c = RandomFe(rng);
    EXPECT_TRUE(FeEqual(FeMul(a, b), FeMul(b, a)));
    EXPECT_TRUE(FeEqual(FeMul(FeMul(a, b), c), FeMul(a, FeMul(b, c))));
    EXPECT_TRUE(FeEqual(FeMul(a, FeOne()), a));
    EXPECT_TRUE(FeEqual(FeMul(a, FeZero()), FeZero()));
    // Distributivity.
    EXPECT_TRUE(FeEqual(FeMul(a, FeAdd(b, c)), FeAdd(FeMul(a, b), FeMul(a, c))));
    // Square consistency.
    EXPECT_TRUE(FeEqual(FeSquare(a), FeMul(a, a)));
  }
}

TEST(Fe25519, OperationsAtTheLooseReductionBound) {
  // The multiplication folds 19 into 64-bit limbs before multiplying, and
  // every carry is 64-bit; both are sound only while inputs stay below the
  // loose bound. On inputs at the bound each operation must agree with the
  // same operation on the canonical form of its inputs, and must hand back
  // loosely reduced limbs.
  Fe25519 low_limb_full = LooseExtreme();
  low_limb_full.limb[0] = (uint64_t{1} << 51) - 1;
  std::vector<Fe25519> inputs = {
      FeZero(), FeOne(), LooseExtreme(), low_limb_full,
      FeFromBytes(HexDecode("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"))};
  ChaChaRng rng(9);
  for (int i = 0; i < 50; ++i) {
    inputs.push_back(RandomFe(rng));
  }
  for (const Fe25519& a : inputs) {
    const Fe25519 ca = Canonical(a);
    for (const Fe25519& b : inputs) {
      const Fe25519 cb = Canonical(b);
      const Fe25519 mul = FeMul(a, b);
      const Fe25519 add = FeAdd(a, b);
      const Fe25519 sub = FeSub(a, b);
      ASSERT_EQ(FeToBytes(mul), FeToBytes(FeMul(ca, cb)));
      ASSERT_EQ(FeToBytes(add), FeToBytes(FeAdd(ca, cb)));
      ASSERT_EQ(FeToBytes(sub), FeToBytes(FeSub(ca, cb)));
      ASSERT_TRUE(LooselyReduced(mul));
      ASSERT_TRUE(LooselyReduced(add));
      ASSERT_TRUE(LooselyReduced(sub));
    }
    const Fe25519 square = FeSquare(a);
    const Fe25519 neg = FeNeg(a);
    ASSERT_EQ(FeToBytes(square), FeToBytes(FeSquare(ca)));
    ASSERT_EQ(FeToBytes(square), FeToBytes(FeMul(ca, ca)));
    ASSERT_EQ(FeToBytes(neg), FeToBytes(FeNeg(ca)));
    ASSERT_TRUE(LooselyReduced(square));
    ASSERT_TRUE(LooselyReduced(neg));
  }
}

TEST(Fe25519, InversionProperties) {
  ChaChaRng rng(4);
  for (int iter = 0; iter < 10; ++iter) {
    Fe25519 a = RandomFe(rng);
    if (FeIsZero(a)) {
      continue;
    }
    EXPECT_TRUE(FeEqual(FeMul(a, FeInvert(a)), FeOne()));
  }
  EXPECT_TRUE(FeIsZero(FeInvert(FeZero())));
}

TEST(Fe25519, NegationFlipsSign) {
  ChaChaRng rng(5);
  for (int iter = 0; iter < 20; ++iter) {
    Fe25519 a = RandomFe(rng);
    if (FeIsZero(a)) {
      continue;
    }
    EXPECT_NE(FeIsNegative(a), FeIsNegative(FeNeg(a)));
    EXPECT_FALSE(FeIsNegative(FeAbs(a)));
  }
}

TEST(Fe25519, SqrtRatioOfSquares) {
  ChaChaRng rng(6);
  for (int iter = 0; iter < 20; ++iter) {
    Fe25519 x = RandomFe(rng);
    Fe25519 v = RandomFe(rng);
    if (FeIsZero(x) || FeIsZero(v)) {
      continue;
    }
    // u/v = x^2 where u = x^2 * v: must report square and return |x|.
    Fe25519 u = FeMul(FeSquare(x), v);
    SqrtRatioResult r = FeSqrtRatioM1(u, v);
    EXPECT_TRUE(r.was_square);
    EXPECT_TRUE(FeEqual(r.root, FeAbs(x)));
    EXPECT_FALSE(FeIsNegative(r.root));
  }
}

TEST(Fe25519, SqrtRatioOfNonSquares) {
  ChaChaRng rng(7);
  int non_square_count = 0;
  for (int iter = 0; iter < 40; ++iter) {
    Fe25519 u = RandomFe(rng);
    Fe25519 v = RandomFe(rng);
    if (FeIsZero(u) || FeIsZero(v)) {
      continue;
    }
    SqrtRatioResult r = FeSqrtRatioM1(u, v);
    if (!r.was_square) {
      ++non_square_count;
      // Then root = sqrt(SQRT_M1 * u/v): root^2 * v == SQRT_M1 * u.
      Fe25519 lhs = FeMul(FeSquare(r.root), v);
      Fe25519 rhs = FeMul(FeSqrtM1(), u);
      EXPECT_TRUE(FeEqual(lhs, rhs));
    }
  }
  // About half of random ratios are non-squares.
  EXPECT_GT(non_square_count, 5);
}

TEST(Fe25519, SqrtRatioZeroNumerator) {
  SqrtRatioResult r = FeSqrtRatioM1(FeZero(), FeOne());
  EXPECT_TRUE(r.was_square);
  EXPECT_TRUE(FeIsZero(r.root));
}

TEST(Fe25519, InvSqrtMatchesSqrtRatioWithUnitNumerator) {
  // FeInvSqrt is FeSqrtRatioM1 specialized to u = 1; every ristretto encode
  // and decode runs it, so the flag and the canonical root must agree with
  // the general routine on edge values, random elements and random squares.
  std::vector<Fe25519> inputs = {
      FeZero(), FeOne(), FeNeg(FeOne()), FeSqrtM1(),
      FeFromBytes(HexDecode("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f")),
      LooseExtreme()};
  ChaChaRng rng(0xF8);
  for (int iter = 0; iter < 200; ++iter) {
    inputs.push_back(RandomFe(rng));
    inputs.push_back(FeSquare(RandomFe(rng)));
  }
  int squares = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    SqrtRatioResult got = FeInvSqrt(inputs[i]);
    SqrtRatioResult expect = FeSqrtRatioM1(FeOne(), inputs[i]);
    EXPECT_EQ(got.was_square, expect.was_square) << "input " << i;
    EXPECT_EQ(FeToBytes(got.root), FeToBytes(expect.root)) << "input " << i;
    squares += got.was_square ? 1 : 0;
  }
  // Every squared input is a square and about half of the random ones are.
  EXPECT_GT(squares, 250);
  EXPECT_LT(squares, static_cast<int>(inputs.size()));
}

TEST(Fe25519, PowMatchesRepeatedMultiplication) {
  // f^5 via FePow (exponent constant 5) vs manual chain.
  Bytes exp(32, 0);
  exp[0] = 5;
  ChaChaRng rng(8);
  Fe25519 f = RandomFe(rng);
  Fe25519 expected = FeMul(FeMul(FeMul(FeMul(f, f), f), f), f);
  EXPECT_TRUE(FeEqual(FePow(f, exp), expected));
}

TEST(Fe25519, FromU64Large) {
  // Values above 2^51 must split across limbs correctly.
  uint64_t v = (uint64_t{1} << 60) + 12345;
  Fe25519 f = FeFromU64(v);
  Fe25519 sum = FeZero();
  Fe25519 two60 = FeOne();
  for (int i = 0; i < 60; ++i) {
    two60 = FeAdd(two60, two60);
  }
  sum = FeAdd(two60, FeFromU64(12345));
  EXPECT_TRUE(FeEqual(f, sum));
}

}  // namespace
}  // namespace votegral
