// Tests for the ristretto255 group: RFC 9496 test vectors, group laws, and
// encoding invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/ristretto.h"
#include "src/crypto/sha512.h"

namespace votegral {
namespace {

RistrettoPoint RandomPoint(Rng& rng) {
  Bytes b = rng.RandomBytes(64);
  return RistrettoPoint::FromUniformBytes(b);
}

TEST(Ristretto, IdentityEncodesToZeros) {
  auto enc = RistrettoPoint::Identity().Encode();
  EXPECT_EQ(HexEncode(enc), "0000000000000000000000000000000000000000000000000000000000000000");
  auto decoded = RistrettoPoint::Decode(enc);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->IsIdentity());
}

TEST(Ristretto, BasepointMatchesRfc9496) {
  EXPECT_EQ(HexEncode(RistrettoPoint::Base().Encode()),
            "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76");
}

// The RFC 9496 Appendix A.1 table: the encodings of B[0..15].
const char* const kSmallMultiples[] = {
    "0000000000000000000000000000000000000000000000000000000000000000",
    "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
    "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
    "94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
    "da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
    "e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
    "f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
    "44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
    "903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
    "02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
    "20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
    "bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
    "e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
    "aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
    "46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
    "e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
};

TEST(Ristretto, SmallMultiplesMatchRfc9496) {
  // Repeated addition, the generator's table and the ladder must each
  // reproduce the RFC table. From 8 on the ladder recodes i as
  // 1 * 16 + (i - 16), two signed digits.
  RistrettoPoint p = RistrettoPoint::Identity();
  for (int i = 0; i < 16; ++i) {
    const Scalar s = Scalar::FromU64(static_cast<uint64_t>(i));
    EXPECT_EQ(HexEncode(p.Encode()), kSmallMultiples[i]) << "multiple " << i;
    EXPECT_EQ(HexEncode(RistrettoPoint::MulBase(s).Encode()), kSmallMultiples[i]) << "MulBase " << i;
    EXPECT_EQ(HexEncode(RistrettoPoint::MulBaseSlow(s).Encode()), kSmallMultiples[i])
        << "MulBaseSlow " << i;
    p = p + RistrettoPoint::Base();
  }
}

TEST(Ristretto, DecodeRejectsNonCanonical) {
  // All-ones: s >= p.
  Bytes bad = HexDecode("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  EXPECT_FALSE(RistrettoPoint::Decode(bad).has_value());
  // Negative s (lsb of a canonical valid encoding flipped makes s odd).
  auto base = RistrettoPoint::Base().Encode();
  base[0] ^= 1;
  EXPECT_FALSE(RistrettoPoint::Decode(base).has_value());
  // Wrong length.
  Bytes short_bytes(31, 0);
  EXPECT_FALSE(RistrettoPoint::Decode(short_bytes).has_value());
}

TEST(Ristretto, DecodeRejectsOffGroupEncodings) {
  // p - 1: canonical and non-negative, but not the encoding of a group element.
  EXPECT_FALSE(RistrettoPoint::Decode(
                   HexDecode("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"))
                   .has_value());
  // Sweep some syntactically-plausible encodings; most must fail cleanly and
  // none may crash.
  ChaChaRng rng(31);
  int accepted = 0;
  for (int iter = 0; iter < 100; ++iter) {
    Bytes b = rng.RandomBytes(32);
    b[31] &= 0x7f;  // keep it a plausible field element
    b[0] &= 0xfe;   // keep s non-negative
    auto p = RistrettoPoint::Decode(b);
    if (p.has_value()) {
      ++accepted;
      // Accepted points must round-trip.
      EXPECT_EQ(HexEncode(p->Encode()), HexEncode(b));
    }
  }
  // Roughly 1/4..1/2 of candidates decode; all must not.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 100);
}

TEST(Ristretto, EncodeDecodeRoundTrip) {
  ChaChaRng rng(32);
  for (int iter = 0; iter < 30; ++iter) {
    RistrettoPoint p = RandomPoint(rng);
    auto enc = p.Encode();
    auto back = RistrettoPoint::Decode(enc);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == p);
    EXPECT_EQ(back->Encode(), enc);
  }
}

TEST(Ristretto, GroupLaws) {
  ChaChaRng rng(33);
  for (int iter = 0; iter < 15; ++iter) {
    RistrettoPoint p = RandomPoint(rng);
    RistrettoPoint q = RandomPoint(rng);
    RistrettoPoint r = RandomPoint(rng);
    EXPECT_TRUE(p + q == q + p);
    EXPECT_TRUE((p + q) + r == p + (q + r));
    EXPECT_TRUE(p + RistrettoPoint::Identity() == p);
    EXPECT_TRUE(p - p == RistrettoPoint::Identity());
    EXPECT_TRUE(p.Double() == p + p);
    EXPECT_TRUE(-(-p) == p);
  }
  // The k-fold doubling skips T on all but its last step; it must still equal
  // k single doublings, from Z = 1, from Z != 1 and from the identity.
  const RistrettoPoint p = RandomPoint(rng);
  const RistrettoPoint z_not_one = p + RistrettoPoint::Identity();
  for (const RistrettoPoint& start : {p, z_not_one, RistrettoPoint::Identity()}) {
    RistrettoPoint doubled = start;
    for (unsigned k = 1; k <= 8; ++k) {
      doubled = doubled.Double();
      EXPECT_EQ(start.MulByPow2(k).Encode(), doubled.Encode()) << "k=" << k;
    }
  }
}

TEST(Ristretto, ScalarMultiplicationLaws) {
  ChaChaRng rng(34);
  for (int iter = 0; iter < 8; ++iter) {
    RistrettoPoint p = RandomPoint(rng);
    Scalar a = Scalar::Random(rng);
    Scalar b = Scalar::Random(rng);
    EXPECT_TRUE((a + b) * p == a * p + b * p);
    EXPECT_TRUE((a * b) * p == a * (b * p));
    EXPECT_TRUE(Scalar::One() * p == p);
    EXPECT_TRUE(Scalar::Zero() * p == RistrettoPoint::Identity());
    EXPECT_TRUE((-a) * p == -(a * p));
  }
}

TEST(Ristretto, MulBaseMatchesGenericMultiplication) {
  ChaChaRng rng(35);
  for (int iter = 0; iter < 10; ++iter) {
    Scalar s = Scalar::Random(rng);
    EXPECT_TRUE(RistrettoPoint::MulBase(s) == s * RistrettoPoint::Base());
    EXPECT_TRUE(RistrettoPoint::MulBase(s) == RistrettoPoint::MulBaseSlow(s));
  }
}

TEST(Ristretto, DoubleScalarMulBase) {
  ChaChaRng rng(36);
  for (int iter = 0; iter < 8; ++iter) {
    RistrettoPoint p = RandomPoint(rng);
    Scalar a = Scalar::Random(rng);
    Scalar b = Scalar::Random(rng);
    EXPECT_TRUE(RistrettoPoint::DoubleScalarMulBase(a, p, b) ==
                a * p + RistrettoPoint::MulBase(b));
  }
}

TEST(Ristretto, SmallScalarMultiples) {
  ChaChaRng rng(37);
  RistrettoPoint p = RandomPoint(rng);
  RistrettoPoint acc = RistrettoPoint::Identity();
  for (uint64_t k = 0; k <= 20; ++k) {
    EXPECT_TRUE(Scalar::FromU64(k) * p == acc) << "k=" << k;
    acc = acc + p;
  }
}

TEST(Ristretto, FromUniformBytesIsDeterministicAndSpreads) {
  Bytes seed(64, 7);
  RistrettoPoint a = RistrettoPoint::FromUniformBytes(seed);
  RistrettoPoint b = RistrettoPoint::FromUniformBytes(seed);
  EXPECT_TRUE(a == b);
  seed[0] ^= 1;
  RistrettoPoint c = RistrettoPoint::FromUniformBytes(seed);
  EXPECT_FALSE(a == c);
}

TEST(Ristretto, HashToGroupDomainSeparation) {
  auto data = AsBytes("the same input");
  RistrettoPoint a = RistrettoPoint::HashToGroup("domain-a", data);
  RistrettoPoint b = RistrettoPoint::HashToGroup("domain-b", data);
  RistrettoPoint a2 = RistrettoPoint::HashToGroup("domain-a", data);
  EXPECT_TRUE(a == a2);
  EXPECT_FALSE(a == b);
}

TEST(Ristretto, EqualityIsCosetAware) {
  // Two different extended representations of the same ristretto element
  // (reached via different operation orders) must compare equal.
  ChaChaRng rng(38);
  RistrettoPoint p = RandomPoint(rng);
  RistrettoPoint q = RandomPoint(rng);
  RistrettoPoint via1 = (p + q) + p;
  RistrettoPoint via2 = p.Double() + q;
  EXPECT_TRUE(via1 == via2);
  EXPECT_EQ(via1.Encode(), via2.Encode());
}

// Parameterized: k*(m*P) == (k*m)*P across a sweep of small k, m.
class RistrettoMulConsistency : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RistrettoMulConsistency, ComposesCorrectly) {
  auto [k, m] = GetParam();
  ChaChaRng rng(40);
  RistrettoPoint p = RandomPoint(rng);
  Scalar sk = Scalar::FromU64(static_cast<uint64_t>(k));
  Scalar sm = Scalar::FromU64(static_cast<uint64_t>(m));
  EXPECT_TRUE(sk * (sm * p) == (sk * sm) * p);
}

INSTANTIATE_TEST_SUITE_P(SmallPairs, RistrettoMulConsistency,
                         ::testing::Values(std::pair{2, 3}, std::pair{5, 7}, std::pair{1, 255},
                                           std::pair{16, 16}, std::pair{255, 255},
                                           std::pair{0, 9}, std::pair{13, 1}));

TEST(RistrettoBatch, BatchEncodeMatchesSingleOnRandomAndEdgePoints) {
  ChaChaRng rng(50);
  std::vector<RistrettoPoint> points;
  points.push_back(RistrettoPoint::Identity());  // u1 = u2 = 0 inside Encode
  points.push_back(RistrettoPoint::Base());
  points.push_back(RistrettoPoint::Base().Double());
  points.push_back(-RistrettoPoint::Base());
  for (int i = 0; i < 60; ++i) {
    points.push_back(RandomPoint(rng));
  }
  std::vector<CompressedRistretto> batch(points.size());
  BatchEncodePoints(points, batch);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(HexEncode(batch[i]), HexEncode(points[i].Encode())) << "index " << i;
  }
}

// BatchDoubleAndEncode against Double().Encode(), one batch per call.
void ExpectDoubleAndEncodeMatches(const std::vector<RistrettoPoint>& points) {
  std::vector<CompressedRistretto> batch(points.size());
  BatchDoubleAndEncode(points, batch);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(HexEncode(batch[i]), HexEncode(points[i].Double().Encode())) << "index " << i;
  }
}

TEST(RistrettoBatch, DoubleAndEncodeMatchesDoubleThenEncode) {
  ChaChaRng rng(53);
  std::vector<RistrettoPoint> points;
  for (int i = 0; i < 300; ++i) {  // more than one 64-point chunk
    points.push_back(RandomPoint(rng));
  }
  ExpectDoubleAndEncodeMatches(points);
  // The identity (e*f*g*h = 0) in the middle of a batch takes the fallback
  // and leaves its neighbours' shared inversion intact.
  std::vector<RistrettoPoint> with_identity = {RandomPoint(rng), RandomPoint(rng),
                                               RistrettoPoint::Identity(), RandomPoint(rng),
                                               -RistrettoPoint::Base()};
  ExpectDoubleAndEncodeMatches(with_identity);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{17}}) {
    SCOPED_TRACE("batch of " + std::to_string(n));
    ExpectDoubleAndEncodeMatches(std::vector<RistrettoPoint>(points.begin(), points.begin() + n));
  }
}

TEST(RistrettoBatch, DoubleAndEncodeIsRepresentationBlind) {
  // One element three ways: as mapped, as decoded from its encoding (affine,
  // possibly another coset representative) and with scaled coordinates.
  ChaChaRng rng(54);
  for (int trial = 0; trial < 32; ++trial) {
    const RistrettoPoint p = RandomPoint(rng);
    const RistrettoPoint decoded = *RistrettoPoint::Decode(p.Encode());
    const std::vector<RistrettoPoint> same = {p, decoded, p + RistrettoPoint::Identity()};
    std::vector<CompressedRistretto> batch(same.size());
    BatchDoubleAndEncode(same, batch);
    const CompressedRistretto expected = p.Double().Encode();
    for (size_t i = 0; i < same.size(); ++i) {
      EXPECT_EQ(HexEncode(batch[i]), HexEncode(expected)) << "trial " << trial << " form " << i;
    }
  }
}

TEST(RistrettoBatch, DoubleAndEncodeMatchesRfc9496) {
  // k*B for k = 0..7 doubles to the RFC's B[2k].
  std::vector<RistrettoPoint> multiples;
  RistrettoPoint p = RistrettoPoint::Identity();
  for (int k = 0; k < 8; ++k) {
    multiples.push_back(p);
    p = p + RistrettoPoint::Base();
  }
  std::vector<CompressedRistretto> batch(multiples.size());
  BatchDoubleAndEncode(multiples, batch);
  for (size_t k = 0; k < multiples.size(); ++k) {
    EXPECT_EQ(HexEncode(batch[k]), kSmallMultiples[2 * k]) << "k = " << k;
  }
}

TEST(RistrettoBatch, ValidateEncodingsAcceptsExactlyTheTrueEncodings) {
  ChaChaRng rng(53);
  std::vector<RistrettoPoint> points;
  std::vector<CompressedRistretto> wire;
  std::vector<bool> expect_ok;
  auto add = [&](const RistrettoPoint& p, const CompressedRistretto& bytes, bool expected) {
    points.push_back(p);
    wire.push_back(bytes);
    expect_ok.push_back(expected);
  };

  // Identity-coset reps reached through arithmetic (Z != 1, non-trivial
  // internal representative): only the all-zero encoding may pass.
  RistrettoPoint p0 = RandomPoint(rng);
  add(p0 + (-p0), RistrettoPoint::Identity().Encode(), true);
  add(p0 + (-p0), RistrettoPoint::Base().Encode(), false);
  add(RistrettoPoint::Identity(), CompressedRistretto{}, true);

  for (int i = 0; i < 48; ++i) {
    RistrettoPoint p = RandomPoint(rng);
    if (i % 3 == 1) {
      p = p + RandomPoint(rng);  // Z != 1 representative
    }
    CompressedRistretto enc = p.Encode();
    switch (i % 6) {
      case 0:
      case 1:
        add(p, enc, true);
        break;
      case 2:  // the encoding of -P must never be accepted for P
        add(p, (-p).Encode(), false);
        break;
      case 3: {  // bit flip somewhere in the encoding
        CompressedRistretto bad = enc;
        bad[static_cast<size_t>(i) % 32] ^= static_cast<uint8_t>(1 + i % 7);
        add(p, bad, false);
        break;
      }
      case 4: {  // non-canonical field encoding (s >= p)
        Bytes raw =
            HexDecode("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
        CompressedRistretto bad;
        std::copy(raw.begin(), raw.end(), bad.begin());
        add(p, bad, false);
        break;
      }
      default:  // a different random point's encoding
        add(p, RandomPoint(rng).Encode(), false);
        break;
    }
  }

  std::vector<uint8_t> ok(points.size(), 0xcc);
  uint64_t enc0 = RistrettoEncodeInvocations();
  uint64_t dec0 = RistrettoDecodeInvocations();
  size_t failures = BatchValidateEncodings(points, wire, ok);
  // The whole batch validates with zero Encode/Decode invocations — the
  // point of the routine (no per-item inverse square roots).
  EXPECT_EQ(RistrettoEncodeInvocations(), enc0);
  EXPECT_EQ(RistrettoDecodeInvocations(), dec0);

  size_t expected_failures = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(ok[i] == 1, expect_ok[i]) << "index " << i;
    if (!expect_ok[i]) {
      ++expected_failures;
    }
  }
  EXPECT_EQ(failures, expected_failures);
}

TEST(RistrettoBatch, ValidateEncodingsAgreesWithDecodeCompareOnArbitraryBytes) {
  // Reference semantics: ok[i] must equal "bytes decode AND the decoded point
  // equals points[i]" — the exact check the verifier-side wire-cache
  // validation previously implemented with per-item Decode.
  ChaChaRng rng(54);
  std::vector<RistrettoPoint> points;
  std::vector<CompressedRistretto> wire;
  for (int i = 0; i < 64; ++i) {
    points.push_back(RandomPoint(rng));
    CompressedRistretto c{};
    if (i % 2 == 0) {
      c = points.back().Encode();
      if (i % 4 == 0) {
        c[i % 32] ^= 0x40;  // half of the even slots corrupted
      }
    } else {
      Bytes b = rng.RandomBytes(32);
      std::copy(b.begin(), b.end(), c.begin());
    }
    wire.push_back(c);
  }
  std::vector<uint8_t> ok(points.size(), 0xcc);
  BatchValidateEncodings(points, wire, ok);
  for (size_t i = 0; i < points.size(); ++i) {
    auto decoded = RistrettoPoint::Decode(wire[i]);
    bool reference = decoded.has_value() && *decoded == points[i];
    EXPECT_EQ(ok[i] == 1, reference) << "index " << i;
  }
}

TEST(RistrettoBatch, BaseWireIsTheBasepointEncoding) {
  EXPECT_EQ(HexEncode(RistrettoPoint::BaseWire()),
            "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76");
}

TEST(RistrettoBatch, InvocationCountersTrackEncodeAndDecode) {
  ChaChaRng rng(52);
  std::vector<RistrettoPoint> points(8, RandomPoint(rng));
  std::vector<CompressedRistretto> wire(points.size());
  uint64_t enc0 = RistrettoEncodeInvocations();
  BatchEncodePoints(points, wire);
  EXPECT_EQ(RistrettoEncodeInvocations() - enc0, points.size());
  uint64_t dec0 = RistrettoDecodeInvocations();
  for (const CompressedRistretto& bytes : wire) {
    EXPECT_TRUE(RistrettoPoint::Decode(bytes).has_value());
  }
  EXPECT_EQ(RistrettoDecodeInvocations() - dec0, points.size());
}

}  // namespace
}  // namespace votegral
