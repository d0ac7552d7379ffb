// RistrettoPoint::MulEach over many points (src/crypto/ristretto.h) and its
// two batch kernels (src/crypto/ristretto_internal.h), each against the
// one-point MulEach, compared by encoding:
//
//  * Points: the generator and a registered key (the table path), an
//    unregistered point, the identity, a decoded point (Z = 1), and points
//    whose X, Y, Z or T limbs sit at the top of the loosely reduced range,
//    where a sum left uncarried overflows the 52-bit multiplier inputs.
//  * Scalars: 0, 1, l-1, 2^252, all-7, all-8 and all-15 nibbles and 512
//    random ones, shared by every point of a batch or different per point.
//  * Shapes: 1, 2 and 3 scalars per point, and batches of 0 to 17 points
//    (an empty, a short, a full and a padded last group of eight) and 64.
//
// The kernels are called directly, as the SHA-256 kernel tests call theirs:
// the portable one everywhere, the IFMA one only where the CPU has it (the
// IFMA tests report SKIPPED elsewhere, naming the missing instructions).
// Every call writes into a span followed by sentinel points, so a pad lane
// that leaks past the last output is seen.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/drbg.h"
#include "src/crypto/fe25519.h"
#include "src/crypto/ristretto.h"
#include "src/crypto/ristretto_internal.h"

namespace votegral {
namespace {

using ristretto_internal::Coordinates;

RistrettoPoint RandomPoint(Rng& rng) {
  return RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
}

// p in coordinates scaled so that coordinate `c` (X, Y, Z or T) has every
// limb at 2^51 + 2^13 - 1, the top of the loosely reduced range.
RistrettoPoint ExtremeLimbs(const RistrettoPoint& p, size_t c) {
  Fe25519 extreme;
  for (uint64_t& limb : extreme.limb) {
    limb = (uint64_t{1} << 51) + (uint64_t{1} << 13) - 1;
  }
  std::array<Fe25519, 4> coords = Coordinates::Of(p);
  const Fe25519 lambda = FeMul(extreme, FeInvert(coords[c]));
  for (Fe25519& coord : coords) {
    coord = FeMul(coord, lambda);
  }
  coords[c] = extreme;
  const RistrettoPoint scaled = Coordinates::Make(coords[0], coords[1], coords[2], coords[3]);
  Require(scaled == p, "ExtremeLimbs: scaling changed the point");
  return scaled;
}

Scalar NibbleScalar(uint8_t fill, uint8_t top) {
  std::array<uint8_t, 32> bytes;
  bytes.fill(fill);
  bytes[31] = top;
  return *Scalar::FromCanonicalBytes(bytes);
}

std::vector<Scalar> TestScalars(Rng& rng) {
  std::array<uint8_t, 32> pow252{};
  pow252[31] = 0x10;
  std::vector<Scalar> scalars = {Scalar::Zero(),
                                 Scalar::One(),
                                 Scalar::Zero() - Scalar::One(),  // l - 1
                                 *Scalar::FromCanonicalBytes(pow252),
                                 NibbleScalar(0x77, 0x07),
                                 NibbleScalar(0x88, 0x08),
                                 NibbleScalar(0xff, 0x0f)};
  for (int i = 0; i < 512; ++i) {
    scalars.push_back(Scalar::Random(rng));
  }
  return scalars;
}

struct NamedPoint {
  std::string name;
  RistrettoPoint point;
};

std::vector<NamedPoint> TestPoints(Rng& rng) {
  const RistrettoPoint key = RistrettoPoint::MulBase(Scalar::Random(rng));
  RistrettoPoint::RegisterFixedBase(key);
  Require(RistrettoPoint::HasFixedBaseTable(key), "TestPoints: key has no table");
  const RistrettoPoint unregistered = RandomPoint(rng);
  const RistrettoPoint decoded = *RistrettoPoint::Decode(RandomPoint(rng).Encode());
  std::vector<NamedPoint> points = {{"generator", RistrettoPoint::Base()},
                                    {"registered key", key},
                                    {"unregistered point", unregistered},
                                    {"identity", RistrettoPoint::Identity()},
                                    {"decoded point", decoded}};
  const char* coordinate[] = {"X", "Y", "Z", "T"};
  for (size_t c = 0; c < 4; ++c) {
    points.push_back({std::string("extreme ") + coordinate[c] + " limbs",
                      ExtremeLimbs(RandomPoint(rng), c)});
  }
  for (int i = 0; i < 4; ++i) {
    points.push_back({"random point " + std::to_string(i), RandomPoint(rng)});
  }
  return points;
}

// One batch: points[j] = pool[(first + j) % size], with per-point scalars
// from the scalar pool starting at `cursor`, or the same k for every point.
struct Batch {
  std::vector<std::string> names;
  std::vector<RistrettoPoint> points;
  std::vector<Scalar> scalars;
};

Batch MakeBatch(const std::vector<NamedPoint>& pool, const std::vector<Scalar>& scalar_pool,
                size_t n, size_t k, size_t first, size_t& cursor, bool shared) {
  Batch batch;
  for (size_t j = 0; j < n; ++j) {
    const NamedPoint& p = pool[(first + j) % pool.size()];
    batch.names.push_back(p.name);
    batch.points.push_back(p.point);
    for (size_t s = 0; s < k; ++s) {
      const size_t index = shared ? cursor + s : cursor + k * j + s;
      batch.scalars.push_back(scalar_pool[index % scalar_pool.size()]);
    }
  }
  cursor += shared ? k : k * n;
  return batch;
}

// Runs `multiply` on the batch into a span followed by k * 8 sentinels and
// compares every output with the one-point MulEach by encoding.
template <typename Multiply>
void ExpectMatchesOnePointMulEach(const Batch& batch, size_t k, Multiply multiply) {
  const size_t n = batch.points.size();
  const RistrettoPoint sentinel = RistrettoPoint::Base().Double();
  std::vector<RistrettoPoint> out(k * n + k * 8, sentinel);
  multiply(std::span<const RistrettoPoint>(batch.points), k,
           std::span<const Scalar>(batch.scalars), std::span(out).first(k * n));
  std::vector<RistrettoPoint> expected(k);
  for (size_t j = 0; j < n; ++j) {
    RistrettoPoint::MulEach(batch.points[j], std::span(batch.scalars).subspan(k * j, k),
                            expected);
    for (size_t s = 0; s < k; ++s) {
      ASSERT_EQ(out[k * j + s].Encode(), expected[s].Encode())
          << batch.names[j] << ", point " << j << " of " << n << ", scalar " << s << " "
          << HexEncode(batch.scalars[k * j + s].ToBytes());
    }
  }
  for (size_t i = k * n; i < out.size(); ++i) {
    ASSERT_TRUE(std::memcmp(&out[i], &sentinel, sizeof(sentinel)) == 0)
        << "write past the last output at " << i;
  }
}

// Every shape: k = 1, 2, 3; batches of 0..17 and 64 points; per-point and
// shared scalars; the points rotate through the pool so each lane position
// sees each kind.
template <typename Multiply>
void ExpectEveryShape(Multiply multiply) {
  ChaChaRng rng(3001);
  const std::vector<NamedPoint> pool = TestPoints(rng);
  const std::vector<Scalar> scalar_pool = TestScalars(rng);
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) {
    sizes.push_back(n);
  }
  sizes.push_back(64);
  size_t cursor = 0;
  size_t first = 0;
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}}) {
    for (size_t n : sizes) {
      for (bool shared : {false, true}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n) +
                     (shared ? " shared scalars" : " per-point scalars"));
        const Batch batch = MakeBatch(pool, scalar_pool, n, k, first++, cursor, shared);
        ExpectMatchesOnePointMulEach(batch, k, multiply);
        if (testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
  // Every scalar of the pool went through the per-point batches.
  EXPECT_GE(cursor, scalar_pool.size());
}

TEST(MulEachBatch, MatchesOnePointMulEach) {
  ExpectEveryShape([](std::span<const RistrettoPoint> points, size_t k,
                      std::span<const Scalar> scalars, std::span<RistrettoPoint> out) {
    RistrettoPoint::MulEach(points, k, scalars, out);
  });
}

TEST(MulEachBatch, RejectsMismatchedSizes) {
  const std::vector<RistrettoPoint> points(3, RistrettoPoint::Base());
  const std::vector<Scalar> scalars(5, Scalar::One());
  std::vector<RistrettoPoint> out(6);
  EXPECT_THROW(RistrettoPoint::MulEach(points, 2, scalars, out), std::exception);
}

TEST(MulEachKernels, PortableMatchesOnePointMulEach) {
  ExpectEveryShape(ristretto_internal::MulEachPortable);
}

TEST(MulEachKernels, IfmaMatchesOnePointMulEach) {
#if defined(__x86_64__)
  if (!ristretto_internal::CpuHasIfma()) {
    GTEST_SKIP() << "this CPU lacks AVX-512F or AVX-512 IFMA";
  }
  EXPECT_STREQ(ristretto_internal::MulEachKernelName(), "avx512ifma");
  ExpectEveryShape(ristretto_internal::MulEachIfma);
#else
  GTEST_SKIP() << "AVX-512 IFMA is an x86-64 extension";
#endif
}

}  // namespace
}  // namespace votegral
