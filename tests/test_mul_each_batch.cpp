// The group layer's batch kernels (src/crypto/ristretto_internal.h), each
// against its one-point path:
//
//  * MulEach over many points, against the one-point MulEach, compared by
//    encoding. Points: the generator and a registered key (the table path),
//    an unregistered point, the identity, a decoded point (Z = 1), and
//    points whose X, Y, Z or T limbs sit at the top of the loosely reduced
//    range, where a sum left uncarried overflows the 52-bit multiplier
//    inputs. Scalars: 0, 1, l-1, 2^252, all-7, all-8 and all-15 nibbles and
//    512 random ones, shared by every point of a batch or different per
//    point. Shapes: 1, 2 and 3 scalars per point, and batches of 0 to 17
//    points (an empty, a short, a full and a padded last group of eight)
//    and 64.
//  * FixedBaseTable::MulEach's kernels, against FixedBaseTable::Mul, on the
//    generator's table and a registered key's, over the same scalars in
//    batches of 0 to 17 and 64.
//  * The batched encode's kernels, against Encode(): the identity coset's
//    four representatives, the four representatives of random points (both
//    of Encode's rotation branches, and negative x), the RFC 9496 small
//    multiples 0..15 * B, and the extreme-limb points, in batches of 0 to
//    17 and 64.
//
// The kernels are called directly, as the SHA-256 kernel tests call theirs:
// the portable ones everywhere, the IFMA ones only where the CPU has it (the
// IFMA tests report SKIPPED elsewhere, naming the missing instructions).
// Every call writes into a span followed by sentinels, so a pad lane that
// leaks past the last output is seen.
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
  EXPECT_STREQ(ristretto_internal::KernelName(), "avx512ifma");
  ExpectEveryShape(ristretto_internal::MulEachIfma);
#else
  GTEST_SKIP() << "AVX-512 IFMA is an x86-64 extension";
#endif
}

// The batch sizes of the one-table and encode kernels: 0 to 17, then 64.
std::vector<size_t> KernelBatchSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) {
    sizes.push_back(n);
  }
  sizes.push_back(64);
  return sizes;
}

// Runs `multiply` on every batch size over two tables, the generator's and
// a registered key's, into a span followed by 8 sentinels, and compares
// every output with table.Mul by encoding.
template <typename Multiply>
void ExpectTableMatchesMul(Multiply multiply) {
  ChaChaRng rng(3002);
  const std::vector<Scalar> scalar_pool = TestScalars(rng);
  const RistrettoPoint key = RistrettoPoint::MulBase(Scalar::Random(rng));
  RistrettoPoint::RegisterFixedBase(key);
  const FixedBaseTable generator(RistrettoPoint::Base());
  const FixedBaseTable registered(key);
  const RistrettoPoint sentinel = RistrettoPoint::Base().Double();
  for (const auto& [name, table] :
       {std::pair<const char*, const FixedBaseTable*>{"generator", &generator},
        {"registered key", &registered}}) {
    // Each table takes the pool from its start: the edge scalars first.
    size_t cursor = 0;
    for (size_t n : KernelBatchSizes()) {
      SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n));
      std::vector<Scalar> scalars;
      for (size_t j = 0; j < n; ++j) {
        scalars.push_back(scalar_pool[cursor++ % scalar_pool.size()]);
      }
      std::vector<RistrettoPoint> out(n + 8, sentinel);
      multiply(*table, std::span<const Scalar>(scalars), std::span(out).first(n));
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ(out[j].Encode(), table->Mul(scalars[j]).Encode())
            << "scalar " << j << " " << HexEncode(scalars[j].ToBytes());
      }
      for (size_t i = n; i < out.size(); ++i) {
        ASSERT_TRUE(std::memcmp(&out[i], &sentinel, sizeof(sentinel)) == 0)
            << "write past the last output at " << i;
      }
    }
  }
}

TEST(TableMulEachKernels, PortableMatchesMul) {
  ExpectTableMatchesMul(ristretto_internal::TableMulEachPortable);
}

TEST(TableMulEachKernels, IfmaMatchesMul) {
#if defined(__x86_64__)
  if (!ristretto_internal::CpuHasIfma()) {
    GTEST_SKIP() << "this CPU lacks AVX-512F or AVX-512 IFMA";
  }
  ExpectTableMatchesMul(ristretto_internal::TableMulEachIfma);
#else
  GTEST_SKIP() << "AVX-512 IFMA is an x86-64 extension";
#endif
}

// The four extended representatives of p's ristretto element: (X:Y:Z:T),
// (-X:-Y:Z:T), and those plus the 4-torsion point (i, 0): (iY:iX:Z:-T) and
// (-iY:-iX:Z:-T). Encode rotates on some of them and not on others.
std::vector<RistrettoPoint> CosetRepresentatives(const RistrettoPoint& p) {
  const auto [x, y, z, t] = Coordinates::Of(p);
  const Fe25519 ix = FeMul(FeSqrtM1(), x);
  const Fe25519 iy = FeMul(FeSqrtM1(), y);
  std::vector<RistrettoPoint> reps = {p, Coordinates::Make(FeNeg(x), FeNeg(y), z, t),
                                      Coordinates::Make(iy, ix, z, FeNeg(t)),
                                      Coordinates::Make(FeNeg(iy), FeNeg(ix), z, FeNeg(t))};
  for (const RistrettoPoint& rep : reps) {
    Require(rep == p, "CosetRepresentatives: not the same element");
  }
  return reps;
}

std::vector<NamedPoint> EncodeTestPoints(Rng& rng) {
  std::vector<NamedPoint> points;
  const Fe25519 zero = FeZero();
  const Fe25519 one = FeOne();
  const Fe25519& i = FeSqrtM1();
  // The identity coset: (0, 1), (0, -1), (i, 0) and (-i, 0).
  points.push_back({"identity", Coordinates::Make(zero, one, one, zero)});
  points.push_back({"identity (0, -1)", Coordinates::Make(zero, FeNeg(one), one, zero)});
  points.push_back({"identity (i, 0)", Coordinates::Make(i, zero, one, zero)});
  points.push_back({"identity (-i, 0)", Coordinates::Make(FeNeg(i), zero, one, zero)});
  RistrettoPoint multiple;
  for (int k = 0; k < 16; ++k) {
    points.push_back({"B[" + std::to_string(k) + "]", multiple});
    multiple = multiple + RistrettoPoint::Base();
  }
  for (int r = 0; r < 16; ++r) {
    const std::vector<RistrettoPoint> reps = CosetRepresentatives(RandomPoint(rng));
    for (size_t k = 0; k < reps.size(); ++k) {
      points.push_back({"random point " + std::to_string(r) + " rep " + std::to_string(k),
                        reps[k]});
    }
  }
  const char* coordinate[] = {"X", "Y", "Z", "T"};
  for (size_t c = 0; c < 4; ++c) {
    const std::vector<RistrettoPoint> reps =
        CosetRepresentatives(ExtremeLimbs(RandomPoint(rng), c));
    points.push_back({std::string("extreme ") + coordinate[c] + " limbs", reps[0]});
    points.push_back({std::string("extreme ") + coordinate[c] + " limbs, rotated", reps[2]});
  }
  return points;
}

// Runs `encode` on every batch size, the points rotating through the pool
// so each lane position sees each kind, into a span followed by 8
// sentinels, and compares every output with Encode().
template <typename EncodeEach>
void ExpectMatchesEncode(EncodeEach encode) {
  ChaChaRng rng(3003);
  const std::vector<NamedPoint> pool = EncodeTestPoints(rng);
  CompressedRistretto sentinel;
  sentinel.fill(0xA5);
  size_t first = 0;
  for (size_t round = 0; first < 2 * pool.size(); ++round) {
    for (size_t n : KernelBatchSizes()) {
      SCOPED_TRACE("round " + std::to_string(round) + " n=" + std::to_string(n));
      std::vector<RistrettoPoint> points;
      std::vector<std::string> names;
      for (size_t j = 0; j < n; ++j) {
        points.push_back(pool[(first + j) % pool.size()].point);
        names.push_back(pool[(first + j) % pool.size()].name);
      }
      first += n;
      std::vector<CompressedRistretto> out(n + 8, sentinel);
      encode(std::span<const RistrettoPoint>(points), std::span(out).first(n));
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ(HexEncode(out[j]), HexEncode(points[j].Encode())) << names[j];
      }
      for (size_t i = n; i < out.size(); ++i) {
        ASSERT_EQ(out[i], sentinel) << "write past the last output at " << i;
      }
    }
  }
}

TEST(EncodeEachKernels, PortableMatchesEncode) {
  ExpectMatchesEncode(ristretto_internal::EncodeEachPortable);
}

TEST(EncodeEachKernels, IfmaMatchesEncode) {
#if defined(__x86_64__)
  if (!ristretto_internal::CpuHasIfma()) {
    GTEST_SKIP() << "this CPU lacks AVX-512F or AVX-512 IFMA";
  }
  ExpectMatchesEncode(ristretto_internal::EncodeEachIfma);
#else
  GTEST_SKIP() << "AVX-512 IFMA is an x86-64 extension";
#endif
}

// BatchEncodePoints, over the kernel this CPU selects, counts one Encode
// invocation per point.
TEST(BatchEntries, EncodeCountsOneInvocationPerPoint) {
  ChaChaRng rng(3004);
  std::vector<RistrettoPoint> points;
  for (int j = 0; j < 19; ++j) {
    points.push_back(RandomPoint(rng));
  }
  std::vector<CompressedRistretto> out(points.size());
  const uint64_t before = RistrettoEncodeInvocations();
  BatchEncodePoints(points, out);
  EXPECT_EQ(RistrettoEncodeInvocations() - before, points.size());
  for (size_t j = 0; j < points.size(); ++j) {
    EXPECT_EQ(out[j], points[j].Encode()) << "point " << j;
  }
}

}  // namespace
}  // namespace votegral
