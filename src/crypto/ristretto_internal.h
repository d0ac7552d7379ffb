// The group layer's batch kernels. Three batch entries run on them:
// RistrettoPoint::MulEach over many points, FixedBaseTable::MulEach and the
// batched encode under BatchEncodePoints. Each entry runs exactly one kernel
// per process, the same kind for all three, chosen once from CPUID; this
// header exposes both kinds so the kernel tests can run each against the
// one-point path, whichever one the host would pick, as the SHA-256 kernel
// tests do (sha256_internal.h).
#ifndef SRC_CRYPTO_RISTRETTO_INTERNAL_H_
#define SRC_CRYPTO_RISTRETTO_INTERNAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "src/crypto/fe25519.h"
#include "src/crypto/ristretto.h"
#include "src/crypto/scalar.h"

namespace votegral {

// Precomputed multiples of one base P: row i holds j * 16^i * P for j = 1..8
// as affine addends (y+x, y-x, 2d*x*y). With s recoded into 64 signed
// radix-16 digits e_i in [-8, 8), s*P = sum_i e_i * 16^i * P costs at most 64
// mixed additions (7 multiplications each, one fewer than a CachedPoint
// addition because Z = 1; a negative digit only swaps and negates) and no
// doublings. 64 x 8 x 120 bytes = 60 KiB.
//
// On a CPU with AVX-512 IFMA the table also keeps a transposed copy of its
// rows for MulEach's eight-lane kernel, another 60 KiB: one 64-byte line
// holds limb l of one coordinate of a row's eight entries, so a vector lane
// takes its entry with one permute per limb and no gather.
class FixedBaseTable {
 public:
  explicit FixedBaseTable(const RistrettoPoint& base);

  // Exact representation: equal coordinates are the same point, so a match
  // is always sound; an equal point represented differently just misses.
  bool Matches(const RistrettoPoint& p) const {
    return std::memcmp(&base_, &p, sizeof(RistrettoPoint)) == 0;
  }

  RistrettoPoint Mul(const Scalar& s) const;

  // out[j] = Mul(scalars[j]) for every j (the spans have equal sizes), as
  // group elements. One scalar, and every CPU without IFMA, take Mul; two or
  // more run eight per group on the transposed copy.
  void MulEach(std::span<const Scalar> scalars, std::span<RistrettoPoint> out) const;

  // The transposed copy, or null on a CPU without IFMA: word
  // ((i * 3 + c) * 5 + l) * 8 + j is limb l of coordinate c (y+x, y-x,
  // 2d*x*y) of entry j (the multiple (j + 1) * 16^i * P) of row i. Aligned
  // to a cache line.
  const uint64_t* lanes() const { return lanes_ == nullptr ? nullptr : lanes_[0].word; }

 private:
  struct AffineAddend {
    Fe25519 y_plus_x;
    Fe25519 y_minus_x;
    Fe25519 xy2d;
  };
  struct alignas(64) LaneLine {
    uint64_t word[8];
  };
  static constexpr size_t kRows = 64;
  static constexpr size_t kDigits = 8;

  // p + q (or p - q) for an affine q: madd-2008-hwcd-3, i.e. the
  // CachedPoint addition with Z2 = 1, seven multiplications instead of eight.
  static RistrettoPoint AddAffine(const RistrettoPoint& p, const AffineAddend& q, bool negate);

  RistrettoPoint base_;
  std::array<std::array<AffineAddend, kDigits>, kRows> rows_;
  std::unique_ptr<LaneLine[]> lanes_;  // kRows * 3 * 5 lines
};

namespace ristretto_internal {

// A point's extended coordinates (X:Y:Z:T), for the kernels outside
// ristretto.cpp and for tests that need a particular representation.
struct Coordinates {
  static std::array<Fe25519, 4> Of(const RistrettoPoint& p) { return {p.x_, p.y_, p.z_, p.t_}; }
  // The caller vouches that (x:y:z:t) is a group element with loosely
  // reduced limbs.
  static RistrettoPoint Make(const Fe25519& x, const Fe25519& y, const Fe25519& z,
                             const Fe25519& t) {
    return RistrettoPoint(x, y, z, t);
  }
  // p.Encode() from the values Encode computes first: u1 = (Z+Y)(Z-Y),
  // u2 = XY and inv_root = 1/sqrt(u1 * u2^2) as FeInvSqrt gives it. Counts
  // as one Encode invocation.
  static CompressedRistretto EncodeWithRoot(const RistrettoPoint& p, const Fe25519& u1,
                                            const Fe25519& u2, const Fe25519& inv_root) {
    return p.EncodeWithRoot(u1, u2, inv_root);
  }
};

// s as 64 signed radix-16 digits e_i in [-8, 8), s = sum_i e_i * 16^i. s <
// l < 2^253, so the top nibble is at most 1 and the last carry leaves e_63 in
// [0, 2].
std::array<int8_t, 64> SignedRadix16(const Scalar& s);

// The portable kernels, each the one-point path in a loop: the reference,
// and the only kernels on other CPUs. The callers check the sizes.
//
// out[k*j + s] = scalars[k*j + s] * points[j] for every point j and each of
// its k scalars, by the one-point MulEach.
void MulEachPortable(std::span<const RistrettoPoint> points, size_t k,
                     std::span<const Scalar> scalars, std::span<RistrettoPoint> out);
// out[j] = table.Mul(scalars[j]).
void TableMulEachPortable(const FixedBaseTable& table, std::span<const Scalar> scalars,
                          std::span<RistrettoPoint> out);
// out[j] = points[j].Encode().
void EncodeEachPortable(std::span<const RistrettoPoint> points,
                        std::span<CompressedRistretto> out);

// True when this CPU (and its operating system) runs AVX-512F and AVX-512
// IFMA (false on every other architecture).
bool CpuHasIfma();

#if defined(__x86_64__)
// The same three eight points at a time, one per 64-bit lane of AVX-512
// vectors, on the 52-bit multiply-add instructions (ristretto_ifma.cpp).
// Their outputs are the portable kernels' group elements and encodings.
// Call only when CpuHasIfma().
//
// The one-point MulEach's rows and buckets, eight points per group.
void MulEachIfma(std::span<const RistrettoPoint> points, size_t k,
                 std::span<const Scalar> scalars, std::span<RistrettoPoint> out);
// Mul's 64 mixed additions for eight scalars per group, each lane reading
// its entries from the table's transposed copy.
void TableMulEachIfma(const FixedBaseTable& table, std::span<const Scalar> scalars,
                      std::span<RistrettoPoint> out);
// Encode with its inverse square root computed for eight points per group;
// the steps after the root run per point.
void EncodeEachIfma(std::span<const RistrettoPoint> points, std::span<CompressedRistretto> out);
#endif

// The name of the kernels the batch entries run in this process:
// "avx512ifma" or "portable".
const char* KernelName();

}  // namespace ristretto_internal

}  // namespace votegral

#endif  // SRC_CRYPTO_RISTRETTO_INTERNAL_H_
