// The group layer's batch kernels. RistrettoPoint::MulEach over many points
// runs exactly one of them per process, chosen once from CPUID; this header
// exposes both so the kernel tests can run each against the one-point
// MulEach, whichever one the host would pick, as the SHA-256 kernel tests do
// (sha256_internal.h).
#ifndef SRC_CRYPTO_RISTRETTO_INTERNAL_H_
#define SRC_CRYPTO_RISTRETTO_INTERNAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/crypto/fe25519.h"
#include "src/crypto/ristretto.h"
#include "src/crypto/scalar.h"

namespace votegral::ristretto_internal {

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
};

// s as 64 signed radix-16 digits e_i in [-8, 8), s = sum_i e_i * 16^i. s <
// l < 2^253, so the top nibble is at most 1 and the last carry leaves e_63 in
// [0, 2].
std::array<int8_t, 64> SignedRadix16(const Scalar& s);

// A batch kernel: out[k*j + s] = scalars[k*j + s] * points[j] for every
// point j and each of its k scalars, as group elements equal to the
// one-point MulEach's. The caller checks the sizes.
using MulEachKernel = void (*)(std::span<const RistrettoPoint> points, size_t k,
                               std::span<const Scalar> scalars,
                               std::span<RistrettoPoint> out);

// The one-point MulEach for each point in turn: the reference, and the only
// kernel on other CPUs.
void MulEachPortable(std::span<const RistrettoPoint> points, size_t k,
                     std::span<const Scalar> scalars, std::span<RistrettoPoint> out);

// True when this CPU (and its operating system) runs AVX-512F and AVX-512
// IFMA (false on every other architecture).
bool CpuHasIfma();

#if defined(__x86_64__)
// The one-point MulEach's algorithm eight points at a time, one per 64-bit
// lane of AVX-512 vectors, on the 52-bit multiply-add instructions
// (ristretto_ifma.cpp). Call only when CpuHasIfma().
void MulEachIfma(std::span<const RistrettoPoint> points, size_t k,
                 std::span<const Scalar> scalars, std::span<RistrettoPoint> out);
#endif

// The name of the kernel RistrettoPoint::MulEach runs in this process:
// "avx512ifma" or "portable".
const char* MulEachKernelName();

}  // namespace votegral::ristretto_internal

#endif  // SRC_CRYPTO_RISTRETTO_INTERNAL_H_
