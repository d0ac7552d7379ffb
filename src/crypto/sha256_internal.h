// SHA-256 block kernels. Sha256 (sha256.h) runs exactly one of them per
// process, chosen once from CPUID; this header exposes both so the kernel
// tests can run each against the FIPS 180-4 vectors and against each other,
// whichever one the host would pick.
#ifndef SRC_CRYPTO_SHA256_INTERNAL_H_
#define SRC_CRYPTO_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace votegral::sha256_internal {

// A block kernel: see CompressPortable.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks, size_t count);

// Applies the compression function to `count` consecutive 64-byte blocks,
// updating the eight chaining words `state` (a..h, FIPS 180-4 order).
// Portable C++: the reference, and the only kernel on other CPUs.
void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t count);

// True when this CPU has the x86 SHA extensions and SSE4.1 (false on every
// other architecture).
bool CpuHasShaNi();

#if defined(__x86_64__)
// CompressPortable on the SHA-NI instructions. Call only when CpuHasShaNi().
void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t count);
#endif

}  // namespace votegral::sha256_internal

#endif  // SRC_CRYPTO_SHA256_INTERNAL_H_
