// Arithmetic in GF(2^255 - 19), the curve25519 base field, using the
// standard 5×51-bit unsigned radix with 128-bit intermediate products.
//
// Representation invariant: after every public operation each limb is
// "loosely reduced" (< 2^51 + 2^13), which keeps all intermediate products
// within 128 bits. ToBytes performs full canonical reduction.
//
// Addition, subtraction, negation, multiplication and squaring are defined
// inline below, because every point formula is a chain of them and a call
// per operation is a large share of its cost (docs/ARCHITECTURE.md §Field
// arithmetic has the measurements). Inversion, the power chains, square
// roots and the byte codecs stay in fe25519.cpp.
//
// Nothing here is hardened against timing side channels; the paper's threat
// model explicitly places side-channel attacks out of scope (Appendix L).
#ifndef SRC_CRYPTO_FE25519_H_
#define SRC_CRYPTO_FE25519_H_

#include <array>
#include <cstdint>
#include <span>

namespace votegral {

// A field element in GF(2^255 - 19).
struct Fe25519 {
  uint64_t limb[5];
};

// Constants.
inline Fe25519 FeZero() { return Fe25519{{0, 0, 0, 0, 0}}; }
inline Fe25519 FeOne() { return Fe25519{{1, 0, 0, 0, 0}}; }
// Constructs a field element from a small integer.
Fe25519 FeFromU64(uint64_t value);

// Parses 32 little-endian bytes; the top bit (2^255) is ignored, matching
// the edwards25519/ristretto conventions.
Fe25519 FeFromBytes(std::span<const uint8_t> bytes32);

// Serializes to the canonical 32-byte little-endian representation in
// [0, 2^255 - 19).
std::array<uint8_t, 32> FeToBytes(const Fe25519& f);

// True when `bytes32` is the canonical encoding of a field element (i.e. it
// round-trips). Ristretto decoding requires this check.
bool FeBytesAreCanonical(std::span<const uint8_t> bytes32);

namespace fe25519_internal {

using u128 = unsigned __int128;

inline constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;

// Limbs of 2p in radix 2^51: subtracting b from a computes a + 2p - b so no
// limb underflows for loosely reduced inputs.
inline constexpr uint64_t kTwoP0 = 0xFFFFFFFFFFFDAULL;     // 2*(2^51 - 19)
inline constexpr uint64_t kTwoP1234 = 0xFFFFFFFFFFFFEULL;  // 2*(2^51 - 1)

// One pass of carry propagation; leaves each limb < 2^51 + 2^13 for any
// input whose limbs are < 2^63.
inline Fe25519 Carry(Fe25519 f) {
  uint64_t c;
  c = f.limb[0] >> 51;
  f.limb[0] &= kMask51;
  f.limb[1] += c;
  c = f.limb[1] >> 51;
  f.limb[1] &= kMask51;
  f.limb[2] += c;
  c = f.limb[2] >> 51;
  f.limb[2] &= kMask51;
  f.limb[3] += c;
  c = f.limb[3] >> 51;
  f.limb[3] &= kMask51;
  f.limb[4] += c;
  c = f.limb[4] >> 51;
  f.limb[4] &= kMask51;
  f.limb[0] += 19 * c;
  c = f.limb[0] >> 51;
  f.limb[0] &= kMask51;
  f.limb[1] += c;
  return f;
}

// Reduces the five column sums of a product to loosely reduced limbs. For
// loosely reduced factors every sum is below 2^109, so each carry out of a
// column is below 2^58 and fits a 64-bit register, and 19 times the final
// carry (< 2^54) is below 2^59.
inline Fe25519 CarryProduct(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe25519 r;
  uint64_t c;
  c = static_cast<uint64_t>(t0 >> 51);
  r.limb[0] = static_cast<uint64_t>(t0) & kMask51;
  t1 += c;
  c = static_cast<uint64_t>(t1 >> 51);
  r.limb[1] = static_cast<uint64_t>(t1) & kMask51;
  t2 += c;
  c = static_cast<uint64_t>(t2 >> 51);
  r.limb[2] = static_cast<uint64_t>(t2) & kMask51;
  t3 += c;
  c = static_cast<uint64_t>(t3 >> 51);
  r.limb[3] = static_cast<uint64_t>(t3) & kMask51;
  t4 += c;
  c = static_cast<uint64_t>(t4 >> 51);
  r.limb[4] = static_cast<uint64_t>(t4) & kMask51;
  r.limb[0] += c * 19;
  r.limb[1] += r.limb[0] >> 51;
  r.limb[0] &= kMask51;
  return r;
}

}  // namespace fe25519_internal

inline Fe25519 FeAdd(const Fe25519& a, const Fe25519& b) {
  Fe25519 r;
  for (int i = 0; i < 5; ++i) {
    r.limb[i] = a.limb[i] + b.limb[i];
  }
  return fe25519_internal::Carry(r);
}

inline Fe25519 FeSub(const Fe25519& a, const Fe25519& b) {
  using fe25519_internal::kTwoP0;
  using fe25519_internal::kTwoP1234;
  Fe25519 r;
  r.limb[0] = a.limb[0] + kTwoP0 - b.limb[0];
  r.limb[1] = a.limb[1] + kTwoP1234 - b.limb[1];
  r.limb[2] = a.limb[2] + kTwoP1234 - b.limb[2];
  r.limb[3] = a.limb[3] + kTwoP1234 - b.limb[3];
  r.limb[4] = a.limb[4] + kTwoP1234 - b.limb[4];
  return fe25519_internal::Carry(r);
}

inline Fe25519 FeNeg(const Fe25519& a) { return FeSub(FeZero(), a); }

inline Fe25519 FeMul(const Fe25519& a, const Fe25519& b) {
  using fe25519_internal::u128;
  const uint64_t f0 = a.limb[0], f1 = a.limb[1], f2 = a.limb[2], f3 = a.limb[3], f4 = a.limb[4];
  const uint64_t g0 = b.limb[0], g1 = b.limb[1], g2 = b.limb[2], g3 = b.limb[3], g4 = b.limb[4];
  // 2^255 = 19 (mod p), so the products that wrap past limb 4 come back
  // multiplied by 19. Folding 19 into g first keeps every term one 64x64-bit
  // multiply: 19 * (2^51 + 2^13) < 2^56.
  const uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3, g4_19 = 19 * g4;

  const u128 t0 = (u128)f0 * g0 + (u128)f1 * g4_19 + (u128)f2 * g3_19 + (u128)f3 * g2_19 +
                  (u128)f4 * g1_19;
  const u128 t1 = (u128)f0 * g1 + (u128)f1 * g0 + (u128)f2 * g4_19 + (u128)f3 * g3_19 +
                  (u128)f4 * g2_19;
  const u128 t2 = (u128)f0 * g2 + (u128)f1 * g1 + (u128)f2 * g0 + (u128)f3 * g4_19 +
                  (u128)f4 * g3_19;
  const u128 t3 = (u128)f0 * g3 + (u128)f1 * g2 + (u128)f2 * g1 + (u128)f3 * g0 +
                  (u128)f4 * g4_19;
  const u128 t4 = (u128)f0 * g4 + (u128)f1 * g3 + (u128)f2 * g2 + (u128)f3 * g1 + (u128)f4 * g0;
  return fe25519_internal::CarryProduct(t0, t1, t2, t3, t4);
}

inline Fe25519 FeSquare(const Fe25519& a) {
  using fe25519_internal::u128;
  // The 25 cross products of FeMul collapse to 15 by symmetry (f_i*f_j
  // appears twice for i != j). Squarings dominate every doubling chain and
  // every fixed-exponent power.
  const uint64_t f0 = a.limb[0], f1 = a.limb[1], f2 = a.limb[2], f3 = a.limb[3], f4 = a.limb[4];
  const uint64_t d0 = 2 * f0;
  const uint64_t d1 = 2 * f1;
  const uint64_t f3_19 = 19 * f3;
  const uint64_t f4_19 = 19 * f4;

  const u128 t0 = (u128)f0 * f0 + (u128)d1 * f4_19 + (u128)(2 * f2) * f3_19;
  const u128 t1 = (u128)d0 * f1 + (u128)(2 * f2) * f4_19 + (u128)f3 * f3_19;
  const u128 t2 = (u128)d0 * f2 + (u128)f1 * f1 + (u128)(2 * f3) * f4_19;
  const u128 t3 = (u128)d0 * f3 + (u128)d1 * f2 + (u128)f4 * f4_19;
  const u128 t4 = (u128)d0 * f4 + (u128)d1 * f3 + (u128)f2 * f2;
  return fe25519_internal::CarryProduct(t0, t1, t2, t3, t4);
}

// f^e where `exponent32` is a 32-byte little-endian constant. Used with the
// fixed exponents below; not constant-time in the exponent (exponents here
// are public constants).
Fe25519 FePow(const Fe25519& f, std::span<const uint8_t> exponent32);

// f^(p-2): multiplicative inverse (0 maps to 0).
Fe25519 FeInvert(const Fe25519& f);

// f^((p-5)/8): the core of the combined square-root/inverse-square-root.
Fe25519 FePow2523(const Fe25519& f);

// Canonical-sign helpers ("negative" = canonical encoding has lsb 1, per the
// ristretto255 spec).
bool FeIsNegative(const Fe25519& f);
bool FeIsZero(const Fe25519& f);
bool FeEqual(const Fe25519& a, const Fe25519& b);

// |f|: f if non-negative, -f otherwise.
Fe25519 FeAbs(const Fe25519& f);

// Returns `b ? t : f` (value select).
Fe25519 FeSelect(const Fe25519& f, const Fe25519& t, bool b);

// Computes (was_square, r) with r = sqrt(u/v) when u/v is a square, else
// r = sqrt(SQRT_M1 * u/v); r is always non-negative. This is the
// SQRT_RATIO_M1 routine from the ristretto255 spec (RFC 9496 §4.2).
struct SqrtRatioResult {
  bool was_square;
  Fe25519 root;
};
SqrtRatioResult FeSqrtRatioM1(const Fe25519& u, const Fe25519& v);

// FeSqrtRatioM1 specialized to u = 1: (was_square, 1/sqrt(v)) — the form
// every ristretto encode and decode actually needs. Identical outputs to
// FeSqrtRatioM1(FeOne(), v) (including v = 0 -> (false, 0)) while skipping
// the two u-multiplications of the general routine. The ~250-squaring
// exponentiation inside is inherently per-input: it cannot be shared across
// a batch the way Montgomery's trick shares inversions, because the
// individual roots are not rational functions of the inputs and a combined
// root (see docs/TRANSCRIPTS.md, "Why wire bytes instead of batched
// roots") — which is exactly why the DLEQ layer caches encodings instead of
// recomputing them.
SqrtRatioResult FeInvSqrt(const Fe25519& v);

namespace fe25519_internal {

// FeInvSqrt after its power chain, for a kernel that computes the chain
// itself (the batched encode): given r = v^3 * (v^7)^((p-5)/8) and
// check = v * r^2, the same result as FeInvSqrt(v).
SqrtRatioResult InvSqrtFinish(const Fe25519& r, const Fe25519& check);

}  // namespace fe25519_internal

// sqrt(-1) mod p (computed once at startup as 2^((p-1)/4)).
const Fe25519& FeSqrtM1();

// The edwards25519 curve constant d = -121665/121666.
const Fe25519& FeEdwardsD();

}  // namespace votegral

#endif  // SRC_CRYPTO_FE25519_H_
