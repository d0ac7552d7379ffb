#include "src/crypto/fe25519.h"

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace votegral {

namespace {

using fe25519_internal::Carry;
using fe25519_internal::kMask51;

// The exponent p - 2 = 2^255 - 21 as 32 little-endian bytes (for inversion).
constexpr uint8_t kExpPMinus2[32] = {
    0xeb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0x7f};

// The exponent (p - 5) / 8 = 2^252 - 3.
constexpr uint8_t kExpP58[32] = {
    0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0x0f};

// The exponent (p - 1) / 4 = 2^253 - 5 (sqrt(-1) = 2^((p-1)/4) since 2 is a
// quadratic non-residue mod p).
constexpr uint8_t kExpP14[32] = {
    0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0x1f};

}  // namespace

Fe25519 FeFromU64(uint64_t value) {
  Fe25519 f{{value & kMask51, value >> 51, 0, 0, 0}};
  return f;
}

Fe25519 FeFromBytes(std::span<const uint8_t> bytes32) {
  Require(bytes32.size() == 32, "FeFromBytes: need 32 bytes");
  const uint8_t* s = bytes32.data();
  Fe25519 f;
  f.limb[0] = LoadLe64(s) & kMask51;
  f.limb[1] = (LoadLe64(s + 6) >> 3) & kMask51;
  f.limb[2] = (LoadLe64(s + 12) >> 6) & kMask51;
  f.limb[3] = (LoadLe64(s + 19) >> 1) & kMask51;
  f.limb[4] = (LoadLe64(s + 24) >> 12) & kMask51;
  return f;
}

std::array<uint8_t, 32> FeToBytes(const Fe25519& f) {
  Fe25519 t = Carry(Carry(f));
  // Compute q = 1 iff t >= p, by propagating the carry of (t + 19) past bit
  // 255, then subtract q*p by adding 19*q and masking bit 255.
  uint64_t q = (t.limb[0] + 19) >> 51;
  q = (t.limb[1] + q) >> 51;
  q = (t.limb[2] + q) >> 51;
  q = (t.limb[3] + q) >> 51;
  q = (t.limb[4] + q) >> 51;
  t.limb[0] += 19 * q;
  t.limb[1] += t.limb[0] >> 51;
  t.limb[0] &= kMask51;
  t.limb[2] += t.limb[1] >> 51;
  t.limb[1] &= kMask51;
  t.limb[3] += t.limb[2] >> 51;
  t.limb[2] &= kMask51;
  t.limb[4] += t.limb[3] >> 51;
  t.limb[3] &= kMask51;
  t.limb[4] &= kMask51;

  std::array<uint8_t, 32> out;
  uint64_t w0 = t.limb[0] | (t.limb[1] << 51);
  uint64_t w1 = (t.limb[1] >> 13) | (t.limb[2] << 38);
  uint64_t w2 = (t.limb[2] >> 26) | (t.limb[3] << 25);
  uint64_t w3 = (t.limb[3] >> 39) | (t.limb[4] << 12);
  StoreLe64(out.data(), w0);
  StoreLe64(out.data() + 8, w1);
  StoreLe64(out.data() + 16, w2);
  StoreLe64(out.data() + 24, w3);
  return out;
}

bool FeBytesAreCanonical(std::span<const uint8_t> bytes32) {
  if (bytes32.size() != 32) {
    return false;
  }
  auto round_trip = FeToBytes(FeFromBytes(bytes32));
  return ConstantTimeEqual(round_trip, bytes32);
}

Fe25519 FePow(const Fe25519& f, std::span<const uint8_t> exponent32) {
  Require(exponent32.size() == 32, "FePow: need 32-byte exponent");
  Fe25519 result = FeOne();
  bool started = false;
  for (int i = 255; i >= 0; --i) {
    if (started) {
      result = FeSquare(result);
    }
    int bit = (exponent32[static_cast<size_t>(i / 8)] >> (i % 8)) & 1;
    if (bit != 0) {
      result = started ? FeMul(result, f) : f;
      started = true;
    }
  }
  return started ? result : FeOne();
}

namespace {

// f^(2^k) by k successive squarings.
Fe25519 Pow2k(Fe25519 f, int k) {
  while (k-- > 0) {
    f = FeSquare(f);
  }
  return f;
}

// z^(2^250 - 1), the shared prefix of the p-2 and (p-5)/8 addition chains
// (the classic ref10 chain: 254 squarings and 11 multiplications total,
// against ~250 multiplications for square-and-multiply on these nearly
// all-ones exponents). Also emits z^11 for the inversion tail.
Fe25519 PowChain250(const Fe25519& z, Fe25519* z11_out) {
  Fe25519 z2 = FeSquare(z);                      // 2
  Fe25519 z9 = FeMul(z, Pow2k(z2, 2));           // 9
  Fe25519 z11 = FeMul(z2, z9);                   // 11
  Fe25519 z31 = FeMul(z9, FeSquare(z11));        // 2^5 - 1
  Fe25519 t10 = FeMul(z31, Pow2k(z31, 5));       // 2^10 - 1
  Fe25519 t20 = FeMul(t10, Pow2k(t10, 10));      // 2^20 - 1
  Fe25519 t40 = FeMul(t20, Pow2k(t20, 20));      // 2^40 - 1
  Fe25519 t50 = FeMul(t10, Pow2k(t40, 10));      // 2^50 - 1
  Fe25519 t100 = FeMul(t50, Pow2k(t50, 50));     // 2^100 - 1
  Fe25519 t200 = FeMul(t100, Pow2k(t100, 100));  // 2^200 - 1
  Fe25519 t = FeMul(t50, Pow2k(t200, 50));       // 2^250 - 1
  if (z11_out != nullptr) {
    *z11_out = z11;
  }
  return t;
}

}  // namespace

Fe25519 FeInvert(const Fe25519& f) {
  // f^(p-2) = f^((2^250-1)*2^5 + 11).
  Fe25519 z11;
  Fe25519 t = PowChain250(f, &z11);
  return FeMul(Pow2k(t, 5), z11);
}

Fe25519 FePow2523(const Fe25519& f) {
  // f^((p-5)/8) = f^((2^250-1)*2^2 + 1).
  return FeMul(Pow2k(PowChain250(f, nullptr), 2), f);
}

bool FeIsNegative(const Fe25519& f) { return (FeToBytes(f)[0] & 1) != 0; }

bool FeIsZero(const Fe25519& f) {
  auto bytes = FeToBytes(f);
  uint8_t acc = 0;
  for (uint8_t b : bytes) {
    acc |= b;
  }
  return acc == 0;
}

bool FeEqual(const Fe25519& a, const Fe25519& b) {
  return ConstantTimeEqual(FeToBytes(a), FeToBytes(b));
}

Fe25519 FeAbs(const Fe25519& f) { return FeIsNegative(f) ? FeNeg(f) : f; }

Fe25519 FeSelect(const Fe25519& f, const Fe25519& t, bool b) { return b ? t : f; }

const Fe25519& FeSqrtM1() {
  static const Fe25519 kSqrtM1 = FePow(FeFromU64(2), kExpP14);
  return kSqrtM1;
}

const Fe25519& FeEdwardsD() {
  static const Fe25519 kD = FeNeg(FeMul(FeFromU64(121665), FeInvert(FeFromU64(121666))));
  return kD;
}

SqrtRatioResult FeSqrtRatioM1(const Fe25519& u, const Fe25519& v) {
  // RFC 9496 §4.2 (SQRT_RATIO_M1).
  Fe25519 v3 = FeMul(FeSquare(v), v);
  Fe25519 v7 = FeMul(FeSquare(v3), v);
  Fe25519 r = FeMul(FeMul(u, v3), FePow2523(FeMul(u, v7)));
  Fe25519 check = FeMul(v, FeSquare(r));

  bool correct_sign_sqrt = FeEqual(check, u);
  Fe25519 u_neg = FeNeg(u);
  bool flipped_sign_sqrt = FeEqual(check, u_neg);
  bool flipped_sign_sqrt_i = FeEqual(check, FeMul(u_neg, FeSqrtM1()));

  Fe25519 r_prime = FeMul(r, FeSqrtM1());
  r = FeSelect(r, r_prime, flipped_sign_sqrt || flipped_sign_sqrt_i);
  r = FeAbs(r);

  return SqrtRatioResult{correct_sign_sqrt || flipped_sign_sqrt, r};
}

SqrtRatioResult FeInvSqrt(const Fe25519& v) {
  // SQRT_RATIO_M1 with u = 1: r = v^3 * (v^7)^((p-5)/8), then the same
  // fourth-root-of-unity correction and sign canonicalization.
  Fe25519 v3 = FeMul(FeSquare(v), v);
  Fe25519 v7 = FeMul(FeSquare(v3), v);
  Fe25519 r = FeMul(v3, FePow2523(v7));
  return fe25519_internal::InvSqrtFinish(r, FeMul(v, FeSquare(r)));
}

namespace fe25519_internal {

SqrtRatioResult InvSqrtFinish(const Fe25519& r, const Fe25519& check) {
  // check is 0 or a fourth root of unity. Its canonical bytes are compared
  // with those of the three roots FeInvSqrt tells apart, each encoded once.
  static const std::array<uint8_t, 32> kOne = FeToBytes(FeOne());
  static const std::array<uint8_t, 32> kMinusOne = FeToBytes(FeNeg(FeOne()));
  static const std::array<uint8_t, 32> kMinusSqrtM1 = FeToBytes(FeNeg(FeSqrtM1()));
  const std::array<uint8_t, 32> c = FeToBytes(check);
  const bool correct_sign_sqrt = ConstantTimeEqual(c, kOne);
  const bool flipped_sign_sqrt = ConstantTimeEqual(c, kMinusOne);
  const bool flipped_sign_sqrt_i = ConstantTimeEqual(c, kMinusSqrtM1);
  const Fe25519 root =
      flipped_sign_sqrt || flipped_sign_sqrt_i ? FeMul(r, FeSqrtM1()) : r;
  return SqrtRatioResult{correct_sign_sqrt || flipped_sign_sqrt, FeAbs(root)};
}

}  // namespace fe25519_internal

}  // namespace votegral
