// MulEach on AVX-512 IFMA: the one-point MulEach's rows and buckets for eight
// points at a time, one point per 64-bit vector lane.
//
// Field elements keep the library's radix-2^51 limbs, one limb per vector,
// so a vector holds limb i of eight elements. vpmadd52luq and vpmadd52huq
// multiply the low 52 bits of two limbs and add the low or the high 52 bits
// of the 104-bit product to a 64-bit accumulator, so every limb that enters
// a product must be below 2^52: each sum and difference is carried before it
// is multiplied, and every result is loosely reduced (< 2^51 + 2^13), as in
// fe25519.h.
//
// Per lane the algorithm is MulEach's: the rows 16^i * P from one doubling
// chain, each scalar's signed radix-16 digits sorted into eight buckets by
// magnitude, then the running-suffix fold. Lanes differ only in their
// digits. Each lane's bucket is read with masked loads, the addition
// subtracts in the lanes whose digit is negative (masked blends), and masked
// stores write the sum back to each lane's own bucket only, so a zero digit,
// or a pad lane of a short last group, changes nothing.
//
// The kernel code sits in a target region that comes after every include,
// and every function in it has internal linkage: no inline function of a
// shared header is compiled for AVX-512.
#include "src/crypto/ristretto_internal.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace votegral::ristretto_internal {

namespace {

using fe25519_internal::kMask51;
using fe25519_internal::kTwoP0;
using fe25519_internal::kTwoP1234;

constexpr size_t kLanes = 8;
constexpr size_t kRows = 64;
constexpr size_t kBuckets = 8;
// 64-bit words of one field element of a group (5 limbs x 8 lanes) and of
// one extended point (X, Y, Z, T), limb-major: word (5c + i) * 8 + lane is
// limb i of coordinate c in that lane.
constexpr size_t kFeWords = 5 * kLanes;
constexpr size_t kPointWords = 4 * kFeWords;

// One cache line of a group's working memory (see MulEachIfma for its
// alignment).
struct Line {
  uint64_t word[kLanes];
};
constexpr size_t kFeLines = kFeWords / kLanes;
constexpr size_t kPointLines = kPointWords / kLanes;

}  // namespace

#pragma GCC push_options
#pragma GCC target("avx512f,avx512ifma")

namespace {

// Limb i of eight field elements in limb[i].
struct FeV {
  __m512i limb[5];
};

// Eight points in extended coordinates.
struct PointV {
  FeV x, y, z, t;
};

// Eight CachedPoints: (Y+X, Y-X, Z, 2d*T).
struct CachedV {
  FeV y_plus_x, y_minus_x, z, t2d;
};

inline __m512i Splat(uint64_t v) { return _mm512_set1_epi64(static_cast<long long>(v)); }

// Shifts by a constant. The all-lanes masked forms are the same instruction;
// GCC 12's unmasked ones read an undefined vector and trip -Wuninitialized.
inline __m512i ShiftLeft(__m512i x, unsigned n) { return _mm512_maskz_slli_epi64(0xFF, x, n); }
inline __m512i ShiftRight(__m512i x, unsigned n) { return _mm512_maskz_srli_epi64(0xFF, x, n); }

// One carry round over every limb at once: limb i keeps its low 51 bits and
// gains limb i-1's carry, and limb 0 gains 19 times limb 4's. For limbs below
// 2^60 every carry is below 2^9 and the result is below 2^51 + 2^14; the
// products below give limbs under 2^59.3, whose carries leave the result
// loosely reduced.
inline FeV Carry(const FeV& f) {
  const __m512i mask = Splat(kMask51);
  const __m512i c0 = ShiftRight(f.limb[0], 51);
  const __m512i c1 = ShiftRight(f.limb[1], 51);
  const __m512i c2 = ShiftRight(f.limb[2], 51);
  const __m512i c3 = ShiftRight(f.limb[3], 51);
  const __m512i c4 = ShiftRight(f.limb[4], 51);
  FeV r;
  r.limb[0] = _mm512_madd52lo_epu64(_mm512_and_si512(f.limb[0], mask), c4, Splat(19));
  r.limb[1] = _mm512_add_epi64(_mm512_and_si512(f.limb[1], mask), c0);
  r.limb[2] = _mm512_add_epi64(_mm512_and_si512(f.limb[2], mask), c1);
  r.limb[3] = _mm512_add_epi64(_mm512_and_si512(f.limb[3], mask), c2);
  r.limb[4] = _mm512_add_epi64(_mm512_and_si512(f.limb[4], mask), c3);
  return r;
}

inline FeV Add(const FeV& a, const FeV& b) {
  FeV r;
  r.limb[0] = _mm512_add_epi64(a.limb[0], b.limb[0]);
  r.limb[1] = _mm512_add_epi64(a.limb[1], b.limb[1]);
  r.limb[2] = _mm512_add_epi64(a.limb[2], b.limb[2]);
  r.limb[3] = _mm512_add_epi64(a.limb[3], b.limb[3]);
  r.limb[4] = _mm512_add_epi64(a.limb[4], b.limb[4]);
  return Carry(r);
}

// a + 2p - b: no limb underflows for a loosely reduced b.
inline FeV Sub(const FeV& a, const FeV& b) {
  const __m512i two_p0 = Splat(kTwoP0);
  const __m512i two_p = Splat(kTwoP1234);
  FeV r;
  r.limb[0] = _mm512_add_epi64(a.limb[0], _mm512_sub_epi64(two_p0, b.limb[0]));
  r.limb[1] = _mm512_add_epi64(a.limb[1], _mm512_sub_epi64(two_p, b.limb[1]));
  r.limb[2] = _mm512_add_epi64(a.limb[2], _mm512_sub_epi64(two_p, b.limb[2]));
  r.limb[3] = _mm512_add_epi64(a.limb[3], _mm512_sub_epi64(two_p, b.limb[3]));
  r.limb[4] = _mm512_add_epi64(a.limb[4], _mm512_sub_epi64(two_p, b.limb[4]));
  return Carry(r);
}

// Adds the product a*b (two limbs below 2^52) to a column: its low 52 bits
// to `lo`, its high 52 bits to `hi`, which counts twice in the next column
// up (2^52 = 2 * 2^51).
inline void MulAdd(__m512i& lo, __m512i& hi, __m512i a, __m512i b) {
  lo = _mm512_madd52lo_epu64(lo, a, b);
  hi = _mm512_madd52hi_epu64(hi, a, b);
}

inline __m512i Times19(__m512i x) {
  return _mm512_add_epi64(_mm512_add_epi64(x, ShiftLeft(x, 1)),
                          ShiftLeft(x, 4));
}

// Folds the ten columns c_k of a product (c_k for k >= 5 wraps to c_{k-5}
// times 19, since 2^255 = 19 mod p) and carries. For loosely reduced
// factors each column is below 5 * 2^52 + 2 * 5 * 2^50.01 < 2^55, so a
// folded column is below 2^59.3.
inline FeV Fold(const __m512i c[10]) {
  FeV r;
  r.limb[0] = _mm512_add_epi64(c[0], Times19(c[5]));
  r.limb[1] = _mm512_add_epi64(c[1], Times19(c[6]));
  r.limb[2] = _mm512_add_epi64(c[2], Times19(c[7]));
  r.limb[3] = _mm512_add_epi64(c[3], Times19(c[8]));
  r.limb[4] = _mm512_add_epi64(c[4], Times19(c[9]));
  return Carry(r);
}

// lo_k + 2 * hi_k.
inline __m512i Column(__m512i lo, __m512i hi) {
  return _mm512_add_epi64(lo, ShiftLeft(hi, 1));
}

inline FeV Mul(const FeV& a, const FeV& b) {
  const __m512i a0 = a.limb[0], a1 = a.limb[1], a2 = a.limb[2], a3 = a.limb[3], a4 = a.limb[4];
  const __m512i b0 = b.limb[0], b1 = b.limb[1], b2 = b.limb[2], b3 = b.limb[3], b4 = b.limb[4];
  const __m512i zero = _mm512_setzero_si512();
  // lo_k: low halves of the products a_i*b_j with i + j = k; hi_k: high
  // halves of those with i + j = k - 1.
  __m512i lo0 = zero, lo1 = zero, lo2 = zero, lo3 = zero, lo4 = zero, lo5 = zero, lo6 = zero,
          lo7 = zero, lo8 = zero;
  __m512i hi1 = zero, hi2 = zero, hi3 = zero, hi4 = zero, hi5 = zero, hi6 = zero, hi7 = zero,
          hi8 = zero, hi9 = zero;
  MulAdd(lo0, hi1, a0, b0);
  MulAdd(lo1, hi2, a0, b1);
  MulAdd(lo1, hi2, a1, b0);
  MulAdd(lo2, hi3, a0, b2);
  MulAdd(lo2, hi3, a1, b1);
  MulAdd(lo2, hi3, a2, b0);
  MulAdd(lo3, hi4, a0, b3);
  MulAdd(lo3, hi4, a1, b2);
  MulAdd(lo3, hi4, a2, b1);
  MulAdd(lo3, hi4, a3, b0);
  MulAdd(lo4, hi5, a0, b4);
  MulAdd(lo4, hi5, a1, b3);
  MulAdd(lo4, hi5, a2, b2);
  MulAdd(lo4, hi5, a3, b1);
  MulAdd(lo4, hi5, a4, b0);
  MulAdd(lo5, hi6, a1, b4);
  MulAdd(lo5, hi6, a2, b3);
  MulAdd(lo5, hi6, a3, b2);
  MulAdd(lo5, hi6, a4, b1);
  MulAdd(lo6, hi7, a2, b4);
  MulAdd(lo6, hi7, a3, b3);
  MulAdd(lo6, hi7, a4, b2);
  MulAdd(lo7, hi8, a3, b4);
  MulAdd(lo7, hi8, a4, b3);
  MulAdd(lo8, hi9, a4, b4);
  const __m512i c[10] = {lo0,
                         Column(lo1, hi1),
                         Column(lo2, hi2),
                         Column(lo3, hi3),
                         Column(lo4, hi4),
                         Column(lo5, hi5),
                         Column(lo6, hi6),
                         Column(lo7, hi7),
                         Column(lo8, hi8),
                         ShiftLeft(hi9, 1)};
  return Fold(c);
}

// one + 2 * two + 4 * four.
inline __m512i SquareColumn(__m512i one, __m512i two, __m512i four) {
  return _mm512_add_epi64(_mm512_add_epi64(one, ShiftLeft(two, 1)), ShiftLeft(four, 2));
}

inline FeV Square(const FeV& a) {
  const __m512i a0 = a.limb[0], a1 = a.limb[1], a2 = a.limb[2], a3 = a.limb[3], a4 = a.limb[4];
  const __m512i zero = _mm512_setzero_si512();
  // The 25 products of Mul collapse to 15: a_i*a_j for i != j counts twice.
  // Column k is one_k + 2 * two_k + 4 * four_k: the squares' low halves
  // count once; their high halves and the cross products' low halves
  // twice; the cross products' high halves four times.
  __m512i one0 = zero, one2 = zero, one4 = zero, one6 = zero, one8 = zero;
  __m512i two1 = zero, two2 = zero, two3 = zero, two4 = zero, two5 = zero, two6 = zero,
          two7 = zero, two9 = zero;
  __m512i four2 = zero, four3 = zero, four4 = zero, four5 = zero, four6 = zero, four7 = zero,
          four8 = zero;
  MulAdd(one0, two1, a0, a0);
  MulAdd(one2, two3, a1, a1);
  MulAdd(one4, two5, a2, a2);
  MulAdd(one6, two7, a3, a3);
  MulAdd(one8, two9, a4, a4);
  MulAdd(two1, four2, a0, a1);
  MulAdd(two2, four3, a0, a2);
  MulAdd(two3, four4, a0, a3);
  MulAdd(two3, four4, a1, a2);
  MulAdd(two4, four5, a0, a4);
  MulAdd(two4, four5, a1, a3);
  MulAdd(two5, four6, a1, a4);
  MulAdd(two5, four6, a2, a3);
  MulAdd(two6, four7, a2, a4);
  MulAdd(two7, four8, a3, a4);
  const __m512i c[10] = {one0,
                         ShiftLeft(two1, 1),
                         SquareColumn(one2, two2, four2),
                         SquareColumn(zero, two3, four3),
                         SquareColumn(one4, two4, four4),
                         SquareColumn(zero, two5, four5),
                         SquareColumn(one6, two6, four6),
                         SquareColumn(zero, two7, four7),
                         SquareColumn(one8, zero, four8),
                         ShiftLeft(two9, 1)};
  return Fold(c);
}

inline FeV Blend(__mmask8 take_b, const FeV& a, const FeV& b) {
  FeV r;
  r.limb[0] = _mm512_mask_blend_epi64(take_b, a.limb[0], b.limb[0]);
  r.limb[1] = _mm512_mask_blend_epi64(take_b, a.limb[1], b.limb[1]);
  r.limb[2] = _mm512_mask_blend_epi64(take_b, a.limb[2], b.limb[2]);
  r.limb[3] = _mm512_mask_blend_epi64(take_b, a.limb[3], b.limb[3]);
  r.limb[4] = _mm512_mask_blend_epi64(take_b, a.limb[4], b.limb[4]);
  return r;
}

inline FeV LoadFe(const uint64_t* w) {
  FeV r;
  r.limb[0] = _mm512_load_si512(w);
  r.limb[1] = _mm512_load_si512(w + kLanes);
  r.limb[2] = _mm512_load_si512(w + 2 * kLanes);
  r.limb[3] = _mm512_load_si512(w + 3 * kLanes);
  r.limb[4] = _mm512_load_si512(w + 4 * kLanes);
  return r;
}

// `base`, with the lanes in `take` loaded from `w`.
inline FeV MaskLoadFe(const FeV& base, __mmask8 take, const uint64_t* w) {
  FeV r;
  r.limb[0] = _mm512_mask_load_epi64(base.limb[0], take, w);
  r.limb[1] = _mm512_mask_load_epi64(base.limb[1], take, w + kLanes);
  r.limb[2] = _mm512_mask_load_epi64(base.limb[2], take, w + 2 * kLanes);
  r.limb[3] = _mm512_mask_load_epi64(base.limb[3], take, w + 3 * kLanes);
  r.limb[4] = _mm512_mask_load_epi64(base.limb[4], take, w + 4 * kLanes);
  return r;
}

// Stores the lanes in `lanes` of f.
inline void MaskStoreFe(uint64_t* w, __mmask8 lanes, const FeV& f) {
  _mm512_mask_store_epi64(w, lanes, f.limb[0]);
  _mm512_mask_store_epi64(w + kLanes, lanes, f.limb[1]);
  _mm512_mask_store_epi64(w + 2 * kLanes, lanes, f.limb[2]);
  _mm512_mask_store_epi64(w + 3 * kLanes, lanes, f.limb[3]);
  _mm512_mask_store_epi64(w + 4 * kLanes, lanes, f.limb[4]);
}

inline PointV LoadPoint(const uint64_t* w) {
  return {LoadFe(w), LoadFe(w + kFeWords), LoadFe(w + 2 * kFeWords), LoadFe(w + 3 * kFeWords)};
}

inline PointV MaskLoadPoint(const PointV& base, __mmask8 take, const uint64_t* w) {
  return {MaskLoadFe(base.x, take, w), MaskLoadFe(base.y, take, w + kFeWords),
          MaskLoadFe(base.z, take, w + 2 * kFeWords), MaskLoadFe(base.t, take, w + 3 * kFeWords)};
}

inline void MaskStorePoint(uint64_t* w, __mmask8 lanes, const PointV& p) {
  MaskStoreFe(w, lanes, p.x);
  MaskStoreFe(w + kFeWords, lanes, p.y);
  MaskStoreFe(w + 2 * kFeWords, lanes, p.z);
  MaskStoreFe(w + 3 * kFeWords, lanes, p.t);
}

// RistrettoPoint::MulByPow2(4): four doublings that skip T but the last.
inline PointV Mul16(const PointV& p) {
  FeV x = p.x;
  FeV y = p.y;
  FeV z = p.z;
  FeV cx;
  FeV yy_plus_xx;
  for (int step = 0; step < 4; ++step) {
    const FeV xx = Square(x);
    const FeV yy = Square(y);
    const FeV zz = Square(z);
    yy_plus_xx = Add(yy, xx);
    const FeV yy_minus_xx = Sub(yy, xx);
    cx = Sub(Square(Add(x, y)), yy_plus_xx);
    const FeV ct = Sub(Add(zz, zz), yy_minus_xx);
    x = Mul(cx, ct);
    y = Mul(yy_plus_xx, yy_minus_xx);
    z = Mul(yy_minus_xx, ct);
  }
  return {x, y, z, Mul(cx, yy_plus_xx)};
}

inline CachedV ToCached(const PointV& p, const FeV& d2) {
  return {Add(p.y, p.x), Sub(p.y, p.x), p.z, Mul(p.t, d2)};
}

// RistrettoPoint::AddCached with a sign per lane: p - q in the lanes of
// `negate`, p + q in the others.
inline PointV AddCached(const PointV& p, const CachedV& q, __mmask8 negate) {
  const FeV q_plus = Blend(negate, q.y_plus_x, q.y_minus_x);
  const FeV q_minus = Blend(negate, q.y_minus_x, q.y_plus_x);
  const FeV a = Mul(Sub(p.y, p.x), q_minus);
  const FeV b = Mul(Add(p.y, p.x), q_plus);
  const FeV c = Mul(p.t, q.t2d);
  const FeV zz = Mul(p.z, q.z);
  const FeV d = Add(zz, zz);
  const FeV d_plus_c = Add(d, c);
  const FeV d_minus_c = Sub(d, c);
  const FeV e = Sub(b, a);
  const FeV f = Blend(negate, d_minus_c, d_plus_c);
  const FeV g = Blend(negate, d_plus_c, d_minus_c);
  const FeV h = Add(b, a);
  return {Mul(e, f), Mul(g, h), Mul(f, g), Mul(e, h)};
}

// Zeroes zmm16 to zmm31. The compiler's vzeroupper at a return clears the
// upper bits of zmm0 to zmm15 only, and a core left with nonzero upper bits
// in any vector register stays in its AVX-512 state: on the dev host the
// scalar code that ran next on those cores (the rest of the tally, then the
// verifier) took 15-25% longer until these registers were cleared.
inline void ClearHighVectorRegisters() {
  asm volatile(
      "vpxord %%zmm16, %%zmm16, %%zmm16\n\tvpxord %%zmm17, %%zmm17, %%zmm17\n\t"
      "vpxord %%zmm18, %%zmm18, %%zmm18\n\tvpxord %%zmm19, %%zmm19, %%zmm19\n\t"
      "vpxord %%zmm20, %%zmm20, %%zmm20\n\tvpxord %%zmm21, %%zmm21, %%zmm21\n\t"
      "vpxord %%zmm22, %%zmm22, %%zmm22\n\tvpxord %%zmm23, %%zmm23, %%zmm23\n\t"
      "vpxord %%zmm24, %%zmm24, %%zmm24\n\tvpxord %%zmm25, %%zmm25, %%zmm25\n\t"
      "vpxord %%zmm26, %%zmm26, %%zmm26\n\tvpxord %%zmm27, %%zmm27, %%zmm27\n\t"
      "vpxord %%zmm28, %%zmm28, %%zmm28\n\tvpxord %%zmm29, %%zmm29, %%zmm29\n\t"
      "vpxord %%zmm30, %%zmm30, %%zmm30\n\tvpxord %%zmm31, %%zmm31, %%zmm31"
      ::: "xmm16", "xmm17", "xmm18", "xmm19", "xmm20", "xmm21", "xmm22", "xmm23", "xmm24",
          "xmm25", "xmm26", "xmm27", "xmm28", "xmm29", "xmm30", "xmm31");
}

// One group: `in` holds the eight points, `digits` each scalar's signed
// radix-16 digits (word (s * kRows + i) * kLanes + lane is digit i of
// scalar s in that lane), `d2_words` 2d in every lane. `buckets` is
// scratch for k * kBuckets points; `out` receives the k products per lane.
void RunGroup(const uint64_t* in, const int8_t* digits, size_t k, const uint64_t* d2_words,
              uint64_t* buckets, uint64_t* out) {
  const __m512i zero = _mm512_setzero_si512();
  const FeV d2 = LoadFe(d2_words);
  const FeV fe_zero = {{zero, zero, zero, zero, zero}};
  const FeV fe_one = {{Splat(1), zero, zero, zero, zero}};
  const PointV identity = {fe_zero, fe_one, fe_one, fe_zero};
  for (size_t b = 0; b < k * kBuckets; ++b) {
    MaskStorePoint(buckets + b * kPointWords, 0xFF, identity);
  }
  PointV row = LoadPoint(in);  // 16^i * P
  for (size_t i = 0; i < kRows; ++i) {
    if (i != 0) {
      row = Mul16(row);
    }
    const CachedV addend = ToCached(row, d2);
    for (size_t s = 0; s < k; ++s) {
      const __m512i digit = _mm512_maskz_cvtepi8_epi64(0xFF,
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(digits + (s * kRows + i) * kLanes)));
      const __mmask8 negate = _mm512_cmplt_epi64_mask(digit, zero);
      const __m512i magnitude = _mm512_maskz_abs_epi64(0xFF, digit);
      __mmask8 in_bucket[kBuckets];
      for (size_t b = 0; b < kBuckets; ++b) {
        in_bucket[b] = _mm512_cmpeq_epi64_mask(magnitude, Splat(b + 1));
      }
      // Bucket b holds the rows of the digits of magnitude b + 1. A lane
      // whose digit is zero reads bucket 1 and writes nothing.
      uint64_t* own = buckets + s * kBuckets * kPointWords;
      PointV acc = LoadPoint(own);
      for (size_t b = 1; b < kBuckets; ++b) {
        acc = MaskLoadPoint(acc, in_bucket[b], own + b * kPointWords);
      }
      const PointV sum = AddCached(acc, addend, negate);
      for (size_t b = 0; b < kBuckets; ++b) {
        MaskStorePoint(own + b * kPointWords, in_bucket[b], sum);
      }
    }
  }
  // The running-suffix fold of each scalar's buckets, the same in every lane.
  for (size_t s = 0; s < k; ++s) {
    const uint64_t* own = buckets + s * kBuckets * kPointWords;
    PointV running = LoadPoint(own + (kBuckets - 1) * kPointWords);
    PointV total = running;
    for (size_t b = kBuckets - 1; b-- > 0;) {
      running = AddCached(running, ToCached(LoadPoint(own + b * kPointWords), d2), 0);
      total = AddCached(total, ToCached(running, d2), 0);
    }
    MaskStorePoint(out + s * kPointWords, 0xFF, total);
  }
  ClearHighVectorRegisters();
}

}  // namespace

#pragma GCC pop_options

void MulEachIfma(std::span<const RistrettoPoint> points, size_t k,
                 std::span<const Scalar> scalars, std::span<RistrettoPoint> out) {
  if (k == 0 || points.empty()) {
    return;
  }
  static const Fe25519 kD2 = FeAdd(FeEdwardsD(), FeEdwardsD());
  const std::array<Fe25519, 4> identity = {FeZero(), FeOne(), FeOne(), FeZero()};
  // The group's points, 2d, its buckets and its outputs, in one plain
  // allocation aligned to a cache line by hand. Over-aligned vectors go
  // through memalign, whose split-off chunks fragmented the worker threads'
  // heaps: with them the revote workload's peak resident set read about
  // 4 MB (8%) higher.
  const size_t lines = kPointLines + kFeLines + k * (kBuckets + 1) * kPointLines;
  std::vector<Line> block(lines + 1);
  void* aligned = block.data();
  size_t space = block.size() * sizeof(Line);
  Line* const in = static_cast<Line*>(std::align(64, lines * sizeof(Line), aligned, space));
  Line* const d2 = in + kPointLines;
  Line* const buckets = d2 + kFeLines;
  Line* const group_out = buckets + k * kBuckets * kPointLines;
  std::vector<int8_t> digits(k * kRows * kLanes);
  for (size_t i = 0; i < 5; ++i) {
    std::fill_n(d2[i].word, kLanes, kD2.limb[i]);
  }
  for (size_t first = 0; first < points.size(); first += kLanes) {
    const size_t lanes = std::min(kLanes, points.size() - first);
    // A pad lane holds the identity and zero digits.
    for (size_t lane = 0; lane < kLanes; ++lane) {
      const std::array<Fe25519, 4> coords =
          lane < lanes ? Coordinates::Of(points[first + lane]) : identity;
      for (size_t c = 0; c < 4; ++c) {
        for (size_t i = 0; i < 5; ++i) {
          in[5 * c + i].word[lane] = coords[c].limb[i];
        }
      }
      for (size_t s = 0; s < k; ++s) {
        const std::array<int8_t, kRows> digit =
            lane < lanes ? SignedRadix16(scalars[k * (first + lane) + s])
                         : std::array<int8_t, kRows>{};
        for (size_t i = 0; i < kRows; ++i) {
          digits[(s * kRows + i) * kLanes + lane] = digit[i];
        }
      }
    }
    RunGroup(in[0].word, digits.data(), k, d2[0].word, buckets[0].word, group_out[0].word);
    for (size_t lane = 0; lane < lanes; ++lane) {
      for (size_t s = 0; s < k; ++s) {
        std::array<Fe25519, 4> coords;
        for (size_t c = 0; c < 4; ++c) {
          for (size_t i = 0; i < 5; ++i) {
            coords[c].limb[i] = group_out[s * kPointLines + 5 * c + i].word[lane];
          }
          coords[c] = fe25519_internal::Carry(coords[c]);
        }
        out[k * (first + lane) + s] =
            Coordinates::Make(coords[0], coords[1], coords[2], coords[3]);
      }
    }
  }
}

}  // namespace votegral::ristretto_internal

#endif  // defined(__x86_64__)
