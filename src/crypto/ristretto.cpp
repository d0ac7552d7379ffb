#include "src/crypto/ristretto.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/executor.h"
#include "src/common/status.h"
#include "src/crypto/ristretto_internal.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

// Encode/Decode invocation counters. Relaxed is enough: tests and benches
// only ever read deltas after the parallel region they measure has joined.
std::atomic<uint64_t> g_encode_invocations{0};
std::atomic<uint64_t> g_decode_invocations{0};

// Derived curve constants, computed once at startup from first principles
// rather than transcribed, so that a typo cannot silently corrupt the group.
struct RistrettoConstants {
  Fe25519 d;                   // edwards25519 d = -121665/121666
  Fe25519 d2;                  // 2*d
  Fe25519 d_inv;               // 1/d
  Fe25519 sqrt_m1;             // sqrt(-1)
  Fe25519 invsqrt_a_minus_d;   // 1/sqrt(a-d), a = -1
  Fe25519 sqrt_ad_minus_one;   // sqrt(a*d - 1)
  Fe25519 one_minus_d_sq;      // 1 - d^2
  Fe25519 d_minus_one_sq;      // (d - 1)^2
  Fe25519 base_x;              // basepoint x with sign chosen non-negative
  Fe25519 base_y;              // basepoint y = 4/5

  RistrettoConstants() {
    d = FeEdwardsD();
    d2 = FeAdd(d, d);
    d_inv = FeInvert(d);
    sqrt_m1 = FeSqrtM1();

    // a - d = -1 - d.
    Fe25519 a_minus_d = FeSub(FeNeg(FeOne()), d);
    SqrtRatioResult inv_sqrt = FeSqrtRatioM1(FeOne(), a_minus_d);
    Require(inv_sqrt.was_square, "ristretto constants: a-d must be square");
    invsqrt_a_minus_d = inv_sqrt.root;

    // a*d - 1 = -d - 1.
    Fe25519 ad_minus_one = FeSub(FeNeg(d), FeOne());
    SqrtRatioResult sqrt_ad = FeSqrtRatioM1(ad_minus_one, FeOne());
    Require(sqrt_ad.was_square, "ristretto constants: ad-1 must be square");
    sqrt_ad_minus_one = sqrt_ad.root;

    one_minus_d_sq = FeSub(FeOne(), FeSquare(d));
    d_minus_one_sq = FeSquare(FeSub(d, FeOne()));

    // Basepoint: y = 4/5; x = sqrt((y^2-1)/(d*y^2+1)) with the even root.
    base_y = FeMul(FeFromU64(4), FeInvert(FeFromU64(5)));
    Fe25519 y2 = FeSquare(base_y);
    SqrtRatioResult x = FeSqrtRatioM1(FeSub(y2, FeOne()), FeAdd(FeMul(d, y2), FeOne()));
    Require(x.was_square, "ristretto constants: basepoint x must exist");
    base_x = x.root;  // FeSqrtRatioM1 returns the non-negative root.
  }
};

const RistrettoConstants& Consts() {
  static const RistrettoConstants kConstants;
  return kConstants;
}

}  // namespace

RistrettoPoint::RistrettoPoint() : x_(FeZero()), y_(FeOne()), z_(FeOne()), t_(FeZero()) {}

const RistrettoPoint& RistrettoPoint::Base() {
  static const RistrettoPoint kBase = [] {
    const RistrettoConstants& c = Consts();
    return RistrettoPoint(c.base_x, c.base_y, FeOne(), FeMul(c.base_x, c.base_y));
  }();
  return kBase;
}

std::optional<RistrettoPoint> RistrettoPoint::Decode(std::span<const uint8_t> bytes32) {
  g_decode_invocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes32.size() != 32 || !FeBytesAreCanonical(bytes32)) {
    return std::nullopt;
  }
  Fe25519 s = FeFromBytes(bytes32);
  if (FeIsNegative(s)) {
    return std::nullopt;
  }
  Fe25519 ss = FeSquare(s);
  Fe25519 u1 = FeSub(FeOne(), ss);   // 1 - s^2
  Fe25519 u2 = FeAdd(FeOne(), ss);   // 1 + s^2
  Fe25519 u2_sqr = FeSquare(u2);

  // v = -(d * u1^2) - u2^2
  Fe25519 v = FeSub(FeNeg(FeMul(Consts().d, FeSquare(u1))), u2_sqr);
  SqrtRatioResult inv = FeInvSqrt(FeMul(v, u2_sqr));
  if (!inv.was_square) {
    return std::nullopt;
  }
  Fe25519 den_x = FeMul(inv.root, u2);
  Fe25519 den_y = FeMul(FeMul(inv.root, den_x), v);

  Fe25519 x = FeAbs(FeMul(FeAdd(s, s), den_x));
  Fe25519 y = FeMul(u1, den_y);
  Fe25519 t = FeMul(x, y);

  if (FeIsNegative(t) || FeIsZero(y)) {
    return std::nullopt;
  }
  return RistrettoPoint(x, y, FeOne(), t);
}

std::array<uint8_t, 32> RistrettoPoint::Encode() const {
  const Fe25519 u1 = FeMul(FeAdd(z_, y_), FeSub(z_, y_));  // (Z+Y)(Z-Y)
  const Fe25519 u2 = FeMul(x_, y_);
  // Every valid group element makes u1*u2^2 square-or-zero; was_square is
  // deliberately ignored, matching the scalar SQRT_RATIO_M1 formulation.
  return EncodeWithRoot(u1, u2, FeInvSqrt(FeMul(u1, FeSquare(u2))).root);
}

std::array<uint8_t, 32> RistrettoPoint::EncodeWithRoot(const Fe25519& u1, const Fe25519& u2,
                                                       const Fe25519& inv_root) const {
  g_encode_invocations.fetch_add(1, std::memory_order_relaxed);
  const RistrettoConstants& c = Consts();
  Fe25519 den1 = FeMul(inv_root, u1);
  Fe25519 den2 = FeMul(inv_root, u2);
  Fe25519 z_inv = FeMul(FeMul(den1, den2), t_);

  Fe25519 ix = FeMul(x_, c.sqrt_m1);
  Fe25519 iy = FeMul(y_, c.sqrt_m1);
  Fe25519 enchanted_denominator = FeMul(den1, c.invsqrt_a_minus_d);

  bool rotate = FeIsNegative(FeMul(t_, z_inv));

  Fe25519 x = FeSelect(x_, iy, rotate);
  Fe25519 y = FeSelect(y_, ix, rotate);
  Fe25519 den_inv = FeSelect(den2, enchanted_denominator, rotate);

  if (FeIsNegative(FeMul(x, z_inv))) {
    y = FeNeg(y);
  }
  Fe25519 s = FeAbs(FeMul(den_inv, FeSub(z_, y)));
  return FeToBytes(s);
}

RistrettoPoint RistrettoPoint::ElligatorMap(const Fe25519& t) {
  const RistrettoConstants& c = Consts();

  Fe25519 r = FeMul(c.sqrt_m1, FeSquare(t));
  Fe25519 u = FeMul(FeAdd(r, FeOne()), c.one_minus_d_sq);
  Fe25519 minus_one = FeNeg(FeOne());
  // v = (-1 - r*d) * (r + d)
  Fe25519 v = FeMul(FeSub(minus_one, FeMul(r, c.d)), FeAdd(r, c.d));

  SqrtRatioResult sq = FeSqrtRatioM1(u, v);
  Fe25519 s = sq.root;
  Fe25519 s_prime = FeNeg(FeAbs(FeMul(s, t)));
  s = FeSelect(s_prime, s, sq.was_square);
  Fe25519 c_sel = FeSelect(r, minus_one, sq.was_square);

  // N = c * (r - 1) * (d - 1)^2 - v
  Fe25519 n = FeSub(FeMul(FeMul(c_sel, FeSub(r, FeOne())), c.d_minus_one_sq), v);

  Fe25519 s_sq = FeSquare(s);
  Fe25519 w0 = FeMul(FeAdd(s, s), v);
  Fe25519 w1 = FeMul(n, c.sqrt_ad_minus_one);
  Fe25519 w2 = FeSub(FeOne(), s_sq);
  Fe25519 w3 = FeAdd(FeOne(), s_sq);

  return RistrettoPoint(FeMul(w0, w3), FeMul(w2, w1), FeMul(w1, w3), FeMul(w0, w2));
}

RistrettoPoint RistrettoPoint::FromUniformBytes(std::span<const uint8_t> bytes64) {
  Require(bytes64.size() == 64, "FromUniformBytes: need 64 bytes");
  Fe25519 r0 = FeFromBytes(bytes64.subspan(0, 32));
  Fe25519 r1 = FeFromBytes(bytes64.subspan(32, 32));
  return ElligatorMap(r0) + ElligatorMap(r1);
}

RistrettoPoint RistrettoPoint::HashToGroup(std::string_view domain,
                                           std::span<const uint8_t> data) {
  const uint8_t separator = 0;
  auto digest = Sha512::HashParts({AsBytes(domain), {&separator, 1}, data});
  return FromUniformBytes(digest);
}

CachedPoint::CachedPoint() : y_plus_x_(FeOne()), y_minus_x_(FeOne()), z_(FeOne()), t2d_(FeZero()) {}

CachedPoint::CachedPoint(const RistrettoPoint& p)
    : y_plus_x_(FeAdd(p.y_, p.x_)),
      y_minus_x_(FeSub(p.y_, p.x_)),
      z_(p.z_),
      t2d_(FeMul(p.t_, Consts().d2)) {}

RistrettoPoint RistrettoPoint::AddCached(const CachedPoint& q, bool negate) const {
  // add-2008-hwcd-3 for a = -1 twisted Edwards curves. -Q = (-X, Y, Z, -T):
  // Y+X and Y-X trade places and 2d*T changes sign.
  const Fe25519& q_plus = negate ? q.y_minus_x_ : q.y_plus_x_;
  const Fe25519& q_minus = negate ? q.y_plus_x_ : q.y_minus_x_;
  const Fe25519 a = FeMul(FeSub(y_, x_), q_minus);
  const Fe25519 b = FeMul(FeAdd(y_, x_), q_plus);
  const Fe25519 c = FeMul(t_, q.t2d_);
  const Fe25519 zz = FeMul(z_, q.z_);
  const Fe25519 d = FeAdd(zz, zz);
  const Fe25519 e = FeSub(b, a);
  const Fe25519 f = negate ? FeAdd(d, c) : FeSub(d, c);
  const Fe25519 g = negate ? FeSub(d, c) : FeAdd(d, c);
  const Fe25519 h = FeAdd(b, a);
  return RistrettoPoint(FeMul(e, f), FeMul(g, h), FeMul(f, g), FeMul(e, h));
}

RistrettoPoint RistrettoPoint::FromCached(const CachedPoint& q, bool negate) {
  // (Y+X) - (Y-X) = 2X, their sum 2Y, and 2d*T / d = 2T: the point scaled by
  // 2. -Q = (-X, Y, Z, -T) swaps Y+X and Y-X and negates T.
  const Fe25519& q_plus = negate ? q.y_minus_x_ : q.y_plus_x_;
  const Fe25519& q_minus = negate ? q.y_plus_x_ : q.y_minus_x_;
  const Fe25519 t2 = FeMul(q.t2d_, Consts().d_inv);
  return RistrettoPoint(FeSub(q_plus, q_minus), FeAdd(q_plus, q_minus), FeAdd(q.z_, q.z_),
                        negate ? FeNeg(t2) : t2);
}

RistrettoPoint RistrettoPoint::operator+(const CachedPoint& other) const {
  return AddCached(other, false);
}

RistrettoPoint RistrettoPoint::operator-(const CachedPoint& other) const {
  return AddCached(other, true);
}

RistrettoPoint RistrettoPoint::operator+(const RistrettoPoint& other) const {
  return *this + CachedPoint(other);
}

RistrettoPoint RistrettoPoint::operator-(const RistrettoPoint& other) const {
  return *this - CachedPoint(other);
}

RistrettoPoint RistrettoPoint::operator-() const {
  return RistrettoPoint(FeNeg(x_), y_, z_, FeNeg(t_));
}

RistrettoPoint RistrettoPoint::Double() const { return MulByPow2(1); }

RistrettoPoint RistrettoPoint::MulByPow2(unsigned k) const {
  if (k == 0) {
    return *this;
  }
  // dbl-2008-hwcd for a = -1, in completed coordinates x = X'/Z', y = Y'/T':
  //   X' = (X+Y)^2 - (Y^2+X^2), Y' = Y^2+X^2, Z' = Y^2-X^2, T' = 2Z^2 - Z'.
  // A step reads only X, Y and Z, and its extended result is (X'T', Y'Z',
  // Z'T', X'Y'); every step but the last skips X'Y'.
  Fe25519 x = x_;
  Fe25519 y = y_;
  Fe25519 z = z_;
  for (unsigned step = 1;; ++step) {
    const Fe25519 xx = FeSquare(x);
    const Fe25519 yy = FeSquare(y);
    const Fe25519 zz = FeSquare(z);
    const Fe25519 yy_plus_xx = FeAdd(yy, xx);
    const Fe25519 yy_minus_xx = FeSub(yy, xx);
    const Fe25519 cx = FeSub(FeSquare(FeAdd(x, y)), yy_plus_xx);
    const Fe25519 ct = FeSub(FeAdd(zz, zz), yy_minus_xx);
    x = FeMul(cx, ct);
    y = FeMul(yy_plus_xx, yy_minus_xx);
    z = FeMul(yy_minus_xx, ct);
    if (step == k) {
      return RistrettoPoint(x, y, z, FeMul(cx, yy_plus_xx));
    }
  }
}

namespace ristretto_internal {

std::array<int8_t, 64> SignedRadix16(const Scalar& s) {
  const std::array<uint8_t, 32> bytes = s.ToBytes();
  std::array<int8_t, 64> digit;
  for (size_t i = 0; i < 32; ++i) {
    digit[2 * i] = static_cast<int8_t>(bytes[i] & 0x0f);
    digit[2 * i + 1] = static_cast<int8_t>(bytes[i] >> 4);
  }
  for (size_t i = 0; i + 1 < digit.size(); ++i) {
    const int8_t carry = static_cast<int8_t>((digit[i] + 8) >> 4);
    digit[i] = static_cast<int8_t>(digit[i] - (carry << 4));
    digit[i + 1] = static_cast<int8_t>(digit[i + 1] + carry);
  }
  return digit;
}

}  // namespace ristretto_internal

using ristretto_internal::SignedRadix16;

RistrettoPoint RistrettoPoint::MulLadder(const Scalar& s, const RistrettoPoint& p) {
  // Signed radix 16 over a table of P..8P: a negative digit subtracts.
  std::array<CachedPoint, 8> table;
  table[0] = CachedPoint(p);
  RistrettoPoint multiple = p;
  for (size_t j = 1; j < table.size(); ++j) {
    multiple = multiple + table[0];
    table[j] = CachedPoint(multiple);
  }
  const std::array<int8_t, 64> digit = SignedRadix16(s);
  size_t top = digit.size();
  while (top > 0 && digit[top - 1] == 0) {
    --top;
  }
  RistrettoPoint acc;
  for (size_t i = top; i-- > 0;) {
    if (i + 1 < top) {
      acc = acc.MulByPow2(4);
    }
    if (digit[i] > 0) {
      acc = acc + table[static_cast<size_t>(digit[i] - 1)];
    } else if (digit[i] < 0) {
      acc = acc - table[static_cast<size_t>(-digit[i] - 1)];
    }
  }
  return acc;
}

// --- Fixed-base tables -------------------------------------------------------

static_assert(sizeof(RistrettoPoint) == 4 * sizeof(Fe25519),
              "FixedBaseTable::Matches compares the coordinates bytewise");

FixedBaseTable::FixedBaseTable(const RistrettoPoint& base) : base_(base) {
  // Extended multiples by additions and doublings only, then one batched
  // inversion brings all of them to Z = 1. Nothing here may reach the
  // executor or operator*: tables are built inside static initializers and
  // on pool threads.
  std::vector<RistrettoPoint> multiples(kRows * kDigits);
  RistrettoPoint row_base = base;  // 16^i * P
  for (size_t i = 0; i < kRows; ++i) {
    RistrettoPoint* row = &multiples[i * kDigits];
    row[0] = row_base;
    const CachedPoint addend(row_base);
    for (size_t j = 1; j < kDigits; ++j) {
      row[j] = row[j - 1] + addend;
    }
    row_base = row[kDigits - 1].Double();  // 16 * 16^i * P
  }
  std::vector<Fe25519> prefix(multiples.size());  // product of the earlier Z
  Fe25519 acc = FeOne();
  for (size_t k = 0; k < multiples.size(); ++k) {
    prefix[k] = acc;
    acc = FeMul(acc, multiples[k].z_);
  }
  Fe25519 inv = FeInvert(acc);  // Z is never zero for a group element
  const Fe25519& d2 = Consts().d2;
  for (size_t k = multiples.size(); k-- > 0;) {
    const RistrettoPoint& m = multiples[k];
    const Fe25519 z_inv = FeMul(inv, prefix[k]);
    inv = FeMul(inv, m.z_);
    const Fe25519 x = FeMul(m.x_, z_inv);
    const Fe25519 y = FeMul(m.y_, z_inv);
    rows_[k / kDigits][k % kDigits] =
        AffineAddend{FeAdd(y, x), FeSub(y, x), FeMul(FeMul(x, y), d2)};
  }
  if (!ristretto_internal::CpuHasIfma()) {
    return;
  }
  lanes_ = std::make_unique<LaneLine[]>(kRows * 3 * 5);
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t j = 0; j < kDigits; ++j) {
      const AffineAddend& entry = rows_[i][j];
      const Fe25519* coords[3] = {&entry.y_plus_x, &entry.y_minus_x, &entry.xy2d};
      for (size_t c = 0; c < 3; ++c) {
        for (size_t l = 0; l < 5; ++l) {
          lanes_[(i * 3 + c) * 5 + l].word[j] = coords[c]->limb[l];
        }
      }
    }
  }
}

RistrettoPoint FixedBaseTable::AddAffine(const RistrettoPoint& p, const AffineAddend& q,
                                         bool negate) {
  // -Q = (-x, y): y+x and y-x trade places and 2d*x*y changes sign.
  const Fe25519& q_plus = negate ? q.y_minus_x : q.y_plus_x;
  const Fe25519& q_minus = negate ? q.y_plus_x : q.y_minus_x;
  const Fe25519 a = FeMul(FeSub(p.y_, p.x_), q_minus);
  const Fe25519 b = FeMul(FeAdd(p.y_, p.x_), q_plus);
  const Fe25519 c = FeMul(p.t_, q.xy2d);
  const Fe25519 d = FeAdd(p.z_, p.z_);
  const Fe25519 e = FeSub(b, a);
  const Fe25519 f = negate ? FeAdd(d, c) : FeSub(d, c);
  const Fe25519 g = negate ? FeSub(d, c) : FeAdd(d, c);
  const Fe25519 h = FeAdd(b, a);
  return RistrettoPoint(FeMul(e, f), FeMul(g, h), FeMul(f, g), FeMul(e, h));
}

RistrettoPoint FixedBaseTable::Mul(const Scalar& s) const {
  const std::array<int8_t, kRows> digit = SignedRadix16(s);
  RistrettoPoint acc;
  for (size_t i = 0; i < kRows; ++i) {
    if (digit[i] > 0) {
      acc = AddAffine(acc, rows_[i][static_cast<size_t>(digit[i] - 1)], false);
    } else if (digit[i] < 0) {
      acc = AddAffine(acc, rows_[i][static_cast<size_t>(-digit[i] - 1)], true);
    }
  }
  return acc;
}

namespace ristretto_internal {

bool CpuHasIfma() {
#if defined(__x86_64__)
  // The first multiplication may run from a static initializer, before
  // libgcc has filled in its CPU model. libgcc reports AVX-512 only when the
  // operating system saves its registers.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
#else
  return false;
#endif
}

void MulEachPortable(std::span<const RistrettoPoint> points, size_t k,
                     std::span<const Scalar> scalars, std::span<RistrettoPoint> out) {
  for (size_t j = 0; j < points.size(); ++j) {
    RistrettoPoint::MulEach(points[j], scalars.subspan(k * j, k), out.subspan(k * j, k));
  }
}

void TableMulEachPortable(const FixedBaseTable& table, std::span<const Scalar> scalars,
                          std::span<RistrettoPoint> out) {
  for (size_t j = 0; j < scalars.size(); ++j) {
    out[j] = table.Mul(scalars[j]);
  }
}

void EncodeEachPortable(std::span<const RistrettoPoint> points,
                        std::span<CompressedRistretto> out) {
  for (size_t j = 0; j < points.size(); ++j) {
    out[j] = points[j].Encode();
  }
}

namespace {

// The kernels the three batch entries run in this process. They depend on
// CPUID alone and are chosen on the first call.
struct Kernels {
  decltype(&MulEachPortable) mul_each;
  decltype(&TableMulEachPortable) table_mul_each;
  decltype(&EncodeEachPortable) encode_each;
  const char* name;
};

const Kernels& SelectedKernels() {
  static const Kernels kPortable = {MulEachPortable, TableMulEachPortable, EncodeEachPortable,
                                    "portable"};
#if defined(__x86_64__)
  static const Kernels kIfma = {MulEachIfma, TableMulEachIfma, EncodeEachIfma, "avx512ifma"};
  static const Kernels& kernels = CpuHasIfma() ? kIfma : kPortable;
  return kernels;
#else
  return kPortable;
#endif
}

}  // namespace

const char* KernelName() { return SelectedKernels().name; }

}  // namespace ristretto_internal

using ristretto_internal::SelectedKernels;

void FixedBaseTable::MulEach(std::span<const Scalar> scalars,
                             std::span<RistrettoPoint> out) const {
  Require(scalars.size() == out.size(), "FixedBaseTable::MulEach: size mismatch");
  // A lone scalar would pay for a whole group of eight lanes.
  if (scalars.size() < 2) {
    ristretto_internal::TableMulEachPortable(*this, scalars, out);
    return;
  }
  SelectedKernels().table_mul_each(*this, scalars, out);
}

namespace {

const FixedBaseTable& GeneratorTable() {
  static const FixedBaseTable kTable(RistrettoPoint::Base());
  return kTable;
}

// The registered bases: the kFixedBaseSlots most recent registrations, slots
// overwritten in turn. Lookups take no lock: each thread keeps a copy of the
// slots and refreshes it under the mutex only when `generation` has moved.
// The shared_ptr copies keep an evicted table alive until every thread that
// may still read it has refreshed (at its next lookup, or at thread exit).
struct FixedBaseRegistry {
  std::mutex mutex;
  std::array<std::shared_ptr<const FixedBaseTable>, kFixedBaseSlots> slots;  // guarded by mutex
  size_t next = 0;                      // guarded by mutex: the slot to overwrite
  std::atomic<uint64_t> generation{0};  // bumped under mutex on every change
};

FixedBaseRegistry& Registry() {
  // Never destroyed: pool threads may still multiply during static destruction.
  static FixedBaseRegistry* registry = new FixedBaseRegistry();
  return *registry;
}

struct RegistrySnapshot {
  uint64_t generation = 0;
  std::array<std::shared_ptr<const FixedBaseTable>, kFixedBaseSlots> tables;
};

// The table operator* reads for p, or null for the ladder. The pointer stays
// valid until this thread's next lookup.
const FixedBaseTable* FindFixedBaseTable(const RistrettoPoint& p) {
  if (GeneratorTable().Matches(p)) {
    return &GeneratorTable();
  }
  thread_local RegistrySnapshot snapshot;
  FixedBaseRegistry& registry = Registry();
  if (registry.generation.load() != snapshot.generation) {
    std::lock_guard<std::mutex> lock(registry.mutex);
    snapshot.tables = registry.slots;
    snapshot.generation = registry.generation.load();
  }
  for (const auto& table : snapshot.tables) {
    if (table != nullptr && table->Matches(p)) {
      return table.get();
    }
  }
  return nullptr;
}

}  // namespace

RistrettoPoint operator*(const Scalar& s, const RistrettoPoint& p) {
  if (const FixedBaseTable* table = FindFixedBaseTable(p)) {
    return table->Mul(s);
  }
  return RistrettoPoint::MulLadder(s, p);
}

RistrettoPoint RistrettoPoint::MulBase(const Scalar& s) { return GeneratorTable().Mul(s); }

RistrettoPoint RistrettoPoint::MulBaseSlow(const Scalar& s) { return MulLadder(s, Base()); }

void RistrettoPoint::MulEach(const RistrettoPoint& p, std::span<const Scalar> scalars,
                             std::span<RistrettoPoint> out) {
  Require(scalars.size() == out.size(), "MulEach: size mismatch");
  if (const FixedBaseTable* table = FindFixedBaseTable(p)) {
    table->MulEach(scalars, out);
    return;
  }
  if (scalars.size() < 2) {
    if (!scalars.empty()) {
      out[0] = MulLadder(scalars[0], p);
    }
    return;
  }
  // The one doubling chain: rows[i] = 16^i * p.
  std::array<CachedPoint, 64> rows;
  RistrettoPoint row = p;
  rows[0] = CachedPoint(row);
  for (size_t i = 1; i < rows.size(); ++i) {
    row = row.MulByPow2(4);
    rows[i] = CachedPoint(row);
  }
  for (size_t j = 0; j < scalars.size(); ++j) {
    // s = sum_i e_i * 16^i with |e_i| <= 8, so s*p = sum_k k * bucket_k,
    // where bucket_k sums sign(e_i) * rows[i] over the digits with |e_i| = k.
    const std::array<int8_t, 64> digit = SignedRadix16(scalars[j]);
    std::array<RistrettoPoint, 8> bucket;  // bucket[k - 1] holds bucket_k
    std::array<bool, 8> filled{};
    for (size_t i = 0; i < digit.size(); ++i) {
      if (digit[i] == 0) {
        continue;
      }
      const bool negate = digit[i] < 0;
      const size_t k = static_cast<size_t>(negate ? -digit[i] : digit[i]) - 1;
      bucket[k] = filled[k] ? bucket[k].AddCached(rows[i], negate) : FromCached(rows[i], negate);
      filled[k] = true;
    }
    // Running suffix from the top bucket: after bucket k, running = sum of
    // buckets k..8, and adding running once per step counts bucket k k times.
    RistrettoPoint running;
    RistrettoPoint total;
    bool started = false;
    for (size_t k = bucket.size(); k-- > 0;) {
      if (filled[k]) {
        if (!started) {
          running = bucket[k];
          total = running;
          started = true;
          continue;
        }
        running = running + bucket[k];
      }
      if (started) {
        total = total + running;
      }
    }
    out[j] = total;
  }
}

void RistrettoPoint::MulEach(std::span<const RistrettoPoint> points, size_t k,
                             std::span<const Scalar> scalars, std::span<RistrettoPoint> out) {
  Require(scalars.size() == k * points.size() && out.size() == scalars.size(),
          "MulEach: size mismatch");
  // Each table takes every scalar of its points in one call (the provers'
  // y*B). A table is used before the next lookup, which may drop a table
  // that a registration evicted. The rest go to the kernel in one call, in
  // place when no point has a table (the provers' ciphertext points).
  std::vector<size_t> rest;
  rest.reserve(points.size());
  std::vector<uint8_t> done(points.size(), 0);
  std::vector<size_t> same;
  std::vector<Scalar> table_scalars;
  std::vector<RistrettoPoint> table_out;
  for (size_t j = 0; j < points.size(); ++j) {
    if (done[j] != 0) {
      continue;
    }
    const FixedBaseTable* table = FindFixedBaseTable(points[j]);
    if (table == nullptr) {
      rest.push_back(j);
      continue;
    }
    same.clear();
    table_scalars.clear();
    for (size_t i = j; i < points.size(); ++i) {
      if (done[i] == 0 && table->Matches(points[i])) {
        done[i] = 1;
        same.push_back(i);
        table_scalars.insert(table_scalars.end(), scalars.begin() + k * i,
                             scalars.begin() + k * (i + 1));
      }
    }
    table_out.resize(table_scalars.size());
    table->MulEach(table_scalars, table_out);
    for (size_t r = 0; r < same.size(); ++r) {
      std::copy(table_out.begin() + k * r, table_out.begin() + k * (r + 1),
                out.begin() + k * same[r]);
    }
  }
  if (rest.empty()) {
    return;
  }
  if (rest.size() == 1) {
    // A lone point would pay for a whole group of eight lanes in the IFMA
    // kernel: it takes the one-point call (a single-statement proof).
    const size_t j = rest[0];
    MulEach(points[j], scalars.subspan(k * j, k), out.subspan(k * j, k));
    return;
  }
  const auto kernel = SelectedKernels().mul_each;
  if (rest.size() == points.size()) {
    kernel(points, k, scalars, out);
    return;
  }
  std::vector<RistrettoPoint> rest_points;
  std::vector<Scalar> rest_scalars;
  rest_points.reserve(rest.size());
  rest_scalars.reserve(k * rest.size());
  for (size_t j : rest) {
    rest_points.push_back(points[j]);
    rest_scalars.insert(rest_scalars.end(), scalars.begin() + k * j,
                        scalars.begin() + k * (j + 1));
  }
  std::vector<RistrettoPoint> rest_out(rest_scalars.size());
  kernel(rest_points, k, rest_scalars, rest_out);
  for (size_t r = 0; r < rest.size(); ++r) {
    std::copy(rest_out.begin() + k * r, rest_out.begin() + k * (r + 1),
              out.begin() + k * rest[r]);
  }
}

void RistrettoPoint::RegisterFixedBase(const RistrettoPoint& base) {
  if (FindFixedBaseTable(base) != nullptr) {
    return;
  }
  // Built outside the lock: lookups that refresh meanwhile are not held up.
  auto table = std::make_shared<const FixedBaseTable>(base);
  FixedBaseRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& slot : registry.slots) {
    if (slot != nullptr && slot->Matches(base)) {
      return;  // a concurrent registration of the same base won
    }
  }
  registry.slots[registry.next] = std::move(table);
  registry.next = (registry.next + 1) % kFixedBaseSlots;
  registry.generation.fetch_add(1);
}

bool RistrettoPoint::HasFixedBaseTable(const RistrettoPoint& p) {
  return FindFixedBaseTable(p) != nullptr;
}

// DoubleScalarMulBase is defined in src/crypto/msm.cpp on top of the
// multi-scalar multiplication engine (shared-doubling wNAF ladder).

const std::array<uint8_t, 32>& RistrettoPoint::BaseWire() {
  static const std::array<uint8_t, 32> kBaseWire = Base().Encode();
  return kBaseWire;
}

void BatchEncodePoints(std::span<const RistrettoPoint> points,
                       std::span<CompressedRistretto> out) {
  Require(points.size() == out.size(), "BatchEncodePoints: size mismatch");
  if (points.size() < 2) {
    ristretto_internal::EncodeEachPortable(points, out);
    return;
  }
  // Chunks of whole groups of eight: a chunk boundary never splits a group.
  constexpr size_t kGroup = 8;
  Executor::Current().ParallelFor((points.size() + kGroup - 1) / kGroup,
                                  [&](size_t begin, size_t end) {
    const size_t first = kGroup * begin;
    const size_t count = std::min(points.size(), kGroup * end) - first;
    SelectedKernels().encode_each(points.subspan(first, count), out.subspan(first, count));
  });
}

void BatchDoubleAndEncode(std::span<const RistrettoPoint> points,
                          std::span<CompressedRistretto> out) {
  Require(points.size() == out.size(), "BatchDoubleAndEncode: size mismatch");
  const RistrettoConstants& c = Consts();
  // Doubling P = (X:Y:Z:T) gives the affine point (e/f, g/h) with e = 2XY,
  // f = Z^2 + dT^2, g = Y^2 + X^2 and h = Z^2 - dT^2, so 2P = (eh:fg:fh:eg).
  // Since f = Y^2 - X^2 on the curve, the root Encode would take is 1/(e*f)
  // times 1/sqrt(a-d), or 1/(g*h) on the rotated branch; 1/(e*f*g*h) gives
  // both 1/Z = eg/(efgh) and 1/T = fh/(efgh), and one inversion per chunk
  // serves every point in it.
  struct Doubled {
    Fe25519 e, f, g, h, eg, fh, efgh;
  };
  constexpr size_t kChunk = 64;
  std::array<Doubled, kChunk> state;
  std::array<Fe25519, kChunk> prefix;  // product of the earlier nonzero efgh
  for (size_t begin = 0; begin < points.size(); begin += kChunk) {
    const size_t n = std::min(kChunk, points.size() - begin);
    Fe25519 acc = FeOne();
    for (size_t j = 0; j < n; ++j) {
      const RistrettoPoint& p = points[begin + j];
      Doubled& s = state[j];
      const Fe25519 zz = FeSquare(p.z_);
      const Fe25519 dtt = FeMul(c.d, FeSquare(p.t_));
      s.e = FeMul(p.x_, FeAdd(p.y_, p.y_));
      s.f = FeAdd(zz, dtt);
      s.g = FeAdd(FeSquare(p.y_), FeSquare(p.x_));
      s.h = FeSub(zz, dtt);
      s.eg = FeMul(s.e, s.g);
      s.fh = FeMul(s.f, s.h);
      s.efgh = FeMul(s.eg, s.fh);
      prefix[j] = acc;
      if (!FeIsZero(s.efgh)) {
        acc = FeMul(acc, s.efgh);
      }
    }
    Fe25519 inv = FeInvert(acc);  // the inverse of every nonzero efgh so far
    for (size_t j = n; j-- > 0;) {
      const Doubled& s = state[j];
      if (FeIsZero(s.efgh)) {
        out[begin + j] = points[begin + j].Double().Encode();
        continue;
      }
      const Fe25519 efgh_inv = FeMul(inv, prefix[j]);
      inv = FeMul(inv, s.efgh);
      const Fe25519 z_inv = FeMul(s.eg, efgh_inv);
      const Fe25519 t_inv = FeMul(s.fh, efgh_inv);
      // Encode's rotation (x*y of 2P negative) swaps the coordinate pair.
      const bool rotate = FeIsNegative(FeMul(s.eg, z_inv));
      const Fe25519 e = rotate ? s.g : s.e;
      Fe25519 g = rotate ? FeNeg(s.e) : s.g;
      const Fe25519 h = rotate ? FeMul(s.f, c.sqrt_m1) : s.h;
      const Fe25519& magic = rotate ? c.sqrt_m1 : c.invsqrt_a_minus_d;
      if (FeIsNegative(FeMul(FeMul(h, e), z_inv))) {  // Encode's sign of x
        g = FeNeg(g);
      }
      const Fe25519 s_value = FeMul(FeSub(h, g), FeMul(magic, FeMul(g, t_inv)));
      out[begin + j] = FeToBytes(FeAbs(s_value));
    }
  }
}

size_t BatchValidateEncodings(std::span<const RistrettoPoint> points,
                              std::span<const CompressedRistretto> bytes,
                              std::span<uint8_t> ok) {
  Require(points.size() == bytes.size() && points.size() == ok.size(),
          "BatchValidateEncodings: size mismatch");
  std::atomic<size_t> failures{0};
  Executor::Current().ParallelFor(points.size(), [&](size_t begin, size_t end) {
    const size_t n = end - begin;
    // Montgomery batch inversion of the Z coordinates: one FeInvert for the
    // whole chunk. Z is never zero for a group element, so the combined
    // product is invertible.
    std::vector<Fe25519> prefix(n);  // prefix[j] = Z_begin * ... * Z_{begin+j-1}
    Fe25519 acc = FeOne();
    for (size_t j = 0; j < n; ++j) {
      prefix[j] = acc;
      acc = FeMul(acc, points[begin + j].z_);
    }
    Fe25519 inv_suffix = FeInvert(acc);  // (Z_begin * ... * Z_{end-1})^-1

    size_t chunk_failures = 0;
    for (size_t j = n; j-- > 0;) {
      const size_t i = begin + j;
      Fe25519 z_inv = FeMul(inv_suffix, prefix[j]);
      inv_suffix = FeMul(inv_suffix, points[i].z_);

      const Fe25519 x = FeMul(points[i].x_, z_inv);
      const Fe25519 y = FeMul(points[i].y_, z_inv);

      bool valid;
      if (FeIsZero(x) || FeIsZero(y)) {
        // Identity coset {(0,±1), (±i,0)}: the canonical encoding is the
        // all-zero string, and no other bytes decode into this coset.
        valid = true;
        for (uint8_t b : bytes[i]) {
          valid &= (b == 0);
        }
      } else if (!FeBytesAreCanonical(bytes[i])) {
        valid = false;
      } else {
        const Fe25519 s = FeFromBytes(bytes[i]);
        if (FeIsNegative(s)) {
          valid = false;
        } else {
          // Select the canonical coset representative (x_c, y_c): of the four
          // reps {(x,y), (-x,-y), (iy,ix), (-iy,-ix)} exactly one has both a
          // non-negative t = x_c*y_c (fixing the pair) and a non-negative x_c
          // (fixing the sign) — the rep Decode(Encode(P)) produces. Then s is
          // the encoding of P iff s^2 = (1-y_c)/(1+y_c): decoded y determines
          // s up to sign and the non-negativity checks above fix the sign, so
          // the encoding of -P (whose canonical rep has a different y_c) can
          // never pass.
          Fe25519 y_c;
          if (FeIsNegative(FeMul(x, y))) {  // rotate: pair (±iy, ±ix)
            const Fe25519 ix = FeMul(FeSqrtM1(), x);
            const Fe25519 iy = FeMul(FeSqrtM1(), y);
            y_c = FeIsNegative(iy) ? FeNeg(ix) : ix;
          } else {  // pair (±x, ±y)
            y_c = FeIsNegative(x) ? FeNeg(y) : y;
          }
          const Fe25519 ss = FeSquare(s);
          valid = FeEqual(FeMul(ss, FeAdd(FeOne(), y_c)), FeSub(FeOne(), y_c));
        }
      }
      ok[i] = valid ? 1 : 0;
      if (!valid) {
        ++chunk_failures;
      }
    }
    if (chunk_failures != 0) {
      failures.fetch_add(chunk_failures, std::memory_order_relaxed);
    }
  });
  return failures.load(std::memory_order_relaxed);
}

uint64_t RistrettoEncodeInvocations() {
  return g_encode_invocations.load(std::memory_order_relaxed);
}

uint64_t RistrettoDecodeInvocations() {
  return g_decode_invocations.load(std::memory_order_relaxed);
}

bool RistrettoPoint::operator==(const RistrettoPoint& other) const {
  // Ristretto equality: P == Q iff X1*Y2 == Y1*X2 or X1*X2 == Y1*Y2
  // (both conditions identify the same 4-torsion coset).
  Fe25519 x1y2 = FeMul(x_, other.y_);
  Fe25519 y1x2 = FeMul(y_, other.x_);
  if (FeEqual(x1y2, y1x2)) {
    return true;
  }
  Fe25519 x1x2 = FeMul(x_, other.x_);
  Fe25519 y1y2 = FeMul(y_, other.y_);
  return FeEqual(x1x2, y1y2);
}

}  // namespace votegral
