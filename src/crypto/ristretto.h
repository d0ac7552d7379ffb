// ristretto255 (RFC 9496): a prime-order group built on edwards25519,
// implemented from scratch on top of src/crypto/fe25519.
//
// Votegral/TRIP needs a prime-order group with canonical encodings for
// ElGamal credentials, Schnorr signatures, Chaum–Pedersen proofs and
// deterministic tagging; ristretto removes the cofactor pitfalls of raw
// edwards25519 that a from-scratch protocol stack would otherwise have to
// handle case by case.
//
// Internal representation: extended Edwards coordinates (X:Y:Z:T) with
// x = X/Z, y = Y/Z, x*y = T/Z on the a=-1 twisted Edwards curve.
#ifndef SRC_CRYPTO_RISTRETTO_H_
#define SRC_CRYPTO_RISTRETTO_H_

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

#include "src/crypto/fe25519.h"
#include "src/crypto/scalar.h"

namespace votegral {

class CachedPoint;
class FixedBaseTable;
namespace ristretto_internal {
struct Coordinates;
}

// How many registered fixed bases keep a precomputed table at once (see
// RistrettoPoint::RegisterFixedBase): the most recent registrations win.
inline constexpr size_t kFixedBaseSlots = 8;

// An element of the ristretto255 group.
class RistrettoPoint {
 public:
  // The identity element.
  RistrettoPoint();

  static RistrettoPoint Identity() { return RistrettoPoint(); }

  // The canonical generator (the edwards25519 basepoint's coset).
  static const RistrettoPoint& Base();

  // Decodes a canonical 32-byte encoding; rejects non-canonical field
  // encodings, negative s, and off-curve inputs (RFC 9496 §4.3.1).
  static std::optional<RistrettoPoint> Decode(std::span<const uint8_t> bytes32);

  // Canonical 32-byte encoding (RFC 9496 §4.3.2).
  std::array<uint8_t, 32> Encode() const;

  // Canonical encoding of Base(), computed once at startup. The wire-byte
  // DLEQ layer (src/crypto/dleq.h) hashes this constant instead of paying a
  // fresh inverse square root for the generator in every statement.
  static const std::array<uint8_t, 32>& BaseWire();

  // Maps 64 uniform bytes to a group element (two Elligator evaluations,
  // RFC 9496 §4.3.4). The basis of HashToGroup.
  static RistrettoPoint FromUniformBytes(std::span<const uint8_t> bytes64);

  // Domain-separated hash-to-group via SHA-512.
  static RistrettoPoint HashToGroup(std::string_view domain, std::span<const uint8_t> data);

  // Group operations. The point operands convert the right-hand side to a
  // CachedPoint (one field multiplication) and add that (eight more).
  RistrettoPoint operator+(const RistrettoPoint& other) const;
  RistrettoPoint operator-(const RistrettoPoint& other) const;
  RistrettoPoint operator+(const CachedPoint& other) const;
  RistrettoPoint operator-(const CachedPoint& other) const;
  RistrettoPoint operator-() const;
  RistrettoPoint Double() const;

  // 2^k * p by k doublings. A doubling never reads T, so only the last one
  // computes it: every earlier step saves one field multiplication.
  RistrettoPoint MulByPow2(unsigned k) const;

  // Scalar multiplication s*p. When p is the generator or a registered fixed
  // base, recognized by its exact coordinates (so every copy of that point
  // qualifies), this reads the base's precomputed table; otherwise it runs
  // the variable-base ladder (signed radix 16: a table of P..8P, then per
  // digit four doublings and at most one addition). Both paths return the
  // same group element.
  friend RistrettoPoint operator*(const Scalar& s, const RistrettoPoint& p);

  // s*B from the generator's precomputed table: at most 64 mixed additions
  // and no doublings (bench/ablation_design_choices measures it against the
  // ladder).
  static RistrettoPoint MulBase(const Scalar& s);

  // s*B through the variable-base ladder, bypassing every table: the
  // reference the table path is measured and tested against.
  static RistrettoPoint MulBaseSlow(const Scalar& s);

  // out[j] = scalars[j] * p for every j (the spans have equal sizes), as
  // group elements equal to operator*'s. A point with a fixed-base table
  // reads its table and one scalar runs the ladder. Two or more share one
  // doubling chain: the rows 16^i * p (i = 0..63, 63 four-doubling chains)
  // are built once, then each scalar sorts its signed radix-16 digits' rows
  // into eight buckets by magnitude and folds them (Yao's method), about
  // 70 additions a scalar. Allocates nothing on the heap.
  static void MulEach(const RistrettoPoint& p, std::span<const Scalar> scalars,
                      std::span<RistrettoPoint> out);

  // out[k*j + s] = scalars[k*j + s] * points[j] for every point j and each
  // of its k scalars (scalars and out hold k * points.size() entries), as
  // group elements equal to the one-point MulEach's. A point with a
  // fixed-base table reads its table. Two or more others go to one batch
  // kernel, chosen once from CPUID: with AVX-512 IFMA they run eight per
  // group, one per vector lane, on the one-point MulEach's rows and buckets
  // (src/crypto/ristretto_internal.h); elsewhere each runs the one-point
  // MulEach. A lone point without a table takes the one-point MulEach.
  static void MulEach(std::span<const RistrettoPoint> points, size_t k,
                      std::span<const Scalar> scalars, std::span<RistrettoPoint> out);

  // Gives a long-lived base (the election key) a precomputed table, so that
  // operator* on this point or any copy of it skips the ladder. The table
  // costs about four ladder multiplications to build and 60 KiB to keep; the
  // process keeps the kFixedBaseSlots most recent registrations and older
  // ones fall back to the ladder. Registering a base that already has a
  // table does nothing. Thread-safe; never runs work on the executor.
  static void RegisterFixedBase(const RistrettoPoint& base);

  // True when operator* on p reads a precomputed table.
  static bool HasFixedBaseTable(const RistrettoPoint& p);

  // a*P + b*Base, the Schnorr verification workhorse. Implemented on the MSM
  // engine (src/crypto/msm.h): one shared-doubling wNAF ladder with a
  // precomputed width-8 NAF table for the fixed base. Variable-time; only
  // ever applied to public verification data.
  static RistrettoPoint DoubleScalarMulBase(const Scalar& a, const RistrettoPoint& p,
                                            const Scalar& b);

  // Ristretto equality (coset-aware; does not require encoding).
  bool operator==(const RistrettoPoint& other) const;
  bool operator!=(const RistrettoPoint& other) const { return !(*this == other); }

  bool IsIdentity() const { return *this == RistrettoPoint(); }

 private:
  RistrettoPoint(const Fe25519& x, const Fe25519& y, const Fe25519& z, const Fe25519& t)
      : x_(x), y_(y), z_(z), t_(t) {}

  friend class CachedPoint;
  friend class FixedBaseTable;
  friend struct ristretto_internal::Coordinates;

  // p + q, or p - q when `negate`.
  RistrettoPoint AddCached(const CachedPoint& q, bool negate) const;

  // The variable-base ladder behind operator* and MulBaseSlow.
  static RistrettoPoint MulLadder(const Scalar& s, const RistrettoPoint& p);

  // q (or -q when `negate`) back in extended coordinates, scaled by 2: one
  // field multiplication, where adding q to the identity would cost eight.
  static RistrettoPoint FromCached(const CachedPoint& q, bool negate);

  // One Elligator 2 evaluation (MAP of RFC 9496 §4.3.4).
  static RistrettoPoint ElligatorMap(const Fe25519& t);

  friend size_t BatchValidateEncodings(std::span<const RistrettoPoint> points,
                                       std::span<const std::array<uint8_t, 32>> bytes,
                                       std::span<uint8_t> ok);
  friend void BatchDoubleAndEncode(std::span<const RistrettoPoint> points,
                                   std::span<std::array<uint8_t, 32>> out);

  Fe25519 x_;
  Fe25519 y_;
  Fe25519 z_;
  Fe25519 t_;
};

// A point prepared as a right-hand addend: (Y+X, Y-X, Z, 2d*T). Preparing
// costs one field multiplication, and adding or subtracting the prepared
// point then costs eight (add-2008-hwcd-3 with 2d*T precomputed). Tables of
// multiples (the ladder's, the MSM engine's) hold this form, so each entry
// pays its conversion once however often it is added.
class CachedPoint {
 public:
  // The identity.
  CachedPoint();
  explicit CachedPoint(const RistrettoPoint& p);

 private:
  friend class RistrettoPoint;

  Fe25519 y_plus_x_;
  Fe25519 y_minus_x_;
  Fe25519 z_;
  Fe25519 t2d_;
};

// Convenience alias used by protocol signatures.
using CompressedRistretto = std::array<uint8_t, 32>;

// --- Batched canonical encode/decode ---------------------------------------
//
// BatchEncodePoints fans fixed-position shards out on Executor::Current()
// (the pool bound by the enclosing protocol stage; serial under threads=1)
// and encodes one point at a time, so the output is byte-identical to
// element-wise Encode(). The dominant cost is each point's ~250-squaring
// inverse square root, and for an arbitrary point it stays per point: a
// Montgomery-style shared tree recovers only the product of the roots, never
// the individual canonical roots, and any "validation" built naively on a
// shared tree would accept the encoding of -P for P (re-opening the
// challenge-grinding attack wire-cache validation exists to stop; see
// docs/TRANSCRIPTS.md). Only a point known as a double escapes the root
// (BatchDoubleAndEncode).

// out[i] = points[i].Encode(). out.size() must equal points.size().
void BatchEncodePoints(std::span<const RistrettoPoint> points,
                       std::span<CompressedRistretto> out);

// out[i] = (2 * points[i]).Encode() with no inverse square root: the
// doubling formula's completed coordinates (e/f, g/h) make the root the
// encoding needs rational in e, f, g and h, so one Montgomery-batched
// inversion of the products e*f*g*h serves every point (curve25519-dalek's
// double_and_compress_batch). A point whose product is zero (the identity
// coset) takes Double().Encode(), the only Encode invocations counted here.
// Runs on the calling thread and allocates nothing on the heap. Provers
// compute their fresh points as 2*Q from halved scalars to pay this instead
// of Encode() (src/crypto/dleq.h).
void BatchDoubleAndEncode(std::span<const RistrettoPoint> points,
                          std::span<CompressedRistretto> out);

// Checks bytes[i] == points[i].Encode() without computing any inverse square
// roots: one Montgomery-batched field inversion per shard recovers affine
// coordinates, then each element costs ~8 field multiplications. Sound and
// complete: ok[i] = 1 exactly when bytes[i] is the canonical encoding of
// points[i] — unlike a naive shared-root scheme this can never accept the
// encoding of -P, because the claimed s is checked against the unique
// canonical coset representative (selected by the same rotation/sign rules
// Encode applies) and s^2 = (1-y)/(1+y) has a unique non-negative root.
// Identity-coset points (affine x or y zero) compare against the all-zero
// encoding directly. Returns the number of failures; this is the verify-side
// workhorse for wire-cache validation (mixnet hashing, DLEQ commit caches).
size_t BatchValidateEncodings(std::span<const RistrettoPoint> points,
                              std::span<const CompressedRistretto> bytes,
                              std::span<uint8_t> ok);

// Process-wide Encode()/Decode() invocation counters (relaxed atomics) — the
// group-layer analogue of MerkleCommitmentTree::hash_invocations(). Tests
// assert "challenge derivation is SHA-only" as a zero Encode delta across a
// verification call instead of trusting comments; benches report the deltas
// as evidence next to wall-clock numbers.
uint64_t RistrettoEncodeInvocations();
uint64_t RistrettoDecodeInvocations();

}  // namespace votegral

#endif  // SRC_CRYPTO_RISTRETTO_H_
