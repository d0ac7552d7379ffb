// Multi-scalar multiplication (MSM): sum_i s_i * P_i in one pass.
//
// Every verification equation in the stack — batched Schnorr, batched DLEQ,
// RPC mixnet link checks, decryption-share checks — is a random linear
// combination that must equal a known point. Evaluating it as n independent
// `operator*` calls costs n * (252 doublings + window additions); an MSM
// shares the doublings across all terms (Straus) or amortizes additions into
// buckets (Pippenger), making the per-term cost drop toward a handful of
// additions as n grows. This is the amortization that turns the linear-time
// tally of Fig. 5b into a *fast* linear-time tally.
//
// All entry points are variable-time: they act on public data (signatures,
// proofs, transcripts), never on secrets. Secret-dependent multiplications
// must keep using the fixed-window paths in ristretto.h.
#ifndef SRC_CRYPTO_MSM_H_
#define SRC_CRYPTO_MSM_H_

#include <span>

#include "src/crypto/ristretto.h"
#include "src/crypto/scalar.h"

namespace votegral {

// Computes sum_i scalars[i] * points[i]. Dispatches on n:
//   n == 0        -> identity,
//   n <  kPippengerThreshold -> Straus interleaved width-5 wNAF windows with
//                    shared doublings,
//   n >= kPippengerThreshold -> Pippenger bucket accumulation with window
//                    size ~log2(n) and the running-suffix bucket sum.
// Throws ProtocolError when the spans disagree in length (API misuse, per
// the repository Status convention).
RistrettoPoint MultiScalarMul(std::span<const Scalar> scalars,
                              std::span<const RistrettoPoint> points);

// Computes base_scalar * B + sum_i scalars[i] * points[i], merging the
// fixed-base term into the shared-doubling loop via a precomputed width-8
// wNAF table of odd basepoint multiples (the fixed base gets the widest
// window because its table is built once per process).
RistrettoPoint MultiScalarMulWithBase(const Scalar& base_scalar,
                                      std::span<const Scalar> scalars,
                                      std::span<const RistrettoPoint> points);

// Computes base_scalar * B + sum_i scalars[i] * *points[i]: the terms'
// points stay where the caller keeps them (DleqTermBatch points into the
// transcript it checks), so a term costs a pointer instead of a prepared
// 160-byte copy. Each bucket addition then prepares its addend itself, one
// field multiplication more than a prepared copy's.
RistrettoPoint MultiScalarMulRefs(const Scalar& base_scalar, std::span<const Scalar> scalars,
                                  std::span<const RistrettoPoint* const> points);

// Term-by-term reference evaluation (n independent `operator*` calls plus
// n additions). Kept as the differential-testing and benchmarking baseline —
// this is exactly the seed's per-entry accumulation pattern.
RistrettoPoint MultiScalarMulNaive(std::span<const Scalar> scalars,
                                   std::span<const RistrettoPoint> points);

// --- Shared-base MSM --------------------------------------------------------
//
// Verification batches repeat base points heavily: every Schnorr entry under
// the same authority key contributes a term on that key, every DLEQ pair on
// the ElGamal public key repeats it, and the group generator appears in all
// of them. Because the group has prime order, w1*P + w2*P == (w1+w2)*P, so
// repeated terms can be summed in scalar space — O(1) field additions —
// before any group work happens.
//
// Repetition is detected by *wire bytes*, not by group comparison: keys[i]
// must be the canonical encoding of points[i] whenever key_present[i] is
// nonzero. Callers always have these bytes at hand (they just decoded the
// points from them, or they carry validated wire caches); an equal-encoding
// pair is equal in the group by canonicality. Keys are trusted the same way
// the decoded points are — a wrong key merges the wrong terms, which is the
// caller handing the MSM a different equation, not a soundness leak in here.
//
// Entries whose key equals RistrettoPoint::BaseWire() fold into
// `base_scalar` and ride the width-8 fixed-base table. Other repeated keys
// collapse into the first occurrence (deterministic first-seen order). The
// collapsed terms then go to MultiScalarMulWithBase; at Pippenger scale they
// are copied as prepared addends (CachedPoint), so the bucket passes do not
// convert every term again in every window.
RistrettoPoint MultiScalarMulShared(const Scalar& base_scalar,
                                    std::span<const Scalar> scalars,
                                    std::span<const RistrettoPoint> points,
                                    std::span<const CompressedRistretto> keys,
                                    std::span<const uint8_t> key_present);

// Counter for the collapse (process-wide, relaxed atomic; read after the
// measured region joins).
struct MsmSharedStats {
  uint64_t collapsed_terms = 0;  // input terms merged into an earlier term or the base
};
MsmSharedStats SharedMsmStats();

// Zeroes the counter (test/bench isolation).
void ResetSharedMsmForTest();

// Below this size Straus wins (per-point table setup amortizes poorly into
// Pippenger buckets); at and above it Pippenger wins. Exposed for benches.
inline constexpr size_t kPippengerThreshold = 192;

}  // namespace votegral

#endif  // SRC_CRYPTO_MSM_H_
