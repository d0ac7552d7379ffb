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

// Below this size Straus wins (per-point table setup amortizes poorly into
// Pippenger buckets); at and above it Pippenger wins. Exposed for benches.
inline constexpr size_t kPippengerThreshold = 192;

}  // namespace votegral

#endif  // SRC_CRYPTO_MSM_H_
