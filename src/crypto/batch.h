// Batch verification via random linear combination.
//
// The universal verifier checks thousands of Schnorr signatures and
// Chaum–Pedersen proofs per election. Both have linear verification
// equations, so n checks can be merged into one multi-term equation with
// random 128-bit weights: if any single check fails, the combined equation
// holds with probability at most 2^-128 (Schwartz–Zippel over Z_ℓ).
//
// Used by auditors who only need an accept/reject verdict for a whole
// transcript section; the per-item paths remain for pinpointing failures.
#ifndef SRC_CRYPTO_BATCH_H_
#define SRC_CRYPTO_BATCH_H_

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/dleq.h"
#include "src/crypto/schnorr.h"

namespace votegral {

// 128-bit random-linear-combination weight (sufficient for 2^-128 soundness,
// half the scalar-multiplication cost of full-width weights). Shared by every
// batched check in the stack — one definition keeps the weight convention in
// sync. Stack-allocated: a weight is drawn per batch term, and a heap
// round-trip per weight showed up in the batch-verification profile.
inline Scalar RandomRlcWeight(Rng& rng) {
  std::array<uint8_t, 64> wide{};
  rng.Fill(std::span<uint8_t>(wide.data(), 16));
  return Scalar::FromBytesWide(wide);
}

// One Schnorr verification instance.
struct SchnorrBatchEntry {
  CompressedRistretto public_key{};
  Bytes message;
  SchnorrSignature signature;
};

// Verifies all entries at once. Empty batches verify trivially. On failure
// the batch only reports *that* something failed; callers fall back to the
// per-item path to locate it (VerifySchnorrGroups does so by bisection).
// Each distinct public key is decoded once however many entries repeat it.
Status BatchVerifySchnorr(std::span<const SchnorrBatchEntry> entries, Rng& rng);

// Deterministic weight seed for a BatchVerifySchnorr call: SHA-512 under
// `domain` over every entry's public key, length-prefixed message and
// signature bytes. Any auditor derives the same weights, and no tally or
// verifier random stream is consumed; whoever forms the signatures cannot
// predict the weights without fixing every signature first.
std::array<uint8_t, 64> SchnorrBatchWeightSeed(std::string_view domain,
                                               std::span<const SchnorrBatchEntry> entries);

// Per-group verdicts for signatures that come in consecutive groups (the
// two signatures of one ballot, or of one registration record): group g owns
// entries [group_end[g-1], group_end[g]) (group_end[-1] = 0), and bad[g] is
// set to 1 exactly when some entry of group g fails SchnorrVerify. Empty
// groups pass.
//
// All entries are first checked as one BatchVerifySchnorr with weights from
// SchnorrBatchWeightSeed under "votegral/schnorr/batch-weights/v1", the
// domain of every signature batch on the board. A failing range
// bisects: when exactly one half fails (a half that is not checked because
// its sibling passed counts as failing) the search continues in it, down to
// a single group; when both halves fail, that range is checked signature by
// signature. Every range runs as its own seeded batch. A failed batch always
// holds a bad signature, so the verdicts are the per-item verdicts (a passed
// batch errs with probability 2^-128), and the search is one path: at most
// one per-item pass over the range plus about three batch checks of it.
void VerifySchnorrGroups(std::span<const SchnorrBatchEntry> entries,
                         std::span<const size_t> group_end, std::span<uint8_t> bad);

// One Fiat–Shamir DLEQ verification instance. Statements should carry their
// producer-local wire caches (see src/crypto/dleq.h trust model) so challenge
// recomputation is SHA-only; transcript commit caches are validated by
// BatchVerifyDleq before use.
struct DleqBatchEntry {
  std::string domain;
  DleqStatement statement;
  DleqTranscript transcript;
  Bytes extra;
};

// Verifies all DLEQ proofs at once (challenge recomputation stays per-item;
// the group equations are combined). Present transcript commit caches are
// checked against their points in one BatchValidateEncodings pass before
// they may bind challenge bits; a stale or forged cache is a localized
// per-entry failure.
Status BatchVerifyDleq(std::span<const DleqBatchEntry> entries, Rng& rng);

// Deterministic weight seed for auditor-reproducible BatchVerifyDleq calls:
// binds every entry's Fiat–Shamir challenge and response under `domain`.
// The challenge itself already binds the proof domain, statement and
// commitments (collision resistance of the FS hash), so hashing the
// (challenge, response) pairs binds the entire batch without re-encoding
// any points — entries are only accepted by BatchVerifyDleq if their
// recomputed challenge matches, which ties the weights to the statements.
std::array<uint8_t, 64> DleqBatchWeightSeed(std::string_view domain,
                                            std::span<const DleqBatchEntry> entries);

}  // namespace votegral

#endif  // SRC_CRYPTO_BATCH_H_
