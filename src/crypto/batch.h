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
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/executor.h"
#include "src/common/mapped.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/dleq.h"
#include "src/crypto/drbg.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha512.h"

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

// One Fiat–Shamir DLEQ verification instance, for callers that hold whole
// proofs (tests, benches); the tally's and the verifier's batches write
// their terms straight into a DleqTermBatch instead. Statements should carry
// their producer-local bytes (see src/crypto/dleq.h) so challenge
// recomputation is SHA-only; transcript commit bytes are validated by
// BatchVerifyDleq before use.
struct DleqBatchEntry {
  std::string domain;
  DleqStatement statement;
  DleqTranscript transcript;
  Bytes extra;
};

// Verifies all DLEQ proofs at once (challenge recomputation stays per-item;
// the group equations are one DleqTermBatch whose 64-byte seed is drawn
// from `rng`). Per pair, the base, public and commit are positional terms,
// except a base equal to B, which rides the fixed-base coefficient. Every
// transcript's commit bytes are checked against its points in one
// BatchValidateEncodings pass before they may bind challenge bits; missing,
// stale or forged bytes are a localized per-entry failure.
Status BatchVerifyDleq(std::span<const DleqBatchEntry> entries, Rng& rng);


// --- Positional DLEQ batches ------------------------------------------------
//
// The universal verifier's tag chains and the decryption-share batches (the
// verifier's, and the tally's check of each decrypt batch: VerifyShareBatch
// in src/crypto/dkg.h) check thousands of Fiat–Shamir DLEQ proofs whose
// statements share points by position: a tag step's output is the next
// step's input, one C1 serves every member's share of a ciphertext, and the
// generator B and the members' keys recur in every proof. DleqTermBatch is
// the one DLEQ batch kernel; BatchVerifyDleq runs on it too. Its terms
// live in two flat arrays, one scalar and one pointer to the term's point
// per term, that the caller's shard bodies fill in place; the points stay in
// the transcript, which outlives the batch. Nothing per proof is staged and
// no term is collapsed by key. The arrays are mapped (MappedVector), so a
// batch that runs on a worker thread grows no arena (src/common/mapped.h).
//
// Per pair Y = r*G + e*P of a proof whose challenge the caller recomputed,
// AddPair adds w*Y - (w*r)*G - (w*e)*P with a 128-bit weight w. The commit Y
// is the one term unique to its equation, so it carries the short weight
// itself (a short scalar costs the MSM about half the additions) and the
// shared terms take the negated products; negating the whole combination
// changes no verdict. A positional term sums every pair that names it. B and
// the batch-wide points sum per shard, and the partials merge in shard
// order, so the check is identical at any thread count.
class DleqTermBatch {
 public:
  // Where a pair's base or public point sits: the generator, a batch-wide
  // point, or a positional term.
  struct Slot {
    enum Kind : uint8_t { kBase, kShared, kTerm };
    Kind kind = kBase;
    size_t index = 0;

    static Slot Base() { return {kBase, 0}; }
    static Slot Shared(size_t i) { return {kShared, i}; }
    static Slot Term(size_t t) { return {kTerm, t}; }
  };

  // One shard's writer, valid inside its body. Weights come from the shard's
  // own stream, drawn in the order of the AddPair calls.
  class ShardWriter {
   public:
    // `point` must outlive the batch's Holds().
    void SetPoint(size_t term, const RistrettoPoint& point);
    void AddPair(const Scalar& challenge, const Scalar& response, Slot g, Slot p,
                 size_t commit_term);

   private:
    friend class DleqTermBatch;
    ShardWriter(DleqTermBatch& batch, size_t shard);

    DleqTermBatch& batch_;
    ChaChaRng weights_;
    std::span<Scalar> partial_;  // [0] is B's, [1 + k] batch-wide point k's
  };

  // A batch over `items` items (sharded by Executor::Shards(items,
  // kRngShards)) and `terms` positional terms, with `shared` (which must
  // outlive the batch) as the batch-wide points. Per-shard weight streams
  // fork from ChaChaRng(seed).
  DleqTermBatch(size_t items, size_t terms, std::span<const RistrettoPoint> shared,
                const std::array<uint8_t, 64>& seed);

  // Runs body(writer, begin, end) for every shard of items on `executor`.
  // A body returns false when an item cannot enter the batch (a challenge
  // mismatch, a malformed proof): the batch then fails.
  void Fill(Executor& executor,
            const std::function<bool(ShardWriter&, size_t, size_t)>& body);

  // True when no body failed and the combination is the identity: then every
  // pair holds, except with probability 2^-128. Call once, after Fill.
  bool Holds();

 private:
  std::vector<std::pair<size_t, size_t>> shards_;
  std::vector<std::array<uint8_t, 32>> seeds_;
  MappedVector<Scalar> scalars_;
  MappedVector<const RistrettoPoint*> points_;
  std::span<const RistrettoPoint> shared_;
  std::vector<Scalar> partials_;  // (1 + shared) per shard
  std::vector<uint8_t> failed_;   // per shard
};

// Wire caches of a few items, checked against their points in one
// BatchValidateEncodings pass on the calling thread (one field inversion for
// the group). A shard body reuses one for each small group of its items, so
// its buffers stay small and are allocated once.
class EncodingCheck {
 public:
  void Clear();
  void Add(const RistrettoPoint& point, const CompressedRistretto& bytes);
  void Run();
  // Whether the `slot`-th added bytes encode their point (after Run).
  bool ok(size_t slot) const { return ok_[slot] != 0; }

 private:
  std::vector<RistrettoPoint> points_;
  std::vector<CompressedRistretto> bytes_;
  std::vector<uint8_t> ok_;
};

// A positional batch's weight seed: SHA-512 over `domain` and then each
// proof's challenge and response, in the order the caller adds them. The
// challenge already binds the proof's domain, statement and commits (the
// batch accepts a proof only if its recomputed challenge matches), so the
// seed binds the whole batch without re-encoding any point, and whoever
// produced the proofs cannot predict the weights before fixing them all.
class DleqWeightSeed {
 public:
  explicit DleqWeightSeed(std::string_view domain);
  void Add(const DleqTranscript& proof);
  std::array<uint8_t, 64> Finalize();

 private:
  Sha512 hash_;
};

}  // namespace votegral

#endif  // SRC_CRYPTO_BATCH_H_
