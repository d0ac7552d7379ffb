// Distributed deterministic tagging (Fig. 3 "blinded credential tags";
// Weber et al. [153], Koenig et al. [82]).
//
// After mixing, each tallier t applies its secret exponent z_t to every
// credential ciphertext on both lists (roster tags and ballot credentials),
// proving consistency with its public commitment Z_t = z_t·B via a 3-element
// Chaum–Pedersen proof per ciphertext. After all talliers, a ciphertext that
// encrypted M encrypts (Πz_t)·M; verifiable decryption then yields blinded
// tags that match iff the underlying plaintexts matched — the linear-time
// filter that replaces JCJ/Civitas' quadratic pairwise PETs (§7.4).
//
// Parallel architecture: talliers are inherently sequential (each consumes
// the previous output), but within one tallier's pass every ciphertext is
// independent, so a pass runs as Executor::Shards shards (ApplyShardRange)
// under forked per-shard DRBG streams (proof nonces), keeping the step
// byte-identical at any thread count. Chain verification folds every step's
// Chaum–Pedersen proofs into one positional DLEQ batch (DleqTermBatch) with
// deterministic weights, falling back to the per-item path to localize the
// offending step and index on rejection.
#ifndef SRC_VOTEGRAL_TAGGING_H_
#define SRC_VOTEGRAL_TAGGING_H_

#include <vector>

#include "src/common/executor.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/dleq.h"
#include "src/crypto/elgamal.h"

namespace votegral {

// One tallier's pass over a ciphertext list.
struct TaggingStep {
  size_t member_index = 0;
  std::vector<ElGamalCiphertext> output;
  std::vector<DleqTranscript> proofs;  // one per ciphertext

  // Canonical wire bytes of `output`, one per ciphertext, filled by the
  // prover in the same parallel pass that computed the points (each proof's
  // challenge hashes them anyway, so they are free to retain). Attacker data
  // on the verify side: VerifyChain checks each is the canonical encoding of
  // its point (BatchValidateEncodings) before it may bind a challenge —
  // exactly the MixItem rule.
  std::vector<ElGamalWire> output_wire;
};

// The tagging committee. In deployment these secrets live on the same
// servers as the authority's decryption shares; they are separate keys with
// separate proofs.
class TaggingService {
 public:
  static TaggingService Create(size_t members, Rng& rng);

  size_t size() const { return secrets_.size(); }
  const std::vector<RistrettoPoint>& commitments() const { return commitments_; }

  // Pre-sizes a TaggingStep for an n-ciphertext pass by `member` (output,
  // proofs, and output_wire resized; member_index set). Pair with
  // ApplyShardRange for chunk-granular scheduling.
  TaggingStep PrepareStep(size_t member, size_t n) const;

  // Fills output slots [begin, end) of a PrepareStep'd `step`: exponentiates
  // input[i] by z_member and proves the DLEQ with nonces from `child` (the
  // forked stream for this shard, one nonce per ciphertext in order), the
  // range's proofs as one batched ProveDleqFsDeriving, which also gives the
  // output wire. Disjoint ranges may run concurrently.
  //
  // `input_wire` must be the canonical bytes of `input`, one per
  // ciphertext, from a source the caller produced or validated (the previous
  // step's output_wire, a mix column); the proof statements hash them
  // instead of re-encoding the input points.
  void ApplyShardRange(size_t member, std::span<const ElGamalCiphertext> input,
                       std::span<const ElGamalWire> input_wire, size_t begin, size_t end,
                       Rng& child, TaggingStep& step) const;

  // Verifies one member's step against its input and commitment, proof by
  // proof (the localization path; names the first bad index).
  static Status VerifyStep(const TaggingStep& step,
                           const std::vector<ElGamalCiphertext>& input,
                           const RistrettoPoint& commitment,
                           Executor& executor = Executor::Global());

  // Runs all members sequentially, each as ApplyShardRange over forked
  // per-shard seeds on `executor`, collecting each step and threading its
  // wire bytes into the next step's statements. `input_wire` is the input's
  // bytes, as for ApplyShardRange; when it is empty the input is encoded
  // once, here. Returns the final tagged ciphertexts.
  std::vector<ElGamalCiphertext> ApplyAll(const std::vector<ElGamalCiphertext>& input,
                                          std::vector<TaggingStep>* steps, Rng& rng,
                                          Executor& executor = Executor::Global(),
                                          std::span<const ElGamalWire> input_wire = {}) const;

  // Verifies a full chain of steps (step i's input is step i-1's output).
  // All steps' proofs are checked as one positional DLEQ batch
  // (DleqTermBatch, src/crypto/batch.h), sharded over items: item j's terms
  // are its input ciphertext, then per step its output ciphertext and the
  // proof's three commits, so a step's output is one term with the next
  // step's input; B and the member commitments are batch-wide. On rejection
  // the per-step path re-runs to name the offending member and index.
  //
  // Wire handling: each challenge is recomputed from bytes in hand. Every
  // step's output_wire and every proof's commit_wire (attacker data) must
  // be the canonical encoding of its points (BatchValidateEncodings, in
  // small groups per shard) before it may bind a challenge; a step output
  // whose bytes are missing or wrong is a localized failure, reported
  // first, and a proof's missing or wrong commit bytes are named by the
  // per-step path. `input_wire` supplies the chain input's bytes when
  // another check validates them (the verifier threads the mix column bytes
  // VerifyRpcMixCascade checks); when it is empty the input is encoded once,
  // here.
  static Status VerifyChain(const std::vector<ElGamalCiphertext>& input,
                            const std::vector<TaggingStep>& steps,
                            const std::vector<RistrettoPoint>& commitments,
                            Executor& executor = Executor::Global(),
                            std::span<const ElGamalWire> input_wire = {});

  // Test helper: the combined exponent Πz_t.
  Scalar CombinedExponent() const;

 private:
  std::vector<Scalar> secrets_;
  std::vector<RistrettoPoint> commitments_;
  // Canonical encodings of commitments_, made once at Create: every
  // statement of a member's step hashes its commitment.
  std::vector<CompressedRistretto> commitment_wires_;
};

}  // namespace votegral

#endif  // SRC_VOTEGRAL_TAGGING_H_
