// Verifiable re-encryption mix cascade (Fig. 3 "verifiable shuffle").
//
// Substitution: the paper's prototype uses Bayer–Groth shuffle
// arguments. We implement a randomized-partial-checking (RPC) mixnet
// [Jakobsson–Juels–Rivest 2002]: mix servers are paired; after both layers
// of a pair commit their outputs, a Fiat–Shamir challenge opens exactly one
// adjacent re-encryption link per middle item — never both, so end-to-end
// unlinkability is preserved, while any server modifying t items escapes
// detection with probability at most 2^-t. RPC keeps verification linear,
// preserving the asymptotic separation from Civitas' quadratic PET tally
// that Fig. 5b reports.
//
// Each mix item is a fixed-width bundle of ElGamal ciphertexts re-encrypted
// under the same permutation (width 2 for ballots: vote + credential;
// width 1 for roster tags).
//
// Parallel architecture (the staged tally pipeline):
//  * Shuffling partitions the batch into thread-count-independent shards
//    (Executor::Shards); each shard re-encrypts under its own forked DRBG
//    stream (ForkRngSeeds), so the shuffled batch, the proof, and every
//    downstream transcript byte are identical at any thread count.
//  * Every MixItem carries its canonical wire bytes (`wire`): a shuffle
//    fills them inside the same parallel region that computed the points,
//    and RunRpcMixCascade fills any its input lacks once, at entry.
//    Challenge derivation then hashes bytes instead of paying one ristretto
//    Encode (an inverse square root) per ciphertext component per hash —
//    the cost that made cascade verification hash-bound.
//  * The verifier treats the bytes as attacker-supplied: every item's bytes
//    are checked to be the canonical encoding of its points
//    (BatchValidateEncodings, in parallel) before they may bind a challenge,
//    and an item without them fails like an item with wrong ones, so a
//    cheating mixer cannot decouple the hashed transcript from the checked
//    group elements (which would allow grinding the per-item challenge
//    bits).
#ifndef SRC_VOTEGRAL_MIXNET_H_
#define SRC_VOTEGRAL_MIXNET_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/executor.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/elgamal.h"

namespace votegral {

// One element moving through the mixnet.
struct MixItem {
  MixItem() = default;
  MixItem(std::vector<ElGamalCiphertext> cts_in) : cts(std::move(cts_in)) {}

  std::vector<ElGamalCiphertext> cts;

  // The canonical wire bytes of `cts` (64 bytes per ciphertext): the
  // concatenation of cts[c].Serialize(). Producers fill it via EnsureWire()
  // inside parallel regions; the universal verifier checks it (see header
  // comment) rather than trusting it. Excluded from equality: the bytes
  // carry nothing the points do not.
  Bytes wire;

  // Fills `wire` from `cts` unless it has their size; returns it.
  const Bytes& EnsureWire();

  bool operator==(const MixItem& other) const { return cts == other.cts; }
};

using MixBatch = std::vector<MixItem>;

// Hashes a batch, from its items' wire bytes, for challenge derivation and
// commitment comparison. Prover-side use only (the producer vouches for the
// bytes) — verifiers go through VerifyRpcMixCascade, which checks batch
// shapes and validates the bytes before hashing.
std::array<uint8_t, 32> HashMixBatch(const MixBatch& batch);

// Fills the wire bytes of every item that lacks them, on the pool (one
// parallel encode pass): what a caller that builds a batch from bare
// ciphertexts runs before handing it to a verifier.
void EnsureWireCache(MixBatch& batch, Executor& executor);

// Extracts one ciphertext column from a fixed-width batch (tally and
// verifier hand mix outputs to the tagging stage this way).
std::vector<ElGamalCiphertext> BatchColumn(const MixBatch& batch, size_t column);

// The wire-byte companion of BatchColumn: the 64-byte slice of one column
// for every item, so the tagging chain's DLEQ statements can hash the mix
// batch's canonical bytes instead of re-encoding the points. Every item must
// have the column and carry its bytes. Trust follows the bytes: the tally
// threads its own, the verifier only batches whose bytes
// VerifyRpcMixCascade validates.
std::vector<ElGamalWire> BatchColumnWire(const MixBatch& batch, size_t column);

// An opened re-encryption link for one middle-layer item.
struct RpcReveal {
  // Side 0: links mid[index_in_mid] to pair input in[source_or_dest].
  // Side 1: links mid[index_in_mid] to pair output out[source_or_dest].
  uint8_t side = 0;
  uint64_t source_or_dest = 0;
  std::vector<Scalar> randomness;  // one re-encryption scalar per ciphertext
};

// Proof for one mix pair: the committed middle batch and per-item reveals.
struct RpcPairProof {
  MixBatch mid;
  MixBatch out;
  std::vector<RpcReveal> reveals;  // one per middle index
};

// Full cascade proof (one entry per pair).
struct MixProof {
  std::vector<RpcPairProof> pairs;
};

// Runs `pair_count` RPC pairs (2·pair_count mix servers) over `input`.
// Returns the final shuffled batch and fills `proof`. Each layer's shards
// re-encrypt across `executor` under forked per-shard DRBGs; the output and
// proof are byte-identical at any thread count.
MixBatch RunRpcMixCascade(const MixBatch& input, const RistrettoPoint& pk, size_t pair_count,
                          Rng& rng, MixProof* proof,
                          Executor& executor = Executor::Global());

// How the verifier checks the opened re-encryption links of a pair.
enum class MixLinkCheck {
  // All links of a pair are folded into one random-linear-combination
  // multi-scalar multiplication (weights derived Fiat–Shamir-style from the
  // pair's committed batches and its published reveals, soundness error
  // 2^-128 per link). On rejection the verifier re-runs the per-link path
  // to name the offending link.
  kBatchedMsm,
  // One re-encryption check per link (the pre-MSM path; kept for failure
  // localization and the ablation benchmarks).
  kPerLink,
};

// Verifies an RPC cascade proof against the published input/output. Every
// batch it hashes (input, each pair's mid and out, the published output)
// must hold the input's item count with the input's width in every item:
// HashMixBatch runs the items' bytes together, so the hash binds item
// boundaries only under that check. Every item of those batches must carry
// the canonical encoding of its points (BatchValidateEncodings) before its
// bytes may bind challenge bits; an item whose bytes are missing or wrong is
// named by batch and index. Link checks, byte validation, and the closing
// MSM all run on `executor`, with the first failing pair/index reported
// deterministically.
Status VerifyRpcMixCascade(const MixBatch& input, const MixBatch& output,
                           const MixProof& proof, const RistrettoPoint& pk,
                           MixLinkCheck mode = MixLinkCheck::kBatchedMsm,
                           Executor& executor = Executor::Global());

// Single mix layer: shuffles and re-encrypts, recording the permutation and
// randomness for later reveals. The caller draws the permutation (Prepare)
// and one forked seed per Executor::Shards shard, then runs the shards
// (ShuffleShardRange) as graph nodes or a parallel loop; the bytes never
// depend on scheduling.
class MixServer {
 public:
  // Draws the Fisher-Yates permutation for an n-item layer from `rng`
  // (sequentially — the only parent-stream consumption of this layer) and
  // sizes the secret records. Shard seeds are forked by the caller
  // immediately after.
  void Prepare(size_t n, Rng& rng);

  // Re-encrypts output slots [begin, end) from `input` into `output`
  // (pre-sized to n by the caller), drawing randomness from `child` — the
  // forked stream for this shard. Wire caches are filled in the same pass.
  // Safe to run concurrently for disjoint ranges.
  void ShuffleShardRange(const MixBatch& input, const RistrettoPoint& pk, size_t begin,
                         size_t end, Rng& child, MixBatch& output);

  // For output index j: the input index it came from plus the randomness.
  RpcReveal RevealLinkForOutput(uint64_t output_index) const;

  // For input index i: the output index it went to plus the randomness.
  RpcReveal RevealLinkForInput(uint64_t input_index) const;

 private:
  std::vector<uint64_t> source_;                    // output j came from input source_[j]
  std::vector<uint64_t> dest_;                      // input i went to output dest_[i]
  std::vector<std::vector<Scalar>> randomness_;     // per output index
};

// Closes one RPC pair once both layers' outputs exist: hashes mid/out,
// derives the per-item challenge bits from (h_in, h_mid, h_out, pair index),
// and fills `pair->reveals`. Writes the pair's outgoing chain hash to
// *h_out_chain. Pure function of its inputs — the cascade and the dataflow
// tally call it identically, so proofs are byte-for-byte shared.
void FinishRpcPair(const MixServer& layer_a, const MixServer& layer_b,
                   const std::array<uint8_t, 32>& h_in, size_t pair_index,
                   RpcPairProof* pair, std::array<uint8_t, 32>* h_out_chain);

}  // namespace votegral

#endif  // SRC_VOTEGRAL_MIXNET_H_
