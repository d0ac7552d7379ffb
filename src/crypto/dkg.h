// Election-authority key generation and verifiable threshold decryption.
//
// The paper's trust model (§D.1/§D.2) requires that decryption be impossible
// unless *all* authority members collude, and that every decryption step be
// publicly verifiable. We implement the standard additive n-of-n DKG: each
// member holds x_i with public share X_i = x_i*B (plus a Schnorr
// proof-of-possession to prevent rogue-key attacks), and the election key is
// A_pk = ΣX_i. A ciphertext (C1, C2) is decrypted by combining verifiable
// partial decryptions S_i = x_i*C1, each carrying a Chaum–Pedersen proof of
// consistency with X_i.
//
// CreateThreshold additionally offers the t-of-n degradation mode (the
// paper's threshold trust assumption made operational): a dealerless
// sum-of-dealers Shamir DKG in which each member deals a degree-(t-1)
// polynomial, member j's key becomes x_j = Σ_i f_i(j+1), the Feldman
// commitment vectors sum coefficient-wise, and A_pk = C_0. Per-member share
// proofs are *identical* to the additive mode (DLEQ((B, X_j), (C1, x_j*C1))
// under the same domain), so the wire format and verifier code path do not
// fork; only CombineShares changes — any ≥ t distinct verified shares are
// Lagrange-recombined over the evaluation points (member_index + 1), which
// is what lets the tally proceed when up to n−t authorities crash, stall or
// return forged shares.
#ifndef SRC_CRYPTO_DKG_H_
#define SRC_CRYPTO_DKG_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/dleq.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/shamir.h"

namespace votegral {

// Fiat–Shamir domain for decryption-share DLEQ proofs. The statement is
// DLEQ((B, X_m), (C1, S)): member m's public share X_m and its share S of a
// ciphertext's C1. ComputeShare proves it, and VerifyShareAgainstCommitment
// and VerifyShareBatch below check it, so the domain and the layout are
// written only here and in dkg.cpp.
inline constexpr std::string_view kDecryptionShareDomain =
    "votegral/authority/decryption-share/v1";

// One election-authority member's share.
struct AuthorityMember {
  Scalar secret;
  RistrettoPoint public_share;
  // Canonical encoding of public_share, filled at Create (the DKG encodes it
  // for the proof of possession anyway). Every decryption-share statement
  // hashes X_i, so this one cache spares an inverse sqrt per share proved or
  // verified against this member.
  CompressedRistretto public_share_wire{};
  SchnorrSignature proof_of_possession;  // Schnorr signature of own share
};

// A verifiable partial decryption of some ciphertext's C1.
struct DecryptionShare {
  size_t member_index = 0;
  RistrettoPoint share;    // x_i * C1
  DleqTranscript proof;    // DLEQ((B, X_i), (C1, share))

  // Canonical encoding of `share`, filled by ComputeShare from the prover's
  // bytes: a producer cache like TaggingStep::output_wire. VerifyShareBatch
  // (the tally's check of each decrypt batch and the universal verifier's)
  // hashes it only after checking it against the point
  // (BatchValidateEncodings) and encodes the point when it does not match;
  // with faults armed, AuthorityClient::ReceiveShare also compares it with
  // the point on arrival.
  CompressedRistretto share_wire{};
};

// The distributed election authority A = {A_1, ..., A_n}.
class ElectionAuthority {
 public:
  // Runs the additive n-of-n DKG among `n` members (threshold() == n, and
  // CombineShares requires every member: the seed configuration).
  static ElectionAuthority Create(size_t n, Rng& rng);

  // Runs the dealerless sum-of-dealers Shamir DKG: any `threshold` of `n`
  // members can decrypt; fewer learn nothing. 1 <= threshold <= n.
  static ElectionAuthority CreateThreshold(size_t threshold, size_t n, Rng& rng);

  // The collective public key A_pk = sum of public shares. Create and
  // CreateThreshold register it as a fixed base, so every copy of it
  // (encryption, re-encryption and proof keys) multiplies from a table.
  const RistrettoPoint& public_key() const { return public_key_; }
  size_t size() const { return members_.size(); }
  const AuthorityMember& member(size_t i) const { return members_.at(i); }

  // Shares needed to decrypt: n for the additive mode, t for CreateThreshold.
  size_t threshold() const { return threshold_; }
  // True when shares recombine with Lagrange weights (CreateThreshold) rather
  // than a plain sum.
  bool is_threshold() const { return shamir_mode_; }
  // Summed Feldman commitments (threshold mode only; empty for additive).
  // Public: lets the verifier re-derive every member's share commitment.
  const FeldmanCommitments& feldman_commitments() const { return feldman_; }

  // Verifies every member's proof of possession against the collective key,
  // and in threshold mode each public share against the Feldman commitments.
  Status VerifySetup() const;

  // Member `i` produces its verifiable share for `ct`. When the caller
  // already holds C1's canonical bytes (tagging output wire, mix column
  // wire), passing them via `c1_wire` makes the proof statement fully
  // wire-backed; otherwise C1 is encoded here once. The proof bytes are
  // identical either way. The share carries its own encoding (share_wire).
  DecryptionShare ComputeShare(size_t i, const ElGamalCiphertext& ct, Rng& rng,
                               const CompressedRistretto* c1_wire = nullptr) const;

  // Member `i`'s shares of many ciphertexts as one batched proof
  // (ProveDleqFsDeriving over statements that share x_i): out[j] is the
  // share of cts[j], proved with the nonce nonces[j], its statement hashing
  // C1 from c1_wire[j], the bytes of cts[j].c1 that the caller produced or
  // validated. Each share is the one ComputeShare gives when it draws that
  // nonce. A batch is one member's: the tally draws the nonces of a shard in
  // ciphertext-then-member order and proves each member's shares apart.
  void ComputeShares(size_t i, std::span<const ElGamalCiphertext> cts,
                     std::span<const CompressedRistretto> c1_wire,
                     std::span<const Scalar> nonces, std::span<DecryptionShare> out) const;

  // Anyone can check a share against the member's public share: an unknown
  // member index, then VerifyShareAgainstCommitment.
  Status VerifyShare(const ElGamalCiphertext& ct, const DecryptionShare& share) const;

  // Combines verified shares into the decryption M. Additive mode: requires
  // exactly one share per member (n-of-n), M = C2 - Σ S_i. Threshold mode:
  // requires >= threshold() distinct shares (any valid subset — callers
  // exclude faulty authorities first), M = C2 - Σ λ_j S_j with Lagrange
  // weights over the participating members' evaluation points. Misuse (too
  // few / duplicate shares) throws; share *validity* is the caller's check
  // (VerifyShare) — combining never inspects proofs. The arithmetic is
  // CombineSharesPublic / CombineSharesPublicThreshold below.
  RistrettoPoint CombineShares(const ElGamalCiphertext& ct,
                               const std::vector<DecryptionShare>& shares) const;

  // Test/bench convenience: full decryption using all members' secrets.
  RistrettoPoint Decrypt(const ElGamalCiphertext& ct) const;

  // Test/bench convenience: the combined secret key (sum of member secrets).
  Scalar CombinedSecret() const;

 private:
  std::vector<AuthorityMember> members_;
  RistrettoPoint public_key_;
  size_t threshold_ = 0;
  bool shamir_mode_ = false;
  FeldmanCommitments feldman_;  // summed dealer commitments (threshold mode)
};

// Verifies a decryption share against a member's public share without an
// ElectionAuthority instance (auditors have only public data).
Status VerifyShareAgainstCommitment(const RistrettoPoint& member_share_commitment,
                                    const ElGamalCiphertext& ct, const DecryptionShare& share);

// True when every share's proof in `shares[i]` (the shares of `cts[i]`)
// holds against `member_shares[share.member_index]`, except with
// probability 2^-128. A share naming a member outside `member_shares` fails
// the batch and its index is never read. Counts and duplicates are not
// checked here: that is the combining caller's rule.
//
// The proofs are one positional batch (DleqTermBatch, src/crypto/batch.h)
// sharded over ciphertexts: ciphertext i's terms are its C1, then per share
// the share point and the proof's two commits; B and the members' public
// shares are batch-wide. Weights come from a hash of every proof's challenge
// and response under "votegral/verifier/share-batch-weights/v3", so any
// auditor derives the same ones and whoever produced the shares cannot
// predict them.
//
// Each challenge is recomputed from bytes in hand: B's and the members'
// encodings (once per call), C1 from `cts_wire`, the bytes of `cts` that the
// caller produced or another check validates (the batch fails unless there
// is one per ciphertext), and the share point from its share_wire when a
// BatchValidateEncodings pass over the shard (exact, no inverse square root)
// finds those bytes to be its canonical encoding, or one fresh encode
// otherwise, so a stale or forged cache binds exactly what the point does.
// The proofs' own commit bytes are attacker data: they pass the same
// validation before they are hashed, and a proof without them fails the
// batch. Runs on Executor::Current().
bool VerifyShareBatch(std::span<const ElGamalCiphertext> cts,
                      std::span<const ElGamalWire> cts_wire,
                      std::span<const std::vector<DecryptionShare>> shares,
                      std::span<const RistrettoPoint> member_shares);

// Combines decryption shares publicly (after verifying each): additive
// n-of-n (exactly `expected_members` shares, plain sum).
RistrettoPoint CombineSharesPublic(const ElGamalCiphertext& ct,
                                   const std::vector<DecryptionShare>& shares,
                                   size_t expected_members);

// Threshold variant: Lagrange-recombines any recorded participant subset
// over the members' evaluation points (member_index + 1). The caller must
// have checked distinctness and the >= t count; each share's proof is
// verified separately.
RistrettoPoint CombineSharesPublicThreshold(const ElGamalCiphertext& ct,
                                            const std::vector<DecryptionShare>& shares);

}  // namespace votegral

#endif  // SRC_CRYPTO_DKG_H_
