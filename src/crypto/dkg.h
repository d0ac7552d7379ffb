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
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/dleq.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/shamir.h"

namespace votegral {

// Fiat–Shamir domain for decryption-share DLEQ proofs. Shared by the
// authority (proving), the universal verifier and the tally's batched
// self-check (verifying); a single definition keeps the three in sync.
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
  // bytes: a producer cache like TaggingStep::output_wire. The tally's
  // release-gate self-check hashes it instead of encoding the share again;
  // with faults armed, AuthorityClient::RequestShare compares it with the
  // point on arrival. The universal verifier hashes it only after checking
  // it against the point (BatchValidateEncodings) and encodes the point
  // when it does not match.
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

  // Anyone can check a share against the member's public share.
  Status VerifyShare(const ElGamalCiphertext& ct, const DecryptionShare& share) const;

  // Combines verified shares into the decryption M. Additive mode: requires
  // exactly one share per member (n-of-n), M = C2 - Σ S_i. Threshold mode:
  // requires >= threshold() distinct shares (any valid subset — callers
  // exclude faulty authorities first), M = C2 - Σ λ_j S_j with Lagrange
  // weights over the participating members' evaluation points. Misuse (too
  // few / duplicate shares) throws; share *validity* is the caller's check
  // (VerifyShare) — combining never inspects proofs.
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

}  // namespace votegral

#endif  // SRC_CRYPTO_DKG_H_
