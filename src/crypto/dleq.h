// Chaum–Pedersen proofs of discrete-log equality (the paper's ZKPoE, §E.1):
// given pairs (G_i, P_i), prove knowledge of x with P_i = x*G_i for all i.
//
// This single Σ-protocol underpins the whole system:
//  * TRIP real credentials: the kiosk proves interactively that the public
//    credential c_pc = (C1, X·c_pk) satisfies C1 = g^x ∧ X = A^x — executed
//    in the sound commit→challenge→response order (§E.4),
//  * TRIP fake credentials: the same transcript *simulated* from a known
//    challenge (§E.5) — structurally valid, proves nothing,
//  * verifiable decryption shares and deterministic tagging: non-interactive
//    (Fiat–Shamir) variants over 2- and 3-element statements.
//
// The transcript deliberately does not record which order was used: that is
// the "voter's-eyes-only" bit at the heart of TRIP's coercion resistance
// (§4.3). VerifyDleqTranscript accepts both.
//
// Wire-byte transcripts (docs/TRANSCRIPTS.md §DLEQ): statements and
// transcripts carry canonical encodings of their points, so Fiat–Shamir
// challenge derivation is SHA-only — the hash input is byte-for-byte the
// encode-per-point stream, so proofs are identical either way. Two rules:
//  * STATEMENT bytes are producer-local and optional: whoever fills
//    base_wire/public_wire asserts the bytes came from its own Encode() calls
//    (or its prover's BatchDoubleAndEncode) or from wire data it already
//    validated (mix-batch bytes checked by VerifyRpcMixCascade, tagging
//    output bytes checked by VerifyChain, parsed ledger bytes). A section
//    without them is encoded as it is hashed. Verifiers construct their
//    statements themselves, so these bytes never cross a trust boundary.
//  * TRANSCRIPT commit bytes are always present and are attacker data on the
//    verify side: VerifyDleqFs, BatchVerifyDleq and the positional batches
//    check every one is the canonical encoding of its commit
//    (BatchValidateEncodings) before it may bind challenge bits, and a
//    missing or mismatching string is a localized verification failure —
//    otherwise a cheating prover could grind the hashed bytes independently
//    of the checked group elements.
#ifndef SRC_CRYPTO_DLEQ_H_
#define SRC_CRYPTO_DLEQ_H_

#include <span>
#include <string_view>
#include <vector>

#include "src/common/outcome.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/ristretto.h"
#include "src/crypto/scalar.h"

namespace votegral {

// The statement: P_i = x * G_i for every (base, public) pair.
struct DleqStatement {
  std::vector<RistrettoPoint> bases;
  std::vector<RistrettoPoint> publics;

  // Canonical encodings parallel to bases/publics: either empty or
  // full-size (per section). Producer-local — see the header's rules.
  // Excluded from semantic identity: the filling party vouches for the
  // invariant wire[i] == point[i].Encode().
  std::vector<CompressedRistretto> base_wire;
  std::vector<CompressedRistretto> public_wire;

  // Fills any missing cache section by encoding its points (batched on the
  // current executor). The encode cost equals what one cacheless challenge
  // derivation would have paid; every later hash of this statement is then
  // SHA-only.
  void EnsureWire();

  // Two-pair convenience (the common TRIP/decryption case).
  static DleqStatement MakePair(const RistrettoPoint& g1, const RistrettoPoint& p1,
                                const RistrettoPoint& g2, const RistrettoPoint& p2);
};

// A (possibly simulated) transcript: commits Y_i, challenge e, response r.
// Valid iff r*G_i + e*P_i == Y_i for all i.
struct DleqTranscript {
  std::vector<RistrettoPoint> commits;
  Scalar challenge;
  Scalar response;

  // The canonical encoding of each commit, always present: filled by every
  // prover and simulator at proving time and by Parse from the consumed
  // bytes. Attacker data to every verifier (see the header's rules).
  // Serialize() writes these bytes.
  std::vector<CompressedRistretto> commit_wire;

  // Checks that commit_wire holds the canonical encoding of every commit
  // (BatchValidateEncodings, no decode); names the first commit whose bytes
  // are missing or wrong. The verify entry points call this before the
  // bytes may bind challenge bits.
  Status ValidateWire() const;

  Bytes Serialize() const;
  static Outcome<DleqTranscript> Parse(std::span<const uint8_t> bytes);
};

// Interactive prover running the *sound* order: the commitment is fixed
// before the verifier's challenge is known. TRIP's kiosk uses this for real
// credentials; the printed receipt bears the commits before the voter picks
// an envelope.
class DleqProver {
 public:
  // Starts a proof of `statement` with witness `x`; draws the commitment
  // nonce from `rng`. The commits' canonical encodings are computed here,
  // once — the cost every later challenge hash or receipt print reuses.
  DleqProver(DleqStatement statement, const Scalar& x, Rng& rng);

  // The commits Y_i = y*G_i, available before any challenge exists.
  const std::vector<RistrettoPoint>& commits() const { return commits_; }

  // Canonical encodings of commits(), parallel to it.
  const std::vector<CompressedRistretto>& commit_wire() const { return commit_wire_; }

  // Completes the transcript (carrying the commit wire cache) for the
  // verifier-chosen challenge.
  DleqTranscript Respond(const Scalar& challenge) const;

 private:
  DleqStatement statement_;
  Scalar x_;
  Scalar y_;
  std::vector<RistrettoPoint> commits_;
  std::vector<CompressedRistretto> commit_wire_;
};

// Simulates a structurally valid transcript for an arbitrary statement given
// a challenge known *in advance* — the unsound order used for fake
// credentials. Works for statements with no witness at all. The returned
// transcript carries its commit wire cache, exactly like a sound one (a
// byte-level difference would break the voter's-eyes-only property).
DleqTranscript SimulateDleq(const DleqStatement& statement, const Scalar& challenge, Rng& rng);

// Checks r*G_i + e*P_i == Y_i for all pairs. Accepts sound and simulated
// transcripts alike (by design; see header comment).
Status VerifyDleqTranscript(const DleqStatement& statement, const DleqTranscript& transcript);

// Derives a Fiat–Shamir challenge binding the domain, statement, commits and
// optional extra context. A statement section is hashed from its bytes when
// they are complete (producer-local) and encoded otherwise; the commits are
// hashed from `commit_wire`, which must hold one encoding per commit. The
// hashed byte stream is the encode-per-point one, and with complete
// statement bytes this performs ZERO point encodings — the property the
// invocation-counting test in tests/test_dleq_wire.cpp pins down. Callers
// must have validated attacker-supplied commit bytes first (the Verify*
// entry points below do).
Scalar DeriveFsChallenge(std::string_view domain, const DleqStatement& statement,
                         std::span<const RistrettoPoint> commits,
                         std::span<const CompressedRistretto> commit_wire,
                         std::span<const uint8_t> extra);

// Non-interactive (Fiat–Shamir) proof; sound in the random-oracle model.
// The returned transcript carries its commit wire cache. Runs
// ProveDleqFsDeriving on a copy of the statement, which must list every
// public.
DleqTranscript ProveDleqFs(std::string_view domain, const DleqStatement& statement,
                           const Scalar& x, Rng& rng, std::span<const uint8_t> extra = {});

// The Fiat–Shamir prover for one statement: the batch below with one nonce
// y, drawn from `rng` exactly as DleqProver draws it (one Scalar::Random).
// It also derives the publics the statement leaves out: when
// publics.size() < bases.size(), x*G_i is appended for each missing i, with
// its canonical bytes in public_wire (the given publics must then carry
// theirs). Bases and given publics are hashed from their bytes when
// complete, encoded otherwise. The transcript, and every derived byte, are
// those the encode-per-point prover gives for the same stream.
DleqTranscript ProveDleqFsDeriving(std::string_view domain, DleqStatement& statement,
                                   const Scalar& x, Rng& rng,
                                   std::span<const uint8_t> extra = {});

// The Fiat–Shamir prover over statements that share the witness x: out[j]
// proves statements[j] with the nonce nonces[j], and derives its missing
// publics as the one-statement call does, so a batch gives the bytes of one
// call per statement with the same nonces. Every derived public and commit
// is computed as 2*Q from the halved scalars x/2 and y/2 mod l. The bases
// go to two batched RistrettoPoint::MulEach calls, one for the bases with a
// given public (the commit's multiple only) and one for the others (a
// commit's and a public's multiple, sharing one doubling chain); a
// generator or registered base reads its table, and the rest run the batch
// kernel eight at a time on AVX-512 IFMA hosts. Then one
// BatchDoubleAndEncode gives every fresh point's bytes, so the prover
// computes no inverse square root of its own, and each statement's
// challenge and response follow.
void ProveDleqFsDeriving(std::string_view domain, std::span<DleqStatement> statements,
                         const Scalar& x, std::span<const Scalar> nonces,
                         std::span<DleqTranscript> out, std::span<const uint8_t> extra = {});

// Verifies a Fiat–Shamir proof (recomputes and checks the challenge). The
// transcript's commit bytes are validated (ValidateWire) before they bind
// the challenge; missing, stale or forged bytes are a localized verification
// failure.
Status VerifyDleqFs(std::string_view domain, const DleqStatement& statement,
                    const DleqTranscript& transcript, std::span<const uint8_t> extra = {});

}  // namespace votegral

#endif  // SRC_CRYPTO_DLEQ_H_
