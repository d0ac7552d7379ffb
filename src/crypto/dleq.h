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
// transcripts carry optional cached canonical encodings of their points, so
// Fiat–Shamir challenge derivation is SHA-only when the caches are complete —
// the hash input is byte-for-byte the encode-per-point stream, so proofs are
// identical either way. Trust model, mirroring PR 2's MixItem rule:
//  * STATEMENT caches are producer-local: whoever fills base_wire/public_wire
//    asserts the bytes came from its own Encode() calls (or its prover's
//    BatchDoubleAndEncode) or from wire data it already validated (mix-batch
//    caches checked by VerifyRpcMixCascade, tagging output wires checked by
//    VerifyChain, parsed ledger bytes).
//    Verifiers construct their statements themselves, so these caches never
//    cross a trust boundary.
//  * TRANSCRIPT commit caches are attacker data on the verify side:
//    VerifyDleqFs and BatchVerifyDleq decode and recompare them against the
//    commit points before the bytes may bind challenge bits, and a mismatch
//    is a localized verification failure — otherwise a cheating prover could
//    grind the hashed bytes independently of the checked group elements.
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

  // Cached canonical encodings parallel to bases/publics: either empty or
  // full-size (per-section). Producer-local — see the header trust model.
  // Excluded from semantic identity: a cache is a performance artifact whose
  // invariant (wire[i] == point[i].Encode()) the filling party vouches for.
  std::vector<CompressedRistretto> base_wire;
  std::vector<CompressedRistretto> public_wire;

  // True when both sections carry complete caches.
  bool HasWire() const {
    return !bases.empty() && base_wire.size() == bases.size() &&
           public_wire.size() == publics.size();
  }

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

  // Cached canonical encodings of `commits` (empty or full-size). Filled by
  // provers at proving time and by Parse from the consumed wire bytes;
  // treated as attacker data by every verifier (decode + recompare before
  // hashing — see header trust model). Not part of the serialized format:
  // Serialize() emits the same bytes with or without the cache.
  std::vector<CompressedRistretto> commit_wire;

  bool HasWire() const {
    return !commits.empty() && commit_wire.size() == commits.size();
  }

  // Fills commit_wire by encoding the commits (prover-side use).
  void EnsureWire();

  // Decode-and-recompare of commit_wire against commits; names the first
  // mismatching index. The verify entry points call this before the cache
  // may bind challenge bits.
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
// optional extra context. Uses the statement's wire caches per section when
// complete (trusted, producer-local); encodes fresh otherwise. The hashed
// byte stream is identical either way.
Scalar DeriveFsChallenge(std::string_view domain, const DleqStatement& statement,
                         std::span<const RistrettoPoint> commits,
                         std::span<const uint8_t> extra);

// Wire-aware challenge derivation: like the overload above, but hashes
// `commit_wire` for the commit section when its size matches `commits`
// (falling back to encoding otherwise). With complete statement and commit
// caches this performs ZERO point encodings — the property the
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

// The Fiat–Shamir prover. It draws the nonce y from `rng` exactly as
// DleqProver does (one Scalar::Random), and it also derives the publics the
// statement leaves out: when publics.size() < bases.size(), x*G_i is
// appended for each missing i, with its canonical bytes in public_wire (the
// given publics must then carry theirs). Every derived public and commit is
// computed as 2*Q from the halved scalars x/2 and y/2 mod l: one
// RistrettoPoint::MulEach per base, so a base's public and commit share one
// doubling chain (a generator or registered base reads its table), and one
// BatchDoubleAndEncode per proof, so the prover computes no inverse square
// root of its own. Bases and given publics are hashed from their caches
// when complete, encoded otherwise. The transcript, and every derived byte,
// are those the encode-per-point prover gives for the same stream.
DleqTranscript ProveDleqFsDeriving(std::string_view domain, DleqStatement& statement,
                                   const Scalar& x, Rng& rng,
                                   std::span<const uint8_t> extra = {});

// Verifies a Fiat–Shamir proof (recomputes and checks the challenge). When
// the transcript carries a commit wire cache it is validated (decode +
// recompare) before its bytes bind the challenge; a stale or forged cache is
// a localized verification failure, not a silent fallback.
Status VerifyDleqFs(std::string_view domain, const DleqStatement& statement,
                    const DleqTranscript& transcript, std::span<const uint8_t> extra = {});

}  // namespace votegral

#endif  // SRC_CRYPTO_DLEQ_H_
