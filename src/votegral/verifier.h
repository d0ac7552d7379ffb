// Universal verification (§3.3, §5.1): anyone holding the public ledger and
// the published tally transcript can re-check the entire pipeline — no
// secrets required. The verifier recomputes the validated ballot set,
// re-verifies every mix (each cascade must have kMixPairs pairs), tagging
// and decryption proof, replays the tag join, recounts, and checks the
// discard counters those replays recompute.
//
// Parallel architecture: the expensive sections — ballot revalidation and
// registration-record checks (per-shard signature batches), mix-pair link
// RLCs, tagging-step DLEQ batches and decryption-share batches — are
// independent multi-scalar multiplications and per-item proof checks,
// dispatched to the injected executor (the two mix cascades verify
// concurrently; every batch's entry preparation and closing MSM fan out
// further). Failure localization is
// preserved: parallel passes record positional flags and the lowest failing
// pair/index is re-derived exactly, so the verdict and its reason string
// are identical at any thread count.
#ifndef SRC_VOTEGRAL_VERIFIER_H_
#define SRC_VOTEGRAL_VERIFIER_H_

#include <set>

#include "src/crypto/dkg.h"
#include "src/ledger/subledgers.h"
#include "src/votegral/tally.h"

namespace votegral {

// Public election parameters the verifier needs (all published at setup).
struct VerifierParams {
  RistrettoPoint authority_pk;
  std::vector<RistrettoPoint> authority_shares;   // members' public shares
  // 0 = additive n-of-n authority: every ciphertext must carry exactly one
  // share per member. t >= 1 = Shamir threshold authority: each ciphertext's
  // recorded participant subset is accepted when it holds >= t distinct,
  // individually proven shares (Lagrange recombination) — the verifier
  // checks the transcript that *was* produced under degradation, while any
  // forged share in the subset still rejects.
  size_t authority_threshold = 0;
  std::vector<RistrettoPoint> tagging_commitments;  // Z_t commitments
  std::set<CompressedRistretto> authorized_kiosks;
  std::set<CompressedRistretto> authorized_officials;
  // Deniable-revoting mode (docs/REVOTING.md): the ledger carries
  // RevoteBallots and the transcript must contain a valid supersession
  // section. With revote_padding the verifier additionally enforces the
  // cover-envelope lower bound on the revealed group-size multiset.
  bool revoting = false;
  bool revote_padding = true;
};

// Re-checks the published tally against the ledger. Returns the first
// discrepancy found, or OK when the election verifies end-to-end.
Status VerifyElection(const PublicLedger& ledger, const VerifierParams& params,
                      const CandidateList& candidates, const TallyOutput& output,
                      Executor& executor = Executor::Global());

// VerifyShareAgainstCommitment, VerifyShareBatch and the public share
// combiners live in src/crypto/dkg.h, beside the prover.

}  // namespace votegral

#endif  // SRC_VOTEGRAL_VERIFIER_H_
