// Internal machinery of the tally: the per-shard kernels the task graph in
// src/votegral/tally_dataflow.cpp runs as nodes, and the two sequential
// kernels around the revote dedup's chain (src/votegral/revote.cpp). Not
// part of the public surface.
//
// Each kernel writes positionally into pre-sized buffers and draws randomness
// only from the forked child stream handed to it, so its bytes depend on
// (shard boundaries, seed assignment), never on when or where it ran. The
// graph assigns every seed in one fixed order (tally_dataflow.cpp states it),
// which is the order the golden transcript digests pin.
#ifndef SRC_VOTEGRAL_TALLY_INTERNAL_H_
#define SRC_VOTEGRAL_TALLY_INTERNAL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/votegral/authority_client.h"
#include "src/votegral/tally.h"

namespace votegral {
namespace tally_internal {

// Mutable state threaded through one tally run: the output under
// construction plus the working buffers handed from one stage to the next
// (released once consumed).
struct TallyPipelineState {
  TallyOutput output;

  // validate -> dedup: per-ledger-index validation results (nullopt =
  // discarded). Exactly one of the two vectors is populated, by mode.
  std::vector<std::optional<Ballot>> validated_ballots;
  std::vector<std::optional<RevoteBallot>> validated_revotes;
  // revote dedup -> mix: the kept [Enc(vote), Enc(c_pk)] columns, already
  // re-randomized by the revote mix; they become the ballot mix input.
  MixBatch revote_kept;
  // decrypt-tags -> join: roster tag multiset.
  std::map<CompressedRistretto, uint64_t> roster_tag_counts;
  // Degradation bookkeeping: member -> first coded failure (ciphertext
  // order), folded into TallyOutput::excluded_authorities at the end.
  std::map<size_t, Status> authority_blame;
};

// Releases a consumed inter-stage buffer immediately (the streaming
// property: a stage's input shards do not outlive the stage).
template <typename T>
void Release(T& container) {
  T().swap(container);
}

// Epoch tags distinguishing the three decrypt batches in the per-run fault
// schedule: a ciphertext's fault key is (epoch << 32) | index, unique across
// the whole run regardless of batch sizes.
enum : uint64_t {
  kEpochRosterTags = 1,
  kEpochBallotTags = 2,
  kEpochVotes = 3,
  // Revote-mode extra batches (docs/REVOTING.md): the supersession layer's
  // tag and counter decryptions.
  kEpochRevoteTags = 4,
  kEpochRevoteCounters = 5,
};

// Stage-level fault points (mix.shuffle, tag.apply): the whole sub-batch
// operation either runs cleanly or fails with a coded, localized status —
// the mix cascade and tagging chain have no per-item degradation story (a
// missing shuffler breaks the cascade), so injected faults surface as stage
// failures. An injected delay only models latency and does not fail the
// stage; an injected corruption is reported as caught (the cascade's proof
// checks would reject a tampered batch).
Status ProbeStageFault(std::string_view point, uint64_t scope, const char* what);

// Validate-stage kernel: parses and signature-checks ledger ballots
// [begin, end), streaming them off a per-shard cursor (zero-copy segment
// views — at most one segment resident per shard), with the range's
// signatures in one VerifySchnorrGroups batch (one group per ballot). Writes
// `validated[i]` and an outcome code into `outcome[i]` positionally, the
// codes CheckBallot's verdicts give; disjoint ranges may run concurrently.
enum : uint8_t {
  kBallotOk = 0,
  kBallotBadStructure = 1,
  kBallotBadSignature = 2,
};
void ValidateBallotShard(const PublicLedger& ledger,
                         const std::set<CompressedRistretto>& authorized_kiosks,
                         size_t begin, size_t end,
                         std::vector<std::optional<Ballot>>& validated,
                         std::vector<uint8_t>& outcome);

// Sequential, index-ordered fold of the positional outcome codes into the
// discard counters (identical at any thread count).
void TallyValidationOutcomes(std::span<const uint8_t> outcome, TallyDiscards* discards);

// Builds one ballot's width-2 mix item [Enc(vote), Enc(c_pk)] with its wire
// bytes from the ballot's (BallotMixWire). Require-fails on a bad credential
// point — validated ballots cannot have one.
MixItem BallotMixItem(const Ballot& ballot);

// Working buffers for one decrypt batch. Shards write positionally into
// these; FinalizeDecryptBatch then performs the sequential, index-ordered
// merges (blame, shortfall detection) that keep the batch deterministic at
// any thread count, and checks the batch's share proofs.
struct DecryptBatchBuffers {
  size_t threshold = 0;
  bool armed = false;  // fault plan armed at Init time
  std::vector<RistrettoPoint> member_shares;  // the members' public shares
  std::vector<std::vector<DecryptionShare>>* shares_out = nullptr;
  std::vector<CompressedRistretto>* encoded_out = nullptr;
  std::vector<std::vector<ShareRequestReport>> failed;  // armed ? n : 0
  std::vector<uint8_t> short_of_threshold;

  void Init(const ElectionAuthority& authority, size_t n,
            std::vector<std::vector<DecryptionShare>>* shares,
            std::vector<CompressedRistretto>* encoded);
};

// Decrypt-stage kernel: collects every live authority member's verifiable
// share for ciphertexts [begin, end) through the retrying AuthorityClient,
// drawing proof nonces from `child`; each share's statement hashes C1 from
// `cts_wire`, the bytes of `cts`. The requests are planned and their nonces
// drawn in (ciphertext, member) order, each member's shares of the range
// are proved as one batch (ElectionAuthority::ComputeShares), and the
// responses are received in that order again, so the shares, the blame and
// the random stream are those of one request at a time. Failures are
// captured per ciphertext when a fault plan is armed. Disjoint ranges may
// run concurrently.
void DecryptShareShardRange(const TallyService& service, const AuthorityClient& client,
                            std::span<const ElGamalCiphertext> cts,
                            std::span<const ElGamalWire> cts_wire, uint64_t epoch,
                            size_t begin, size_t end, Rng& child,
                            DecryptBatchBuffers& buffers);

// Close of one decrypt batch over `cts` (with `cts_wire`, the bytes the
// shards hashed): merges blame (first failure per member in
// ciphertext order), reports the first ciphertext short of the threshold as
// kUnavailable, and then checks every share the batch collected with one
// VerifyShareBatch, so no decryption leaves the tally before the shares it
// rests on verify. A failed check is an internal fault, not a verification
// result (corrupted responses are rejected on arrival and their members
// excluded, so it means the tally produced a bad proof): it throws.
Status FinalizeDecryptBatch(const char* what, std::span<const ElGamalCiphertext> cts,
                            std::span<const ElGamalWire> cts_wire,
                            DecryptBatchBuffers& buffers, std::map<size_t, Status>* blame);

// The revote dedup's sequential kernels around its chain (docs/REVOTING.md;
// the chain runs as RunRevoteDedup's graph flow, tally_dataflow.cpp).
// BuildRevoteMixInput: the accepted list (consuming state.validated_revotes),
// the padding oracle's dummy groups (credentials drawn from `rng`), and the
// width-3 revote mix_input with wire caches.
void BuildRevoteMixInput(const TallyService& service, Rng& rng, TallyPipelineState& state);
// SelectRevoteKept: tag-sort last-write-wins over the decrypted tags and
// counters; fills kept_indices, the discard counters and state.revote_kept.
void SelectRevoteKept(const TallyService& service, TallyPipelineState& state);

}  // namespace tally_internal
}  // namespace votegral

#endif  // SRC_VOTEGRAL_TALLY_INTERNAL_H_
