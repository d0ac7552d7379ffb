// AuthorityClient: the tally's fault-isolating boundary around authority
// members.
//
// The decrypt stages never take a member's shares without this wrapper,
// which models the member as a remote party that can crash, stall, delay or
// lie — the failure surface a distributed deployment will have — and turns
// each request into either a verified DecryptionShare or a *coded,
// localized* Status naming the member and the fault point, so degradation
// logic upstream can exclude the member and recombine over the surviving
// t-subset. A request is planned (PlanShare: the fault decisions), the
// member computes the shares of the requests that answer
// (ElectionAuthority::ComputeShares, one batch per member), and each
// response is received (ReceiveShare: corruption and arrival checks).
//
// Per request:
//  * bounded retries (RetryPolicy::max_attempts) with deterministic
//    exponential backoff,
//  * a simulated per-request time budget tracked on a VirtualClock
//    (src/common/clock.h): timeouts and injected delays advance the clock,
//    never sleep, and the request fails kTimeout once the deadline is spent,
//  * when a fault plan is armed, the share's share_wire cache is compared
//    with its point and its DLEQ proof is verified on arrival (a corrupted
//    response fails kInvalidProof immediately — Byzantine responses are
//    excluded, not retried); in no-fault runs arrival verification is
//    skipped and each decrypt batch's one batched check as it closes
//    (VerifyShareBatch, src/crypto/dkg.h) keeps the single-pass cost,
//  * on the no-fault path the wrapper is transparent: every request
//    answers, the shares are those of one ComputeShare per request with the
//    same nonces, identical share bytes — the golden-digest byte-compat
//    contract.
//
// Determinism: every decision here is a pure function of (fault plan, member
// index, ct_key, attempt) and of the request's own local clock; nothing
// depends on scheduling or thread count.
#ifndef SRC_VOTEGRAL_AUTHORITY_CLIENT_H_
#define SRC_VOTEGRAL_AUTHORITY_CLIENT_H_

#include <cstdint>
#include <string>

#include "src/common/clock.h"
#include "src/common/faults.h"
#include "src/common/outcome.h"
#include "src/crypto/dkg.h"

namespace votegral {

// Retry/deadline policy for one share request. Times are simulated
// milliseconds on the request's VirtualClock.
struct RetryPolicy {
  size_t max_attempts = 3;
  uint64_t base_backoff_ms = 10;     // backoff before retry k is base << (k-1)
  uint64_t request_timeout_ms = 50;  // simulated cost of a timed-out attempt
  uint64_t deadline_ms = 400;        // total budget; kTimeout once exhausted
};

// Localized outcome of one share request: who was asked, what happened,
// at what cost. The failure `status` names the member and the fault point
// ("authority 3: crash injected at authority.compute_share") with a stable
// StatusCode, which is what the tally records as blame for excluded members.
struct ShareRequestReport {
  size_t member_index = 0;
  Status status = Status::Ok();
  size_t attempts = 0;
  double sim_seconds = 0.0;  // simulated time spent on this request
};

class AuthorityClient {
 public:
  explicit AuthorityClient(const ElectionAuthority& authority,
                           RetryPolicy policy = RetryPolicy());

  const RetryPolicy& policy() const { return policy_; }

  // Plans member `member`'s share request for one ciphertext: its fault
  // decisions, taken before any share is computed (attempts, retries and
  // the simulated clock). `ct_key` is the caller's stable identifier for
  // the ciphertext (unique across the whole run — the decrypt stages use
  // epoch-tagged indices), which keys the fault schedule independently of
  // iteration order. Returns the fault that touches the answering attempt's
  // response (none, a delay or a corruption), or the request's coded,
  // localized failure; `report` records attempts, simulated cost and status.
  Outcome<FaultKind> PlanShare(size_t member, uint64_t ct_key, ShareRequestReport& report) const;

  // The response of a planned request that answered: `share` is the member's
  // share of `ct`, corrupted when `fault` is kCorrupt, then checked on
  // arrival when a fault plan is armed (a rejected share fails
  // kInvalidProof, recorded in `report`).
  Outcome<DecryptionShare> ReceiveShare(const ElGamalCiphertext& ct, DecryptionShare share,
                                        FaultKind fault, ShareRequestReport& report) const;

 private:
  const ElectionAuthority& authority_;
  RetryPolicy policy_;
};

}  // namespace votegral

#endif  // SRC_VOTEGRAL_AUTHORITY_CLIENT_H_
