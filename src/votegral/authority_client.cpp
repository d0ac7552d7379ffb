#include "src/votegral/authority_client.h"

namespace votegral {

namespace {

// Folds the retry attempt into the fault-schedule key so each attempt draws
// an independent decision (a timed-out request may succeed on retry).
uint64_t AttemptKey(uint64_t ct_key, size_t attempt) {
  return (ct_key << 8) | static_cast<uint64_t>(attempt & 0xFF);
}

}  // namespace

AuthorityClient::AuthorityClient(const ElectionAuthority& authority, RetryPolicy policy)
    : authority_(authority), policy_(policy) {
  Require(policy_.max_attempts >= 1, "AuthorityClient: need at least one attempt");
}

Outcome<FaultKind> AuthorityClient::PlanShare(size_t member, uint64_t ct_key,
                                              ShareRequestReport& rep) const {
  VirtualClock clock;  // per-request simulated budget; never sleeps
  rep.member_index = member;

  const std::string who = "authority " + std::to_string(member);
  const std::string point(faults::kAuthorityComputeShare);
  auto fail = [&](StatusCode code, std::string reason) {
    rep.status = Status::Error(code, std::move(reason));
    rep.sim_seconds = clock.Seconds();
    return Outcome<FaultKind>::Fail(rep.status);
  };
  auto deadline_spent = [&] {
    return clock.Seconds() * 1000.0 >= static_cast<double>(policy_.deadline_ms);
  };

  for (size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    rep.attempts = attempt + 1;
    const FaultDecision fault =
        ProbeFaultPoint(faults::kAuthorityComputeShare, member,
                        AttemptKey(ct_key, attempt));

    if (fault.kind == FaultKind::kCrash) {
      // Permanent by construction (the schedule drops the operation key for
      // crashes), so retrying is pointless: blame and move on.
      return fail(StatusCode::kUnavailable, who + ": crash injected at " + point);
    }

    if (fault.kind == FaultKind::kTimeout) {
      clock.Advance(static_cast<double>(policy_.request_timeout_ms) * 1e-3);
      if (deadline_spent()) {
        return fail(StatusCode::kTimeout, who + ": deadline exceeded at " + point);
      }
      // Deterministic exponential backoff before the next attempt.
      clock.Advance(static_cast<double>(policy_.base_backoff_ms << attempt) * 1e-3);
      if (deadline_spent()) {
        return fail(StatusCode::kTimeout, who + ": deadline exceeded at " + point);
      }
      continue;
    }

    if (fault.kind == FaultKind::kDelay) {
      clock.Advance(static_cast<double>(fault.delay_ms) * 1e-3);
      if (deadline_spent()) {
        return fail(StatusCode::kTimeout,
                    who + ": delayed response missed deadline at " + point);
      }
      // Late but within budget: the response still arrives.
    }

    rep.status = Status::Ok();
    rep.sim_seconds = clock.Seconds();
    return Outcome<FaultKind>::Ok(fault.kind);
  }
  return fail(StatusCode::kExhausted, who + ": retry budget exhausted at " + point +
                                          " after " + std::to_string(rep.attempts) +
                                          " attempt(s)");
}

Outcome<DecryptionShare> AuthorityClient::ReceiveShare(const ElGamalCiphertext& ct,
                                                       DecryptionShare share, FaultKind fault,
                                                       ShareRequestReport& rep) const {
  if (fault == FaultKind::kCorrupt) {
    // A Byzantine member returns a wrong partial: the DLEQ statement no
    // longer matches its proof, nor the point its encoding.
    share.share = share.share + RistrettoPoint::Base();
  }

  // Arrival verification, enabled exactly when faults can occur. No-fault
  // runs keep the one batched check of each decrypt batch instead of
  // paying per-share verification twice.
  if (FaultInjector::Armed()) {
    // share_wire travels with the share into the transcript, so a cache
    // that does not encode the point is a forged response too.
    Status ok = share.share_wire == share.share.Encode()
                    ? authority_.VerifyShare(ct, share)
                    : Status::Error(StatusCode::kInvalidProof,
                                    "share wire cache does not match the share");
    if (!ok.ok()) {
      // A forged response is exclusion-worthy evidence, not a transient
      // failure: no retry.
      rep.status = Status::Error(StatusCode::kInvalidProof,
                                 "authority " + std::to_string(share.member_index) +
                                     ": share rejected on arrival at " +
                                     std::string(faults::kAuthorityComputeShare) + ": " +
                                     ok.reason());
      return Outcome<DecryptionShare>::Fail(rep.status);
    }
  }
  return Outcome<DecryptionShare>::Ok(std::move(share));
}

}  // namespace votegral
