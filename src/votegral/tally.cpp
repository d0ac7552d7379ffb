#include "src/votegral/tally.h"

#include <algorithm>

#include "src/crypto/batch.h"
#include "src/votegral/tally_internal.h"

namespace votegral {

namespace tally_internal {

Status ProbeStageFault(std::string_view point, uint64_t scope, const char* what) {
  const FaultDecision fault = ProbeFaultPoint(point, scope, 0);
  switch (fault.kind) {
    case FaultKind::kNone:
    case FaultKind::kDelay:
      return Status::Ok();
    case FaultKind::kCrash:
      return Status::Error(StatusCode::kUnavailable,
                           std::string(what) + ": crash injected at " + std::string(point));
    case FaultKind::kTimeout:
      return Status::Error(StatusCode::kTimeout,
                           std::string(what) + ": timeout injected at " + std::string(point));
    case FaultKind::kCorrupt:
      return Status::Error(StatusCode::kCorrupted,
                           std::string(what) + ": output integrity check failed at " +
                               std::string(point));
  }
  return Status::Ok();
}

void ValidateBallotShard(const PublicLedger& ledger,
                         const std::set<CompressedRistretto>& authorized_kiosks,
                         size_t begin, size_t end,
                         std::vector<std::optional<Ballot>>& validated,
                         std::vector<uint8_t>& outcome) {
  // CheckBallot, with the shard's signatures in one batch: parse and the
  // kiosk authorization run per ballot, and each remaining ballot adds its
  // kiosk certificate and credential signature as one group. A ballot whose
  // group fails is a bad signature, exactly as the per-ballot check says.
  LedgerCursor cursor = ledger.BallotCursor(begin, end);
  LedgerEntryView view;
  std::vector<SchnorrBatchEntry> signatures;
  signatures.reserve(2 * (end - begin));
  std::vector<size_t> group_end(end - begin);
  for (size_t i = begin; i < end; ++i) {
    Require(cursor.Next(&view), "tally: ballot cursor ended before its shard");
    auto ballot = Ballot::Parse(view.payload);
    if (!ballot.ok()) {
      outcome[i] = kBallotBadStructure;
    } else if (authorized_kiosks.count(ballot->kiosk_pk) == 0) {
      outcome[i] = kBallotBadSignature;
    } else {
      for (SchnorrBatchEntry& entry : BallotSignatureEntries(*ballot, view.payload)) {
        signatures.push_back(std::move(entry));
      }
      validated[i] = std::move(*ballot);
    }
    group_end[i - begin] = signatures.size();
  }
  std::vector<uint8_t> bad(end - begin, 0);
  VerifySchnorrGroups(signatures, group_end, bad);
  for (size_t i = begin; i < end; ++i) {
    if (bad[i - begin] != 0) {
      outcome[i] = kBallotBadSignature;
      validated[i].reset();
    }
  }
}

void TallyValidationOutcomes(std::span<const uint8_t> outcome, TallyDiscards* discards) {
  for (uint8_t o : outcome) {
    if (o == kBallotBadStructure) {
      ++discards->invalid_structure;
    } else if (o == kBallotBadSignature) {
      ++discards->invalid_signature;
    }
  }
}

MixItem BallotMixItem(const Ballot& ballot) {
  auto credential_point = RistrettoPoint::Decode(ballot.credential_pk);
  Require(credential_point.has_value(), "tally: validated ballot has bad credential point");
  MixItem item;
  item.cts = {ballot.encrypted_vote, ElGamalTrivialEncrypt(*credential_point)};
  item.wire = BallotMixWire(ballot);
  return item;
}

void DecryptBatchBuffers::Init(const ElectionAuthority& authority, size_t n,
                               std::vector<std::vector<DecryptionShare>>* shares,
                               std::vector<CompressedRistretto>* encoded) {
  threshold = authority.threshold();
  member_shares.clear();
  for (size_t m = 0; m < authority.size(); ++m) {
    member_shares.push_back(authority.member(m).public_share);
  }
  // Failure capture, only live when a fault plan is armed (nothing can fail
  // otherwise). Reports are written positionally and merged sequentially in
  // FinalizeDecryptBatch, so blame never depends on shard scheduling.
  armed = FaultInjector::Armed();
  shares_out = shares;
  encoded_out = encoded;
  shares_out->assign(n, {});
  encoded_out->assign(n, CompressedRistretto{});
  failed.assign(armed ? n : 0, {});
  short_of_threshold.assign(n, 0);
}

void DecryptShareShardRange(const TallyService& service, const AuthorityClient& client,
                            std::span<const ElGamalCiphertext> cts,
                            std::span<const ElGamalWire> cts_wire, uint64_t epoch,
                            size_t begin, size_t end, Rng& child,
                            DecryptBatchBuffers& buffers) {
  const ElectionAuthority& authority = service.authority();
  const size_t members = buffers.member_shares.size();
  // Request r = (i - begin) * members + m asks member m for ciphertext i's
  // share. First every request's fault decisions and, for each request that
  // answers, its proof nonce, in (ciphertext, member) order: the probes and
  // draws of one request at a time.
  struct MemberBatch {
    std::vector<size_t> requests;
    std::vector<ElGamalCiphertext> cts;
    std::vector<CompressedRistretto> c1_wire;
    std::vector<Scalar> nonces;
  };
  std::vector<MemberBatch> batches(members);
  std::vector<ShareRequestReport> reports((end - begin) * members);
  std::vector<Outcome<FaultKind>> plans;
  plans.reserve(reports.size());
  for (size_t i = begin; i < end; ++i) {
    const uint64_t ct_key = (epoch << 32) | static_cast<uint64_t>(i);
    for (size_t m = 0; m < members; ++m) {
      const size_t r = plans.size();
      plans.push_back(client.PlanShare(m, ct_key, reports[r]));
      if (plans.back().ok()) {
        MemberBatch& batch = batches[m];
        batch.requests.push_back(r);
        batch.cts.push_back(cts[i]);
        batch.c1_wire.push_back(ElGamalWireHalf(cts_wire[i], 0));
        batch.nonces.push_back(Scalar::Random(child));
      }
    }
  }
  // Each member's shares of the shard as one batched proof: a batch never
  // spans two parties.
  std::vector<DecryptionShare> computed(reports.size());
  for (size_t m = 0; m < members; ++m) {
    MemberBatch& batch = batches[m];
    std::vector<DecryptionShare> shares(batch.requests.size());
    authority.ComputeShares(m, batch.cts, batch.c1_wire, batch.nonces, shares);
    for (size_t j = 0; j < shares.size(); ++j) {
      computed[batch.requests[j]] = std::move(shares[j]);
    }
  }
  // Then, per ciphertext in order, each response's corruption and arrival
  // check, the blame, and the combination.
  for (size_t i = begin; i < end; ++i) {
    std::vector<DecryptionShare>& shares = (*buffers.shares_out)[i];
    shares.reserve(members);
    for (size_t m = 0; m < members; ++m) {
      const size_t r = (i - begin) * members + m;
      Outcome<DecryptionShare> received =
          plans[r].ok()
              ? client.ReceiveShare(cts[i], std::move(computed[r]), *plans[r], reports[r])
              : Outcome<DecryptionShare>::Fail(plans[r].status);
      if (!received.ok()) {
        if (buffers.armed) {
          buffers.failed[i].push_back(std::move(reports[r]));
        }
        continue;
      }
      shares.push_back(std::move(*received));
    }
    if (shares.size() < buffers.threshold) {
      buffers.short_of_threshold[i] = 1;
      continue;
    }
    (*buffers.encoded_out)[i] = authority.CombineShares(cts[i], shares).Encode();
  }
}

Status FinalizeDecryptBatch(const char* what, std::span<const ElGamalCiphertext> cts,
                            std::span<const ElGamalWire> cts_wire,
                            DecryptBatchBuffers& buffers, std::map<size_t, Status>* blame) {
  // Sequential, index-ordered merges keep blame and failure localization
  // deterministic at any thread count.
  for (size_t i = 0; i < buffers.failed.size(); ++i) {
    for (const ShareRequestReport& report : buffers.failed[i]) {
      blame->emplace(report.member_index, report.status);
    }
  }
  for (size_t i = 0; i < buffers.short_of_threshold.size(); ++i) {
    if (buffers.short_of_threshold[i] != 0) {
      return Status::Error(
          StatusCode::kUnavailable,
          std::string(what) + ": only " + std::to_string((*buffers.shares_out)[i].size()) +
              " of " + std::to_string(buffers.member_shares.size()) +
              " authority shares for ciphertext " + std::to_string(i) + " (threshold " +
              std::to_string(buffers.threshold) + ")");
    }
  }
  Require(VerifyShareBatch(cts, cts_wire, *buffers.shares_out, buffers.member_shares),
          "tally: produced decryption share failed batched self-check");
  return Status::Ok();
}

}  // namespace tally_internal

std::vector<std::optional<Ballot>> ValidateBallots(
    const PublicLedger& ledger, const std::set<CompressedRistretto>& authorized_kiosks,
    TallyDiscards* discards, Executor& executor) {
  Require(discards != nullptr, "tally: discards output required");
  const size_t n = ledger.BallotCount();
  std::vector<std::optional<Ballot>> validated(n);
  // Parse + two Schnorr signatures per ballot, checked in one batch per
  // shard: the validate stage's hot loop. Each shard streams its ballot
  // range straight off the backing segments through its own cursor
  // (zero-copy views, at most one segment resident per shard), so the
  // stage never materializes the ballot log — the property that lets a
  // file-backed ledger larger than RAM tally in O(segment) memory. Shard
  // boundaries come from Executor::Shards (data-size only), batch weights
  // from a hash of the shard's signatures, and outcomes are written
  // positionally then tallied sequentially, so discard counts never depend
  // on scheduling or on the storage backend.
  std::vector<uint8_t> outcome(n, tally_internal::kBallotOk);
  auto shards = Executor::Shards(n, Executor::kRngShards);
  executor.ParallelForEach(shards.size(), [&](size_t s) {
    tally_internal::ValidateBallotShard(ledger, authorized_kiosks, shards[s].first,
                                        shards[s].second, validated, outcome);
  });
  tally_internal::TallyValidationOutcomes(outcome, discards);
  return validated;
}

std::vector<Ballot> DeduplicateBallots(const std::vector<std::optional<Ballot>>& validated,
                                       TallyDiscards* discards) {
  Require(discards != nullptr, "tally: discards output required");
  // Keep the *last* valid ballot per credential key (re-voting overrides,
  // matching the JCJ-with-tags dedup rule; ledger order is cast order).
  std::map<CompressedRistretto, Ballot> latest;
  std::map<CompressedRistretto, size_t> first_seen_order;
  size_t order = 0;
  for (const std::optional<Ballot>& ballot : validated) {
    if (!ballot.has_value()) {
      continue;
    }
    auto [it, inserted] = latest.insert_or_assign(ballot->credential_pk, *ballot);
    if (inserted) {
      first_seen_order[ballot->credential_pk] = order++;
    } else {
      ++discards->superseded;
    }
  }

  // Canonical order: first-seen order of each credential (deterministic and
  // recomputable by any auditor).
  std::vector<Ballot> accepted(latest.size());
  for (const auto& [credential, ballot] : latest) {
    accepted[first_seen_order.at(credential)] = ballot;
  }
  return accepted;
}

Bytes BallotMixWire(const Ballot& ballot) {
  const ElGamalWire vote =
      ballot.vote_wire.has_value() ? *ballot.vote_wire : ballot.encrypted_vote.Wire();
  Bytes wire(128, 0);  // bytes 64..95 stay the identity's encoding
  std::copy(vote.begin(), vote.end(), wire.begin());
  std::copy(ballot.credential_pk.begin(), ballot.credential_pk.end(), wire.begin() + 96);
  return wire;
}

std::vector<Ballot> ValidateAndDeduplicate(
    const PublicLedger& ledger, const std::set<CompressedRistretto>& authorized_kiosks,
    TallyDiscards* discards, Executor& executor) {
  return DeduplicateBallots(ValidateBallots(ledger, authorized_kiosks, discards, executor),
                            discards);
}

TallyService::TallyService(const ElectionAuthority& authority, const TaggingService& tagging,
                           Executor& executor, RetryPolicy retry_policy, bool revoting,
                           bool revote_padding)
    : authority_(authority), tagging_(tagging), executor_(executor),
      retry_policy_(retry_policy), revoting_(revoting), revote_padding_(revote_padding) {}

}  // namespace votegral
