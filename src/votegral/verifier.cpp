#include "src/votegral/verifier.h"

#include <algorithm>

#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha512.h"
#include "src/trip/official.h"

namespace votegral {

Status VerifyShareAgainstCommitment(const RistrettoPoint& member_share_commitment,
                                    const ElGamalCiphertext& ct,
                                    const DecryptionShare& share) {
  DleqStatement statement = DleqStatement::MakePair(
      RistrettoPoint::Base(), member_share_commitment, ct.c1, share.share);
  return VerifyDleqFs(kDecryptionShareDomain, statement, share.proof);
}

RistrettoPoint CombineSharesPublic(const ElGamalCiphertext& ct,
                                   const std::vector<DecryptionShare>& shares,
                                   size_t expected_members) {
  Require(shares.size() == expected_members, "verifier: wrong number of shares");
  RistrettoPoint sum;
  for (const DecryptionShare& share : shares) {
    sum = sum + share.share;
  }
  return ct.c2 - sum;
}

RistrettoPoint CombineSharesPublicThreshold(const ElGamalCiphertext& ct,
                                            const std::vector<DecryptionShare>& shares) {
  Require(!shares.empty(), "verifier: no shares to combine");
  std::vector<size_t> points;
  points.reserve(shares.size());
  for (const DecryptionShare& share : shares) {
    points.push_back(share.member_index + 1);
  }
  RistrettoPoint blinding;  // Σ λ_j * S_j = F(0) * C1
  for (const DecryptionShare& share : shares) {
    blinding = blinding + LagrangeAtZero(points, share.member_index + 1) * share.share;
  }
  return ct.c2 - blinding;
}

namespace {

constexpr std::string_view kShareWeightDomain = "votegral/verifier/share-batch-weights/v2";

// Verifies one published cascade: it must have kMixPairs pairs (a shorter
// cascade is a consistent proof with fewer shufflers), then the RPC proof.
Status VerifyTallyCascade(const MixBatch& input, const MixBatch& output, const MixProof& proof,
                          const RistrettoPoint& pk, Executor& executor) {
  if (proof.pairs.size() != kMixPairs) {
    return Status::Error("cascade has " + std::to_string(proof.pairs.size()) +
                         " pairs, expected " + std::to_string(kMixPairs));
  }
  return VerifyRpcMixCascade(input, output, proof, pk, MixLinkCheck::kBatchedMsm, executor);
}

// Verifies a list of per-ciphertext share vectors and returns the decrypted
// points; fails on any bad proof.
//
// The DLEQ share proofs — the dominant group-operation cost of universal
// verification — are checked as ONE random-linear-combination multi-scalar
// multiplication over all ciphertexts and members, with entry preparation,
// share combination and point encoding fanned out across the pool. Weights
// are derived deterministically from the proofs themselves (Fiat–Shamir
// style; the per-proof challenge binds statement and commitments), so the
// check stays reproducible for auditors while remaining unpredictable to
// whoever produced the transcript. On rejection the per-item path re-runs
// to name the offending share.
//
// Wire bytes: the verifier backs every statement with bytes it produced or
// already validated — B and the member commitments from standing caches
// (encoded once per call, not once per share), C1 from `cts_wire` when the
// caller threads validated bytes (mix caches checked by VerifyRpcMixCascade,
// tagging wires checked by VerifyChain) or one fresh encode otherwise, and
// the share point from its DecryptionShare::share_wire when one
// BatchValidateEncodings pass over every share (exact, no inverse square
// root) finds those bytes to be its canonical encoding, or one fresh encode
// otherwise — so a stale or forged cache binds exactly what the point does.
// The proofs' own commit caches are attacker data; BatchVerifyDleq validates
// them against the commit points before hashing.
Status VerifyAndDecryptAll(const std::vector<ElGamalCiphertext>& cts,
                           const std::vector<std::vector<DecryptionShare>>& shares,
                           const VerifierParams& params, Executor& executor,
                           std::vector<CompressedRistretto>* out,
                           const std::string& what,
                           std::span<const ElGamalWire> cts_wire = {}) {
  if (shares.size() != cts.size()) {
    return Status::Error("verifier: " + what + ": share list size mismatch");
  }
  if (cts_wire.size() != cts.size()) {
    cts_wire = {};
  }
  const size_t members = params.authority_shares.size();
  // Additive mode demands the full member set per ciphertext; threshold mode
  // accepts each ciphertext's recorded participant subset of >= t distinct
  // members (what the tally produced under degradation).
  const bool threshold_mode = params.authority_threshold != 0;
  const size_t need = threshold_mode ? params.authority_threshold : members;
  std::vector<CompressedRistretto> member_wire(members);
  BatchEncodePoints(params.authority_shares, member_wire);
  // Ciphertext i's shares are entries [first_share[i], first_share[i + 1])
  // of the flat share lists.
  std::vector<size_t> first_share(cts.size() + 1, 0);
  for (size_t i = 0; i < cts.size(); ++i) {
    first_share[i + 1] = first_share[i] + shares[i].size();
  }
  std::vector<RistrettoPoint> share_points;
  std::vector<CompressedRistretto> share_wires;
  share_points.reserve(first_share.back());
  share_wires.reserve(first_share.back());
  for (const std::vector<DecryptionShare>& list : shares) {
    for (const DecryptionShare& share : list) {
      share_points.push_back(share.share);
      share_wires.push_back(share.share_wire);
    }
  }
  std::vector<uint8_t> share_wire_ok(share_points.size(), 0);
  BatchValidateEncodings(share_points, share_wires, share_wire_ok);
  std::vector<DleqBatchEntry> batch(cts.size() * members);
  std::vector<CompressedRistretto> decrypted(cts.size());
  std::vector<uint8_t> bad_count(cts.size(), 0);
  std::vector<uint8_t> bad_member(cts.size(), 0);
  executor.ParallelForEach(cts.size(), [&](size_t i) {
    const size_t count = shares[i].size();
    if (threshold_mode ? (count < need || count > members) : (count != members)) {
      bad_count[i] = 1;
      return;
    }
    const CompressedRistretto c1_wire =
        cts_wire.empty() ? cts[i].c1.Encode() : ElGamalWireHalf(cts_wire[i], 0);
    std::vector<bool> seen(members, false);
    for (size_t m = 0; m < count; ++m) {
      const DecryptionShare& share = shares[i][m];
      if (share.member_index >= members || seen[share.member_index]) {
        bad_member[i] = 1;
        return;
      }
      seen[share.member_index] = true;
      DleqBatchEntry entry;
      entry.domain = std::string(kDecryptionShareDomain);
      entry.statement = DleqStatement::MakePairWire(
          RistrettoPoint::Base(), RistrettoPoint::BaseWire(),
          params.authority_shares[share.member_index], member_wire[share.member_index],
          cts[i].c1, c1_wire, share.share,
          share_wire_ok[first_share[i] + m] ? share.share_wire : share.share.Encode());
      entry.transcript = share.proof;
      batch[i * members + m] = std::move(entry);
    }
    decrypted[i] = threshold_mode
                       ? CombineSharesPublicThreshold(cts[i], shares[i]).Encode()
                       : CombineSharesPublic(cts[i], shares[i], members).Encode();
  });
  if (auto i = FirstMarked(bad_count); i.has_value()) {
    return Status::Error("verifier: " + what + ": wrong share count at " +
                         std::to_string(*i));
  }
  if (FirstMarked(bad_member).has_value()) {
    return Status::Error("verifier: " + what + ": bad share member index");
  }
  *out = std::move(decrypted);

  if (threshold_mode) {
    // Sub-full participant subsets leave empty positional slots; compact
    // sequentially (stable order) before deriving the batch weights.
    batch.erase(std::remove_if(batch.begin(), batch.end(),
                               [](const DleqBatchEntry& e) { return e.domain.empty(); }),
                batch.end());
  }
  ChaChaRng weights(DleqBatchWeightSeed(kShareWeightDomain, batch));
  if (BatchVerifyDleq(batch, weights).ok()) {
    return Status::Ok();
  }
  // Localize: re-check share by share with the exact per-item verifier.
  auto all_shares_ok = [&](size_t i) {
    for (const DecryptionShare& share : shares[i]) {
      if (!VerifyShareAgainstCommitment(params.authority_shares[share.member_index], cts[i],
                                        share)
               .ok()) {
        return false;
      }
    }
    return true;
  };
  if (auto i = ParallelFirstFailure(executor, cts.size(), all_shares_ok); i.has_value()) {
    for (const DecryptionShare& share : shares[*i]) {
      Status ok = VerifyShareAgainstCommitment(params.authority_shares[share.member_index],
                                               cts[*i], share);
      if (!ok.ok()) {
        return Status::Error("verifier: " + what + ": share proof invalid at " +
                             std::to_string(*i) + ": " + ok.reason());
      }
    }
  }
  return Status::Error("verifier: " + what + ": batched share check failed");
}

// Field-wise ballot equality (no re-encoding: two Serialize calls cost four
// point encodings per accepted ballot, point equality a few multiplications).
bool SameBallot(const Ballot& a, const Ballot& b) {
  return a.encrypted_vote == b.encrypted_vote && a.credential_pk == b.credential_pk &&
         a.kiosk_pk == b.kiosk_pk && a.kiosk_cert_hash == b.kiosk_cert_hash &&
         a.kiosk_cert.r_bytes == b.kiosk_cert.r_bytes && a.kiosk_cert.s == b.kiosk_cert.s &&
         a.credential_sig.r_bytes == b.credential_sig.r_bytes &&
         a.credential_sig.s == b.credential_sig.s;
}

// Field-wise revote ballot equality (no re-encoding: point equality is
// cheaper than Serialize for a 6-point ballot, and this runs once per ledger
// entry).
bool SameRevoteBallot(const RevoteBallot& a, const RevoteBallot& b) {
  return a.encrypted_vote == b.encrypted_vote &&
         a.encrypted_credential == b.encrypted_credential &&
         a.encrypted_counter == b.encrypted_counter && a.proof.t1 == b.proof.t1 &&
         a.proof.t2 == b.proof.t2 && a.proof.z1 == b.proof.z1 && a.proof.z2 == b.proof.z2;
}

// Replays the whole supersession section (docs/REVOTING.md): revalidates the
// board off L_V, recomputes the dummy padding from the published openings,
// re-verifies the revote mix / tagging / decryptions, replays the tag-sort
// last-write-wins selection, enforces the cover envelope, and checks that
// the main ballot mix consumed exactly the kept columns. Every failure is
// localized — a dropped valid ballot is named by its exact ledger index.
// The selection's superseded and duplicate_tag counts go to `replayed`.
Status VerifyRevoteSection(const PublicLedger& ledger, const VerifierParams& params,
                           const TallyTranscript& t, Executor& executor,
                           TallyDiscards* replayed) {
  const RevoteTranscript& rt = t.revote;

  // Board revalidation (parse + binding proof), sharded like the tally.
  const size_t n = ledger.BallotCount();
  std::vector<std::optional<RevoteBallot>> validated(n);
  std::vector<uint8_t> outcome(n, 0);
  const auto shards = Executor::Shards(n, Executor::kRngShards);
  executor.ParallelForEach(shards.size(), [&](size_t s) {
    RevoteValidateShard(ledger, params.authority_pk, shards[s].first, shards[s].second,
                        validated, outcome);
  });

  // The published accepted list must be exactly the valid ballots in ledger
  // order. A tally that drops or alters a non-superseded ballot is caught
  // here, localized to the exact ledger index (supersession happens only
  // later, post-mix, where the selection replay pins it).
  std::vector<size_t> valid_indices;
  valid_indices.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (validated[i].has_value()) {
      valid_indices.push_back(i);
    }
  }
  const size_t common = std::min(valid_indices.size(), rt.accepted.size());
  std::vector<uint8_t> differs(common, 0);
  executor.ParallelForEach(common, [&](size_t p) {
    if (!SameRevoteBallot(*validated[valid_indices[p]], rt.accepted[p])) {
      differs[p] = 1;
    }
  });
  if (auto p = FirstMarked(differs); p.has_value()) {
    return Status::Error("verifier: revote accepted set alters the ballot at ledger index " +
                         std::to_string(valid_indices[*p]));
  }
  if (rt.accepted.size() < valid_indices.size()) {
    return Status::Error("verifier: revote accepted set drops the valid ballot at ledger index " +
                         std::to_string(valid_indices[rt.accepted.size()]));
  }
  if (rt.accepted.size() > valid_indices.size()) {
    return Status::Error("verifier: revote accepted set contains " +
                         std::to_string(rt.accepted.size() - valid_indices.size()) +
                         " ballot(s) not validly on the ledger");
  }
  const size_t total = rt.accepted.size();

  // Dummy openings: structural bounds, then the padded mix input must be the
  // accepted triples followed by exactly the openings' trivial encryptions —
  // that the dummies decrypt to (bottom, d*B, j*B) holds by construction
  // once these bytes match (a forged opening cannot produce them).
  std::vector<std::pair<size_t, uint64_t>> dummy_slots;
  for (size_t g = 0; g < rt.dummies.size(); ++g) {
    if (rt.dummies[g].size == 0 || rt.dummies[g].size >= kRevoteCounterLimit) {
      return Status::Error("verifier: revote dummy group " + std::to_string(g) +
                           " has an out-of-range size");
    }
    for (uint64_t j = 0; j < rt.dummies[g].size; ++j) {
      dummy_slots.emplace_back(g, j);
    }
  }
  if (rt.mix_input.size() != total + dummy_slots.size()) {
    return Status::Error("verifier: revote mix input size mismatch");
  }
  {
    // Dummy openings are recomputed through the same batched fast path the
    // tally used (one MulBase + encode per group, static counter table)
    // instead of per-member RevoteDummyItem calls. Published items that
    // carry a wire cache compare as one 192-byte memcmp — sound because the
    // mix cascade's input validation below re-checks every cache against its
    // points, so a stale cache cannot smuggle mismatched ciphertexts past
    // this check; it just moves the failure to the cascade.
    std::vector<MixItem> expected_dummies(dummy_slots.size());
    BuildRevoteDummyItems(rt.dummies, dummy_slots, expected_dummies, executor);
    std::vector<uint8_t> input_differs(rt.mix_input.size(), 0);
    executor.ParallelForEach(rt.mix_input.size(), [&](size_t i) {
      if (i < total) {
        const RevoteBallot& b = rt.accepted[i];
        MixItem expected;
        expected.cts = {b.encrypted_vote, b.encrypted_credential, b.encrypted_counter};
        if (!(expected == rt.mix_input[i])) {
          input_differs[i] = 1;
        }
      } else {
        const MixItem& expected = expected_dummies[i - total];
        const MixItem& got = rt.mix_input[i];
        const bool same =
            got.HasWire() ? got.wire == expected.wire : expected == got;
        if (!same) {
          input_differs[i] = 1;
        }
      }
    });
    if (auto i = FirstMarked(input_differs); i.has_value()) {
      if (*i < total) {
        return Status::Error("verifier: revote mix input " + std::to_string(*i) +
                             " differs from the accepted ballot");
      }
      return Status::Error("verifier: revote dummy opening does not match mix input (group " +
                           std::to_string(dummy_slots[*i - total].first) + ")");
    }
  }

  // The revote mix cascade.
  if (Status s = VerifyTallyCascade(rt.mix_input, rt.mix_output, rt.mix_proof,
                                    params.authority_pk, executor);
      !s.ok()) {
    return Status::Error("verifier: revote mix: " + s.reason());
  }

  // Tagging chain over the credential column, then the two verifiable
  // decryptions (tags, counters).
  std::vector<ElGamalCiphertext> credentials = BatchColumn(rt.mix_output, 1);
  std::vector<ElGamalWire> credentials_wire = BatchColumnWire(rt.mix_output, 1);
  if (Status s = TaggingService::VerifyChain(credentials, rt.tag_steps,
                                             params.tagging_commitments, executor,
                                             credentials_wire);
      !s.ok()) {
    return Status::Error("verifier: revote tagging: " + s.reason());
  }
  const std::vector<ElGamalCiphertext>& tagged =
      rt.tag_steps.empty() ? credentials : rt.tag_steps.back().output;
  std::span<const ElGamalWire> tagged_wire;
  if (rt.tag_steps.empty()) {
    tagged_wire = credentials_wire;
  } else if (rt.tag_steps.back().HasWire()) {
    tagged_wire = rt.tag_steps.back().output_wire;
  }
  std::vector<CompressedRistretto> tags;
  if (Status s = VerifyAndDecryptAll(tagged, rt.tag_shares, params, executor, &tags,
                                     "revote tags", tagged_wire);
      !s.ok()) {
    return s;
  }
  if (tags != rt.tags) {
    return Status::Error("verifier: published revote tags do not match decryptions");
  }
  std::vector<ElGamalCiphertext> counters = BatchColumn(rt.mix_output, 2);
  std::vector<CompressedRistretto> counter_points;
  if (Status s = VerifyAndDecryptAll(counters, rt.counter_shares, params, executor,
                                     &counter_points, "revote counters",
                                     BatchColumnWire(rt.mix_output, 2));
      !s.ok()) {
    return s;
  }
  if (counter_points != rt.counter_points) {
    return Status::Error("verifier: published revote counters do not match decryptions");
  }

  // Selection replay: tag-sort -> last-write-wins is a pure function of the
  // now-verified tags and counters. A tally that kept a superseded item (or
  // dropped a winner) diverges here.
  RevoteSelection selection = SelectLastPerTag(rt.tags, rt.counter_points);
  if (selection.kept != rt.kept_indices) {
    size_t p = 0;
    while (p < selection.kept.size() && p < rt.kept_indices.size() &&
           selection.kept[p] == rt.kept_indices[p]) {
      ++p;
    }
    return Status::Error("verifier: revote kept set differs from the replayed selection at position " +
                         std::to_string(p));
  }
  replayed->superseded += selection.superseded;
  replayed->duplicate_tag += selection.duplicate_tag;

  // Cover envelope: with padding on, the revealed group-size multiset must
  // dominate the envelope of the (public) accepted count — miscounted
  // dummies land here.
  if (params.revote_padding) {
    for (size_t s = 1; s <= RevoteCoverClasses(total); ++s) {
      auto it = selection.group_sizes.find(s);
      const size_t have = it == selection.group_sizes.end() ? 0 : it->second;
      if (have < RevoteCoverTarget(total, s)) {
        return Status::Error("verifier: revote board below the cover envelope for group size " +
                             std::to_string(s));
      }
    }
  }

  // The main ballot mix must consume exactly the kept [vote, credential]
  // columns.
  if (t.ballot_mix_input.size() != rt.kept_indices.size()) {
    return Status::Error("verifier: ballot mix input size mismatch");
  }
  if (auto i = ParallelFirstFailure(executor, rt.kept_indices.size(), [&](size_t i) {
        const MixItem& source = rt.mix_output.at(rt.kept_indices[i]);
        return t.ballot_mix_input[i].cts.size() == 2 &&
               t.ballot_mix_input[i].cts[0] == source.cts.at(0) &&
               t.ballot_mix_input[i].cts[1] == source.cts.at(1);
      });
      i.has_value()) {
    return Status::Error("verifier: ballot mix input " + std::to_string(*i) +
                         " is not the kept revote item");
  }
  return Status::Ok();
}

}  // namespace

Status VerifyElection(const PublicLedger& ledger, const VerifierParams& params,
                      const CandidateList& candidates, const TallyOutput& output,
                      Executor& executor) {
  Executor::Scope scope(executor);  // nested crypto kernels follow this pool
  const TallyTranscript& t = output.transcript;

  // Step 0: the ledger itself must be intact.
  if (Status s = ledger.VerifyChains(); !s.ok()) {
    return s;
  }

  // Validate/dedup replay: recompute the accepted ballot set from L_V
  // (ballot parsing and signature checks fan out in chunks). Revote mode
  // replaces this whole section (and the ballot-mix-input check below) with
  // the supersession replay; a legacy transcript must not smuggle one in.
  std::vector<Ballot> accepted;
  TallyDiscards replayed;  // the discard counters each replay recomputes
  if (params.revoting) {
    if (!t.accepted_ballots.empty()) {
      return Status::Error("verifier: unexpected legacy accepted set in revote mode");
    }
    if (Status s = VerifyRevoteSection(ledger, params, t, executor, &replayed); !s.ok()) {
      return s;
    }
  } else {
    if (!t.revote.empty()) {
      return Status::Error("verifier: unexpected revote section");
    }
    accepted = ValidateAndDeduplicate(ledger, params.authorized_kiosks, &replayed, executor);
    if (accepted.size() != t.accepted_ballots.size()) {
      return Status::Error("verifier: accepted ballot set size mismatch");
    }
    if (auto i = ParallelFirstFailure(executor, accepted.size(), [&](size_t i) {
          return SameBallot(accepted[i], t.accepted_ballots[i]);
        });
        i.has_value()) {
      return Status::Error("verifier: accepted ballot " + std::to_string(*i) + " differs");
    }
  }

  // Every registration record's signature chain must verify (signatures in
  // per-shard batches; first failure reported by roster position).
  std::vector<RegistrationRecord> roster = ledger.ActiveRegistrations();
  if (Status s = VerifyRegistrationRecords(roster, params.authorized_kiosks,
                                           params.authorized_officials, executor);
      !s.ok()) {
    return s;
  }

  // Mix stage replay: inputs must match the accepted ballots / active
  // roster. In revote mode the ballot mix input was already pinned to the
  // kept supersession items. An item that carries a wire cache compares by
  // its bytes against the ballot's (BallotMixWire), with no decode: sound
  // because the cascade's input validation below re-checks every cache
  // against its points, so a stale cache only moves the failure there (the
  // revote dummy check's rule). An item without one is compared as points.
  if (!params.revoting) {
    if (t.ballot_mix_input.size() != accepted.size()) {
      return Status::Error("verifier: ballot mix input size mismatch");
    }
    std::vector<uint8_t> undecodable(accepted.size(), 0);
    std::vector<uint8_t> differs(accepted.size(), 0);
    executor.ParallelForEach(accepted.size(), [&](size_t i) {
      const MixItem& got = t.ballot_mix_input[i];
      if (got.HasWire() && accepted[i].vote_wire.has_value()) {
        differs[i] = got.wire == BallotMixWire(accepted[i]) ? 0 : 1;
        return;
      }
      auto credential_point = RistrettoPoint::Decode(accepted[i].credential_pk);
      if (!credential_point.has_value()) {
        undecodable[i] = 1;
        return;
      }
      MixItem expected;
      expected.cts = {accepted[i].encrypted_vote, ElGamalTrivialEncrypt(*credential_point)};
      if (!(expected == got)) {
        differs[i] = 1;
      }
    });
    if (FirstMarked(undecodable).has_value()) {
      return Status::Error("verifier: accepted ballot credential undecodable");
    }
    if (auto i = FirstMarked(differs); i.has_value()) {
      return Status::Error("verifier: ballot mix input " + std::to_string(*i) + " differs");
    }
  }
  if (t.roster_mix_input.size() != roster.size()) {
    return Status::Error("verifier: roster mix input size mismatch");
  }
  if (auto i = ParallelFirstFailure(executor, roster.size(), [&](size_t i) {
        const std::vector<ElGamalCiphertext>& cts = t.roster_mix_input[i].cts;
        return cts.size() == 1 && cts[0] == roster[i].public_credential;
      });
      i.has_value()) {
    return Status::Error("verifier: roster mix input " + std::to_string(*i) + " differs");
  }

  // Mix proofs: the two cascades are independent; verify them as two pool
  // tasks (each internally parallel — nested submission is safe). Failure
  // reporting keeps the ballot-then-roster order.
  {
    Status cascade_status[2] = {Status::Ok(), Status::Ok()};
    executor.ParallelForEach(2, [&](size_t which) {
      if (which == 0) {
        cascade_status[0] = VerifyTallyCascade(t.ballot_mix_input, t.ballot_mix_output,
                                               t.ballot_mix_proof, params.authority_pk, executor);
      } else {
        cascade_status[1] = VerifyTallyCascade(t.roster_mix_input, t.roster_mix_output,
                                               t.roster_mix_proof, params.authority_pk, executor);
      }
    });
    if (!cascade_status[0].ok()) {
      return Status::Error("verifier: ballot mix: " + cascade_status[0].reason());
    }
    if (!cascade_status[1].ok()) {
      return Status::Error("verifier: roster mix: " + cascade_status[1].reason());
    }
  }

  // Tag stage replay: both chains, each one batched MSM over every step's
  // Chaum–Pedersen proofs. The mix columns' wire caches were validated by
  // VerifyRpcMixCascade above, so they may back the chain-input statements;
  // each step's own output_wire is validated inside VerifyChain before use.
  std::vector<ElGamalCiphertext> ballot_credentials = BatchColumn(t.ballot_mix_output, 1);
  std::vector<ElGamalCiphertext> roster_credentials = BatchColumn(t.roster_mix_output, 0);
  std::vector<ElGamalWire> ballot_credentials_wire = BatchColumnWire(t.ballot_mix_output, 1);
  std::vector<ElGamalWire> roster_credentials_wire = BatchColumnWire(t.roster_mix_output, 0);
  if (Status s = TaggingService::VerifyChain(ballot_credentials, t.ballot_tag_steps,
                                             params.tagging_commitments, executor,
                                             ballot_credentials_wire);
      !s.ok()) {
    return Status::Error("verifier: ballot tagging: " + s.reason());
  }
  if (Status s = TaggingService::VerifyChain(roster_credentials, t.roster_tag_steps,
                                             params.tagging_commitments, executor,
                                             roster_credentials_wire);
      !s.ok()) {
    return Status::Error("verifier: roster tagging: " + s.reason());
  }

  // Decrypt-tags replay. The tagged lists' bytes are the last tagging step's
  // output_wire — validated by VerifyChain just above (or the validated mix
  // column when there are no steps).
  const std::vector<ElGamalCiphertext>& ballot_tagged =
      t.ballot_tag_steps.empty() ? ballot_credentials : t.ballot_tag_steps.back().output;
  const std::vector<ElGamalCiphertext>& roster_tagged =
      t.roster_tag_steps.empty() ? roster_credentials : t.roster_tag_steps.back().output;
  auto tagged_wire = [](const std::vector<TaggingStep>& steps,
                        const std::vector<ElGamalWire>& column_wire)
      -> std::span<const ElGamalWire> {
    if (steps.empty()) {
      return column_wire;
    }
    return steps.back().HasWire() ? std::span<const ElGamalWire>(steps.back().output_wire)
                                  : std::span<const ElGamalWire>{};
  };
  std::vector<CompressedRistretto> ballot_tags;
  std::vector<CompressedRistretto> roster_tags;
  if (Status s = VerifyAndDecryptAll(ballot_tagged, t.ballot_tag_shares, params, executor,
                                     &ballot_tags, "ballot tags",
                                     tagged_wire(t.ballot_tag_steps, ballot_credentials_wire));
      !s.ok()) {
    return s;
  }
  if (Status s = VerifyAndDecryptAll(roster_tagged, t.roster_tag_shares, params, executor,
                                     &roster_tags, "roster tags",
                                     tagged_wire(t.roster_tag_steps, roster_credentials_wire));
      !s.ok()) {
    return s;
  }
  if (ballot_tags != t.ballot_tags || roster_tags != t.roster_tags) {
    return Status::Error("verifier: published tags do not match decryptions");
  }

  // Join replay: the weighted join (weights > 1 arise only under the
  // Appendix C.3 delegation extension).
  std::map<CompressedRistretto, uint64_t> roster_counts;
  for (const CompressedRistretto& tag : roster_tags) {
    roster_counts[tag] += 1;
  }
  std::vector<uint64_t> counted;
  std::vector<uint64_t> weights;
  for (size_t i = 0; i < ballot_tags.size(); ++i) {
    auto it = roster_counts.find(ballot_tags[i]);
    if (it == roster_counts.end()) {
      ++replayed.unmatched_tag;
      continue;
    }
    if (it->second == 0) {
      ++replayed.duplicate_tag;
      continue;
    }
    counted.push_back(i);
    weights.push_back(it->second);
    it->second = 0;
  }
  if (counted != t.counted_indices || weights != t.counted_weights) {
    return Status::Error("verifier: counted ballot set differs from published");
  }

  // Decrypt-votes replay and final counts. Vote ciphertexts are mix outputs,
  // so their (cascade-validated) wire caches back the share statements.
  std::vector<ElGamalCiphertext> counted_votes;
  for (uint64_t index : t.counted_indices) {
    counted_votes.push_back(t.ballot_mix_output.at(index).cts.at(0));
  }
  std::vector<ElGamalWire> vote_column_wire = BatchColumnWire(t.ballot_mix_output, 0);
  std::vector<ElGamalWire> counted_votes_wire;
  if (vote_column_wire.size() == t.ballot_mix_output.size()) {
    counted_votes_wire.reserve(t.counted_indices.size());
    for (uint64_t index : t.counted_indices) {
      counted_votes_wire.push_back(vote_column_wire.at(index));
    }
  }
  std::vector<CompressedRistretto> vote_points;
  if (Status s = VerifyAndDecryptAll(counted_votes, t.vote_shares, params, executor,
                                     &vote_points, "votes", counted_votes_wire);
      !s.ok()) {
    return s;
  }
  if (vote_points != t.vote_points) {
    return Status::Error("verifier: published vote points do not match decryptions");
  }
  std::map<std::string, size_t> counts;
  for (size_t i = 0; i < candidates.size(); ++i) {
    counts[candidates.name(i)] = 0;
  }
  size_t total_counted = 0;
  for (size_t i = 0; i < vote_points.size(); ++i) {
    // vote_points[i] is a canonical encoding the verifier itself computed
    // from the combined shares, so the candidate lookup works directly on
    // the bytes (no re-decode / re-encode round trip).
    auto candidate = candidates.IndexOfEncoding(vote_points[i]);
    if (!candidate.has_value()) {
      ++replayed.invalid_vote;  // matches the tally's discard rule
      continue;
    }
    uint64_t weight = t.counted_weights.at(i);
    counts[candidates.name(*candidate)] += weight;
    total_counted += weight;
  }
  if (counts != output.result.counts || total_counted != output.result.counted) {
    return Status::Error("verifier: final counts do not match published result");
  }

  // Discards the replays above recompute must match exactly. Not checked:
  // invalid_structure and invalid_signature. The transcript does not name
  // the board prefix it tallied (there is no close of polls yet), so a
  // garbage entry posted after the tally moves them, and such an entry must
  // not fail an honest tally (ElectionVerifier.RejectsForgedResultAndTranscript,
  // case 7).
  constexpr std::pair<const char*, size_t TallyDiscards::*> kReplayedDiscards[] = {
      {"superseded", &TallyDiscards::superseded},
      {"unmatched_tag", &TallyDiscards::unmatched_tag},
      {"duplicate_tag", &TallyDiscards::duplicate_tag},
      {"invalid_vote", &TallyDiscards::invalid_vote},
  };
  for (const auto& [name, field] : kReplayedDiscards) {
    if (output.result.discards.*field != replayed.*field) {
      return Status::Error("verifier: published discards." + std::string(name) + " is " +
                           std::to_string(output.result.discards.*field) +
                           ", the replay gives " + std::to_string(replayed.*field));
    }
  }
  return Status::Ok();
}

}  // namespace votegral
