#include "src/votegral/verifier.h"

#include <algorithm>
#include <exception>

#include "src/votegral/mixnet.h"
#include "src/trip/official.h"

namespace votegral {

namespace {

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
// points; fails on any bad proof. Each ciphertext needs the member count the
// authority's mode asks for, from distinct members in range; the proofs are
// one VerifyShareBatch (src/crypto/dkg.h), and on rejection the per-item
// path re-runs to name the offending share. `cts_wire` is the bytes of
// `cts` that another check validates (mix bytes checked by
// VerifyRpcMixCascade, tagging output bytes checked by VerifyChain; see
// VerifyElection for why a check may use them).
Status VerifyAndDecryptAll(const std::vector<ElGamalCiphertext>& cts,
                           std::span<const ElGamalWire> cts_wire,
                           const std::vector<std::vector<DecryptionShare>>& shares,
                           const VerifierParams& params, Executor& executor,
                           std::vector<CompressedRistretto>* out,
                           const std::string& what) {
  if (shares.size() != cts.size()) {
    return Status::Error("verifier: " + what + ": share list size mismatch");
  }
  Executor::Scope scope(executor);
  const size_t members = params.authority_shares.size();
  // Additive mode demands the full member set per ciphertext; threshold mode
  // accepts each ciphertext's recorded participant subset of >= t distinct
  // members (what the tally produced under degradation).
  const bool threshold_mode = params.authority_threshold != 0;
  const size_t need = threshold_mode ? params.authority_threshold : members;
  std::optional<size_t> bad_count;
  bool bad_member = false;
  for (size_t i = 0; i < cts.size(); ++i) {
    const size_t count = shares[i].size();
    if (threshold_mode ? (count < need || count > members) : (count != members)) {
      bad_count = bad_count.value_or(i);
      continue;
    }
    std::vector<bool> seen(members, false);
    for (const DecryptionShare& share : shares[i]) {
      if (share.member_index >= members || seen[share.member_index]) {
        bad_member = true;
        break;
      }
      seen[share.member_index] = true;
    }
  }
  if (bad_count.has_value()) {
    return Status::Error("verifier: " + what + ": wrong share count at " +
                         std::to_string(*bad_count));
  }
  if (bad_member) {
    return Status::Error("verifier: " + what + ": bad share member index");
  }

  if (!VerifyShareBatch(cts, cts_wire, shares, params.authority_shares)) {
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
  std::vector<RistrettoPoint> decrypted(cts.size());
  executor.ParallelForEach(cts.size(), [&](size_t i) {
    decrypted[i] = threshold_mode ? CombineSharesPublicThreshold(cts[i], shares[i])
                                  : CombineSharesPublic(cts[i], shares[i], members);
  });
  out->resize(cts.size());
  BatchEncodePoints(decrypted, *out);
  return Status::Ok();
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

// True when every item of `batch` has ciphertext `column` and carries its
// bytes. A node checks this before it reads a mix output column: the cascade
// check, earlier in the order, rejects a batch whose items are too narrow or
// lack their bytes, but the node runs before that verdict is known.
bool HasColumn(const MixBatch& batch, size_t column) {
  return std::all_of(batch.begin(), batch.end(), [column](const MixItem& item) {
    return item.cts.size() > column && item.wire.size() == 64 * item.cts.size();
  });
}

// One check's verdict, written by its graph node. A node that throws keeps
// the exception, and it is rethrown only when every earlier check passed:
// exactly when the phased verifier, which ran the checks one after another,
// would have thrown it.
struct Check {
  Status status = Status::Ok();
  std::exception_ptr error;

  Status Verdict() const {
    if (error) {
      std::rethrow_exception(error);
    }
    return status;
  }
};

// Submits `body` as a node whose verdict goes to `check`.
TaskGraph::NodeId SubmitCheck(TaskGraph& graph, Check& check, std::function<Status()> body,
                              std::initializer_list<TaskGraph::NodeId> deps = {}) {
  return graph.Submit(
      [&check, body = std::move(body)] {
        try {
          check.status = body();
        } catch (...) {
          check.error = std::current_exception();
        }
      },
      deps);
}

// Submits one published cascade's check; its failures read "verifier:
// <name> mix: ...".
void SubmitCascade(TaskGraph& graph, Check& check, const MixBatch& input, const MixBatch& output,
                   const MixProof& proof, const VerifierParams& params, Executor& executor,
                   const std::string& name) {
  SubmitCheck(graph, check, [&, name]() -> Status {
    if (Status s = VerifyTallyCascade(input, output, proof, params.authority_pk, executor);
        !s.ok()) {
      return Status::Error("verifier: " + name + " mix: " + s.reason());
    }
    return Status::Ok();
  });
}

// A tagging chain and its tag shares over one mix output column: two
// checks, each its own node.
struct ChainChecks {
  Check chain;
  Check shares;
  std::vector<ElGamalCiphertext> credentials;  // the column the chain starts from
  std::vector<ElGamalWire> credentials_wire;
  std::vector<CompressedRistretto> tags;
};

// Submits the chain and tag-share checks of one column of `mix_output`. The
// share node runs after the chain node and reads the last step's outputs
// and bytes, which the chain validates (or the column itself when the
// committee is empty); both read the column's bytes, which the cascade
// validates. Bytes that are missing fail the share batch instead of being
// read.
void SubmitChain(TaskGraph& graph, ChainChecks& checks, const MixBatch& mix_output,
                 size_t column, const std::vector<TaggingStep>& steps,
                 const std::vector<std::vector<DecryptionShare>>& tag_shares,
                 const VerifierParams& params, Executor& executor, const std::string& name) {
  const TaskGraph::NodeId chain = SubmitCheck(graph, checks.chain, [&, column, name]() -> Status {
    if (!HasColumn(mix_output, column)) {
      return Status::Error(StatusCode::kCorrupted,
                           "verifier: " + name + " mix output item too narrow");
    }
    checks.credentials = BatchColumn(mix_output, column);
    checks.credentials_wire = BatchColumnWire(mix_output, column);
    if (Status s = TaggingService::VerifyChain(checks.credentials, steps,
                                               params.tagging_commitments, executor,
                                               checks.credentials_wire);
        !s.ok()) {
      return Status::Error("verifier: " + name + " tagging: " + s.reason());
    }
    return Status::Ok();
  });
  SubmitCheck(
      graph, checks.shares,
      [&, name]() -> Status {
        if (steps.empty()) {
          return VerifyAndDecryptAll(checks.credentials, checks.credentials_wire, tag_shares,
                                     params, executor, &checks.tags, name + " tags");
        }
        const TaggingStep& last = steps.back();
        return VerifyAndDecryptAll(last.output, last.output_wire, tag_shares, params, executor,
                                   &checks.tags, name + " tags");
      },
      {chain});
}

// The revote supersession section (docs/REVOTING.md) as graph checks:
// board revalidation, the dummy openings and mix input, the revote cascade,
// the credential tagging chain and both verifiable decryptions (tags,
// counters). Every failure is localized; a dropped valid ballot is named by
// its exact ledger index.
struct RevoteChecks {
  Check accepted;
  Check input;
  Check mix;
  ChainChecks chain;
  Check counters;
  std::vector<CompressedRistretto> counter_points;
};

void SubmitRevote(TaskGraph& graph, RevoteChecks& checks, const PublicLedger& ledger,
                  const VerifierParams& params, const RevoteTranscript& rt,
                  Executor& executor) {
  // Board revalidation (parse + binding proof), sharded like the tally. The
  // published accepted list must be exactly the valid ballots in ledger
  // order. A tally that drops or alters a non-superseded ballot is caught
  // here, localized to the exact ledger index (supersession happens only
  // later, post-mix, where the selection replay pins it).
  SubmitCheck(graph, checks.accepted, [&]() -> Status {
    const size_t n = ledger.BallotCount();
    std::vector<std::optional<RevoteBallot>> validated(n);
    std::vector<uint8_t> outcome(n, 0);
    const auto shards = Executor::Shards(n, Executor::kRngShards);
    executor.ParallelForEach(shards.size(), [&](size_t s) {
      RevoteValidateShard(ledger, params.authority_pk, shards[s].first, shards[s].second,
                          validated, outcome);
    });
    std::vector<size_t> valid_indices;
    valid_indices.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (validated[i].has_value()) {
        valid_indices.push_back(i);
      }
    }
    const size_t common = std::min(valid_indices.size(), rt.accepted.size());
    if (auto p = ParallelFirstFailure(executor, common, [&](size_t p) {
          return SameRevoteBallot(*validated[valid_indices[p]], rt.accepted[p]);
        });
        p.has_value()) {
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
    return Status::Ok();
  });

  // Dummy openings: structural bounds, then the padded mix input must be the
  // accepted triples followed by exactly the openings' trivial encryptions —
  // that the dummies decrypt to (bottom, d*B, j*B) holds by construction
  // once these bytes match (a forged opening cannot produce them).
  SubmitCheck(graph, checks.input, [&]() -> Status {
    const size_t total = rt.accepted.size();
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
    // Dummy openings are recomputed through the same batched fast path the
    // tally used (one MulBase + encode per group, static counter table)
    // instead of per-member RevoteDummyItem calls. A published dummy item
    // compares by its bytes, one 192-byte memcmp — sound because the mix
    // cascade's input validation checks every item's bytes against its
    // points, so stale bytes cannot smuggle mismatched ciphertexts past this
    // check; they just move the failure to the cascade.
    std::vector<MixItem> expected_dummies(dummy_slots.size());
    BuildRevoteDummyItems(rt.dummies, dummy_slots, expected_dummies, executor);
    if (auto i = ParallelFirstFailure(executor, rt.mix_input.size(), [&](size_t i) {
          if (i < total) {
            const RevoteBallot& b = rt.accepted[i];
            MixItem expected;
            expected.cts = {b.encrypted_vote, b.encrypted_credential, b.encrypted_counter};
            return expected == rt.mix_input[i];
          }
          return rt.mix_input[i].wire == expected_dummies[i - total].wire;
        });
        i.has_value()) {
      if (*i < total) {
        return Status::Error("verifier: revote mix input " + std::to_string(*i) +
                             " differs from the accepted ballot");
      }
      return Status::Error("verifier: revote dummy opening does not match mix input (group " +
                           std::to_string(dummy_slots[*i - total].first) + ")");
    }
    return Status::Ok();
  });

  SubmitCascade(graph, checks.mix, rt.mix_input, rt.mix_output, rt.mix_proof, params, executor,
                "revote");
  SubmitChain(graph, checks.chain, rt.mix_output, 1, rt.tag_steps, rt.tag_shares, params,
              executor, "revote");
  SubmitCheck(graph, checks.counters, [&]() -> Status {
    if (!HasColumn(rt.mix_output, 2)) {
      return Status::Error(StatusCode::kCorrupted, "verifier: revote mix output item too narrow");
    }
    return VerifyAndDecryptAll(BatchColumn(rt.mix_output, 2), BatchColumnWire(rt.mix_output, 2),
                               rt.counter_shares, params, executor, &checks.counter_points,
                               "revote counters");
  });
}

// The revote checks in the order of the phased verifier, with the
// comparisons that read their outputs: the published tags and counters,
// the selection replay, the cover envelope, and the ballot mix input
// against the kept items. The selection's superseded and duplicate_tag
// counts go to `replayed`.
Status RevoteVerdict(const RevoteChecks& checks, const VerifierParams& params,
                     const TallyTranscript& t, Executor& executor, TallyDiscards* replayed) {
  const RevoteTranscript& rt = t.revote;
  for (const Check* check : {&checks.accepted, &checks.input, &checks.mix, &checks.chain.chain,
                             &checks.chain.shares}) {
    if (Status s = check->Verdict(); !s.ok()) {
      return s;
    }
  }
  if (checks.chain.tags != rt.tags) {
    return Status::Error("verifier: published revote tags do not match decryptions");
  }
  if (Status s = checks.counters.Verdict(); !s.ok()) {
    return s;
  }
  if (checks.counter_points != rt.counter_points) {
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
  const size_t total = rt.accepted.size();
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

// Verification is one task graph of independent checks: the ledger chains,
// the ballot (or revote) revalidation, the registration records with the
// roster mix-input comparison, the ballot mix-input comparison, each mix
// cascade, each tagging chain and each share batch. After Wait the
// comparisons that read their outputs (tags, join, counts, discards) run,
// and the verdict is the first failing check in the order the phased
// verifier ran them, so every verdict and reason is the same at any thread
// count and under any schedule.
//
// A check may read bytes another check validates: a chain's input statements
// hash the mix column caches the cascade checks, and a share batch hashes
// the tagging wires the chain checks. That is sound because no verdict is
// released before every check has finished, and the validating check comes
// first in the order: if those bytes are stale, its failure is the verdict.
// In turn no node assumes that an earlier check passed. A node that reads a
// mix column checks the items' width, the vote shares check every counted
// index, and a node that throws keeps its exception for its place in the
// order.
Status VerifyElection(const PublicLedger& ledger, const VerifierParams& params,
                      const CandidateList& candidates, const TallyOutput& output,
                      Executor& executor) {
  Executor::Scope scope(executor);  // nested crypto kernels follow this pool
  const TallyTranscript& t = output.transcript;
  TaskGraph graph(executor);

  Check ledger_chains;
  SubmitCheck(graph, ledger_chains, [&] { return ledger.VerifyChains(); });

  // Validate/dedup replay: recompute the accepted ballot set from L_V
  // (ballot parsing and signature checks fan out in chunks). Revote mode
  // replaces it (and the ballot-mix-input check) with the supersession
  // checks.
  TallyDiscards replayed;  // the discard counters each replay recomputes
  std::vector<Ballot> accepted;
  Check accepted_set;
  Check ballot_input;
  RevoteChecks revote;
  if (params.revoting) {
    SubmitRevote(graph, revote, ledger, params, t.revote, executor);
  } else {
    const TaskGraph::NodeId validate = SubmitCheck(graph, accepted_set, [&]() -> Status {
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
      return Status::Ok();
    });
    // The mix input must match the accepted ballots. Each item compares by
    // its bytes against the ballot's (BallotMixWire), with no decode: sound
    // because the cascade's input validation checks every item's bytes
    // against its points, so stale bytes only move the failure there (the
    // revote dummy check's rule).
    SubmitCheck(
        graph, ballot_input,
        [&]() -> Status {
          if (t.ballot_mix_input.size() != accepted.size()) {
            return Status::Error("verifier: ballot mix input size mismatch");
          }
          if (auto i = ParallelFirstFailure(executor, accepted.size(), [&](size_t i) {
                return t.ballot_mix_input[i].wire == BallotMixWire(accepted[i]);
              });
              i.has_value()) {
            return Status::Error("verifier: ballot mix input " + std::to_string(*i) + " differs");
          }
          return Status::Ok();
        },
        {validate});
  }

  // Every registration record's signature chain must verify (signatures in
  // per-shard batches; first failure reported by roster position), and the
  // roster mix input must be exactly the records' credentials.
  std::vector<RegistrationRecord> roster;
  std::vector<ElGamalWire> roster_wires;
  Check records;
  Check roster_input;
  const TaskGraph::NodeId read_roster = SubmitCheck(graph, records, [&] {
    roster = ledger.ActiveRegistrations(&roster_wires);
    return VerifyRegistrationRecords(roster, roster_wires, params.authorized_kiosks,
                                     params.authorized_officials, executor);
  });
  SubmitCheck(
      graph, roster_input,
      [&]() -> Status {
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
        return Status::Ok();
      },
      {read_roster});

  // Mix proofs, tagging chains and tag shares.
  Check ballot_mix;
  Check roster_mix;
  SubmitCascade(graph, ballot_mix, t.ballot_mix_input, t.ballot_mix_output, t.ballot_mix_proof,
                params, executor, "ballot");
  SubmitCascade(graph, roster_mix, t.roster_mix_input, t.roster_mix_output, t.roster_mix_proof,
                params, executor, "roster");
  ChainChecks ballot_chain;
  ChainChecks roster_chain;
  SubmitChain(graph, ballot_chain, t.ballot_mix_output, 1, t.ballot_tag_steps,
              t.ballot_tag_shares, params, executor, "ballot");
  SubmitChain(graph, roster_chain, t.roster_mix_output, 0, t.roster_tag_steps,
              t.roster_tag_shares, params, executor, "roster");

  // Vote shares: the counted ballots' vote ciphertexts are mix outputs, so
  // their (cascade-validated) bytes back the share statements. The
  // published counted indices select them; the join replay, earlier in the
  // order, checks those indices.
  Check vote_shares;
  std::vector<CompressedRistretto> vote_points;
  SubmitCheck(graph, vote_shares, [&]() -> Status {
    const MixBatch& mixed = t.ballot_mix_output;
    if (!HasColumn(mixed, 0)) {
      return Status::Error(StatusCode::kCorrupted, "verifier: ballot mix output item too narrow");
    }
    const std::vector<ElGamalWire> vote_column_wire = BatchColumnWire(mixed, 0);
    std::vector<ElGamalCiphertext> counted_votes;
    std::vector<ElGamalWire> counted_votes_wire;
    counted_votes.reserve(t.counted_indices.size());
    counted_votes_wire.reserve(t.counted_indices.size());
    for (uint64_t index : t.counted_indices) {
      if (index >= mixed.size()) {
        return Status::Error(StatusCode::kCorrupted,
                             "verifier: votes: counted index " + std::to_string(index) +
                                 " is not a ballot mix output");
      }
      counted_votes.push_back(mixed[index].cts[0]);
      counted_votes_wire.push_back(vote_column_wire[index]);
    }
    return VerifyAndDecryptAll(counted_votes, counted_votes_wire, t.vote_shares, params,
                               executor, &vote_points, "votes");
  });

  graph.Wait();

  // The verdict, in the phased verifier's order.
  if (Status s = ledger_chains.Verdict(); !s.ok()) {
    return s;
  }
  if (params.revoting) {
    if (!t.accepted_ballots.empty()) {
      return Status::Error("verifier: unexpected legacy accepted set in revote mode");
    }
    if (Status s = RevoteVerdict(revote, params, t, executor, &replayed); !s.ok()) {
      return s;
    }
  } else {
    if (!t.revote.empty()) {
      return Status::Error("verifier: unexpected revote section");
    }
    if (Status s = accepted_set.Verdict(); !s.ok()) {
      return s;
    }
  }
  for (const Check* check : {&records, &ballot_input, &roster_input, &ballot_mix, &roster_mix,
                             &ballot_chain.chain, &roster_chain.chain, &ballot_chain.shares,
                             &roster_chain.shares}) {
    if (Status s = check->Verdict(); !s.ok()) {
      return s;
    }
  }
  const std::vector<CompressedRistretto>& ballot_tags = ballot_chain.tags;
  const std::vector<CompressedRistretto>& roster_tags = roster_chain.tags;
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

  // Decrypt-votes replay and final counts.
  if (Status s = vote_shares.Verdict(); !s.ok()) {
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
