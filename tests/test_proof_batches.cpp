// Differential tests for the positional DLEQ batches (the tag chains and the
// decryption-share batches, src/crypto/batch.h DleqTermBatch): after any
// single-field mutation of a tag step or a share list, the batched verdict
// must equal the conjunction of the per-item Fiat–Shamir checks (with a
// stale wire cache counting as a failure where the bytes bind a challenge).
// The transcripts include proofs whose commits equal statement points and
// chains with two identical items, the cases a collapse by key instead of by
// position would merge, and share lists short of a member, which the tally
// checks as well as the verifier.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/common/faults.h"
#include "src/crypto/dkg.h"
#include "src/crypto/drbg.h"
#include "src/votegral/election.h"
#include "src/votegral/tagging.h"
#include "src/votegral/verifier.h"

namespace votegral {
namespace {

// The Fiat–Shamir domain of a tagging step's proof (src/votegral/tagging.cpp).
constexpr std::string_view kTagDomain = "votegral/tagging/step/v1";

// A stream whose first scalar draw is `x`: a prover fed this one uses the
// witness as its nonce, so every commit equals the matching public.
class WitnessNonceRng : public Rng {
 public:
  explicit WitnessNonceRng(const Scalar& x) : bytes_(x.ToBytes()) {}
  void Fill(std::span<uint8_t> out) override {
    for (uint8_t& b : out) {
      b = at_ < bytes_.size() ? bytes_[at_] : 0;
      ++at_;
    }
  }

 private:
  std::array<uint8_t, 32> bytes_;
  size_t at_ = 0;
};

DleqStatement TagStatement(const ElGamalCiphertext& in, const ElGamalCiphertext& out,
                           const RistrettoPoint& commitment) {
  DleqStatement statement;
  statement.bases = {RistrettoPoint::Base(), in.c1, in.c2};
  statement.publics = {commitment, out.c1, out.c2};
  return statement;
}

// A tagging chain over `n` ciphertexts, the last a copy of the second,
// proved with known member secrets. Step 0's proof of item 2 uses the
// member's secret as its nonce, so its commits equal its publics.
struct Chain {
  std::vector<ElGamalCiphertext> input;
  std::vector<TaggingStep> steps;
  std::vector<RistrettoPoint> commitments;
};

Chain MakeChain(Rng& rng, size_t n, size_t members) {
  Chain chain;
  const RistrettoPoint pk = RistrettoPoint::MulBase(Scalar::Random(rng));
  for (size_t j = 0; j < n; ++j) {
    chain.input.push_back(j + 1 == n ? chain.input.at(1)
                                     : ElGamalEncrypt(pk, RistrettoPoint::MulBase(
                                                              Scalar::Random(rng)),
                                                      rng));
  }
  const std::vector<ElGamalCiphertext>* current = &chain.input;
  chain.steps.reserve(members);
  for (size_t i = 0; i < members; ++i) {
    const Scalar z = Scalar::Random(rng);
    chain.commitments.push_back(RistrettoPoint::MulBase(z));
    TaggingStep& step = chain.steps.emplace_back();
    step.member_index = i;
    for (size_t j = 0; j < n; ++j) {
      const ElGamalCiphertext& in = (*current)[j];
      ElGamalCiphertext out{z * in.c1, z * in.c2};
      DleqStatement statement = TagStatement(in, out, chain.commitments[i]);
      WitnessNonceRng witness(z);
      Rng& nonce = (i == 0 && j == 2) ? static_cast<Rng&>(witness) : rng;
      step.proofs.push_back(ProveDleqFs(kTagDomain, statement, z, nonce));
      step.output.push_back(out);
      step.output_wire.push_back(out.Wire());
    }
    current = &step.output;
  }
  EXPECT_EQ(chain.steps[0].proofs[2].commits[1], chain.steps[0].output[2].c1);
  return chain;
}

// The per-item reference: steps in order, every output carrying the encoding
// of its point, every proof valid on its own.
bool ChainHoldsItemByItem(const Chain& chain) {
  const std::vector<ElGamalCiphertext>* current = &chain.input;
  for (size_t i = 0; i < chain.steps.size(); ++i) {
    const TaggingStep& step = chain.steps[i];
    if (step.member_index != i || step.output.size() != current->size() ||
        step.proofs.size() != current->size()) {
      return false;
    }
    for (size_t j = 0; j < current->size(); ++j) {
      if (step.output_wire.size() != step.output.size() ||
          step.output_wire[j] != step.output[j].Wire()) {
        return false;
      }
      if (!VerifyDleqFs(kTagDomain, TagStatement((*current)[j], step.output[j],
                                                 chain.commitments[i]),
                        step.proofs[j])
               .ok()) {
        return false;
      }
    }
    current = &step.output;
  }
  return true;
}

// One seeded single-field mutation of a proof: its challenge, response, a
// commit point (with or without its cache following) or a cache byte.
void MutateProof(DleqTranscript& proof, Rng& rng) {
  const size_t k = rng.Uniform(proof.commits.size());
  switch (rng.Uniform(5)) {
    case 0:
      proof.challenge = proof.challenge + Scalar::One();
      break;
    case 1:
      proof.response = proof.response + Scalar::One();
      break;
    case 2:
      proof.commits[k] = proof.commits[k] + RistrettoPoint::Base();  // cache goes stale
      break;
    case 3:
      proof.commits[k] = proof.commits[k] + RistrettoPoint::Base();
      proof.commit_wire[k] = proof.commits[k].Encode();
      break;
    default:
      proof.commit_wire[k][rng.Uniform(32)] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
      break;
  }
}

TEST(ProofBatches, ChainVerdictIsTheConjunctionOfItsItems) {
  ChaChaRng rng(0xBA7C4);
  const Chain honest = MakeChain(rng, 7, 3);
  Executor pool(4);
  ASSERT_TRUE(ChainHoldsItemByItem(honest));
  ASSERT_TRUE(TaggingService::VerifyChain(honest.input, honest.steps, honest.commitments, pool)
                  .ok());
  size_t rejected = 0;
  for (int trial = 0; trial < 160; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Chain chain = honest;
    TaggingStep& step = chain.steps[rng.Uniform(chain.steps.size())];
    const size_t j = rng.Uniform(chain.input.size());
    switch (rng.Uniform(4)) {
      case 0: {  // an output point, its cache stale or following it
        ElGamalCiphertext& out = step.output[j];
        (rng.Uniform(2) == 0 ? out.c1 : out.c2) =
            (rng.Uniform(2) == 0 ? out.c1 : out.c2) + RistrettoPoint::Base();
        if (rng.Uniform(2) == 0) {
          step.output_wire[j] = out.Wire();
        }
        break;
      }
      case 1:  // a cache byte
        step.output_wire[j][rng.Uniform(64)] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
        break;
      case 2:  // the member index
        step.member_index = (step.member_index + 1) % chain.steps.size();
        break;
      default:
        MutateProof(step.proofs[j], rng);
        break;
    }
    const bool want = ChainHoldsItemByItem(chain);
    Executor& executor = trial % 3 == 0 ? Executor::Serial() : pool;
    EXPECT_EQ(TaggingService::VerifyChain(chain.input, chain.steps, chain.commitments, executor)
                  .ok(),
              want);
    rejected += want ? 0 : 1;
  }
  EXPECT_GT(rejected, 130u);
}

// Every share list of a transcript with the ciphertexts its shares decrypt.
struct ShareList {
  std::vector<std::vector<DecryptionShare>>* shares;
  std::vector<ElGamalCiphertext> cts;
};

std::vector<ShareList> ShareListsOf(TallyTranscript& t) {
  auto tagged = [](const std::vector<TaggingStep>& steps) { return steps.back().output; };
  std::vector<ShareList> lists;
  if (t.revote.empty()) {
    lists.push_back({&t.ballot_tag_shares, tagged(t.ballot_tag_steps)});
    lists.push_back({&t.roster_tag_shares, tagged(t.roster_tag_steps)});
  } else {
    lists.push_back({&t.revote.tag_shares, tagged(t.revote.tag_steps)});
    lists.push_back({&t.revote.counter_shares, BatchColumn(t.revote.mix_output, 2)});
    lists.push_back({&t.ballot_tag_shares, tagged(t.ballot_tag_steps)});
    lists.push_back({&t.roster_tag_shares, tagged(t.roster_tag_steps)});
  }
  std::vector<ElGamalCiphertext> votes;
  for (uint64_t index : t.counted_indices) {
    votes.push_back(t.ballot_mix_output.at(index).cts.at(0));
  }
  lists.push_back({&t.vote_shares, votes});
  return lists;
}

// The per-share reference: per ciphertext the member count the authority
// needs, distinct members in range, and every proof valid on its own.
bool SharesHoldItemByItem(TallyTranscript& t, const VerifierParams& params) {
  const size_t members = params.authority_shares.size();
  const size_t need = params.authority_threshold != 0 ? params.authority_threshold : members;
  for (ShareList& list : ShareListsOf(t)) {
    for (size_t i = 0; i < list.cts.size(); ++i) {
      const std::vector<DecryptionShare>& shares = (*list.shares)[i];
      if (shares.size() < need || shares.size() > members ||
          (params.authority_threshold == 0 && shares.size() != members)) {
        return false;
      }
      std::vector<bool> seen(members, false);
      for (const DecryptionShare& share : shares) {
        if (share.member_index >= members || seen[share.member_index]) {
          return false;
        }
        seen[share.member_index] = true;
        if (!VerifyShareAgainstCommitment(params.authority_shares[share.member_index],
                                          list.cts[i], share)
                 .ok()) {
          return false;
        }
      }
    }
  }
  return true;
}

// The per-share reference for one list as VerifyShareBatch reads it: every
// share present names a member in range and its proof holds on its own
// (counts and repeats are the combining caller's rule).
bool ListHoldsItemByItem(const ShareList& list, const VerifierParams& params) {
  for (size_t i = 0; i < list.cts.size(); ++i) {
    for (const DecryptionShare& share : (*list.shares)[i]) {
      if (share.member_index >= params.authority_shares.size() ||
          !VerifyShareAgainstCommitment(params.authority_shares[share.member_index],
                                        list.cts[i], share)
               .ok()) {
        return false;
      }
    }
  }
  return true;
}

// A direct VerifyShareBatch over every list, with the ciphertexts' bytes,
// must give the per-share verdict.
void ExpectListVerdictsMatch(TallyTranscript& t, const VerifierParams& params) {
  std::vector<ShareList> lists = ShareListsOf(t);
  for (size_t l = 0; l < lists.size(); ++l) {
    std::vector<ElGamalWire> cts_wire;
    for (const ElGamalCiphertext& ct : lists[l].cts) {
      cts_wire.push_back(ct.Wire());
    }
    EXPECT_EQ(VerifyShareBatch(lists[l].cts, cts_wire, *lists[l].shares, params.authority_shares),
              ListHoldsItemByItem(lists[l], params))
        << "list " << l;
  }
}

// An election of three voters, each casting twice, tallied under `faults`
// when given (armed for the tally only).
struct SharedElection {
  explicit SharedElection(ElectionConfig config, const FaultPlan* faults = nullptr)
      : rng(0x5BA7C), election(config, rng) {
    Vsd vsd = election.trip().MakeVsd();
    for (const std::string& id : config.roster) {
      auto voter = election.Register(id, 1, vsd, rng);
      EXPECT_TRUE(voter.ok());
      EXPECT_TRUE(election.Cast(voter->activated[0], "Alpha", rng).ok());
      EXPECT_TRUE(election.Cast(voter->activated[1], "Beta", rng).ok());
    }
    std::optional<ArmedFaults> armed;
    if (faults != nullptr) {
      armed.emplace(*faults);
    }
    output = election.Tally(rng);
  }

  ChaChaRng rng;
  Election election;
  TallyOutput output;
};

ElectionConfig Config(bool revoting, size_t threshold) {
  ElectionConfig config;
  config.roster = {"alice", "bob", "carol"};
  config.candidates = {"Alpha", "Beta"};
  config.threads = 4;
  config.revoting = revoting;
  config.authority_threshold = threshold;
  return config;
}

TEST(ProofBatches, ShareVerdictIsTheConjunctionOfItsItems) {
  struct Kind {
    const char* name;
    bool revoting;
    size_t threshold;
    bool crash_member_1;
  };
  // Member 1 down for the whole tally: every list is one share short, and
  // the tally's own check of each decrypt batch runs on the short lists.
  FaultPlan crash(0xC4A5);
  crash.Crash(faults::kAuthorityComputeShare, 1.0, /*scope=*/1);
  for (const Kind& kind : {Kind{"legacy", false, 0, false}, Kind{"revoting", true, 0, false},
                           Kind{"3 of 4", false, 3, false},
                           Kind{"3 of 4, member 1 crashed", false, 3, true}}) {
    SCOPED_TRACE(kind.name);
    SharedElection e(Config(kind.revoting, kind.threshold),
                     kind.crash_member_1 ? &crash : nullptr);
    const VerifierParams params = e.election.verifier_params();
    if (kind.crash_member_1) {
      ASSERT_EQ(e.output.excluded_authorities.size(), 1u);
      EXPECT_EQ(e.output.excluded_authorities[0].member_index, 1u);
      for (ShareList& list : ShareListsOf(e.output.transcript)) {
        for (const std::vector<DecryptionShare>& shares : *list.shares) {
          EXPECT_EQ(shares.size(), params.authority_shares.size() - 1);
        }
      }
    }
    // Every list's first share is proved with the member's secret as its
    // nonce: a valid proof whose commits equal its statement's publics.
    TallyOutput honest = e.output;
    for (ShareList& list : ShareListsOf(honest.transcript)) {
      DecryptionShare& share = list.shares->at(0).at(0);
      WitnessNonceRng witness(e.election.trip().authority().member(share.member_index).secret);
      share = e.election.trip().authority().ComputeShare(share.member_index, list.cts.at(0),
                                                         witness);
      ASSERT_EQ(share.proof.commits[1], share.share);
    }
    ASSERT_TRUE(SharesHoldItemByItem(honest.transcript, params));
    ASSERT_TRUE(e.election.Verify(honest).ok()) << e.election.Verify(honest).reason();
    ExpectListVerdictsMatch(honest.transcript, params);

    size_t rejected = 0;
    for (int trial = 0; trial < 32; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      TallyOutput bad = honest;
      std::vector<ShareList> lists = ShareListsOf(bad.transcript);
      ShareList& list = lists[e.rng.Uniform(lists.size())];
      std::vector<DecryptionShare>& shares = list.shares->at(e.rng.Uniform(list.cts.size()));
      DecryptionShare& share = shares.at(e.rng.Uniform(shares.size()));
      switch (e.rng.Uniform(5)) {
        case 0:  // the share point, its cache stale or following it
          share.share = share.share + RistrettoPoint::Base();
          if (e.rng.Uniform(2) == 0) {
            share.share_wire = share.share.Encode();
          }
          break;
        case 1:  // a cache byte, which binds nothing its point does not
          share.share_wire[e.rng.Uniform(32)] ^= static_cast<uint8_t>(1 + e.rng.Uniform(255));
          break;
        case 2:  // the member index: another member's, a repeat, or out of range
          share.member_index = (share.member_index + 1 + e.rng.Uniform(4)) % 6;
          break;
        case 3:  // a dropped share (enough for 3 of 4, too few otherwise)
          shares.erase(shares.begin() + static_cast<ptrdiff_t>(e.rng.Uniform(shares.size())));
          break;
        default:
          MutateProof(share.proof, e.rng);
          break;
      }
      const bool want = SharesHoldItemByItem(bad.transcript, params);
      EXPECT_EQ(e.election.Verify(bad).ok(), want) << e.election.Verify(bad).reason();
      ExpectListVerdictsMatch(bad.transcript, params);
      rejected += want ? 0 : 1;
    }
    EXPECT_GT(rejected, 16u);
  }
}

}  // namespace
}  // namespace votegral
