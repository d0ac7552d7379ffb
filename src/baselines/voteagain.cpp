#include "src/baselines/voteagain.h"

#include <algorithm>
#include <map>

namespace votegral {

void VoteAgainModel::Setup(size_t voters, Rng& rng) {
  voters_ = voters;
  authority_ = std::make_unique<ElectionAuthority>(ElectionAuthority::Create(4, rng));
  voter_keys_.clear();
  ballots_.clear();
  counted_ = 0;
}

void VoteAgainModel::RegisterAll(Rng& rng) {
  voter_keys_.reserve(voters_);
  for (size_t v = 0; v < voters_; ++v) {
    // The whole registration: one signing keypair (the paper's 0.1 ms).
    voter_keys_.push_back(SchnorrKeyPair::Generate(rng));
  }
}

void VoteAgainModel::VoteAll(Rng& rng) {
  const RistrettoPoint& pk = authority_->public_key();
  // The election key appears in every validity statement: encode it once for
  // the whole registration pass (wire-carrying statement API).
  const CompressedRistretto pk_wire = pk.Encode();
  RistrettoPoint candidate =
      RistrettoPoint::HashToGroup("voteagain/candidate", AsBytes("candidate-0"));
  ballots_.reserve(voters_);
  for (size_t v = 0; v < voters_; ++v) {
    VaBallot ballot;
    Scalar r;
    ballot.encrypted_vote = ElGamalEncrypt(pk, candidate, rng, &r);
    // Deterministic voter tag: sk-keyed point (stands in for the blinded
    // PRF tag of the paper's filtering structure).
    ballot.voter_tag = voter_keys_[v].secret() * RistrettoPoint::HashToGroup(
                                                     "voteagain/tag-base", AsBytes("epoch-1"));
    DleqStatement statement =
        DleqStatement::MakePair(RistrettoPoint::Base(), ballot.encrypted_vote.c1, pk,
                                ballot.encrypted_vote.c2 - candidate);
    statement.base_wire = {RistrettoPoint::BaseWire(), pk_wire};
    statement.public_wire = {statement.publics[0].Encode(), statement.publics[1].Encode()};
    ballot.validity_proof = ProveDleqFs("voteagain/validity", statement, r, rng);
    ballot.signature = voter_keys_[v].Sign(ballot.encrypted_vote.Serialize(), rng);
    ballots_.push_back(std::move(ballot));
  }
}

void VoteAgainModel::TallyAll(Rng& rng) {
  const RistrettoPoint& pk = authority_->public_key();
  // 1. Dummy padding: pad each voter's ballot count (1 here) to the next
  //    power of two — with single votes that's one dummy per voter, giving
  //    the characteristic ~2x padded board.
  std::map<CompressedRistretto, std::vector<size_t>> by_tag;
  for (size_t i = 0; i < ballots_.size(); ++i) {
    by_tag[ballots_[i].voter_tag.Encode()].push_back(i);
  }
  std::vector<VaBallot> padded = ballots_;
  RistrettoPoint dummy_candidate =
      RistrettoPoint::HashToGroup("voteagain/candidate", AsBytes("dummy"));
  for (const auto& [tag, indices] : by_tag) {
    size_t target = 1;
    while (target < indices.size()) {
      target *= 2;
    }
    if (target == indices.size()) {
      target *= 2;  // always at least one dummy to hide "voted exactly once"
    }
    for (size_t d = indices.size(); d < target; ++d) {
      VaBallot dummy;
      dummy.encrypted_vote = ElGamalEncrypt(pk, dummy_candidate, rng);
      dummy.voter_tag = ballots_[indices[0]].voter_tag;
      dummy.dummy = true;
      padded.push_back(std::move(dummy));
    }
  }

  // 2. Filter: keep the last *real* ballot per tag (dummies are marked by
  //    the filtering service; the ordering structure hides counts from the
  //    public, not from the service).
  std::map<CompressedRistretto, size_t> last_real;
  for (size_t i = 0; i < padded.size(); ++i) {
    if (!padded[i].dummy) {
      last_real[padded[i].voter_tag.Encode()] = i;
    }
  }

  // 3. Mix the surviving ballots and verifiably decrypt.
  MixBatch batch;
  for (const auto& [tag, index] : last_real) {
    MixItem item;
    item.cts = {padded[index].encrypted_vote};
    batch.push_back(std::move(item));
  }
  EnsureWireCache(batch, Executor::Global());  // the verifier checks the items' bytes
  MixProof proof;
  MixBatch mixed = RunRpcMixCascade(batch, pk, 2, rng, &proof);
  Require(VerifyRpcMixCascade(batch, mixed, proof, pk).ok(), "voteagain: mix proof invalid");

  counted_ = 0;
  for (const MixItem& item : mixed) {
    std::vector<DecryptionShare> shares;
    for (size_t m = 0; m < authority_->size(); ++m) {
      shares.push_back(authority_->ComputeShare(m, item.cts[0], rng));
    }
    (void)authority_->CombineShares(item.cts[0], shares);
    ++counted_;
  }
}

bool VoteAgainModel::OutcomeLooksCorrect() const { return counted_ == voters_; }

}  // namespace votegral
