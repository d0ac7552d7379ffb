#include "src/baselines/swisspost.h"

namespace votegral {

void SwissPostModel::Setup(size_t voters, Rng& rng) {
  voters_ = voters;
  authority_ = std::make_unique<ElectionAuthority>(
      ElectionAuthority::Create(kControlComponents, rng));
  ccr_secrets_.clear();
  for (size_t i = 0; i < kControlComponents; ++i) {
    ccr_secrets_.push_back(Scalar::Random(rng));
  }
  option_points_.clear();
  for (size_t i = 0; i < kContests * kOptionsPerContest; ++i) {
    option_points_.push_back(RistrettoPoint::HashToGroup(
        "swisspost/option", AsBytes("option-" + std::to_string(i))));
  }
  cards_.clear();
  ballots_.clear();
  decrypted_ = 0;
}

void SwissPostModel::RegisterAll(Rng& rng) {
  cards_.reserve(voters_);
  for (size_t v = 0; v < voters_; ++v) {
    VerificationCard card;
    card.card_secret = Scalar::Random(rng);
    card.card_public = RistrettoPoint::MulBase(card.card_secret);
    // genVerDat path: pCC_i = option_i^k, then each CCR exponentiates with
    // its long-term key — kContests*kOptions*(1 + kCC) exponentiations.
    card.return_codes.reserve(option_points_.size());
    for (const RistrettoPoint& option : option_points_) {
      RistrettoPoint pcc = card.card_secret * option;
      for (const Scalar& ccr : ccr_secrets_) {
        pcc = ccr * pcc;
      }
      card.return_codes.push_back(pcc);
    }
    cards_.push_back(std::move(card));
  }
}

void SwissPostModel::VoteAll(Rng& rng) {
  ballots_.reserve(voters_);
  const RistrettoPoint& pk = authority_->public_key();
  for (size_t v = 0; v < voters_; ++v) {
    SwissBallot ballot;
    Scalar r_total = Scalar::Zero();
    RistrettoPoint chosen_sum = RistrettoPoint::Identity();
    for (size_t contest = 0; contest < kContests; ++contest) {
      size_t pick = v % kOptionsPerContest;
      size_t option = contest * kOptionsPerContest + pick;
      Scalar r;
      ballot.contests.push_back(ElGamalEncrypt(pk, option_points_[option], rng, &r));
      r_total = r_total + r;
      chosen_sum = chosen_sum + option_points_[option];
      // Ballot-validity proof for the headline contest only: the deployed
      // system relies on exponentiation/equality proofs plus return codes
      // for the rest, so a full per-option disjunction on every contest
      // would overstate its voting cost (cf. Fig. 5a's ~10 ms/ballot).
      if (contest == 0) {
        std::span<const RistrettoPoint> contest_options(
            option_points_.data() + contest * kOptionsPerContest, kOptionsPerContest);
        ballot.validity_proofs.push_back(ProveEncryptsOneOf(
            ballot.contests.back(), pk, contest_options, pick, r, "swisspost/validity", rng));
      }
      // Return-code computation for the chosen option.
      ballot.chosen_codes.push_back(cards_[v].card_secret * option_points_[option]);
    }
    // Exponentiation proof: the product ciphertext is well-formed w.r.t. the
    // combined randomness (DLEQ on (B, C1_total), (pk, C2_total/m)).
    ElGamalCiphertext total = ballot.contests[0];
    for (size_t c = 1; c < ballot.contests.size(); ++c) {
      total = total + ballot.contests[c];
    }
    ballot.plaintext_sum = chosen_sum;
    // Wire-carrying statements: fill the caches once at proving time (the
    // challenge hash pays the encodes either way) so every later hash of the
    // same statement is SHA-only — the same migration as the tagging chain.
    DleqStatement statement = DleqStatement::MakePair(
        RistrettoPoint::Base(), total.c1, pk, total.c2 - chosen_sum);
    statement.EnsureWire();
    ballot.exponentiation_proof = ProveDleqFs("swisspost/exp-proof", statement, r_total, rng);
    // Plaintext-equality proof (vote vs return-code preimage): modeled as a
    // second DLEQ over the card key.
    DleqStatement eq = DleqStatement::MakePair(
        RistrettoPoint::Base(), cards_[v].card_public, option_points_[0],
        cards_[v].card_secret * option_points_[0]);
    eq.EnsureWire();
    ballot.plaintext_equality_proof =
        ProveDleqFs("swisspost/eq-proof", eq, cards_[v].card_secret, rng);
    ballots_.push_back(std::move(ballot));
  }
}

void SwissPostModel::TallyAll(Rng& rng) {
  const RistrettoPoint& pk = authority_->public_key();
  // Validate ballot proofs (the tally re-checks them).
  for (const SwissBallot& ballot : ballots_) {
    ElGamalCiphertext total = ballot.contests[0];
    for (size_t c = 1; c < ballot.contests.size(); ++c) {
      total = total + ballot.contests[c];
    }
    DleqStatement statement = DleqStatement::MakePair(
        RistrettoPoint::Base(), total.c1, pk, total.c2 - ballot.plaintext_sum);
    statement.EnsureWire();
    Require(VerifyDleqFs("swisspost/exp-proof", statement,
                         ballot.exponentiation_proof).ok(),
            "swisspost: exponentiation proof invalid");
    for (size_t p = 0; p < ballot.validity_proofs.size(); ++p) {
      std::span<const RistrettoPoint> contest_options(option_points_.data(),
                                                      kOptionsPerContest);
      Require(VerifyEncryptsOneOf(ballot.contests[p], pk, contest_options,
                                  ballot.validity_proofs[p], "swisspost/validity")
                  .ok(),
              "swisspost: validity proof invalid");
    }
  }
  // Mix the ballot bundles through the 4-mixer cascade.
  MixBatch batch;
  batch.reserve(ballots_.size());
  for (const SwissBallot& ballot : ballots_) {
    MixItem item;
    item.cts = ballot.contests;
    batch.push_back(std::move(item));
  }
  EnsureWireCache(batch, Executor::Global());  // the verifier checks the items' bytes
  MixProof proof;
  MixBatch mixed = RunRpcMixCascade(batch, pk, /*pair_count=*/2, rng, &proof);
  Require(VerifyRpcMixCascade(batch, mixed, proof, pk).ok(), "swisspost: mix proof invalid");

  // Verifiable decryption of every contest of every ballot.
  decrypted_ = 0;
  for (const MixItem& item : mixed) {
    for (const ElGamalCiphertext& ct : item.cts) {
      std::vector<DecryptionShare> shares;
      for (size_t m = 0; m < authority_->size(); ++m) {
        shares.push_back(authority_->ComputeShare(m, ct, rng));
      }
      RistrettoPoint vote = authority_->CombineShares(ct, shares);
      (void)vote;
      ++decrypted_;
    }
  }
}

bool SwissPostModel::OutcomeLooksCorrect() const {
  return decrypted_ == voters_ * kContests;
}

}  // namespace votegral
