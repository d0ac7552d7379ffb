#include "src/crypto/dkg.h"

#include <algorithm>

#include "src/crypto/batch.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

constexpr std::string_view kShareWeightDomain = "votegral/verifier/share-batch-weights/v3";

}  // namespace

ElectionAuthority ElectionAuthority::Create(size_t n, Rng& rng) {
  Require(n >= 1, "ElectionAuthority::Create: need at least one member");
  ElectionAuthority authority;
  authority.threshold_ = n;
  authority.public_key_ = RistrettoPoint::Identity();
  authority.members_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AuthorityMember m;
    m.secret = Scalar::Random(rng);
    m.public_share = RistrettoPoint::MulBase(m.secret);
    // Proof of possession: sign the share encoding with the share's key.
    // The encoding is retained as the member's wire cache.
    m.public_share_wire = m.public_share.Encode();
    SchnorrKeyPair kp = SchnorrKeyPair::FromSecret(m.secret);
    m.proof_of_possession = kp.Sign(m.public_share_wire, rng);
    authority.public_key_ = authority.public_key_ + m.public_share;
    authority.members_.push_back(std::move(m));
  }
  RistrettoPoint::RegisterFixedBase(authority.public_key_);
  return authority;
}

ElectionAuthority ElectionAuthority::CreateThreshold(size_t threshold, size_t n,
                                                     Rng& rng) {
  Require(n >= 1, "ElectionAuthority::CreateThreshold: need at least one member");
  Require(threshold >= 1 && threshold <= n,
          "ElectionAuthority::CreateThreshold: invalid threshold");
  ElectionAuthority authority;
  authority.threshold_ = threshold;
  authority.shamir_mode_ = true;
  // Dealerless sum-of-dealers DKG: every member deals an independent random
  // secret over a degree-(t-1) polynomial; member j's key is the sum of all
  // dealers' evaluations at x = j+1, i.e. F(j+1) for the summed polynomial
  // F = Σ_i f_i, whose commitments are the coefficient-wise sums. No single
  // party ever holds F(0); any t members can reconstruct it, t-1 learn
  // nothing beyond their shares (standard Feldman argument).
  std::vector<Scalar> secrets(n, Scalar::Zero());
  FeldmanCommitments summed(threshold, RistrettoPoint::Identity());
  for (size_t dealer = 0; dealer < n; ++dealer) {
    FeldmanCommitments dealt;
    const std::vector<ShamirShare> shares =
        ShamirSplit(Scalar::Random(rng), threshold, n, rng, &dealt);
    for (size_t j = 0; j < n; ++j) {
      secrets[j] = secrets[j] + shares[j].value;
    }
    for (size_t c = 0; c < threshold; ++c) {
      summed[c] = summed[c] + dealt[c];
    }
  }
  authority.feldman_ = std::move(summed);
  authority.public_key_ = authority.feldman_[0];  // C_0 = F(0) * B
  authority.members_.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    AuthorityMember m;
    m.secret = secrets[j];
    m.public_share = RistrettoPoint::MulBase(m.secret);
    m.public_share_wire = m.public_share.Encode();
    SchnorrKeyPair kp = SchnorrKeyPair::FromSecret(m.secret);
    m.proof_of_possession = kp.Sign(m.public_share_wire, rng);
    authority.members_.push_back(std::move(m));
  }
  RistrettoPoint::RegisterFixedBase(authority.public_key_);
  return authority;
}

Status ElectionAuthority::VerifySetup() const {
  for (const auto& m : members_) {
    Status status =
        SchnorrVerify(m.public_share_wire, m.public_share_wire, m.proof_of_possession);
    if (!status.ok()) {
      return Status::Error(StatusCode::kInvalidProof,
                           "dkg: proof of possession invalid: " + status.reason());
    }
  }
  if (shamir_mode_) {
    // Feldman consistency: each published key share must be the summed
    // polynomial's evaluation in the exponent, or Lagrange recombination
    // over a subset would silently decrypt to garbage.
    for (size_t j = 0; j < members_.size(); ++j) {
      if (!(members_[j].public_share == EvalFeldman(feldman_, j + 1))) {
        return Status::Error(StatusCode::kInvalidProof,
                             "dkg: member " + std::to_string(j) +
                                 " public share inconsistent with Feldman commitments");
      }
    }
  }
  return Status::Ok();
}

DecryptionShare ElectionAuthority::ComputeShare(size_t i, const ElGamalCiphertext& ct,
                                                Rng& rng,
                                                const CompressedRistretto* c1_wire) const {
  const CompressedRistretto c1_bytes = c1_wire != nullptr ? *c1_wire : ct.c1.Encode();
  const Scalar nonce = Scalar::Random(rng);
  DecryptionShare share;
  ComputeShares(i, std::span(&ct, 1), std::span(&c1_bytes, 1), std::span(&nonce, 1),
                std::span(&share, 1));
  return share;
}

void ElectionAuthority::ComputeShares(size_t i, std::span<const ElGamalCiphertext> cts,
                                      std::span<const CompressedRistretto> c1_wire,
                                      std::span<const Scalar> nonces,
                                      std::span<DecryptionShare> out) const {
  const AuthorityMember& m = members_.at(i);
  Require(c1_wire.size() == cts.size() && out.size() == cts.size(),
          "dkg: one C1 encoding and one share per ciphertext");
  // Statement DLEQ((B, X_i), (C1, S_i)), fully wire-backed: B and X_i from
  // standing caches, C1 from the caller, and S_i = x_i*C1 derived by the
  // prover, which shares C1's doubling chain between x_i and the nonce and
  // gives S_i's bytes without a root.
  std::vector<DleqStatement> statements(cts.size());
  for (size_t j = 0; j < cts.size(); ++j) {
    DleqStatement& statement = statements[j];
    statement.bases = {RistrettoPoint::Base(), cts[j].c1};
    statement.base_wire = {RistrettoPoint::BaseWire(), c1_wire[j]};
    statement.publics = {m.public_share};
    statement.public_wire = {m.public_share_wire};
  }
  std::vector<DleqTranscript> proofs(cts.size());
  ProveDleqFsDeriving(kDecryptionShareDomain, statements, m.secret, nonces, proofs);
  for (size_t j = 0; j < cts.size(); ++j) {
    out[j].member_index = i;
    out[j].proof = std::move(proofs[j]);
    out[j].share = statements[j].publics[1];
    out[j].share_wire = statements[j].public_wire[1];
  }
}

Status ElectionAuthority::VerifyShare(const ElGamalCiphertext& ct,
                                      const DecryptionShare& share) const {
  if (share.member_index >= members_.size()) {
    return Status::Error(StatusCode::kInvalidProof, "dkg: share from unknown member");
  }
  Status status =
      VerifyShareAgainstCommitment(members_[share.member_index].public_share, ct, share);
  if (!status.ok()) {
    return Status::Error(StatusCode::kInvalidProof,
                         "dkg: decryption share proof invalid: " + status.reason());
  }
  return Status::Ok();
}

RistrettoPoint ElectionAuthority::CombineShares(const ElGamalCiphertext& ct,
                                                const std::vector<DecryptionShare>& shares) const {
  if (shamir_mode_) {
    Require(shares.size() >= threshold_,
            "dkg: fewer shares than the decryption threshold");
  } else {
    Require(shares.size() == members_.size(), "dkg: need one share per member (n-of-n)");
  }
  std::vector<bool> seen(members_.size(), false);
  for (const auto& share : shares) {
    Require(share.member_index < members_.size(), "dkg: share index out of range");
    Require(!seen[share.member_index], "dkg: duplicate share");
    seen[share.member_index] = true;
  }
  return shamir_mode_ ? CombineSharesPublicThreshold(ct, shares)
                      : CombineSharesPublic(ct, shares, members_.size());
}

RistrettoPoint ElectionAuthority::Decrypt(const ElGamalCiphertext& ct) const {
  return ElGamalDecrypt(CombinedSecret(), ct);
}

Scalar ElectionAuthority::CombinedSecret() const {
  if (shamir_mode_) {
    std::vector<ShamirShare> shares;
    shares.reserve(threshold_);
    for (size_t j = 0; j < threshold_; ++j) {
      shares.push_back(ShamirShare{j + 1, members_[j].secret});
    }
    return ShamirReconstruct(shares);
  }
  Scalar sum = Scalar::Zero();
  for (const auto& m : members_) {
    sum = sum + m.secret;
  }
  return sum;
}

Status VerifyShareAgainstCommitment(const RistrettoPoint& member_share_commitment,
                                    const ElGamalCiphertext& ct,
                                    const DecryptionShare& share) {
  DleqStatement statement = DleqStatement::MakePair(
      RistrettoPoint::Base(), member_share_commitment, ct.c1, share.share);
  return VerifyDleqFs(kDecryptionShareDomain, statement, share.proof);
}

bool VerifyShareBatch(std::span<const ElGamalCiphertext> cts,
                      std::span<const ElGamalWire> cts_wire,
                      std::span<const std::vector<DecryptionShare>> shares,
                      std::span<const RistrettoPoint> member_shares) {
  if (shares.size() != cts.size() || cts_wire.size() != cts.size()) {
    return false;
  }
  const size_t members = member_shares.size();
  // Ciphertext i's terms are [first_term[i], first_term[i + 1]).
  std::vector<size_t> first_term(cts.size() + 1, 0);
  for (size_t i = 0; i < cts.size(); ++i) {
    for (const DecryptionShare& share : shares[i]) {
      if (share.member_index >= members) {
        return false;
      }
    }
    first_term[i + 1] = first_term[i] + 1 + 3 * shares[i].size();
  }

  std::vector<CompressedRistretto> member_wire(members);
  BatchEncodePoints(member_shares, member_wire);
  DleqWeightSeed seed(kShareWeightDomain);
  for (const std::vector<DecryptionShare>& list : shares) {
    for (const DecryptionShare& share : list) {
      seed.Add(share.proof);
    }
  }
  DleqTermBatch batch(cts.size(), first_term.back(), member_shares, seed.Finalize());
  // Ciphertexts go through their shard in groups of about 64 cached points.
  const size_t group = std::max<size_t>(1, 64 / (3 * std::max<size_t>(members, 1)));
  auto well_formed = [](const DleqTranscript& proof) {
    return proof.commits.size() == 2 && proof.commit_wire.size() == 2;
  };
  batch.Fill(Executor::Current(), [&](DleqTermBatch::ShardWriter& writer, size_t begin,
                                      size_t end) {
    EncodingCheck check;
    for (size_t first_ct = begin; first_ct < end; first_ct += group) {
      const size_t last_ct = std::min(end, first_ct + group);
      // The group's caches in one pass: each share's bytes against its
      // point, each proof's commit bytes against its commits.
      check.Clear();
      for (size_t i = first_ct; i < last_ct; ++i) {
        for (const DecryptionShare& share : shares[i]) {
          check.Add(share.share, share.share_wire);
          if (well_formed(share.proof)) {
            check.Add(share.proof.commits[0], share.proof.commit_wire[0]);
            check.Add(share.proof.commits[1], share.proof.commit_wire[1]);
          }
        }
      }
      check.Run();

      size_t slot = 0;
      for (size_t i = first_ct; i < last_ct; ++i) {
        const size_t c1_term = first_term[i];
        writer.SetPoint(c1_term, cts[i].c1);
        const CompressedRistretto c1_wire = ElGamalWireHalf(cts_wire[i], 0);
        for (size_t s = 0; s < shares[i].size(); ++s) {
          const DecryptionShare& share = shares[i][s];
          const DleqTranscript& proof = share.proof;
          const bool share_wire_ok = check.ok(slot++);
          if (!well_formed(proof) || !(check.ok(slot) && check.ok(slot + 1))) {
            return false;
          }
          slot += 2;
          // The challenge over (B, C1), (X_m, S) and the commits, the byte
          // stream DeriveFsChallenge hashes for ComputeShare's statement.
          Sha512 h;
          const uint8_t separator = 0;
          h.Update(AsBytes(kDecryptionShareDomain));
          h.Update({&separator, 1});
          h.Update(RistrettoPoint::BaseWire());
          h.Update(c1_wire);
          h.Update(member_wire[share.member_index]);
          h.Update(share_wire_ok ? share.share_wire : share.share.Encode());
          h.Update(proof.commit_wire[0]);
          h.Update(proof.commit_wire[1]);
          if (Scalar::FromBytesWide(h.Finalize()) != proof.challenge) {
            return false;
          }
          const size_t term = c1_term + 1 + 3 * s;
          writer.SetPoint(term, share.share);
          writer.SetPoint(term + 1, proof.commits[0]);
          writer.SetPoint(term + 2, proof.commits[1]);
          using Slot = DleqTermBatch::Slot;
          writer.AddPair(proof.challenge, proof.response, Slot::Base(),
                         Slot::Shared(share.member_index), term + 1);
          writer.AddPair(proof.challenge, proof.response, Slot::Term(c1_term),
                         Slot::Term(term), term + 2);
        }
      }
    }
    return true;
  });
  return batch.Holds();
}

RistrettoPoint CombineSharesPublic(const ElGamalCiphertext& ct,
                                   const std::vector<DecryptionShare>& shares,
                                   size_t expected_members) {
  Require(shares.size() == expected_members, "dkg: wrong number of shares");
  RistrettoPoint sum;
  for (const DecryptionShare& share : shares) {
    sum = sum + share.share;
  }
  return ct.c2 - sum;
}

RistrettoPoint CombineSharesPublicThreshold(const ElGamalCiphertext& ct,
                                            const std::vector<DecryptionShare>& shares) {
  Require(!shares.empty(), "dkg: no shares to combine");
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

}  // namespace votegral
