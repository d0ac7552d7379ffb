#include "src/crypto/dkg.h"

namespace votegral {

namespace {

constexpr std::string_view kShareDomain = kDecryptionShareDomain;

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
  const AuthorityMember& m = members_.at(i);
  // Statement DLEQ((B, X_i), (C1, S_i)), fully wire-backed: B and X_i from
  // standing caches, C1 from the caller or one encode, and S_i = x_i*C1
  // derived by the prover, which shares C1's doubling chain between x_i and
  // the nonce and gives S_i's bytes without a root.
  DleqStatement statement;
  statement.bases = {RistrettoPoint::Base(), ct.c1};
  statement.base_wire = {RistrettoPoint::BaseWire(),
                         c1_wire != nullptr ? *c1_wire : ct.c1.Encode()};
  statement.publics = {m.public_share};
  statement.public_wire = {m.public_share_wire};
  DecryptionShare share;
  share.member_index = i;
  share.proof = ProveDleqFsDeriving(kShareDomain, statement, m.secret, rng);
  share.share = statement.publics[1];
  share.share_wire = statement.public_wire[1];
  return share;
}

Status ElectionAuthority::VerifyShare(const ElGamalCiphertext& ct,
                                      const DecryptionShare& share) const {
  if (share.member_index >= members_.size()) {
    return Status::Error(StatusCode::kInvalidProof, "dkg: share from unknown member");
  }
  const AuthorityMember& m = members_[share.member_index];
  DleqStatement statement = DleqStatement::MakePairWire(
      RistrettoPoint::Base(), RistrettoPoint::BaseWire(), m.public_share,
      m.public_share_wire, ct.c1, ct.c1.Encode(), share.share, share.share.Encode());
  Status status = VerifyDleqFs(kShareDomain, statement, share.proof);
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
    std::vector<size_t> points;
    points.reserve(shares.size());
    for (const auto& share : shares) {
      Require(share.member_index < members_.size(), "dkg: share index out of range");
      const size_t point = share.member_index + 1;
      for (size_t seen : points) {
        Require(seen != point, "dkg: duplicate share");
      }
      points.push_back(point);
    }
    RistrettoPoint blinding;  // Σ λ_j * S_j = F(0) * C1
    for (const auto& share : shares) {
      blinding = blinding +
                 LagrangeAtZero(points, share.member_index + 1) * share.share;
    }
    return ct.c2 - blinding;
  }
  Require(shares.size() == members_.size(), "dkg: need one share per member (n-of-n)");
  std::vector<bool> seen(members_.size(), false);
  RistrettoPoint sum;
  for (const auto& share : shares) {
    Require(share.member_index < members_.size(), "dkg: share index out of range");
    Require(!seen[share.member_index], "dkg: duplicate share");
    seen[share.member_index] = true;
    sum = sum + share.share;
  }
  return ct.c2 - sum;
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

}  // namespace votegral
