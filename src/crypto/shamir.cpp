#include "src/crypto/shamir.h"

namespace votegral {

// Evaluates sum_j x^j * points[j] (Horner over the group).
RistrettoPoint EvalFeldman(const FeldmanCommitments& commitments, size_t x) {
  Scalar x_scalar = Scalar::FromU64(static_cast<uint64_t>(x));
  RistrettoPoint acc;  // identity
  for (size_t j = commitments.size(); j-- > 0;) {
    acc = x_scalar * acc + commitments[j];
  }
  return acc;
}

std::vector<ShamirShare> ShamirSplit(const Scalar& secret, size_t threshold, size_t n,
                                     Rng& rng, FeldmanCommitments* commitments) {
  Require(threshold >= 1 && threshold <= n, "shamir: invalid threshold");
  // f(x) = secret + a_1 x + ... + a_{t-1} x^{t-1}.
  std::vector<Scalar> coefficients = {secret};
  for (size_t j = 1; j < threshold; ++j) {
    coefficients.push_back(Scalar::Random(rng));
  }
  if (commitments != nullptr) {
    commitments->clear();
    for (const Scalar& a : coefficients) {
      commitments->push_back(RistrettoPoint::MulBase(a));
    }
  }
  std::vector<ShamirShare> shares;
  shares.reserve(n);
  for (size_t i = 1; i <= n; ++i) {
    Scalar x = Scalar::FromU64(static_cast<uint64_t>(i));
    // Horner evaluation.
    Scalar value = Scalar::Zero();
    for (size_t j = coefficients.size(); j-- > 0;) {
      value = value * x + coefficients[j];
    }
    shares.push_back(ShamirShare{i, value});
  }
  return shares;
}

Status VerifyShamirShare(const ShamirShare& share, const FeldmanCommitments& commitments) {
  if (share.index == 0 || commitments.empty()) {
    return Status::Error("shamir: malformed share or commitments");
  }
  RistrettoPoint expected = EvalFeldman(commitments, share.index);
  if (!(RistrettoPoint::MulBase(share.value) == expected)) {
    return Status::Error("shamir: share does not match Feldman commitments");
  }
  return Status::Ok();
}

Scalar LagrangeAtZero(const std::vector<size_t>& indices, size_t index) {
  Scalar numerator = Scalar::One();
  Scalar denominator = Scalar::One();
  Scalar x_i = Scalar::FromU64(static_cast<uint64_t>(index));
  bool found = false;
  for (size_t other : indices) {
    if (other == index) {
      found = true;
      continue;
    }
    Scalar x_j = Scalar::FromU64(static_cast<uint64_t>(other));
    numerator = numerator * (Scalar::Zero() - x_j);
    denominator = denominator * (x_i - x_j);
  }
  Require(found, "shamir: index not in interpolation set");
  return numerator * denominator.Invert();
}

Scalar ShamirReconstruct(std::span<const ShamirShare> shares) {
  Require(!shares.empty(), "shamir: no shares");
  std::vector<size_t> indices;
  for (const ShamirShare& share : shares) {
    for (size_t seen : indices) {
      Require(seen != share.index, "shamir: duplicate share index");
    }
    indices.push_back(share.index);
  }
  Scalar secret = Scalar::Zero();
  for (const ShamirShare& share : shares) {
    secret = secret + LagrangeAtZero(indices, share.index) * share.value;
  }
  return secret;
}

}  // namespace votegral
