// Shamir secret sharing with Feldman verifiability: the building blocks of
// the dealerless t-of-n DKG (ElectionAuthority::CreateThreshold in dkg.h).
//  * each dealer splits its secret over a degree-(t-1) polynomial,
//  * Feldman commitments make every share publicly checkable,
//  * Lagrange weights at zero recombine any t shares (in the exponent, for
//    decryption shares).
#ifndef SRC_CRYPTO_SHAMIR_H_
#define SRC_CRYPTO_SHAMIR_H_

#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/ristretto.h"
#include "src/crypto/scalar.h"

namespace votegral {

// One participant's share of a secret (1-based evaluation points).
struct ShamirShare {
  size_t index = 0;  // x-coordinate, in [1, n]
  Scalar value;      // f(index)
};

// Feldman commitments to the sharing polynomial: C_j = a_j * B.
using FeldmanCommitments = std::vector<RistrettoPoint>;

// Splits `secret` into n shares with reconstruction threshold t; also
// returns the Feldman commitments (C_0 commits to the secret itself).
std::vector<ShamirShare> ShamirSplit(const Scalar& secret, size_t threshold, size_t n,
                                     Rng& rng, FeldmanCommitments* commitments);

// Verifies one share against the commitments: f(i)*B == sum_j i^j * C_j.
Status VerifyShamirShare(const ShamirShare& share, const FeldmanCommitments& commitments);

// Evaluates the committed polynomial in the exponent at x:
// sum_j x^j * C_j = f(x) * B. Public: anyone holding the commitments can
// derive any participant's share commitment (the dealerless DKG and the
// universal verifier both use this to check shares of excluded-authority
// subsets).
RistrettoPoint EvalFeldman(const FeldmanCommitments& commitments, size_t x);

// Lagrange coefficient λ_i(0) for interpolating f(0) from the given
// x-coordinates. `indices` must be distinct and contain `index`.
Scalar LagrangeAtZero(const std::vector<size_t>& indices, size_t index);

// Reconstructs the secret from any >= t distinct shares.
Scalar ShamirReconstruct(std::span<const ShamirShare> shares);

}  // namespace votegral

#endif  // SRC_CRYPTO_SHAMIR_H_
