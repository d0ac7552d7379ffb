// ElGamal over ristretto255 (additive notation): Enc(pk, M; r) =
// (r*B, r*pk + M). This is the encryption scheme EG of §E.1, used for the
// public credential c_pc (an encryption of the real credential's public key)
// and for ballot contents. The tally pipeline additionally relies on:
//  * re-randomization (mixnet re-encryption),
//  * componentwise scalar exponentiation, which maps Enc(M) to Enc(z*M)
//    under the same key — the core of deterministic tagging (§4.2, [153]).
#ifndef SRC_CRYPTO_ELGAMAL_H_
#define SRC_CRYPTO_ELGAMAL_H_

#include <array>
#include <span>

#include "src/common/outcome.h"
#include "src/common/rng.h"
#include "src/crypto/ristretto.h"
#include "src/crypto/scalar.h"

namespace votegral {

// An ElGamal ciphertext (C1, C2).
struct ElGamalCiphertext {
  RistrettoPoint c1;
  RistrettoPoint c2;

  // Homomorphic addition: Enc(M1) + Enc(M2) = Enc(M1 + M2).
  ElGamalCiphertext operator+(const ElGamalCiphertext& other) const;

  // Re-encryption: adds an encryption of the identity with randomness r.
  ElGamalCiphertext ReRandomize(const RistrettoPoint& pk, const Scalar& r) const;

  // Componentwise scalar multiplication: Enc(M; r) -> Enc(z*M; z*r).
  ElGamalCiphertext ExponentiateBy(const Scalar& z) const;

  bool operator==(const ElGamalCiphertext& other) const;
  bool operator!=(const ElGamalCiphertext& other) const { return !(*this == other); }

  // 64-byte wire format: C1 || C2.
  Bytes Serialize() const;
  static Outcome<ElGamalCiphertext> Parse(std::span<const uint8_t> bytes);

  // Serialize() as a fixed array (same bytes, no allocation) — the unit the
  // wire-byte DLEQ layer threads between mix, tagging and decryption stages.
  std::array<uint8_t, 64> Wire() const;
};

// Canonical 64-byte encoding of one ciphertext, as threaded through the
// tagging chain and decryption-share statements (docs/TRANSCRIPTS.md).
using ElGamalWire = std::array<uint8_t, 64>;

// One component's 32-byte point encoding out of a ciphertext wire
// (half 0 = C1, half 1 = C2). The single place the C1‖C2 layout is sliced.
std::array<uint8_t, 32> ElGamalWireHalf(const ElGamalWire& wire, size_t half);

// Encrypts the group element `message` under `pk` with explicit randomness.
ElGamalCiphertext ElGamalEncrypt(const RistrettoPoint& pk, const RistrettoPoint& message,
                                 const Scalar& r);

// Encrypts with fresh randomness; optionally returns the randomness used
// (TRIP's kiosk needs it as the DLEQ witness).
ElGamalCiphertext ElGamalEncrypt(const RistrettoPoint& pk, const RistrettoPoint& message,
                                 Rng& rng, Scalar* randomness_out = nullptr);

// Wraps a public group element as a ciphertext with zero randomness
// (Enc(M; 0) = (identity, M)); the first mix layer re-randomizes it. Used to
// feed ballot credential keys into the mix cascade.
ElGamalCiphertext ElGamalTrivialEncrypt(const RistrettoPoint& message);

// Decrypts with the full secret key.
RistrettoPoint ElGamalDecrypt(const Scalar& sk, const ElGamalCiphertext& ct);

}  // namespace votegral

#endif  // SRC_CRYPTO_ELGAMAL_H_
