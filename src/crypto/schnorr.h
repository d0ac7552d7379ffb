// Schnorr signatures over ristretto255 with SHA-512 challenges — the
// EUF-CMA signature scheme Sig of the paper's §E.1. Used by kiosks (receipt
// signatures σ_kc, σ_kot, σ_kr), officials (check-out approval σ_o), envelope
// printers (σ_p), and voter credentials (ballot authentication).
#ifndef SRC_CRYPTO_SCHNORR_H_
#define SRC_CRYPTO_SCHNORR_H_

#include <array>
#include <span>

#include "src/common/outcome.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/ristretto.h"
#include "src/crypto/scalar.h"

namespace votegral {

// A Schnorr signature (R, s): R = k*B, s = k + H(R, pk, m)*sk.
struct SchnorrSignature {
  CompressedRistretto r_bytes{};
  Scalar s;

  // 64-byte wire format: R || s.
  Bytes Serialize() const;
  static Outcome<SchnorrSignature> Parse(std::span<const uint8_t> bytes);
};

// A signing key pair.
class SchnorrKeyPair {
 public:
  // Generates a fresh key pair.
  static SchnorrKeyPair Generate(Rng& rng);

  // Reconstructs a key pair from a stored secret key.
  static SchnorrKeyPair FromSecret(const Scalar& sk);

  const Scalar& secret() const { return sk_; }
  const RistrettoPoint& public_point() const { return pk_; }
  const CompressedRistretto& public_bytes() const { return pk_bytes_; }

  // Signs `message`. Nonces are hedged: derived from the secret key, the
  // message, and fresh randomness.
  SchnorrSignature Sign(std::span<const uint8_t> message, Rng& rng) const;

 private:
  SchnorrKeyPair(const Scalar& sk, const RistrettoPoint& pk)
      : sk_(sk), pk_(pk), pk_bytes_(pk.Encode()) {}

  Scalar sk_;
  RistrettoPoint pk_;
  CompressedRistretto pk_bytes_;
};

// The challenge c = H(R, pk, m) a signature on `message` binds, under the
// domain "votegral/schnorr/challenge/v1". Signing and every verifier, single
// or batched, hash these same bytes.
Scalar SchnorrChallenge(const CompressedRistretto& r_bytes, const CompressedRistretto& pk_bytes,
                        std::span<const uint8_t> message);

// Verifies `sig` on `message` under the public key encoded by `pk_bytes`.
// Returns a descriptive error Status on failure.
Status SchnorrVerify(const CompressedRistretto& pk_bytes, std::span<const uint8_t> message,
                     const SchnorrSignature& sig);

}  // namespace votegral

#endif  // SRC_CRYPTO_SCHNORR_H_
