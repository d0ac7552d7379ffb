// ChaCha20 stream cipher (RFC 8439 block function) and the deterministic
// random-bit generator built on it. ChaChaRng is the repository's only
// randomness implementation: tests, benches and examples seed it explicitly
// for reproducibility.
#ifndef SRC_CRYPTO_DRBG_H_
#define SRC_CRYPTO_DRBG_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/common/rng.h"

namespace votegral {

// Computes one 64-byte ChaCha20 keystream block (RFC 8439 §2.3).
void ChaCha20Block(const std::array<uint8_t, 32>& key, const std::array<uint8_t, 12>& nonce,
                   uint32_t counter, std::array<uint8_t, 64>& out);

// XORs `data` in place with the ChaCha20 keystream (counter starts at
// `initial_counter`). Exposed for the RFC test vector and for completeness.
void ChaCha20Xor(const std::array<uint8_t, 32>& key, const std::array<uint8_t, 12>& nonce,
                 uint32_t initial_counter, std::span<uint8_t> data);

// Deterministic RNG: ChaCha20 keystream under a seed-derived key.
class ChaChaRng : public Rng {
 public:
  // Seeds from an arbitrary byte string (hashed to a key).
  explicit ChaChaRng(std::span<const uint8_t> seed);

  // Seeds from a test-friendly integer.
  explicit ChaChaRng(uint64_t seed);

  void Fill(std::span<uint8_t> out) override;

 private:
  void Refill();

  std::array<uint8_t, 32> key_;
  std::array<uint8_t, 12> nonce_{};
  uint32_t counter_ = 0;
  std::array<uint8_t, 64> block_{};
  size_t available_ = 0;
};

}  // namespace votegral

#endif  // SRC_CRYPTO_DRBG_H_
