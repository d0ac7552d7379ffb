// SHA-256 (FIPS 180-4), implemented from scratch. Used by TRIP for check-in
// ticket MACs (HMAC-SHA-256) and for ledger hash chaining.
//
// Two block kernels compute the same function: portable C++, and on x86-64
// CPUs with the SHA extensions a SHA-NI kernel. The process picks one on its
// first hash, from CPUID alone (sha256_internal.h; docs/ARCHITECTURE.md
// §Hashing and file reads).
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/common/bytes.h"

namespace votegral {

// Incremental SHA-256 hasher.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  // Absorbs more input.
  Sha256& Update(std::span<const uint8_t> data);

  // Finalizes and returns the digest. The hasher must not be reused after.
  std::array<uint8_t, kDigestSize> Finalize();

  // One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(std::span<const uint8_t> data);

  // One-shot over the concatenation of several parts (avoids copies).
  static std::array<uint8_t, kDigestSize> HashParts(
      std::initializer_list<std::span<const uint8_t>> parts);

 private:
  // Runs the selected kernel over `count` full blocks, so a long Update
  // keeps the state in registers from one block to the next.
  void Compress(const uint8_t* blocks, size_t count);

  std::array<uint32_t, 8> state_;
  std::array<uint8_t, kBlockSize> buffer_;
  size_t buffered_ = 0;
  uint64_t total_bytes_ = 0;
  bool finalized_ = false;
};

}  // namespace votegral

#endif  // SRC_CRYPTO_SHA256_H_
