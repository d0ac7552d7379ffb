#include "src/crypto/drbg.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/crypto/sha256.h"

namespace votegral {

namespace {

uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d ^= a;
  d = Rotl(d, 16);
  c += d;
  b ^= c;
  b = Rotl(b, 12);
  a += b;
  d ^= a;
  d = Rotl(d, 8);
  c += d;
  b ^= c;
  b = Rotl(b, 7);
}

}  // namespace

void ChaCha20Block(const std::array<uint8_t, 32>& key, const std::array<uint8_t, 12>& nonce,
                   uint32_t counter, std::array<uint8_t, 64>& out) {
  uint32_t state[16];
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = LoadLe32(key.data() + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = LoadLe32(nonce.data() + 4 * i);
  }
  uint32_t working[16];
  std::copy(std::begin(state), std::end(state), std::begin(working));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(working[0], working[4], working[8], working[12]);
    QuarterRound(working[1], working[5], working[9], working[13]);
    QuarterRound(working[2], working[6], working[10], working[14]);
    QuarterRound(working[3], working[7], working[11], working[15]);
    QuarterRound(working[0], working[5], working[10], working[15]);
    QuarterRound(working[1], working[6], working[11], working[12]);
    QuarterRound(working[2], working[7], working[8], working[13]);
    QuarterRound(working[3], working[4], working[9], working[14]);
  }
  for (int i = 0; i < 16; ++i) {
    StoreLe32(out.data() + 4 * i, working[i] + state[i]);
  }
}

void ChaCha20Xor(const std::array<uint8_t, 32>& key, const std::array<uint8_t, 12>& nonce,
                 uint32_t initial_counter, std::span<uint8_t> data) {
  std::array<uint8_t, 64> block;
  uint32_t counter = initial_counter;
  size_t offset = 0;
  while (offset < data.size()) {
    ChaCha20Block(key, nonce, counter++, block);
    size_t take = std::min<size_t>(64, data.size() - offset);
    for (size_t i = 0; i < take; ++i) {
      data[offset + i] ^= block[i];
    }
    offset += take;
  }
}

ChaChaRng::ChaChaRng(std::span<const uint8_t> seed) { key_ = Sha256::Hash(seed); }

ChaChaRng::ChaChaRng(uint64_t seed) {
  uint8_t buf[8];
  StoreLe64(buf, seed);
  key_ = Sha256::Hash(buf);
}

void ChaChaRng::Refill() {
  ChaCha20Block(key_, nonce_, counter_++, block_);
  available_ = block_.size();
}

void ChaChaRng::Fill(std::span<uint8_t> out) {
  size_t offset = 0;
  while (offset < out.size()) {
    if (available_ == 0) {
      Refill();
    }
    size_t take = std::min(available_, out.size() - offset);
    std::copy(block_.end() - static_cast<ptrdiff_t>(available_),
              block_.end() - static_cast<ptrdiff_t>(available_ - take),
              out.begin() + static_cast<ptrdiff_t>(offset));
    available_ -= take;
    offset += take;
  }
}

}  // namespace votegral
