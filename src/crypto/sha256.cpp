#include "src/crypto/sha256.h"

#include "src/common/status.h"
#include "src/crypto/sha256_internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace votegral {

namespace {

alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The kernel every Sha256 in this process runs. It depends on CPUID alone
// and is chosen on the first hash. A function-local static, so a hash taken
// from another file's static initializer still finds it initialized.
sha256_internal::CompressFn SelectedKernel() {
  using namespace sha256_internal;
#if defined(__x86_64__)
  static const CompressFn kernel = CpuHasShaNi() ? CompressShaNi : CompressPortable;
  return kernel;
#else
  return CompressPortable;
#endif
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c,
             0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

Sha256& Sha256::Update(std::span<const uint8_t> data) {
  Require(!finalized_, "Sha256: update after finalize");
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffered_ > 0) {
    size_t take = std::min(data.size(), kBlockSize - buffered_);
    std::copy(data.begin(), data.begin() + static_cast<ptrdiff_t>(take),
              buffer_.begin() + static_cast<ptrdiff_t>(buffered_));
    buffered_ += take;
    offset += take;
    if (buffered_ == kBlockSize) {
      Compress(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (const size_t blocks = (data.size() - offset) / kBlockSize; blocks > 0) {
    Compress(data.data() + offset, blocks);
    offset += blocks * kBlockSize;
  }
  if (offset < data.size()) {
    std::copy(data.begin() + static_cast<ptrdiff_t>(offset), data.end(), buffer_.begin());
    buffered_ = data.size() - offset;
  }
  return *this;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finalize() {
  Require(!finalized_, "Sha256: double finalize");
  uint64_t bit_length = total_bytes_ * 8;
  uint8_t pad[kBlockSize] = {0x80};
  size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  Update({pad, pad_len});
  uint8_t len_bytes[8];
  StoreBe64(len_bytes, bit_length);
  Update({len_bytes, 8});
  finalized_ = true;
  std::array<uint8_t, kDigestSize> out;
  for (int i = 0; i < 8; ++i) {
    StoreBe32(out.data() + 4 * i, state_[i]);
  }
  return out;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Hash(std::span<const uint8_t> data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::HashParts(
    std::initializer_list<std::span<const uint8_t>> parts) {
  Sha256 h;
  for (const auto& part : parts) {
    h.Update(part);
  }
  return h.Finalize();
}

void Sha256::Compress(const uint8_t* blocks, size_t count) {
  SelectedKernel()(state_.data(), blocks, count);
}

namespace sha256_internal {

void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = LoadBe32(blocks + 4 * i);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool CpuHasShaNi() {
#if defined(__x86_64__)
  // The first hash may run from a static initializer, before libgcc has
  // filled in its CPU model.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

#if defined(__x86_64__)
// The SHA-NI round instruction takes the state as two vectors, ABEF and
// CDGH, and runs two rounds per call; each call pair below is four rounds.
// The message schedule rolls through four vectors of four words: sha256msg1
// adds sigma0 of the next words to a vector once it has been used, and
// sha256msg2 finishes the words four rounds ahead of use.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(uint32_t state[8],
                                                         const uint8_t* blocks,
                                                         size_t count) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; count > 0; --count, blocks += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), byte_swap);
    }
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {  // rounds 4q .. 4q+3 on words 4q .. 4q+3
      const __m128i wk = _mm_add_epi32(
          w[q & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * q)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (q >= 3 && q < 15) {  // words 4q+4 .. 4q+7
        __m128i& next = w[(q + 1) & 3];
        next = _mm_sha256msg2_epu32(
            _mm_add_epi32(next, _mm_alignr_epi8(w[q & 3], w[(q - 1) & 3], 4)), w[q & 3]);
      }
      if (q >= 1 && q < 13) {
        w[(q - 1) & 3] = _mm_sha256msg1_epu32(w[(q - 1) & 3], w[q & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

}  // namespace sha256_internal

}  // namespace votegral
