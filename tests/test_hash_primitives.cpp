// Unit tests for SHA-256, SHA-512, HMAC-SHA-256, ChaCha20 and the DRBG,
// against published test vectors (FIPS 180-4 / RFC 4231 / RFC 8439) plus
// structural properties.
#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/drbg.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_internal.h"
#include "src/crypto/sha512.h"

namespace votegral {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256::Hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  auto msg = AsBytes("abc");
  EXPECT_EQ(HexEncode(Sha256::Hash(msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  auto msg = AsBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(HexEncode(Sha256::Hash(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(HexEncode(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  ChaChaRng rng(7);
  for (size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    Bytes data = rng.RandomBytes(len);
    Sha256 h;
    size_t pos = 0;
    size_t step = 1;
    while (pos < data.size()) {
      size_t take = std::min(step, data.size() - pos);
      h.Update({data.data() + pos, take});
      pos += take;
      step = step * 3 + 1;
    }
    EXPECT_EQ(h.Finalize(), Sha256::Hash(data)) << "len=" << len;
  }
}

TEST(Sha256, DoubleFinalizeThrows) {
  Sha256 h;
  h.Update(AsBytes("x"));
  (void)h.Finalize();
  EXPECT_THROW((void)h.Finalize(), ProtocolError);
}

// Sha256 runs only the kernel this CPU selects, so the tests above cover
// one kernel per host. These run each kernel directly: the portable one
// everywhere, the SHA-NI one where the CPU has it.
using sha256_internal::CompressFn;

// The SHA-NI kernel, or null where the CPU lacks it.
CompressFn ShaNiKernel() {
#if defined(__x86_64__)
  if (sha256_internal::CpuHasShaNi()) {
    return sha256_internal::CompressShaNi;
  }
#endif
  return nullptr;
}

// SHA-256 of `message` through `kernel` alone: the padding is done here,
// independently of Sha256::Finalize.
std::string KernelDigest(CompressFn kernel, std::span<const uint8_t> message) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) {
    padded.push_back(0);
  }
  uint8_t bit_length[8];
  StoreBe64(bit_length, uint64_t{message.size()} * 8);
  padded.insert(padded.end(), bit_length, bit_length + 8);
  kernel(state, padded.data(), padded.size() / 64);
  Bytes digest(32);
  for (int i = 0; i < 8; ++i) {
    StoreBe32(digest.data() + 4 * i, state[i]);
  }
  return HexEncode(digest);
}

// FIPS 180-4 example messages (one block, empty, two blocks, the 896-bit
// message and a million 'a').
void ExpectFipsVectors(CompressFn kernel) {
  const struct {
    std::string message;
    const char* digest;
  } vectors[] = {
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(KernelDigest(kernel, AsBytes(v.message)), v.digest)
        << "message length " << v.message.size();
  }
}

TEST(Sha256Kernels, PortableMatchesFipsVectors) {
  ExpectFipsVectors(sha256_internal::CompressPortable);
}

TEST(Sha256Kernels, ShaNiMatchesFipsVectors) {
  const CompressFn sha_ni = ShaNiKernel();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions";
  }
  ExpectFipsVectors(sha_ni);
}

TEST(Sha256Kernels, KernelsAgreeOnRandomMessages) {
  const CompressFn sha_ni = ShaNiKernel();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions";
  }
  ChaChaRng rng(180);
  for (size_t len = 0; len <= 1000; ++len) {
    const Bytes message = rng.RandomBytes(len);
    ASSERT_EQ(KernelDigest(sha_ni, message),
              KernelDigest(sha256_internal::CompressPortable, message))
        << "len=" << len;
  }
}

TEST(Sha256Kernels, KernelsAgreeOnMultiBlockSpans) {
  const CompressFn sha_ni = ShaNiKernel();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions";
  }
  ChaChaRng rng(181);
  for (size_t count = 1; count <= 16; ++count) {
    // A random chaining state, so every word of the state is exercised.
    uint32_t portable[8];
    for (uint32_t& word : portable) {
      word = static_cast<uint32_t>(rng.Uniform(uint64_t{1} << 32));
    }
    uint32_t accelerated[8];
    std::copy(portable, portable + 8, accelerated);
    const Bytes blocks = rng.RandomBytes(count * Sha256::kBlockSize);
    sha256_internal::CompressPortable(portable, blocks.data(), count);
    sha_ni(accelerated, blocks.data(), count);
    EXPECT_TRUE(std::equal(portable, portable + 8, accelerated)) << count << " blocks";
  }
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(HexEncode(Sha512::Hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(HexEncode(Sha512::Hash(AsBytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  auto msg = AsBytes(
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  EXPECT_EQ(HexEncode(Sha512::Hash(msg)),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, IncrementalMatchesOneShot) {
  ChaChaRng rng(11);
  for (size_t len : {0u, 1u, 111u, 112u, 127u, 128u, 129u, 255u, 256u, 2000u}) {
    Bytes data = rng.RandomBytes(len);
    Sha512 h;
    size_t half = len / 2;
    h.Update({data.data(), half});
    h.Update({data.data() + half, len - half});
    EXPECT_EQ(h.Finalize(), Sha512::Hash(data)) << "len=" << len;
  }
}

TEST(HmacSha256, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto tag = HmacSha256(key, AsBytes("Hi There"));
  EXPECT_EQ(HexEncode(tag), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  auto tag = HmacSha256(AsBytes("Jefe"), AsBytes("what do ya want for nothing?"));
  EXPECT_EQ(HexEncode(tag), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  auto tag = HmacSha256(key, data);
  EXPECT_EQ(HexEncode(tag), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashed) {
  // RFC 4231 case 6: 131-byte key.
  Bytes key(131, 0xaa);
  auto tag = HmacSha256(key, AsBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(HexEncode(tag), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, VerifyRejectsTamperedTag) {
  Bytes key(32, 0x42);
  auto msg = AsBytes("ticket for voter 17");
  auto tag = HmacSha256(key, msg);
  EXPECT_TRUE(HmacSha256Verify(key, msg, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(HmacSha256Verify(key, msg, tag));
  EXPECT_FALSE(HmacSha256Verify(key, AsBytes("ticket for voter 18"),
                                HmacSha256(key, msg)));
}

TEST(ChaCha20, Rfc8439Encryption) {
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) {
    key[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
  }
  std::array<uint8_t, 12> nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string_view plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes data(plaintext.begin(), plaintext.end());
  ChaCha20Xor(key, nonce, 1, data);
  // RFC 8439 §2.4.2: the first two ciphertext blocks.
  EXPECT_EQ(HexEncode({data.data(), 32}),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
  // Round trip.
  ChaCha20Xor(key, nonce, 1, data);
  EXPECT_EQ(std::string(data.begin(), data.end()), plaintext);
}

TEST(ChaChaRng, DeterministicAcrossInstances) {
  ChaChaRng a(1234);
  ChaChaRng b(1234);
  EXPECT_EQ(a.RandomBytes(100), b.RandomBytes(100));
  ChaChaRng c(1235);
  EXPECT_NE(ChaChaRng(1234).RandomBytes(100), c.RandomBytes(100));
}

TEST(ChaChaRng, SplitReadsMatchBulkRead) {
  ChaChaRng a(99);
  ChaChaRng b(99);
  Bytes bulk = a.RandomBytes(200);
  Bytes split;
  for (size_t chunk : {1u, 7u, 64u, 63u, 65u}) {
    Bytes part = b.RandomBytes(chunk);
    split.insert(split.end(), part.begin(), part.end());
  }
  ASSERT_EQ(split.size(), 200u);
  EXPECT_EQ(split, bulk);
}

TEST(Rng, UniformStaysInBounds) {
  ChaChaRng rng(5);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_LT(rng.Uniform(bound), bound);
    }
  }
  EXPECT_THROW(rng.Uniform(0), ProtocolError);
}

TEST(Rng, UniformCoversSmallRange) {
  ChaChaRng rng(6);
  bool seen[5] = {false, false, false, false, false};
  for (int i = 0; i < 200; ++i) {
    seen[rng.Uniform(5)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

}  // namespace
}  // namespace votegral
