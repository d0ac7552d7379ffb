// Golden transcript digests of two elections large enough that every mix,
// tagging and decryption shard holds several items: a legacy one and a
// revoting one, each with 300 voters and about 650 ballots. The small golden
// elections (test_parallel_tally, test_revote) put one item in each shard,
// so a prover's batch there holds one statement and the batched group
// kernels run in partial groups or not at all. Here every per-table batch
// spans more than one group of eight, and the digests pin the order of
// every draw inside a shard: a mix shard's randomness in (item, component)
// order, a member's decryption nonces in ciphertext order.
//
// Both digests were recorded before the batched fixed-base and encode
// kernels existed; they must read the same at 1 and 8 threads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/votegral/election.h"
#include "tests/transcript_digest.h"

namespace votegral {
namespace {

constexpr size_t kVoters = 300;

struct Tallied {
  std::string digest;  // DigestTranscriptWithWire, hex
  bool verified = false;
  TallyResult result;
};

// Every voter registers with one fake credential and casts a real ballot and
// a decoy; every seventh voter casts again with the real credential. About
// 650 ballots reach the mix, ten or so per shard.
Tallied RunElection(bool revoting, size_t threads) {
  ChaChaRng rng(revoting ? 0x5CA1E2 : 0x5CA1E1);
  ElectionConfig config;
  for (size_t i = 0; i < kVoters; ++i) {
    config.roster.push_back("voter-" + std::to_string(i));
  }
  config.candidates = {"Alpha", "Beta", "Gamma"};
  config.revoting = revoting;
  config.threads = threads;
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  for (size_t i = 0; i < kVoters; ++i) {
    auto voter = election.Register(config.roster[i], /*fake_count=*/1, vsd, rng);
    EXPECT_TRUE(voter.ok()) << voter.status.reason();
    EXPECT_TRUE(election.Cast(voter->activated[0], config.candidates[i % 3], rng).ok());
    EXPECT_TRUE(election.Cast(voter->activated[1], "Gamma", rng).ok());
    if (i % 7 == 0) {
      EXPECT_TRUE(election.Cast(voter->activated[0], config.candidates[(i + 1) % 3], rng).ok());
    }
  }
  ChaChaRng tally_rng(revoting ? 0x5CA1E4 : 0x5CA1E3);
  TallyOutput output = election.Tally(tally_rng);
  Tallied out;
  out.digest = HexEncode(DigestTranscriptWithWire(output));
  out.verified = election.Verify(output).ok();
  out.result = output.result;
  return out;
}

constexpr const char* kLegacyDigestHex =
    "ac6ccabb726e4d37ccd5f195f6d6374a1a84302bc344d9e704c6b528c8a35ab8";
constexpr const char* kRevoteDigestHex =
    "3fc3b0f03c006eccb5676f75105ec71a24fee624f32a32baa316c5ddda2afa17";

TEST(TranscriptAtScale, LegacyElection) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    Tallied tallied = RunElection(/*revoting=*/false, threads);
    EXPECT_TRUE(tallied.verified) << "threads=" << threads;
    EXPECT_EQ(tallied.result.counted, kVoters) << "threads=" << threads;
    EXPECT_EQ(tallied.digest, kLegacyDigestHex) << "threads=" << threads;
  }
}

TEST(TranscriptAtScale, RevoteElection) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    Tallied tallied = RunElection(/*revoting=*/true, threads);
    EXPECT_TRUE(tallied.verified) << "threads=" << threads;
    EXPECT_EQ(tallied.result.counted, kVoters) << "threads=" << threads;
    EXPECT_EQ(tallied.digest, kRevoteDigestHex) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace votegral
