// Tests for the RPC mix cascade and the deterministic tagging service.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/crypto/dkg.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha256.h"
#include "src/votegral/mixnet.h"
#include "src/votegral/tagging.h"

namespace votegral {
namespace {

// Builds a batch of `n` width-`w` items encrypting known points.
MixBatch MakeBatch(size_t n, size_t width, const RistrettoPoint& pk,
                   std::vector<std::vector<RistrettoPoint>>* plaintexts, Rng& rng) {
  MixBatch batch;
  plaintexts->clear();
  for (size_t i = 0; i < n; ++i) {
    MixItem item;
    std::vector<RistrettoPoint> row;
    for (size_t c = 0; c < width; ++c) {
      RistrettoPoint m = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
      row.push_back(m);
      item.cts.push_back(ElGamalEncrypt(pk, m, rng));
    }
    plaintexts->push_back(std::move(row));
    batch.push_back(std::move(item));
  }
  return batch;
}

// Decrypts a batch and returns sorted encodings of the first column.
std::vector<std::string> DecryptColumn(const MixBatch& batch, const Scalar& sk,
                                       size_t column) {
  std::vector<std::string> out;
  for (const MixItem& item : batch) {
    out.push_back(HexEncode(ElGamalDecrypt(sk, item.cts.at(column)).Encode()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Mixnet, ShufflePreservesPlaintextMultiset) {
  ChaChaRng rng(130);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(20, 2, pk, &plaintexts, rng);

  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, pk, /*pair_count=*/2, rng, &proof);
  ASSERT_EQ(output.size(), input.size());
  for (size_t column = 0; column < 2; ++column) {
    EXPECT_EQ(DecryptColumn(input, sk, column), DecryptColumn(output, sk, column));
  }
}

TEST(Mixnet, BundleColumnsStayAligned) {
  // The vote and credential ciphertexts of one ballot must travel together.
  ChaChaRng rng(131);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(15, 2, pk, &plaintexts, rng);
  std::map<std::string, std::string> pairing;
  for (const auto& row : plaintexts) {
    pairing[HexEncode(row[0].Encode())] = HexEncode(row[1].Encode());
  }
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, pk, 2, rng, &proof);
  for (const MixItem& item : output) {
    auto a = HexEncode(ElGamalDecrypt(sk, item.cts[0]).Encode());
    auto b = HexEncode(ElGamalDecrypt(sk, item.cts[1]).Encode());
    ASSERT_TRUE(pairing.count(a) > 0);
    EXPECT_EQ(pairing[a], b);
  }
}

TEST(Mixnet, ProofVerifies) {
  ChaChaRng rng(132);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(12, 1, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, pk, 2, rng, &proof);
  EXPECT_TRUE(VerifyRpcMixCascade(input, output, proof, pk).ok());
}

TEST(Mixnet, TamperedRevealRandomnessRejectedInBothModes) {
  // A reveal whose randomness does not match the committed re-encryption
  // must be rejected by the batched-MSM link check (which then localizes
  // via the per-link path) and by the per-link mode directly.
  ChaChaRng rng(136);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(12, 2, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, pk, 1, rng, &proof);
  ASSERT_TRUE(VerifyRpcMixCascade(input, output, proof, pk).ok());

  MixProof tampered = proof;
  tampered.pairs[0].reveals[3].randomness[1] =
      tampered.pairs[0].reveals[3].randomness[1] + Scalar::One();
  Status batched =
      VerifyRpcMixCascade(input, output, tampered, pk, MixLinkCheck::kBatchedMsm);
  EXPECT_FALSE(batched.ok());
  // The fallback names the exact failing link.
  EXPECT_NE(batched.reason().find("re-encryption check failed"), std::string::npos)
      << batched.reason();
  EXPECT_FALSE(
      VerifyRpcMixCascade(input, output, tampered, pk, MixLinkCheck::kPerLink).ok());

  // Wrong randomness *width* is a Status failure, not a ProtocolError.
  MixProof truncated = proof;
  truncated.pairs[0].reveals[3].randomness.resize(1);
  Status width = VerifyRpcMixCascade(input, output, truncated, pk);
  EXPECT_FALSE(width.ok());
  EXPECT_NE(width.reason().find("randomness width mismatch"), std::string::npos)
      << width.reason();
}

TEST(Mixnet, TamperedOutputRejected) {
  ChaChaRng rng(133);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  // Enough items that RPC detection is essentially certain when all are
  // tampered (each tampered link is caught with probability 1/2).
  MixBatch input = MakeBatch(40, 1, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, pk, 2, rng, &proof);

  // Substituting ballots wholesale in the final output: detected because the
  // published output hash no longer matches the proof's last layer.
  MixBatch forged = output;
  for (MixItem& item : forged) {
    item.cts[0] = ElGamalEncrypt(pk, RistrettoPoint::Base(), rng);
  }
  EXPECT_FALSE(VerifyRpcMixCascade(input, forged, proof, pk).ok());
}

TEST(Mixnet, CheatingMixerCaughtWithHighProbability) {
  // A mixer that replaces items *inside* the cascade must forge reveals;
  // with 32 replaced items the escape probability is 2^-32.
  ChaChaRng rng(134);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(32, 1, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, pk, 1, rng, &proof);

  // Tamper with the middle layer of the (only) pair: swap in fresh
  // encryptions. The reveals now point at re-encryptions that don't check.
  for (MixItem& item : proof.pairs[0].mid) {
    item.cts[0] = ElGamalEncrypt(pk, RistrettoPoint::Base(), rng);
  }
  EXPECT_FALSE(VerifyRpcMixCascade(input, output, proof, pk).ok());
}

TEST(Mixnet, RevealsOpenOnlyOneSidePerItem) {
  // Privacy: for every middle item exactly one adjacent link is opened.
  ChaChaRng rng(135);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(64, 1, pk, &plaintexts, rng);
  MixProof proof;
  (void)RunRpcMixCascade(input, pk, 2, rng, &proof);
  for (const RpcPairProof& pair : proof.pairs) {
    ASSERT_EQ(pair.reveals.size(), input.size());
    size_t left = 0;
    size_t right = 0;
    for (const RpcReveal& reveal : pair.reveals) {
      (reveal.side == 0 ? left : right) += 1;
    }
    // Challenge bits are ~uniform: both sides occur, neither dominates
    // completely (this is the "never both" structural property).
    EXPECT_EQ(left + right, input.size());
    EXPECT_GT(left, 10u);
    EXPECT_GT(right, 10u);
  }
}

TEST(Mixnet, EmptyAndSingletonBatches) {
  ChaChaRng rng(136);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  // Singleton batch still round-trips.
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch one = MakeBatch(1, 2, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch out = RunRpcMixCascade(one, pk, 2, rng, &proof);
  EXPECT_TRUE(VerifyRpcMixCascade(one, out, proof, pk).ok());
  EXPECT_TRUE(ElGamalDecrypt(sk, out[0].cts[0]) == plaintexts[0][0]);
  // Empty batch: trivially fine.
  MixBatch empty;
  MixProof empty_proof;
  MixBatch empty_out = RunRpcMixCascade(empty, pk, 2, rng, &empty_proof);
  EXPECT_TRUE(empty_out.empty());
  EXPECT_TRUE(VerifyRpcMixCascade(empty, empty_out, empty_proof, pk).ok());
}

TEST(Tagging, SamePlaintextSameTag) {
  ChaChaRng rng(140);
  auto authority = ElectionAuthority::Create(4, rng);
  auto tagging = TaggingService::Create(4, rng);
  RistrettoPoint credential = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  RistrettoPoint other = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));

  // Two independent encryptions of the same credential + one of another.
  std::vector<ElGamalCiphertext> cts = {
      ElGamalEncrypt(authority.public_key(), credential, rng),
      ElGamalEncrypt(authority.public_key(), credential, rng),
      ElGamalEncrypt(authority.public_key(), other, rng),
  };
  std::vector<TaggingStep> steps;
  auto tagged = tagging.ApplyAll(cts, &steps, rng);
  ASSERT_EQ(tagged.size(), 3u);
  auto tag0 = authority.Decrypt(tagged[0]).Encode();
  auto tag1 = authority.Decrypt(tagged[1]).Encode();
  auto tag2 = authority.Decrypt(tagged[2]).Encode();
  EXPECT_EQ(tag0, tag1);
  EXPECT_NE(tag0, tag2);
  // And the tag is Z·M for Z = Πz_t.
  EXPECT_EQ(tag0, (tagging.CombinedExponent() * credential).Encode());
}

TEST(Tagging, ChainVerifies) {
  ChaChaRng rng(141);
  auto authority = ElectionAuthority::Create(3, rng);
  auto tagging = TaggingService::Create(3, rng);
  std::vector<ElGamalCiphertext> cts;
  for (int i = 0; i < 5; ++i) {
    cts.push_back(ElGamalEncrypt(authority.public_key(),
                                 RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)), rng));
  }
  std::vector<TaggingStep> steps;
  (void)tagging.ApplyAll(cts, &steps, rng);
  EXPECT_TRUE(TaggingService::VerifyChain(cts, steps, tagging.commitments()).ok());
}

TEST(Tagging, CheatingTaggerDetected) {
  ChaChaRng rng(142);
  auto authority = ElectionAuthority::Create(3, rng);
  auto tagging = TaggingService::Create(3, rng);
  std::vector<ElGamalCiphertext> cts = {
      ElGamalEncrypt(authority.public_key(), RistrettoPoint::Base(), rng)};
  std::vector<TaggingStep> steps;
  (void)tagging.ApplyAll(cts, &steps, rng);

  // Substitute a different ciphertext in step 1's output: the proof for that
  // item no longer verifies (and step 2's input check breaks too).
  std::vector<TaggingStep> forged = steps;
  forged[1].output[0] = ElGamalEncrypt(authority.public_key(), RistrettoPoint::Base(), rng);
  EXPECT_FALSE(TaggingService::VerifyChain(cts, forged, tagging.commitments()).ok());

  // A tagger using a different exponent than committed is also caught.
  std::vector<TaggingStep> wrong_exp = steps;
  Scalar bogus = Scalar::Random(rng);
  wrong_exp[0].output[0] = cts[0].ExponentiateBy(bogus);
  EXPECT_FALSE(TaggingService::VerifyChain(cts, wrong_exp, tagging.commitments()).ok());
}

TEST(Tagging, StepsOutOfOrderRejected) {
  ChaChaRng rng(143);
  auto authority = ElectionAuthority::Create(2, rng);
  auto tagging = TaggingService::Create(2, rng);
  std::vector<ElGamalCiphertext> cts = {
      ElGamalEncrypt(authority.public_key(), RistrettoPoint::Base(), rng)};
  std::vector<TaggingStep> steps;
  (void)tagging.ApplyAll(cts, &steps, rng);
  std::swap(steps[0], steps[1]);
  EXPECT_FALSE(TaggingService::VerifyChain(cts, steps, tagging.commitments()).ok());
}

// Parameterized: mix + tag across batch sizes, checking the join property
// end to end (same credential ends with same tag after mixing).
class MixTagJoin : public ::testing::TestWithParam<size_t> {};

TEST_P(MixTagJoin, TagsSurviveMixing) {
  size_t n = GetParam();
  ChaChaRng rng(144 + n);
  auto authority = ElectionAuthority::Create(4, rng);
  auto tagging = TaggingService::Create(4, rng);
  RistrettoPoint pk = authority.public_key();

  // Roster: n credentials. Ballot side: same credentials, freshly wrapped.
  std::vector<RistrettoPoint> credentials;
  MixBatch roster;
  MixBatch ballots;
  for (size_t i = 0; i < n; ++i) {
    RistrettoPoint c = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
    credentials.push_back(c);
    roster.push_back(MixItem{{ElGamalEncrypt(pk, c, rng)}});
    ballots.push_back(MixItem{{ElGamalTrivialEncrypt(c)}});
  }
  MixProof p1;
  MixProof p2;
  MixBatch roster_mixed = RunRpcMixCascade(roster, pk, 2, rng, &p1);
  MixBatch ballots_mixed = RunRpcMixCascade(ballots, pk, 2, rng, &p2);

  auto column = [](const MixBatch& b) {
    std::vector<ElGamalCiphertext> out;
    for (const auto& item : b) {
      out.push_back(item.cts[0]);
    }
    return out;
  };
  std::vector<TaggingStep> steps;
  auto roster_tagged = tagging.ApplyAll(column(roster_mixed), &steps, rng);
  auto ballots_tagged = tagging.ApplyAll(column(ballots_mixed), &steps, rng);

  std::set<std::string> roster_tags;
  for (const auto& ct : roster_tagged) {
    roster_tags.insert(HexEncode(authority.Decrypt(ct).Encode()));
  }
  size_t matched = 0;
  for (const auto& ct : ballots_tagged) {
    matched += roster_tags.count(HexEncode(authority.Decrypt(ct).Encode()));
  }
  EXPECT_EQ(matched, n);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MixTagJoin, ::testing::Values(1, 2, 5, 16));

// Everything the stage-wide drivers emit: the cascade's output and proof
// (mid/out batches with their wire caches, every reveal) and the tagging
// chain (each step's outputs, output wires and proofs).
std::array<uint8_t, 32> DigestDrivers(const MixBatch& output, const MixProof& proof,
                                      const std::vector<TaggingStep>& steps) {
  Sha256 h;
  auto hash_batch = [&](const MixBatch& batch) {
    for (const MixItem& item : batch) {
      for (const ElGamalCiphertext& ct : item.cts) {
        h.Update(ct.Serialize());
      }
      h.Update(item.wire);
    }
  };
  hash_batch(output);
  for (const RpcPairProof& pair : proof.pairs) {
    hash_batch(pair.mid);
    hash_batch(pair.out);
    for (const RpcReveal& reveal : pair.reveals) {
      uint8_t header[9] = {reveal.side};
      StoreLe64(header + 1, reveal.source_or_dest);
      h.Update(header);
      for (const Scalar& r : reveal.randomness) {
        h.Update(r.ToBytes());
      }
    }
  }
  for (const TaggingStep& step : steps) {
    for (size_t i = 0; i < step.output.size(); ++i) {
      h.Update(step.output[i].Serialize());
      h.Update(step.output_wire[i]);
      h.Update(step.proofs[i].Serialize());
    }
  }
  return h.Finalize();
}

// RunRpcMixCascade + ApplyAll, the drivers the baselines and benches call.
// The digest was recorded when each mix layer and tagging member still ran
// through a whole-list method of its own, so it pins the drivers' rng use
// and bytes across that rewrite. 131 items over 64 shards gives shards of 2
// and 3 items.
TEST(StageWideDrivers, CascadeAndTaggingChainKeepTheirBytes) {
  constexpr const char* kDriversDigestHex =
      "0bd949162b22adcb368e42b829a3a83abff0882338ee6914c315dfb10befef14";
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Executor executor(threads);
    ChaChaRng rng(0x5D7A6E);
    auto authority = ElectionAuthority::Create(3, rng);
    auto tagging = TaggingService::Create(3, rng);
    const RistrettoPoint pk = authority.public_key();
    std::vector<std::vector<RistrettoPoint>> plaintexts;
    MixBatch input = MakeBatch(131, 2, pk, &plaintexts, rng);
    MixProof proof;
    MixBatch output = RunRpcMixCascade(input, pk, /*pair_count=*/2, rng, &proof, executor);
    std::vector<TaggingStep> steps;
    (void)tagging.ApplyAll(BatchColumn(output, 1), &steps, rng, executor,
                           BatchColumnWire(output, 1));
    ASSERT_EQ(steps.size(), 3u);
    EXPECT_EQ(HexEncode(DigestDrivers(output, proof, steps)), kDriversDigestHex);
  }
}

}  // namespace
}  // namespace votegral
