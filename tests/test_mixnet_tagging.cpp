// Tests for the RPC mix cascade and the deterministic tagging service,
// including forged tallies that only the cascade's shape and length checks
// catch.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/crypto/dkg.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha256.h"
#include "src/votegral/election.h"
#include "src/votegral/mixnet.h"
#include "src/votegral/tagging.h"

namespace votegral {
namespace {

// Builds a batch of `n` width-`w` items encrypting known points, each
// carrying its wire bytes.
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
    item.EnsureWire();
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

TEST(Mixnet, ItemWithoutBytesFailsLikeAnItemWithWrongBytes) {
  // Every item a cascade hashes carries its bytes. An item without them, in
  // the input, a pair's mid or out batch, or the published output, is
  // rejected with the reason a stale item gets, naming its batch and index,
  // at any thread count.
  ChaChaRng rng(138);
  const RistrettoPoint pk = RistrettoPoint::MulBase(Scalar::Random(rng));
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  const MixBatch input = MakeBatch(9, 2, pk, &plaintexts, rng);
  MixProof proof;
  const MixBatch output = RunRpcMixCascade(input, pk, /*pair_count=*/2, rng, &proof);
  struct Case {
    const char* reason;
    void (*strip)(MixBatch& input, MixProof& proof, MixBatch& output);
  };
  const Case cases[] = {
      {"mixnet: input: wire cache does not match points at index 3",
       [](MixBatch& in, MixProof&, MixBatch&) { in[3].wire.clear(); }},
      {"mixnet: pair 1 mid: wire cache does not match points at index 5",
       [](MixBatch&, MixProof& p, MixBatch&) { p.pairs[1].mid[5].wire.clear(); }},
      {"mixnet: pair 0 out: wire cache does not match points at index 2",
       [](MixBatch&, MixProof& p, MixBatch&) { p.pairs[0].out[2].wire.clear(); }},
      {"mixnet: published output: wire cache does not match points at index 8",
       [](MixBatch&, MixProof&, MixBatch& out) { out[8].wire.clear(); }},
  };
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Executor executor(threads);
    ASSERT_TRUE(
        VerifyRpcMixCascade(input, output, proof, pk, MixLinkCheck::kBatchedMsm, executor).ok());
    for (const Case& c : cases) {
      MixBatch bad_input = input;
      MixProof bad_proof = proof;
      MixBatch bad_output = output;
      c.strip(bad_input, bad_proof, bad_output);
      EXPECT_EQ(VerifyRpcMixCascade(bad_input, bad_output, bad_proof, pk,
                                    MixLinkCheck::kBatchedMsm, executor)
                    .reason(),
                c.reason);
    }
  }
}

// Cuts the batch's ciphertexts (and wire caches) again at `widths`: the
// bytes stay the same, only the item boundaries move.
MixBatch Rechunk(const MixBatch& batch, const std::vector<size_t>& widths) {
  std::vector<ElGamalCiphertext> cts;
  Bytes wire;
  for (const MixItem& item : batch) {
    cts.insert(cts.end(), item.cts.begin(), item.cts.end());
    wire.insert(wire.end(), item.wire.begin(), item.wire.end());
  }
  Require(wire.size() == 64 * cts.size(), "test: every item needs its wire cache");
  MixBatch out;
  size_t at = 0;
  for (size_t width : widths) {
    Require(at + width <= cts.size(), "test: widths overrun the batch");
    MixItem item;
    item.cts.assign(cts.begin() + static_cast<ptrdiff_t>(at),
                    cts.begin() + static_cast<ptrdiff_t>(at + width));
    item.wire.assign(wire.begin() + static_cast<ptrdiff_t>(64 * at),
                     wire.begin() + static_cast<ptrdiff_t>(64 * (at + width)));
    out.push_back(std::move(item));
    at += width;
  }
  Require(at == cts.size(), "test: widths must cover the batch");
  return out;
}

TEST(Mixnet, RechunkedBatchesAreRejectedByTheirShape) {
  // HashMixBatch runs the items' bytes together, so a re-chunked batch keeps
  // its hash; the verifier's shape check is what rejects it.
  ChaChaRng rng(137);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  std::vector<std::vector<RistrettoPoint>> plaintexts;
  MixBatch input = MakeBatch(4, 2, pk, &plaintexts, rng);
  MixProof proof;
  MixBatch output = RunRpcMixCascade(input, pk, 2, rng, &proof);
  ASSERT_TRUE(VerifyRpcMixCascade(input, output, proof, pk).ok());

  MixBatch merged = Rechunk(output, {2, 4, 2});
  MixBatch moved = Rechunk(output, {2, 3, 1, 2});
  MixProof rechunked_pair = proof;
  rechunked_pair.pairs[0].out = Rechunk(proof.pairs[0].out, {2, 3, 1, 2});
  EXPECT_EQ(HashMixBatch(merged), HashMixBatch(output));
  EXPECT_EQ(HashMixBatch(moved), HashMixBatch(output));
  EXPECT_EQ(HashMixBatch(rechunked_pair.pairs[0].out), HashMixBatch(proof.pairs[0].out));

  EXPECT_EQ(VerifyRpcMixCascade(input, merged, proof, pk).reason(),
            "mixnet: published output has 3 items, expected 4");
  EXPECT_EQ(VerifyRpcMixCascade(input, moved, proof, pk).reason(),
            "mixnet: published output item 1 has width 3, expected 2");
  EXPECT_EQ(VerifyRpcMixCascade(input, output, rechunked_pair, pk).reason(),
            "mixnet: pair 0 out item 1 has width 3, expected 2");
}

// Recomputes everything downstream of the published ballot mix output the
// way an honest committee and authority would: the tagging chain, the tag
// decryptions, the join against the published roster tags, the vote
// decryptions and the counts. A forger holding the secrets publishes this.
void RetallyBallots(TallyOutput& out, const ElectionAuthority& authority,
                    const TaggingService& tagging, const CandidateList& candidates, Rng& rng) {
  TallyTranscript& t = out.transcript;
  auto decrypt = [&](const ElGamalCiphertext& ct, std::vector<DecryptionShare>& shares) {
    for (size_t m = 0; m < authority.size(); ++m) {
      shares.push_back(authority.ComputeShare(m, ct, rng));
    }
    return authority.CombineShares(ct, shares).Encode();
  };
  t.ballot_tag_steps.clear();
  const std::vector<ElGamalCiphertext> tagged =
      tagging.ApplyAll(BatchColumn(t.ballot_mix_output, 1), &t.ballot_tag_steps, rng);
  t.ballot_tag_shares.assign(tagged.size(), {});
  t.ballot_tags.clear();
  for (size_t i = 0; i < tagged.size(); ++i) {
    t.ballot_tags.push_back(decrypt(tagged[i], t.ballot_tag_shares[i]));
  }
  std::map<CompressedRistretto, uint64_t> roster;
  for (const CompressedRistretto& tag : t.roster_tags) {
    ++roster[tag];
  }
  t.counted_indices.clear();
  t.counted_weights.clear();
  t.vote_shares.clear();
  t.vote_points.clear();
  out.result = TallyResult();
  for (size_t c = 0; c < candidates.size(); ++c) {
    out.result.counts[candidates.name(c)] = 0;
  }
  for (size_t i = 0; i < t.ballot_tags.size(); ++i) {
    auto it = roster.find(t.ballot_tags[i]);
    if (it == roster.end() || it->second == 0) {
      continue;
    }
    const uint64_t weight = it->second;
    it->second = 0;
    t.counted_indices.push_back(i);
    t.counted_weights.push_back(weight);
    t.vote_shares.emplace_back();
    t.vote_points.push_back(decrypt(t.ballot_mix_output[i].cts.at(0), t.vote_shares.back()));
    if (auto c = candidates.IndexOfEncoding(t.vote_points.back()); c.has_value()) {
      out.result.counts[candidates.name(*c)] += weight;
      out.result.counted += weight;
    }
  }
}

TEST(MixnetEndToEnd, ForgedButConsistentTalliesFailAtTheBallotMix) {
  // Four voters; the tally runs on this test's own tagging committee, so
  // the test holds every secret a forger needs to make the rest of the
  // transcript consistent with a forged mix output.
  ChaChaRng rng(0xC4A5CADE);
  ElectionConfig config;
  config.roster = {"alice", "bob", "carol", "dave"};
  config.candidates = {"Alpha", "Beta"};
  config.threads = 1;
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  const char* choices[] = {"Alpha", "Beta", "Alpha", "Beta"};
  for (size_t i = 0; i < config.roster.size(); ++i) {
    auto voter = election.Register(config.roster[i], /*fake_count=*/1, vsd, rng);
    ASSERT_TRUE(voter.ok()) << voter.status.reason();
    ASSERT_TRUE(election.Cast(voter->activated[0], choices[i], rng).ok());
  }
  const TaggingService tagging = TaggingService::Create(4, rng);
  const ElectionAuthority& authority = election.trip().authority();
  Executor executor(1);
  TallyService service(authority, tagging, executor);
  Outcome<TallyOutput> honest = service.Run(election.ledger(), election.candidates(),
                                            election.trip().authorized_kiosks(), rng);
  ASSERT_TRUE(honest.ok()) << honest.status.reason();
  VerifierParams params = election.verifier_params();
  params.tagging_commitments = tagging.commitments();
  auto verify = [&](const TallyOutput& out) {
    return VerifyElection(election.ledger(), params, election.candidates(), out, executor);
  };
  ASSERT_TRUE(verify(*honest).ok());
  ASSERT_EQ(honest->result.counted, 4u);

  // Items 1 and 2 of the ballot mix output merged into one width-4 item:
  // the output hash holds, and the merged item's second ballot is dropped.
  TallyOutput merged = *honest;
  MixBatch& mixed = merged.transcript.ballot_mix_output;
  ASSERT_EQ(mixed.size(), 4u);
  mixed = Rechunk(mixed, {2, 4, 2});
  RetallyBallots(merged, authority, tagging, election.candidates(), rng);
  EXPECT_EQ(merged.result.counted, 3u);
  EXPECT_EQ(verify(merged).reason(),
            "verifier: ballot mix: mixnet: published output has 3 items, expected 4");

  // A one-pair cascade (two shufflers instead of four), consistent end to
  // end: only the cascade length tells.
  TallyOutput short_cascade = *honest;
  MixProof& proof = short_cascade.transcript.ballot_mix_proof;
  proof.pairs.resize(1);
  short_cascade.transcript.ballot_mix_output = proof.pairs[0].out;
  RetallyBallots(short_cascade, authority, tagging, election.candidates(), rng);
  EXPECT_EQ(short_cascade.result.counted, 4u);
  EXPECT_EQ(verify(short_cascade).reason(),
            "verifier: ballot mix: cascade has 1 pairs, expected 2");
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

TEST(Tagging, OutputWireCacheMustBeTheCanonicalEncodingOfItsPoint) {
  // The cache is checked as bytes == Encode(point): the encoding of the
  // negated point and a non-canonical string are both rejected, at their
  // step and index.
  ChaChaRng rng(144);
  auto authority = ElectionAuthority::Create(2, rng);
  auto tagging = TaggingService::Create(2, rng);
  std::vector<ElGamalCiphertext> cts;
  for (int i = 0; i < 4; ++i) {
    cts.push_back(ElGamalEncrypt(authority.public_key(),
                                 RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)), rng));
  }
  std::vector<TaggingStep> steps;
  (void)tagging.ApplyAll(cts, &steps, rng);
  ASSERT_EQ(steps[0].output_wire.size(), cts.size());
  ASSERT_EQ(steps[1].output_wire.size(), cts.size());
  ASSERT_TRUE(TaggingService::VerifyChain(cts, steps, tagging.commitments()).ok());

  std::vector<TaggingStep> negated = steps;
  const CompressedRistretto minus_c1 = (-negated[1].output[2].c1).Encode();
  std::copy(minus_c1.begin(), minus_c1.end(), negated[1].output_wire[2].begin());
  EXPECT_EQ(TaggingService::VerifyChain(cts, negated, tagging.commitments()).reason(),
            "tagging: step 1 output wire cache does not match ciphertexts at index 2");

  std::vector<TaggingStep> non_canonical = steps;
  non_canonical[0].output_wire[3][63] |= 0x80;  // top bit of the c2 encoding
  EXPECT_EQ(TaggingService::VerifyChain(cts, non_canonical, tagging.commitments()).reason(),
            "tagging: step 0 output wire cache does not match ciphertexts at index 3");
}

TEST(Tagging, StepOrProofWithoutBytesFailsLikeOneWithWrongBytes) {
  // A step's outputs without their bytes fail with the reason of a stale
  // output, naming the step and its first output without bytes; a proof
  // without its commit bytes is named by the per-step path. Both at any
  // thread count.
  ChaChaRng rng(145);
  auto authority = ElectionAuthority::Create(2, rng);
  auto tagging = TaggingService::Create(3, rng);
  std::vector<ElGamalCiphertext> cts;
  for (int i = 0; i < 6; ++i) {
    cts.push_back(ElGamalEncrypt(authority.public_key(),
                                 RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)), rng));
  }
  std::vector<TaggingStep> steps;
  (void)tagging.ApplyAll(cts, &steps, rng);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Executor executor(threads);
    ASSERT_TRUE(TaggingService::VerifyChain(cts, steps, tagging.commitments(), executor).ok());

    std::vector<TaggingStep> no_outputs = steps;
    no_outputs[1].output_wire.clear();
    EXPECT_EQ(TaggingService::VerifyChain(cts, no_outputs, tagging.commitments(), executor)
                  .reason(),
              "tagging: step 1 output wire cache does not match ciphertexts at index 0");

    std::vector<TaggingStep> no_commits = steps;
    no_commits[2].proofs[4].commit_wire.clear();
    EXPECT_EQ(TaggingService::VerifyChain(cts, no_commits, tagging.commitments(), executor)
                  .reason(),
              "tagging: proof 4 invalid: dleq: commit wire cache does not match point at index 0");
  }
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
