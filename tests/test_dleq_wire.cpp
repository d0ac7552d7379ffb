// Tests for the wire-byte DLEQ transcript layer (docs/TRANSCRIPTS.md §DLEQ):
//  * the challenge hashed from bytes is the encode-per-point one, bit for bit,
//  * with complete statement bytes, verification performs ZERO point
//    encodings and ZERO decodes — pinned by the ristretto invocation
//    counters, not by comments,
//  * missing, forged or stale commit bytes are rejected with a localized
//    failure (the MixItem rule), never silently hashed,
//  * Serialize/Parse round-trip the commit bytes, which are the wire format.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/serde.h"
#include "src/crypto/batch.h"
#include "src/crypto/dkg.h"
#include "src/crypto/dleq.h"
#include "src/crypto/drbg.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/sha512.h"
#include "src/votegral/tagging.h"

namespace votegral {
namespace {

DleqStatement TrueStatement(const Scalar& x, Rng& rng) {
  RistrettoPoint g1 = RistrettoPoint::Base();
  RistrettoPoint g2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  return DleqStatement::MakePair(g1, x * g1, g2, x * g2);
}

// One fully wire-backed FS proof over a fresh true statement.
struct WireProof {
  DleqStatement statement;
  DleqTranscript transcript;
};

WireProof MakeWireProof(std::string_view domain, Rng& rng) {
  Scalar x = Scalar::Random(rng);
  WireProof p;
  p.statement = TrueStatement(x, rng);
  p.statement.EnsureWire();
  p.transcript = ProveDleqFs(domain, p.statement, x, rng);
  return p;
}

// The encode-per-point challenge: the domain, a zero separator, then every
// base, public and commit encoded (with no extra context).
Scalar EncodePerPointChallenge(std::string_view domain, const DleqStatement& statement,
                               std::span<const RistrettoPoint> commits) {
  Sha512 h;
  h.Update(AsBytes(domain));
  const uint8_t separator = 0;
  h.Update({&separator, 1});
  for (const auto* section : {&statement.bases, &statement.publics}) {
    for (const RistrettoPoint& point : *section) {
      h.Update(point.Encode());
    }
  }
  for (const RistrettoPoint& commit : commits) {
    h.Update(commit.Encode());
  }
  return Scalar::FromBytesWide(h.Finalize());
}

TEST(DleqWire, WireAndLegacyChallengePathsAgree) {
  ChaChaRng rng(90);
  Scalar x = Scalar::Random(rng);
  DleqStatement cached = TrueStatement(x, rng);
  cached.EnsureWire();
  DleqStatement bare = cached;
  bare.base_wire.clear();
  bare.public_wire.clear();

  DleqProver prover(cached, x, rng);
  Scalar with_wire = DeriveFsChallenge("test/wire", cached, prover.commits(),
                                       prover.commit_wire(), {});
  Scalar bare_statement = DeriveFsChallenge("test/wire", bare, prover.commits(),
                                            prover.commit_wire(), {});
  Scalar legacy = EncodePerPointChallenge("test/wire", cached, prover.commits());
  EXPECT_EQ(with_wire, legacy);
  EXPECT_EQ(bare_statement, legacy);

  // And a proof made over the cached statement verifies against the bare one
  // (same bytes hashed either way).
  DleqTranscript t = ProveDleqFs("test/wire", cached, x, rng);
  EXPECT_TRUE(VerifyDleqFs("test/wire", bare, t).ok());
}

TEST(DleqWire, EnsureWireAndValidateWireRoundTrip) {
  ChaChaRng rng(91);
  WireProof p = MakeWireProof("test/roundtrip", rng);
  EXPECT_EQ(p.statement.base_wire.size(), p.statement.bases.size());
  EXPECT_EQ(p.statement.public_wire.size(), p.statement.publics.size());
  EXPECT_EQ(p.transcript.commit_wire.size(), p.transcript.commits.size());
  EXPECT_TRUE(p.transcript.ValidateWire().ok());
}

TEST(DleqWire, VerifyPerformsZeroEncodesWithCompleteCaches) {
  ChaChaRng rng(92);
  WireProof p = MakeWireProof("test/zero-encode", rng);
  uint64_t enc0 = RistrettoEncodeInvocations();
  uint64_t dec0 = RistrettoDecodeInvocations();
  EXPECT_TRUE(VerifyDleqFs("test/zero-encode", p.statement, p.transcript).ok());
  // Challenge derivation is SHA-only, and the commit bytes are validated by
  // BatchValidateEncodings: no decode either.
  EXPECT_EQ(RistrettoEncodeInvocations() - enc0, 0u);
  EXPECT_EQ(RistrettoDecodeInvocations() - dec0, 0u);
}

TEST(DleqWire, BatchVerifyPerformsZeroEncodesWithCompleteCaches) {
  ChaChaRng rng(93);
  std::vector<DleqBatchEntry> entries;
  size_t commits = 0;
  for (int i = 0; i < 16; ++i) {
    WireProof p = MakeWireProof("test/batch-zero", rng);
    DleqBatchEntry entry;
    entry.domain = "test/batch-zero";
    entry.statement = std::move(p.statement);
    entry.transcript = std::move(p.transcript);
    commits += entry.transcript.commits.size();
    entries.push_back(std::move(entry));
  }
  RistrettoPoint::BaseWire();  // one-time lazy init, not part of the batch cost
  uint64_t enc0 = RistrettoEncodeInvocations();
  uint64_t dec0 = RistrettoDecodeInvocations();
  EXPECT_TRUE(BatchVerifyDleq(entries, rng).ok());
  EXPECT_EQ(RistrettoEncodeInvocations() - enc0, 0u);
  // Commit-cache validation runs as one accumulator pass over the cached
  // bytes (BatchValidateEncodings): no per-commit decode either.
  EXPECT_EQ(RistrettoDecodeInvocations() - dec0, 0u);
  (void)commits;
}

TEST(DleqWire, CachelessEntriesStillVerifyViaEncodeFallback) {
  ChaChaRng rng(94);
  std::vector<DleqBatchEntry> entries;
  for (int i = 0; i < 4; ++i) {
    WireProof p = MakeWireProof("test/fallback", rng);
    DleqBatchEntry entry;
    entry.domain = "test/fallback";
    entry.statement = std::move(p.statement);
    entry.transcript = std::move(p.transcript);
    // Strip the statement bytes, which stay optional: the statement is
    // encoded as it is hashed, and the commits are hashed from their bytes.
    entry.statement.base_wire.clear();
    entry.statement.public_wire.clear();
    entries.push_back(std::move(entry));
  }
  uint64_t enc0 = RistrettoEncodeInvocations();
  EXPECT_TRUE(BatchVerifyDleq(entries, rng).ok());
  EXPECT_GT(RistrettoEncodeInvocations() - enc0, 0u);  // fallback really encodes
}

TEST(DleqWire, ForgedCommitWireRejectedAndLocalized) {
  ChaChaRng rng(95);
  WireProof p = MakeWireProof("test/forged", rng);
  // A *valid* encoding of the wrong point: the classic grinding vector — the
  // hashed bytes decouple from the checked commit unless validation bites.
  DleqTranscript forged = p.transcript;
  forged.commit_wire[0] = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)).Encode();
  Status s = VerifyDleqFs("test/forged", p.statement, forged);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.reason().find("commit wire cache does not match point at index 0"),
            std::string::npos)
      << s.reason();
  // Undecodable cache bytes are rejected the same way.
  DleqTranscript garbage = p.transcript;
  garbage.commit_wire[1].fill(0xff);
  EXPECT_FALSE(VerifyDleqFs("test/forged", p.statement, garbage).ok());
}

TEST(DleqWire, BatchRejectsForgedCacheAtExactEntry) {
  ChaChaRng rng(96);
  std::vector<DleqBatchEntry> entries;
  for (int i = 0; i < 6; ++i) {
    WireProof p = MakeWireProof("test/batch-forged", rng);
    DleqBatchEntry entry;
    entry.domain = "test/batch-forged";
    entry.statement = std::move(p.statement);
    entry.transcript = std::move(p.transcript);
    entries.push_back(std::move(entry));
  }
  // Stale-cache tamper at entry 3: swap the commit point, keep the cache —
  // the same shape as PR 2's mixnet stale-wire case.
  entries[3].transcript.commits[0] =
      entries[3].transcript.commits[0] + RistrettoPoint::Base();
  Status s = BatchVerifyDleq(entries, rng);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.reason().find("commit wire cache does not match commits at entry 3"),
            std::string::npos)
      << s.reason();
}

TEST(DleqWire, ProofWithoutCommitBytesFailsLikeForgedBytes) {
  // Commit bytes are part of every transcript: a proof that lacks them, or
  // some of them, is rejected with the reason of a proof whose bytes are
  // wrong, naming the first commit without bytes (VerifyDleqFs) or the
  // entry (BatchVerifyDleq), at any thread count.
  ChaChaRng rng(103);
  std::vector<DleqBatchEntry> entries;
  for (int i = 0; i < 6; ++i) {
    WireProof p = MakeWireProof("test/no-bytes", rng);
    DleqBatchEntry entry;
    entry.domain = "test/no-bytes";
    entry.statement = std::move(p.statement);
    entry.transcript = std::move(p.transcript);
    entries.push_back(std::move(entry));
  }
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Executor executor(threads);
    Executor::Scope scope(executor);
    ASSERT_TRUE(BatchVerifyDleq(entries, rng).ok());
    DleqTranscript stripped = entries[2].transcript;
    stripped.commit_wire.clear();
    EXPECT_EQ(VerifyDleqFs("test/no-bytes", entries[2].statement, stripped).reason(),
              "dleq: commit wire cache does not match point at index 0");
    DleqTranscript truncated = entries[2].transcript;
    truncated.commit_wire.pop_back();
    EXPECT_EQ(VerifyDleqFs("test/no-bytes", entries[2].statement, truncated).reason(),
              "dleq: commit wire cache does not match point at index 1");
    std::vector<DleqBatchEntry> batch = entries;
    batch[4].transcript.commit_wire.clear();
    EXPECT_EQ(BatchVerifyDleq(batch, rng).reason(),
              "batch-dleq: commit wire cache does not match commits at entry 4");
  }
}

TEST(DleqWire, SerializeIsTheEncodePerPointFraming) {
  ChaChaRng rng(97);
  WireProof p = MakeWireProof("test/serde", rng);
  ByteWriter reference;
  reference.U32(static_cast<uint32_t>(p.transcript.commits.size()));
  for (const RistrettoPoint& commit : p.transcript.commits) {
    reference.Fixed(commit.Encode());
  }
  reference.Fixed(p.transcript.challenge.ToBytes());
  reference.Fixed(p.transcript.response.ToBytes());
  EXPECT_EQ(HexEncode(p.transcript.Serialize()), HexEncode(reference.Take()));
}

TEST(DleqWire, ParseFillsTheCommitCacheFromTheWire) {
  ChaChaRng rng(98);
  WireProof p = MakeWireProof("test/parse", rng);
  auto parsed = DleqTranscript::Parse(p.transcript.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->commit_wire.size(), parsed->commits.size());
  EXPECT_TRUE(parsed->ValidateWire().ok());
  for (size_t i = 0; i < parsed->commit_wire.size(); ++i) {
    EXPECT_EQ(HexEncode(parsed->commit_wire[i]), HexEncode(p.transcript.commit_wire[i]));
  }
  // A parsed proof verifies with zero encodes against a cached statement.
  uint64_t enc0 = RistrettoEncodeInvocations();
  EXPECT_TRUE(VerifyDleqFs("test/parse", p.statement, *parsed).ok());
  EXPECT_EQ(RistrettoEncodeInvocations() - enc0, 0u);
}

TEST(DleqWire, SimulatedTranscriptsCarryTheSameCacheShape) {
  // Fake credentials must stay byte-indistinguishable: simulated transcripts
  // carry commit caches exactly like sound ones.
  ChaChaRng rng(99);
  Scalar x = Scalar::Random(rng);
  DleqStatement st = TrueStatement(x, rng);
  DleqTranscript sim = SimulateDleq(st, Scalar::Random(rng), rng);
  ASSERT_EQ(sim.commit_wire.size(), sim.commits.size());
  EXPECT_TRUE(sim.ValidateWire().ok());
  for (size_t i = 0; i < sim.commits.size(); ++i) {
    EXPECT_EQ(HexEncode(sim.commit_wire[i]), HexEncode(sim.commits[i].Encode()));
  }
}

TEST(DleqWire, AuthorityShareProofsAreWireBackedEndToEnd) {
  // The DKG caller migration: ComputeShare's proof verifies with zero
  // encodes when the verifier supplies a wire-backed statement, here via
  // VerifyShare's own standing caches plus fresh C1/share encodes.
  ChaChaRng rng(100);
  auto authority = ElectionAuthority::Create(3, rng);
  ElGamalCiphertext ct =
      ElGamalEncrypt(authority.public_key(), RistrettoPoint::Base(), rng);
  CompressedRistretto c1_wire = ct.c1.Encode();
  DecryptionShare share = authority.ComputeShare(1, ct, rng, &c1_wire);
  EXPECT_EQ(share.proof.commit_wire.size(), share.proof.commits.size());
  EXPECT_TRUE(authority.VerifyShare(ct, share).ok());
}

// The encode-per-point Fiat–Shamir prover ProveDleqFs used to be: the
// interactive prover's commits y*G_i, each encoded, then the challenge over
// the full statement and the response.
DleqTranscript ReferenceProve(std::string_view domain, const DleqStatement& statement,
                              const Scalar& x, Rng& rng) {
  DleqProver prover(statement, x, rng);
  return prover.Respond(
      DeriveFsChallenge(domain, statement, prover.commits(), prover.commit_wire(), {}));
}

TEST(DleqWire, DerivingProverMatchesTheEncodePerPointProver) {
  // Tagging's shape (bases B, C1, C2; Z given, z*C1 and z*C2 derived) and a
  // decryption share's (bases B, C1; X given, x*C1 derived). From one
  // seeded stream both provers give the same bytes, the same publics, and
  // leave the stream in the same state.
  ChaChaRng setup(101);
  for (size_t pairs : {size_t{3}, size_t{2}}) {
    for (int trial = 0; trial < 16; ++trial) {
      SCOPED_TRACE("pairs=" + std::to_string(pairs) + " trial=" + std::to_string(trial));
      const Scalar x = Scalar::Random(setup);
      DleqStatement full;
      full.bases.push_back(RistrettoPoint::Base());
      for (size_t i = 1; i < pairs; ++i) {
        full.bases.push_back(RistrettoPoint::FromUniformBytes(setup.RandomBytes(64)));
      }
      for (const RistrettoPoint& base : full.bases) {
        full.publics.push_back(x * base);
      }
      full.EnsureWire();
      DleqStatement partial = full;
      partial.publics.resize(1);
      partial.public_wire.resize(1);

      const Bytes seed = setup.RandomBytes(32);
      ChaChaRng reference_rng(seed);
      ChaChaRng deriving_rng(seed);
      const DleqTranscript reference = ReferenceProve("test/derive", full, x, reference_rng);
      const DleqTranscript derived =
          ProveDleqFsDeriving("test/derive", partial, x, deriving_rng);

      EXPECT_EQ(HexEncode(derived.Serialize()), HexEncode(reference.Serialize()));
      EXPECT_EQ(derived.commit_wire, reference.commit_wire);
      ASSERT_EQ(partial.publics.size(), pairs);
      EXPECT_EQ(partial.public_wire, full.public_wire);
      for (size_t i = 0; i < pairs; ++i) {
        EXPECT_TRUE(partial.publics[i] == full.publics[i]) << "public " << i;
      }
      EXPECT_EQ(reference_rng.RandomBytes(32), deriving_rng.RandomBytes(32));
      EXPECT_TRUE(VerifyDleqFs("test/derive", full, derived).ok());

      // ProveDleqFs, over the full statement, is the same prover.
      ChaChaRng fs_rng(seed);
      EXPECT_EQ(HexEncode(ProveDleqFs("test/derive", full, x, fs_rng).Serialize()),
                HexEncode(reference.Serialize()));
    }
  }
}

// A statement of tagging's shape (bases B, C1, C2; the member's commitment
// given) or a share's (bases B, C1; the member's public share given), with
// every given section wired.
DleqStatement ProverShapeStatement(size_t pairs, const RistrettoPoint& given, Rng& rng) {
  DleqStatement statement;
  statement.bases.push_back(RistrettoPoint::Base());
  for (size_t i = 1; i < pairs; ++i) {
    statement.bases.push_back(RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)));
  }
  statement.publics = {given};
  statement.EnsureWire();
  return statement;
}

TEST(DleqWire, BatchedProverMatchesOneStatementProofs) {
  // N statements sharing one witness, proved in one call with nonces drawn
  // in statement order, give the bytes, the derived publics and the stream
  // state of N one-statement calls on the same stream. Batches of 1 to 17
  // cover one lane group, a full one and padded ones.
  ChaChaRng setup(103);
  for (size_t pairs : {size_t{3}, size_t{2}}) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{8}, size_t{9}, size_t{17}}) {
      SCOPED_TRACE("pairs=" + std::to_string(pairs) + " n=" + std::to_string(n));
      const Scalar x = Scalar::Random(setup);
      const RistrettoPoint given = RistrettoPoint::MulBase(x);
      std::vector<DleqStatement> one_by_one;
      for (size_t j = 0; j < n; ++j) {
        one_by_one.push_back(ProverShapeStatement(pairs, given, setup));
      }
      std::vector<DleqStatement> batched = one_by_one;
      const Bytes seed = setup.RandomBytes(32);

      ChaChaRng single_rng(seed);
      std::vector<DleqTranscript> singles;
      for (DleqStatement& statement : one_by_one) {
        singles.push_back(ProveDleqFsDeriving("test/batch", statement, x, single_rng));
      }
      ChaChaRng batch_rng(seed);
      std::vector<Scalar> nonces;
      for (size_t j = 0; j < n; ++j) {
        nonces.push_back(Scalar::Random(batch_rng));
      }
      std::vector<DleqTranscript> proofs(n);
      ProveDleqFsDeriving("test/batch", batched, x, nonces, proofs);

      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(HexEncode(proofs[j].Serialize()), HexEncode(singles[j].Serialize()))
            << "statement " << j;
        ASSERT_EQ(batched[j].publics.size(), pairs);
        EXPECT_EQ(batched[j].public_wire, one_by_one[j].public_wire) << "statement " << j;
        for (size_t i = 0; i < pairs; ++i) {
          EXPECT_TRUE(batched[j].publics[i] == one_by_one[j].publics[i])
              << "statement " << j << " public " << i;
        }
        EXPECT_TRUE(VerifyDleqFs("test/batch", batched[j], proofs[j]).ok());
      }
      EXPECT_EQ(batch_rng.RandomBytes(32), single_rng.RandomBytes(32));
    }
  }
}

TEST(DleqWire, TaggingShardMatchesOneCiphertextRanges) {
  // ApplyShardRange proves its range as one batch. From one seeded stream
  // its proofs, outputs and output bytes are those of one-ciphertext ranges
  // (batches of one) taken in order, and the stream ends in the same state:
  // the nonces are drawn one per ciphertext, in order.
  ChaChaRng rng(104);
  auto authority = ElectionAuthority::Create(2, rng);
  TaggingService tagging = TaggingService::Create(2, rng);
  std::vector<ElGamalCiphertext> input;
  std::vector<ElGamalWire> input_wire;
  for (int i = 0; i < 19; ++i) {
    input.push_back(ElGamalEncrypt(authority.public_key(),
                                   RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)), rng));
    input_wire.push_back(input.back().Wire());
  }
  const Bytes seed = rng.RandomBytes(32);
  const size_t begin = 2;
  const size_t end = input.size();
  ChaChaRng shard_rng(seed);
  TaggingStep shard = tagging.PrepareStep(1, input.size());
  tagging.ApplyShardRange(1, input, input_wire, begin, end, shard_rng, shard);
  ChaChaRng single_rng(seed);
  TaggingStep singles = tagging.PrepareStep(1, input.size());
  for (size_t i = begin; i < end; ++i) {
    tagging.ApplyShardRange(1, input, input_wire, i, i + 1, single_rng, singles);
  }
  for (size_t i = begin; i < end; ++i) {
    EXPECT_EQ(HexEncode(shard.proofs[i].Serialize()), HexEncode(singles.proofs[i].Serialize()))
        << "ciphertext " << i;
    EXPECT_EQ(shard.output_wire[i], singles.output_wire[i]) << "ciphertext " << i;
    EXPECT_EQ(shard.output_wire[i], shard.output[i].Wire()) << "ciphertext " << i;
  }
  EXPECT_EQ(shard_rng.RandomBytes(32), single_rng.RandomBytes(32));
}

TEST(DleqWire, TallyProversComputeNoInverseSquareRoot) {
  // The prover side of the zero-encode rule: with wired inputs, a tagging
  // pass and a decryption share hash and keep only bytes that came from the
  // batched double-and-encode (or from caches), never Encode().
  ChaChaRng rng(102);
  auto authority = ElectionAuthority::Create(3, rng);
  TaggingService tagging = TaggingService::Create(3, rng);
  std::vector<ElGamalCiphertext> input;
  std::vector<ElGamalWire> input_wire;
  for (int i = 0; i < 40; ++i) {
    input.push_back(ElGamalEncrypt(authority.public_key(),
                                   RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)), rng));
    input_wire.push_back(input.back().Wire());
  }
  const CompressedRistretto c1_wire = input[0].c1.Encode();
  RistrettoPoint::BaseWire();  // one-time lazy init
  Executor executor(2);

  uint64_t enc0 = RistrettoEncodeInvocations();
  std::vector<TaggingStep> steps;
  (void)tagging.ApplyAll(input, &steps, rng, executor, input_wire);
  EXPECT_EQ(RistrettoEncodeInvocations() - enc0, 0u);
  ASSERT_TRUE(TaggingService::VerifyChain(input, steps, tagging.commitments(), executor,
                                          input_wire)
                  .ok());

  enc0 = RistrettoEncodeInvocations();
  DecryptionShare share = authority.ComputeShare(2, input[0], rng, &c1_wire);
  EXPECT_EQ(RistrettoEncodeInvocations() - enc0, 0u);
  EXPECT_EQ(share.share_wire, share.share.Encode());
  EXPECT_TRUE(authority.VerifyShare(input[0], share).ok());
}

}  // namespace
}  // namespace votegral
