// Tests for the staged parallel tally pipeline: the transcript and the
// universal-verification verdict must be byte-identical at any thread
// count, and the parallel verifier must still localize a single corrupted
// link or share to the exact pair/index.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha256.h"
#include "src/votegral/election.h"
#include "src/votegral/verifier.h"
#include "tests/transcript_digest.h"

namespace votegral {
namespace {

// Builds one fixed election (setup + registration + casting is serial and
// seeded, so the ledger is identical across calls), tallies and verifies it
// on an executor with the given thread count.
struct TalliedElection {
  std::array<uint8_t, 32> digest;       // extended: protocol bytes + wire caches
  std::array<uint8_t, 32> protocol_digest;  // pre-wire field set (golden-pinned)
  bool verified = false;
  TallyResult result;
};

TalliedElection RunElection(size_t threads) {
  ChaChaRng rng(0x7A11E7);
  ElectionConfig config;
  config.roster = {"alice", "bob", "carol", "dave", "erin", "frank"};
  config.candidates = {"Alpha", "Beta", "Gamma"};
  config.threads = threads;
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  const char* choices[] = {"Alpha", "Alpha", "Beta", "Gamma", "Alpha", "Beta"};
  for (size_t i = 0; i < config.roster.size(); ++i) {
    auto voter = election.Register(config.roster[i], /*fake_count=*/1, vsd, rng);
    EXPECT_TRUE(voter.ok()) << voter.status.reason();
    EXPECT_TRUE(election.Cast(voter->activated[0], choices[i], rng).ok());
    // Every voter also casts a decoy with the fake credential.
    EXPECT_TRUE(election.Cast(voter->activated[1], "Gamma", rng).ok());
  }
  // The tally draws from a fresh, fixed stream so the transcript comparison
  // is exact by construction.
  ChaChaRng tally_rng(0x7A11E8);
  TallyOutput output = election.Tally(tally_rng);
  TalliedElection out;
  out.digest = DigestTranscriptWithWire(output);
  out.protocol_digest = DigestTranscript(output);
  out.verified = election.Verify(output).ok();
  out.result = output.result;
  return out;
}

// The protocol-byte digest of this fixed election, captured on the seed
// immediately BEFORE the wire-byte DLEQ change: carrying cached encodings
// through statements and transcripts must not move a single transcript byte.
constexpr const char* kPreWireGoldenDigestHex =
    "262d90190d8e305a0e0349ad4f6e77d80837691723f84fcf9208bc3e1c6edb3f";

TEST(ParallelTally, TranscriptByteIdenticalAcrossThreadCounts) {
  TalliedElection serial = RunElection(1);
  EXPECT_TRUE(serial.verified);
  EXPECT_EQ(serial.result.counted, 6u);
  EXPECT_EQ(serial.result.counts.at("Alpha"), 3u);
  EXPECT_EQ(serial.result.counts.at("Beta"), 2u);
  EXPECT_EQ(serial.result.counts.at("Gamma"), 1u);
  EXPECT_EQ(serial.result.discards.unmatched_tag, 6u);  // the six decoys

  for (size_t threads : {size_t{2}, size_t{8}}) {
    TalliedElection parallel = RunElection(threads);
    EXPECT_EQ(parallel.digest, serial.digest) << "threads=" << threads;
    EXPECT_EQ(parallel.verified, serial.verified) << "threads=" << threads;
    EXPECT_EQ(parallel.result.counts, serial.result.counts) << "threads=" << threads;
  }
}

TEST(ParallelTally, TranscriptByteIdenticalToPreWireSeed) {
  // Every protocol byte — proofs, ciphertexts, tags, shares, mix wire — must
  // equal the pre-wire-byte-DLEQ output: the wire caches are a transport for
  // bytes the transcript already contained, never new protocol state. The
  // graph assigns every seed before its node runs, so the digest holds at
  // every thread count.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    TalliedElection tallied = RunElection(threads);
    EXPECT_TRUE(tallied.verified) << "threads=" << threads;
    EXPECT_EQ(HexEncode(tallied.protocol_digest), kPreWireGoldenDigestHex)
        << "threads=" << threads;
  }
}

// A full election fixture the localization tests tamper with. Under
// revoting its transcript carries the revote chain as well.
struct Fixture {
  explicit Fixture(bool revoting = false)
      : rng(0x10CA1),
        election(MakeConfig(revoting), rng),
        vsd(election.trip().MakeVsd()) {
    for (const char* id : {"alice", "bob", "carol"}) {
      auto voter = election.Register(id, 1, vsd, rng);
      EXPECT_TRUE(voter.ok());
      EXPECT_TRUE(election.Cast(voter->activated[0], "Alpha", rng).ok());
      EXPECT_TRUE(election.Cast(voter->activated[1], "Beta", rng).ok());
    }
    output = election.Tally(rng);
    EXPECT_TRUE(election.Verify(output).ok());
  }

  static ElectionConfig MakeConfig(bool revoting) {
    ElectionConfig config;
    config.roster = {"alice", "bob", "carol"};
    config.candidates = {"Alpha", "Beta"};
    config.threads = 8;  // exercise the parallel verifier paths
    config.revoting = revoting;
    return config;
  }

  ChaChaRng rng;
  Election election;
  Vsd vsd;
  TallyOutput output;
};

// One chain of a tallied transcript: its mix proof, tagging steps and tag
// decryption shares.
struct ChainParts {
  MixProof& proof;
  std::vector<TaggingStep>& steps;
  std::vector<std::vector<DecryptionShare>>& tag_shares;
};

ChainParts PartsOf(TallyTranscript& t, const std::string& chain) {
  if (chain == "ballot") {
    return {t.ballot_mix_proof, t.ballot_tag_steps, t.ballot_tag_shares};
  }
  if (chain == "roster") {
    return {t.roster_mix_proof, t.roster_tag_steps, t.roster_tag_shares};
  }
  return {t.revote.mix_proof, t.revote.tag_steps, t.revote.tag_shares};
}

// Runs `check` on the ballot and roster chains of a legacy tally and on the
// revote chain of a revoting one.
void ForEachChain(const std::function<void(Fixture&, const std::string&)>& check) {
  for (bool revoting : {false, true}) {
    Fixture f(revoting);
    const std::vector<std::string> chains = revoting ? std::vector<std::string>{"revote"}
                                                     : std::vector<std::string>{"ballot", "roster"};
    for (const std::string& chain : chains) {
      SCOPED_TRACE(chain);
      check(f, chain);
    }
  }
}

TEST(ParallelVerifier, EveryChainLocalizesItsTampers) {
  // Each tamper makes a batched check reject (the pair's link MSM, the
  // tagging chain's DLEQ batch, the tag shares' DLEQ batch); the per-item
  // fallback must then name the exact pair, proof or ciphertext.
  struct Tamper {
    const char* name;
    void (*apply)(ChainParts);
    const char* prefix;  // after "verifier: <chain> "
    const char* detail;  // anywhere in the reason
  };
  const Tamper tampers[] = {
      {"reveal randomness at pair 1, index 2",
       [](ChainParts c) {
         Scalar& r = c.proof.pairs.at(1).reveals.at(2).randomness.at(0);
         r = r + Scalar::One();
       },
       "mix: mixnet: ", "re-encryption check failed at pair 1 index 2"},
      // The wire caches move with their points, so the caches stay
      // consistent and it is the proofs that fail. (Moving points alone is
      // a stale cache: see CorruptedTaggingWireCacheLocalized.)
      {"tagging step 0 outputs 0 and 1 swapped",
       [](ChainParts c) {
         TaggingStep& step = c.steps.at(0);
         ASSERT_EQ(step.output_wire.size(), step.output.size());
         std::swap(step.output.at(0), step.output.at(1));
         std::swap(step.output_wire.at(0), step.output_wire.at(1));
       },
       "tagging: tagging: proof 0 invalid", ""},
      {"share of tag ciphertext 2 shifted by B",
       [](ChainParts c) {
         DecryptionShare& share = c.tag_shares.at(2).at(1);
         share.share = share.share + RistrettoPoint::Base();
       },
       "tags: share proof invalid at 2", ""},
  };
  ForEachChain([&](Fixture& f, const std::string& chain) {
    for (const Tamper& tamper : tampers) {
      SCOPED_TRACE(tamper.name);
      TallyOutput bad = f.output;
      tamper.apply(PartsOf(bad.transcript, chain));
      Status status = f.election.Verify(bad);
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.reason().rfind("verifier: " + chain + " " + tamper.prefix, 0), 0u)
          << status.reason();
      EXPECT_NE(status.reason().find(tamper.detail), std::string::npos) << status.reason();
    }
  });
}

// Every decryption share list of a transcript (the revote lists are empty
// on a legacy tally, the legacy ones on a revoting tally).
std::vector<std::vector<std::vector<DecryptionShare>>*> ShareLists(TallyTranscript& t) {
  return {&t.ballot_tag_shares, &t.roster_tag_shares, &t.vote_shares, &t.revote.tag_shares,
          &t.revote.counter_shares};
}

TEST(ParallelVerifier, HonestShareWireCachesSpareEveryShareEncode) {
  // A share whose cache does not match costs the verifier exactly one
  // encode, so a tally whose every cache is wrong costs one encode per share
  // more than the honest one: the honest tally encodes no share point.
  for (bool revoting : {false, true}) {
    SCOPED_TRACE(revoting ? "revoting" : "legacy");
    Fixture f(revoting);
    TallyOutput stale = f.output;
    size_t shares = 0;
    for (auto* lists : ShareLists(stale.transcript)) {
      for (std::vector<DecryptionShare>& list : *lists) {
        for (DecryptionShare& share : list) {
          share.share_wire = (-share.share).Encode();
          ++shares;
        }
      }
    }
    ASSERT_GT(shares, 0u);
    uint64_t before = RistrettoEncodeInvocations();
    ASSERT_TRUE(f.election.Verify(f.output).ok());
    const uint64_t honest = RistrettoEncodeInvocations() - before;
    before = RistrettoEncodeInvocations();
    ASSERT_TRUE(f.election.Verify(stale).ok());
    const uint64_t uncached = RistrettoEncodeInvocations() - before;
    EXPECT_EQ(uncached - honest, shares);
  }
}

TEST(ParallelVerifier, ShareWireCacheBindsNothingItsPointDoesNot) {
  // However a share's cache is forged, the verdict and reason are those of
  // the same share point carrying its true encoding.
  struct Forgery {
    const char* name;
    bool shift_point;  // move the share point by B (an invalid share)
    void (*forge)(DecryptionShare&);
  };
  const Forgery forgeries[] = {
      {"cache enc(-S)", false, [](DecryptionShare& s) { s.share_wire = (-s.share).Encode(); }},
      {"cache non-canonical", false, [](DecryptionShare& s) { s.share_wire.fill(0xFF); }},
      {"cache all zero", false, [](DecryptionShare& s) { s.share_wire.fill(0); }},
      {"shifted point, stale cache", true, [](DecryptionShare&) {}},
      {"shifted point, cache enc(-S)", true,
       [](DecryptionShare& s) { s.share_wire = (-s.share).Encode(); }},
      {"shifted point, cache non-canonical", true,
       [](DecryptionShare& s) { s.share_wire.fill(0xFF); }},
  };
  // Every list goes through the same share check; the legacy tally has
  // three (ballot tags, roster tags, votes).
  Fixture f;
  for (size_t list = 0; list < 3; ++list) {
    // The last ciphertext's second share, moved or not, carrying `forge`.
    auto with_share = [&](bool shift_point, void (*forge)(DecryptionShare&)) {
      TallyOutput out = f.output;
      DecryptionShare& share = ShareLists(out.transcript)[list]->back().at(1);
      if (shift_point) {
        share.share = share.share + RistrettoPoint::Base();
      }
      forge(share);
      return out;
    };
    auto true_cache = [](DecryptionShare& s) { s.share_wire = s.share.Encode(); };
    const Status want[] = {f.election.Verify(with_share(false, true_cache)),
                           f.election.Verify(with_share(true, true_cache))};
    EXPECT_TRUE(want[0].ok()) << want[0].reason();
    EXPECT_FALSE(want[1].ok());
    for (const Forgery& forgery : forgeries) {
      SCOPED_TRACE(std::string(forgery.name) + ", share list " + std::to_string(list));
      const Status got = f.election.Verify(with_share(forgery.shift_point, forgery.forge));
      EXPECT_EQ(got.ok(), want[forgery.shift_point].ok());
      EXPECT_EQ(got.reason(), want[forgery.shift_point].reason());
    }
  }
}

TEST(ParallelVerifier, EveryCascadeMustHaveKMixPairs) {
  ForEachChain([](Fixture& f, const std::string& chain) {
    TallyOutput bad = f.output;
    PartsOf(bad.transcript, chain).proof.pairs.resize(1);
    EXPECT_EQ(f.election.Verify(bad).reason(),
              "verifier: " + chain + " mix: cascade has 1 pairs, expected 2");
  });
}

TEST(ParallelVerifier, RosterMixInputItemMustBeExactlyTheCredential) {
  // An empty item used to throw std::out_of_range out of the verifier.
  Fixture f;
  TallyOutput empty = f.output;
  empty.transcript.roster_mix_input.at(0).cts.clear();
  EXPECT_EQ(f.election.Verify(empty).reason(), "verifier: roster mix input 0 differs");
  TallyOutput wide = f.output;
  std::vector<ElGamalCiphertext>& cts = wide.transcript.roster_mix_input.at(0).cts;
  cts.push_back(wide.transcript.roster_mix_input.at(1).cts.at(0));
  EXPECT_EQ(f.election.Verify(wide).reason(), "verifier: roster mix input 0 differs");
}

TEST(ParallelVerifier, CorruptedTaggingWireCacheLocalized) {
  Fixture f;
  // Substitute a tagging output ciphertext without refreshing its wire
  // cache: the chain verifier must refuse to let the cached bytes back the
  // next statement's hash (same rule as the mixnet's stale-cache case).
  TallyOutput bad = f.output;
  ASSERT_FALSE(bad.transcript.roster_tag_steps.empty());
  auto& step = bad.transcript.roster_tag_steps[0];
  ASSERT_GT(step.output.size(), 1u);
  ASSERT_EQ(step.output_wire.size(), step.output.size());
  std::swap(step.output[0], step.output[1]);  // points move, caches do not
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("step 0 output wire cache does not match ciphertexts"),
            std::string::npos)
      << status.reason();
}

TEST(ParallelVerifier, StaleWireCacheRejected) {
  Fixture f;
  // Substitute a mixed ciphertext without refreshing its wire cache: the
  // verifier must refuse to hash cached bytes that no longer match the
  // points (otherwise a cheating mixer could grind challenge bits).
  TallyOutput bad = f.output;
  ASSERT_FALSE(bad.transcript.ballot_mix_output.empty());
  const MixItem& first = bad.transcript.ballot_mix_output[0];
  ASSERT_EQ(first.wire.size(), 64 * first.cts.size());
  bad.transcript.ballot_mix_output[0].cts[0] = ElGamalEncrypt(
      f.election.trip().authority_pk(), RistrettoPoint::Base(), f.rng);
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("wire cache does not match points"), std::string::npos)
      << status.reason();
}

// The verdict on `output` at `threads` threads.
Status VerifyAt(Fixture& f, const TallyOutput& output, size_t threads) {
  Executor executor(threads);
  return VerifyElection(f.election.ledger(), f.election.verifier_params(),
                        f.election.candidates(), output, executor);
}

TEST(ParallelVerifier, TranscriptBytesAreNeverOptional) {
  // Removing the bytes of one item, one step or one proof fails the check
  // that reads them with the reason wrong bytes get there, naming the item,
  // at any thread count.
  struct Case {
    const char* name;
    void (*strip)(TallyTranscript&);
    const char* reason;
  };
  const Case cases[] = {
      {"ballot mix input item",
       [](TallyTranscript& t) { t.ballot_mix_input.at(1).wire.clear(); },
       "verifier: ballot mix input 1 differs"},
      {"roster mix input item",
       [](TallyTranscript& t) { t.roster_mix_input.at(2).wire.clear(); },
       "verifier: roster mix: mixnet: input: wire cache does not match points at index 2"},
      {"pair mid item",
       [](TallyTranscript& t) { t.ballot_mix_proof.pairs.at(0).mid.at(2).wire.clear(); },
       "verifier: ballot mix: mixnet: pair 0 mid: wire cache does not match points at index 2"},
      {"pair out item",
       [](TallyTranscript& t) { t.roster_mix_proof.pairs.at(1).out.at(0).wire.clear(); },
       "verifier: roster mix: mixnet: pair 1 out: wire cache does not match points at index 0"},
      {"published output item",
       [](TallyTranscript& t) { t.ballot_mix_output.at(4).wire.clear(); },
       "verifier: ballot mix: mixnet: published output: wire cache does not match points at "
       "index 4"},
      {"tag step outputs",
       [](TallyTranscript& t) { t.ballot_tag_steps.at(1).output_wire.clear(); },
       "verifier: ballot tagging: tagging: step 1 output wire cache does not match "
       "ciphertexts at index 0"},
      {"tag chain proof commits",
       [](TallyTranscript& t) { t.roster_tag_steps.at(3).proofs.at(2).commit_wire.clear(); },
       "verifier: roster tagging: tagging: proof 2 invalid: dleq: commit wire cache does not "
       "match point at index 0"},
      {"tag share proof commits",
       [](TallyTranscript& t) { t.roster_tag_shares.at(1).at(3).proof.commit_wire.clear(); },
       "verifier: roster tags: share proof invalid at 1: dleq: commit wire cache does not "
       "match point at index 0"},
      {"vote share proof commits",
       [](TallyTranscript& t) { t.vote_shares.at(2).at(0).proof.commit_wire.clear(); },
       "verifier: votes: share proof invalid at 2: dleq: commit wire cache does not match "
       "point at index 0"},
  };
  Fixture f;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TallyOutput bad = f.output;
    c.strip(bad.transcript);
    for (size_t threads : {size_t{1}, size_t{8}}) {
      EXPECT_EQ(VerifyAt(f, bad, threads).reason(), c.reason) << "threads=" << threads;
    }
  }
  // Revoting: a dummy item of the padded board without its bytes no longer
  // matches its opening, and a revote tag share without its commit bytes is
  // named like any other.
  Fixture r(/*revoting=*/true);
  const RevoteTranscript& rt = r.output.transcript.revote;
  ASSERT_FALSE(rt.dummies.empty());
  TallyOutput no_dummy_bytes = r.output;
  no_dummy_bytes.transcript.revote.mix_input.back().wire.clear();
  TallyOutput no_share_commits = r.output;
  no_share_commits.transcript.revote.tag_shares.at(0).at(1).proof.commit_wire.clear();
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(VerifyAt(r, no_dummy_bytes, threads).reason(),
              "verifier: revote dummy opening does not match mix input (group " +
                  std::to_string(rt.dummies.size() - 1) + ")");
    EXPECT_EQ(VerifyAt(r, no_share_commits, threads).reason(),
              "verifier: revote tags: share proof invalid at 0: dleq: commit wire cache does "
              "not match point at index 0");
  }
}

TEST(ParallelVerifier, HonestVerifyEncodesOnlyItsOwnOutputs) {
  // An honest verify reads every transcript point's bytes from the
  // transcript, so the only transcript-side points it encodes are those it
  // computes itself: each decrypted tag, counter and vote, the members'
  // public shares once per share batch, the tagging commitments once per
  // chain, and each revote dummy group's credential. A transcript point
  // encoded again shows here. The board revalidation adds none: registration
  // records' signature messages and revote ballots' binding challenges hash
  // the bytes posted on the board.
  for (bool revoting : {false, true}) {
    SCOPED_TRACE(revoting ? "revoting" : "legacy");
    Fixture f(revoting);  // its constructor's verify made the one-time tables
    const TallyTranscript& t = f.output.transcript;
    const VerifierParams params = f.election.verifier_params();
    const size_t share_batches = revoting ? 5 : 3;  // + revote tags and counters
    const size_t chains = revoting ? 3 : 2;         // + the revote chain
    const uint64_t outputs = t.ballot_tags.size() + t.roster_tags.size() +
                             t.vote_points.size() + t.revote.tags.size() +
                             t.revote.counter_points.size() +
                             share_batches * params.authority_shares.size() +
                             chains * params.tagging_commitments.size() +
                             t.revote.dummies.size();
    const uint64_t expected = outputs;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      const uint64_t before = RistrettoEncodeInvocations();
      ASSERT_TRUE(VerifyAt(f, f.output, threads).ok());
      EXPECT_EQ(RistrettoEncodeInvocations() - before, expected) << "threads=" << threads;
    }
  }
}

TEST(ParallelVerifier, TwoTampersReportTheEarlierCheck) {
  // The checks run concurrently, but the verdict is the first failing check
  // in the order the phased verifier ran them: with two checks tampered,
  // the reason is the earlier one's, exactly as with that tamper alone.
  using Tamper = void (*)(TallyTranscript&);
  struct Case {
    const char* name;
    bool revoting;
    Tamper earlier;
    Tamper later;
  };
  const Case cases[] = {
      {"bad ballot signature, forged tag-chain proof", false,
       [](TallyTranscript& t) {
         Scalar& s = t.accepted_ballots.at(1).credential_sig.s;
         s = s + Scalar::One();
       },
       [](TallyTranscript& t) {
         Scalar& r = t.ballot_tag_steps.at(1).proofs.at(2).response;
         r = r + Scalar::One();
       }},
      {"forged roster-cascade link, shifted vote share", false,
       [](TallyTranscript& t) {
         Scalar& r = t.roster_mix_proof.pairs.at(1).reveals.at(0).randomness.at(0);
         r = r + Scalar::One();
       },
       [](TallyTranscript& t) {
         DecryptionShare& share = t.vote_shares.at(0).at(1);
         share.share = share.share + RistrettoPoint::Base();
       }},
      {"altered accepted revote ballot, forged counter share", true,
       [](TallyTranscript& t) {
         Scalar& z = t.revote.accepted.at(1).proof.z1;
         z = z + Scalar::One();
       },
       [](TallyTranscript& t) {
         DecryptionShare& share = t.revote.counter_shares.at(2).at(0);
         share.share = share.share + RistrettoPoint::Base();
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Fixture f(c.revoting);
    TallyOutput earlier = f.output;
    c.earlier(earlier.transcript);
    TallyOutput later = f.output;
    c.later(later.transcript);
    TallyOutput both = f.output;
    c.earlier(both.transcript);
    c.later(both.transcript);
    const Status alone = VerifyAt(f, earlier, 1);
    ASSERT_FALSE(alone.ok());
    ASSERT_FALSE(VerifyAt(f, later, 1).ok());
    EXPECT_NE(VerifyAt(f, later, 1).reason(), alone.reason());
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EXPECT_EQ(VerifyAt(f, both, threads).reason(), alone.reason()) << "threads=" << threads;
    }
  }
}

TEST(ParallelVerifier, MalformedIndicesAndItemsFailWithoutThrowing) {
  // Every check runs before any verdict is known, so a node must not assume
  // an earlier check passed: a counted index past the mix output, or a mix
  // output item too narrow for its column, is a coded failure of the check
  // that reads it, and the verdict is the earlier check that names it.
  Fixture f;
  TallyOutput past = f.output;
  past.transcript.counted_indices.at(0) = past.transcript.ballot_mix_output.size() + 7;
  TallyOutput narrow = f.output;
  narrow.transcript.ballot_mix_output.at(3).cts.clear();
  TallyOutput narrow_roster = f.output;
  narrow_roster.transcript.roster_mix_output.at(0).cts.clear();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Status status = Status::Ok();
    ASSERT_NO_THROW(status = VerifyAt(f, past, threads));
    EXPECT_EQ(status.reason(), "verifier: counted ballot set differs from published");
    ASSERT_NO_THROW(status = VerifyAt(f, narrow, threads));
    EXPECT_EQ(status.reason().rfind("verifier: ballot mix: ", 0), 0u) << status.reason();
    ASSERT_NO_THROW(status = VerifyAt(f, narrow_roster, threads));
    EXPECT_EQ(status.reason().rfind("verifier: roster mix: ", 0), 0u) << status.reason();
  }
}

TEST(ParallelTally, SerialAndGlobalExecutorAgree) {
  // TallyService with an explicit serial executor produces the same
  // transcript as the config-driven pools above (threads=1 escape hatch).
  TalliedElection serial = RunElection(1);
  TalliedElection pooled = RunElection(0);  // 0 = global pool
  EXPECT_EQ(serial.digest, pooled.digest);
}

}  // namespace
}  // namespace votegral
