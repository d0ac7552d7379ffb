// Deniable-revoting tests (docs/REVOTING.md): the supersession kernel, the
// cover envelope, and the end-to-end revote tally.
//
//  * Differential: the quasilinear tag-sort selection must match the
//    quadratic last-write-wins reference byte for byte across seeds and
//    sizes (the 10^5-item differential runs in bench/fig_revote).
//  * Determinism: revote transcripts are byte-identical across thread
//    counts, pinned by a golden digest.
//  * Adversarial tallies: a transcript that drops a non-superseded ballot,
//    keeps a superseded one, or miscounts its dummies is rejected by
//    VerifyElection with the failure localized (exact ledger index /
//    selection position / dummy group).
#include <gtest/gtest.h>

#include <bit>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha256.h"
#include "src/votegral/election.h"
#include "tests/transcript_digest.h"

namespace votegral {
namespace {

// --- Counter decode + cover envelope ---------------------------------------

// k*B encodings for k = 0..n-1, built incrementally.
std::vector<CompressedRistretto> CounterEncodings(size_t n) {
  std::vector<CompressedRistretto> out;
  out.reserve(n);
  RistrettoPoint point;  // identity = 0*B
  for (size_t k = 0; k < n; ++k) {
    out.push_back(point.Encode());
    point = point + RistrettoPoint::Base();
  }
  return out;
}

TEST(RevoteCounter, DecodeRoundTripAndLimit) {
  std::vector<CompressedRistretto> encodings = CounterEncodings(kRevoteCounterLimit + 2);
  for (uint64_t k = 0; k < kRevoteCounterLimit; ++k) {
    auto decoded = DecodeCounterPoint(encodings[k]);
    ASSERT_TRUE(decoded.has_value()) << k;
    EXPECT_EQ(*decoded, k);
  }
  // At and past the limit: undecodable by design.
  EXPECT_FALSE(DecodeCounterPoint(encodings[kRevoteCounterLimit]).has_value());
  EXPECT_FALSE(DecodeCounterPoint(encodings[kRevoteCounterLimit + 1]).has_value());
  // A random point is (overwhelmingly) outside the table.
  ChaChaRng rng(41);
  EXPECT_FALSE(
      DecodeCounterPoint(RistrettoPoint::MulBase(Scalar::Random(rng)).Encode()).has_value());
}

TEST(RevoteDummies, BatchedConstructionMatchesPerMemberReference) {
  // BuildRevoteDummyItems shares one MulBase+encode per group and the static
  // counter table; its output must stay byte-identical (ciphertexts AND wire
  // caches) to the per-member RevoteDummyItem spec it amortizes.
  ChaChaRng rng(42);
  std::vector<RevoteDummyGroup> groups;
  groups.push_back({Scalar::Random(rng), 1});
  groups.push_back({Scalar::Random(rng), 5});
  groups.push_back({Scalar::Random(rng), kRevoteCounterLimit - 1});
  std::vector<std::pair<size_t, uint64_t>> slots;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (uint64_t j = 0; j < groups[g].size; ++j) {
      slots.emplace_back(g, j);
    }
  }
  std::vector<MixItem> batched(slots.size());
  Executor executor(4);
  BuildRevoteDummyItems(groups, slots, batched, executor);
  for (size_t k = 0; k < slots.size(); ++k) {
    MixItem reference = RevoteDummyItem(groups[slots[k].first], slots[k].second);
    ASSERT_TRUE(reference == batched[k]) << k;
    ASSERT_EQ(batched[k].wire.size(), 64 * batched[k].cts.size()) << k;
    EXPECT_EQ(HexEncode(reference.wire), HexEncode(batched[k].wire)) << k;
  }
}

TEST(RevoteEnvelope, TargetsAreQuasilinearAndPlanLiftsToThem) {
  for (size_t total : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{64},
                       size_t{1000}, size_t{100000}}) {
    const size_t classes = RevoteCoverClasses(total);
    if (total == 0) {
      EXPECT_EQ(classes, 0u);
      EXPECT_TRUE(RevotePaddingPlan(0, {}).empty());
      continue;
    }
    // S(T) = floor(log2 T) + 1 and the summed envelope stays quasilinear:
    // sum s * ceil(T/2^(s-1)) <= 4T + S(S+1)/2 (each ceil adds at most 1).
    EXPECT_EQ(size_t{1} << (classes - 1), std::bit_floor(total));
    size_t envelope_items = 0;
    for (size_t s = 1; s <= classes; ++s) {
      envelope_items += s * RevoteCoverTarget(total, s);
    }
    EXPECT_LE(envelope_items, 4 * total + classes * (classes + 1) / 2) << total;
    EXPECT_EQ(RevoteCoverTarget(total, classes + 1), 0u);

    // An all-singletons board (the common case: nobody revoted) is lifted to
    // exactly the envelope; class counts meet every target.
    std::map<uint64_t, size_t> real;
    real[1] = total;
    std::vector<uint64_t> plan = RevotePaddingPlan(total, real);
    std::map<uint64_t, size_t> padded = real;
    for (uint64_t size : plan) {
      ASSERT_GE(size, 1u);
      ASSERT_LT(size, kRevoteCounterLimit);
      padded[size]++;
    }
    for (size_t s = 1; s <= classes; ++s) {
      EXPECT_GE(padded[s], RevoteCoverTarget(total, s)) << "T=" << total << " s=" << s;
    }
  }
}

TEST(RevoteEnvelope, PlanIsAPureFunctionOfTotalWhenTargetsDominate) {
  // Two different revote patterns with the same accepted count must land on
  // the same padded multiset — the deniability core. 12 ballots as
  // {3,2,2,1,1,1,1,1} vs {2,2,2,2,1,1,1,1}: both within the T=12 envelope.
  std::map<uint64_t, size_t> world_a{{3, 1}, {2, 2}, {1, 5}};
  std::map<uint64_t, size_t> world_b{{2, 4}, {1, 4}};
  auto padded = [](size_t total, const std::map<uint64_t, size_t>& real) {
    std::map<uint64_t, size_t> out = real;
    for (uint64_t size : RevotePaddingPlan(total, real)) {
      out[size]++;
    }
    return out;
  };
  EXPECT_EQ(padded(12, world_a), padded(12, world_b));
}

// --- Selection differential -------------------------------------------------

bool SameSelection(const RevoteSelection& a, const RevoteSelection& b) {
  return a.kept == b.kept && a.superseded == b.superseded &&
         a.duplicate_tag == b.duplicate_tag && a.invalid_structure == b.invalid_structure &&
         a.group_sizes == b.group_sizes;
}

TEST(RevoteSelectionDifferential, QuasilinearMatchesQuadraticReference) {
  // Synthetic boards: a small tag universe forces collisions, counters drawn
  // with duplicates (exercising the tied-max drop) and a sprinkle of
  // undecodable counter points (invalid_structure).
  std::vector<CompressedRistretto> counters = CounterEncodings(kRevoteCounterLimit + 1);
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{17},
                     size_t{128}, size_t{1025}, size_t{8192}}) {
      ChaChaRng rng(0xD1FF0000 + seed * 100 + n);
      const size_t universe = n / 3 + 1;
      std::vector<CompressedRistretto> tag_pool = CounterEncodings(universe + 1);
      std::vector<CompressedRistretto> tags(n);
      std::vector<CompressedRistretto> counter_points(n);
      for (size_t i = 0; i < n; ++i) {
        tags[i] = tag_pool[1 + rng.Uniform(universe)];
        const uint64_t draw = rng.Uniform(20);
        // ~5%: the out-of-table point (decode fails).
        counter_points[i] = draw == 0 ? counters[kRevoteCounterLimit] : counters[draw - 1];
      }
      RevoteSelection fast = SelectLastPerTag(tags, counter_points);
      RevoteSelection reference = SelectLastPerTagQuadratic(tags, counter_points);
      ASSERT_TRUE(SameSelection(fast, reference)) << "seed=" << seed << " n=" << n;
      // Internal consistency: kept indices are ascending and unique.
      for (size_t i = 1; i < fast.kept.size(); ++i) {
        ASSERT_LT(fast.kept[i - 1], fast.kept[i]);
      }
    }
  }
}

TEST(RevoteSelection, TiedMaxCounterDropsTheWholeGroup) {
  // Two casts under one credential with the same counter: the tally cannot
  // tell which is "later", so neither counts (and a coercer double-casting a
  // surrendered counter value cannot smuggle a vote through).
  std::vector<CompressedRistretto> counters = CounterEncodings(4);
  std::vector<CompressedRistretto> tag_pool = CounterEncodings(3);
  std::vector<CompressedRistretto> tags = {tag_pool[1], tag_pool[1], tag_pool[1],
                                           tag_pool[2]};
  std::vector<CompressedRistretto> points = {counters[0], counters[2], counters[2],
                                             counters[1]};
  RevoteSelection selection = SelectLastPerTag(tags, points);
  EXPECT_EQ(selection.kept, (std::vector<uint64_t>{3}));  // only the lone group
  EXPECT_EQ(selection.duplicate_tag, 3u);                 // whole tied group
  EXPECT_EQ(selection.superseded, 0u);
  EXPECT_TRUE(SameSelection(selection, SelectLastPerTagQuadratic(tags, points)));
}

// --- End-to-end revote elections ---------------------------------------------

ElectionConfig RevoteConfig(size_t threads) {
  ElectionConfig config;
  config.roster = {"alice", "bob", "carol", "dave"};
  config.candidates = {"Alpha", "Beta", "Gamma"};
  config.revoting = true;
  config.threads = threads;
  return config;
}

struct RevoteTallied {
  std::array<uint8_t, 32> digest;
  std::array<uint8_t, 32> protocol_digest;
  bool verified = false;
  TallyResult result;
};

// Fixed revote election: alice revotes once, carol twice, dave casts a decoy
// with a fake credential; the ledger is identical across calls.
RevoteTallied RunRevoteElection(size_t threads) {
  ChaChaRng rng(0x2EF07E);
  Election election(RevoteConfig(threads), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 1, vsd, rng);
  auto bob = election.Register("bob", 1, vsd, rng);
  auto carol = election.Register("carol", 1, vsd, rng);
  auto dave = election.Register("dave", 1, vsd, rng);
  EXPECT_TRUE(alice.ok() && bob.ok() && carol.ok() && dave.ok());
  EXPECT_TRUE(election.Cast(alice->activated[0], "Alpha", rng).ok());
  EXPECT_TRUE(election.Cast(alice->activated[0], "Beta", rng).ok());  // supersedes
  EXPECT_TRUE(election.Cast(bob->activated[0], "Alpha", rng).ok());
  EXPECT_TRUE(election.Cast(carol->activated[0], "Gamma", rng).ok());
  EXPECT_TRUE(election.Cast(carol->activated[0], "Gamma", rng).ok());
  EXPECT_TRUE(election.Cast(carol->activated[0], "Alpha", rng).ok());  // final
  EXPECT_TRUE(election.Cast(dave->activated[0], "Beta", rng).ok());
  EXPECT_TRUE(election.Cast(dave->activated[1], "Gamma", rng).ok());  // decoy
  ChaChaRng tally_rng(0x2EF07F);
  TallyOutput output = election.Tally(tally_rng);
  RevoteTallied out;
  out.digest = DigestTranscriptWithWire(output);
  out.protocol_digest = DigestTranscript(output);
  out.verified = election.Verify(output).ok();
  out.result = output.result;
  return out;
}

// Golden protocol digest of the fixed revote election above (captured at the
// introduction of revoting, on a serial run). Any change to a revote
// transcript byte shows up here.
constexpr const char* kRevoteGoldenDigestHex =
    "7963fb1c74985888d079aff8988384732b0c69d0e3d98e67e0a4f2be927e8dbe";

TEST(RevoteElection, LastVotePerCredentialCounts) {
  RevoteTallied tallied = RunRevoteElection(0);
  EXPECT_TRUE(tallied.verified);
  EXPECT_EQ(tallied.result.counted, 4u);
  EXPECT_EQ(tallied.result.counts.at("Alpha"), 2u);  // bob, carol's final
  EXPECT_EQ(tallied.result.counts.at("Beta"), 2u);   // alice's final, dave
  EXPECT_EQ(tallied.result.counts.at("Gamma"), 0u);  // all superseded or decoy
  // Real superseded: alice 1 + carol 2. Dummy groups supersede their own
  // lower counters; the T=8 envelope over {1:3, 2:1, 3:1} pads
  // {1:+5, 2:+3, 3:+1, 4:+1} -> 8 more superseded, 10 dummy survivors
  // joining the decoy as unmatched tags.
  EXPECT_EQ(tallied.result.discards.superseded, 11u);
  EXPECT_EQ(tallied.result.discards.unmatched_tag, 11u);
  EXPECT_EQ(tallied.result.discards.duplicate_tag, 0u);
  EXPECT_EQ(tallied.result.discards.invalid_structure, 0u);
}

TEST(RevoteElection, TranscriptByteIdenticalAcrossThreads) {
  RevoteTallied serial = RunRevoteElection(1);
  EXPECT_TRUE(serial.verified);
  EXPECT_EQ(HexEncode(serial.protocol_digest), kRevoteGoldenDigestHex);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    RevoteTallied other = RunRevoteElection(threads);
    EXPECT_EQ(HexEncode(other.protocol_digest), kRevoteGoldenDigestHex)
        << "threads=" << threads;
    EXPECT_EQ(other.digest, serial.digest) << "threads=" << threads;
    EXPECT_TRUE(other.verified) << "threads=" << threads;
    EXPECT_EQ(other.result.counts, serial.result.counts) << "threads=" << threads;
  }
}

TEST(RevoteElection, CoercerCounterIsOutlastedByASecretRevote) {
  // The coercer model: the evader surrenders the REAL credential; the
  // coercer casts with a counter of their choosing; the evader secretly
  // casts once more with a higher counter and their vote supersedes.
  ChaChaRng rng(0xC0E12CE);
  Election election(RevoteConfig(0), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto evader = election.Register("alice", 1, vsd, rng);
  auto honest = election.Register("bob", 1, vsd, rng);
  ASSERT_TRUE(evader.ok() && honest.ok());
  // Coercer holds the real credential and votes Alpha at counter 5.
  ASSERT_TRUE(election.CastRevote(evader->activated[0], "Alpha", 5, rng).ok());
  // The evader (who knows the counter they surrendered at) outbids it.
  ASSERT_TRUE(election.CastRevote(evader->activated[0], "Beta", 6, rng).ok());
  ASSERT_TRUE(election.Cast(honest->activated[0], "Alpha", rng).ok());
  TallyOutput output = election.Tally(rng);
  ASSERT_TRUE(election.Verify(output).ok());
  EXPECT_EQ(output.result.counts.at("Alpha"), 1u);  // honest only
  EXPECT_EQ(output.result.counts.at("Beta"), 1u);   // the evader's secret vote
  EXPECT_EQ(output.result.counted, 2u);
}

TEST(RevoteElection, CastStopsAtTheCounterLimitAndPostsNothing) {
  // Cast numbers a credential's ballots 0, 1, ...; a counter at the limit
  // could never decode at the tally, so that cast fails coded instead of
  // posting a ballot that silently never counts.
  ChaChaRng rng(0xC0E12D0);
  Election election(RevoteConfig(0), rng);
  Vsd vsd = election.trip().MakeVsd();
  auto voter = election.Register("alice", 1, vsd, rng);
  ASSERT_TRUE(voter.ok());
  for (uint64_t cast = 0; cast < kRevoteCounterLimit; ++cast) {
    ASSERT_TRUE(election.Cast(voter->activated[0], "Alpha", rng).ok()) << "cast " << cast;
  }
  const size_t posted = election.ledger().BallotCount();
  EXPECT_EQ(posted, kRevoteCounterLimit);
  Status status = election.Cast(voter->activated[0], "Beta", rng);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kExhausted);
  EXPECT_NE(status.reason().find(std::to_string(kRevoteCounterLimit)), std::string::npos)
      << status.reason();
  EXPECT_EQ(election.ledger().BallotCount(), posted);
}

TEST(RevoteElection, CastRevoteRequiresRevotingMode) {
  ChaChaRng rng(0xC0E12CF);
  ElectionConfig config = RevoteConfig(0);
  config.revoting = false;
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  auto voter = election.Register("alice", 1, vsd, rng);
  ASSERT_TRUE(voter.ok());
  Status status = election.CastRevote(voter->activated[0], "Alpha", 0, rng);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("requires config.revoting"), std::string::npos);
}

// --- Adversarial tallies ------------------------------------------------------

// A small tallied revote election the tampering tests mutate.
struct AdversarialFixture {
  AdversarialFixture()
      : rng(0xBADF00D), election(RevoteConfig(8), rng),
        vsd(election.trip().MakeVsd()) {
    auto alice = election.Register("alice", 1, vsd, rng);
    auto bob = election.Register("bob", 1, vsd, rng);
    auto carol = election.Register("carol", 1, vsd, rng);
    EXPECT_TRUE(alice.ok() && bob.ok() && carol.ok());
    EXPECT_TRUE(election.Cast(alice->activated[0], "Alpha", rng).ok());
    EXPECT_TRUE(election.Cast(alice->activated[0], "Beta", rng).ok());
    EXPECT_TRUE(election.Cast(bob->activated[0], "Alpha", rng).ok());
    EXPECT_TRUE(election.Cast(carol->activated[0], "Gamma", rng).ok());
    output = election.Tally(rng);
    EXPECT_TRUE(election.Verify(output).ok());
  }

  ChaChaRng rng;
  Election election;
  Vsd vsd;
  TallyOutput output;
};

TEST(RevoteBallotCheck, BindingChallengeHashesTheLedgerBytes) {
  // The validate shard checks each parsed ballot's binding proof over the
  // ledger entry's bytes: the same challenge as the in-memory check, with
  // no point encoded. The struct keeps no bytes, so a ballot changed after
  // parsing fails the in-memory check.
  AdversarialFixture f;
  const PublicLedger& ledger = f.election.ledger();
  const RistrettoPoint& authority_pk = f.election.trip().authority().public_key();
  LedgerCursor cursor = ledger.BallotCursor(0, ledger.BallotCount());
  LedgerEntryView view;
  size_t seen = 0;
  while (cursor.Next(&view)) {
    SCOPED_TRACE("ballot " + std::to_string(seen));
    auto ballot = RevoteBallot::Parse(view.payload);
    ASSERT_TRUE(ballot.ok());
    EXPECT_EQ(RevoteBallot::BoundPayloadFromWire(view.payload), ballot->BoundPayload());
    const uint64_t encodes = RistrettoEncodeInvocations();
    EXPECT_TRUE(CheckRevoteBallot(*ballot, view.payload, authority_pk).ok());
    EXPECT_EQ(RistrettoEncodeInvocations() - encodes, 0u);
    EXPECT_TRUE(CheckRevoteBallot(*ballot, authority_pk).ok());
    RevoteBallot changed = *ballot;
    changed.encrypted_vote.c2 = changed.encrypted_vote.c2 + RistrettoPoint::Base();
    EXPECT_FALSE(CheckRevoteBallot(changed, authority_pk).ok());
    ++seen;
  }
  EXPECT_EQ(seen, 4u);
}

TEST(RevoteAdversarial, DroppedValidBallotLocalizedToExactLedgerIndex) {
  AdversarialFixture f;
  // A tally that silently omits the last board ballot (carol's vote).
  TallyOutput bad = f.output;
  ASSERT_EQ(bad.transcript.revote.accepted.size(), 4u);
  bad.transcript.revote.accepted.pop_back();
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("drops the valid ballot at ledger index 3"),
            std::string::npos)
      << status.reason();
}

TEST(RevoteAdversarial, AlteredAcceptedBallotLocalizedToExactLedgerIndex) {
  AdversarialFixture f;
  // Omitting a MIDDLE ballot shifts the rest: the first altered position is
  // named by its ledger index.
  TallyOutput bad = f.output;
  bad.transcript.revote.accepted.erase(bad.transcript.revote.accepted.begin() + 1);
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("alters the ballot at ledger index 1"),
            std::string::npos)
      << status.reason();
}

TEST(RevoteAdversarial, KeepingASupersededBallotIsRejectedAtThePosition) {
  AdversarialFixture f;
  // The tally publishes verified tags/counters, then lies about the
  // selection: the verifier's replay of the pure selection function pins the
  // first divergent position.
  TallyOutput bad = f.output;
  ASSERT_FALSE(bad.transcript.revote.kept_indices.empty());
  // Claim an extra kept item (index 0 is kept or not; flipping membership of
  // ANY index diverges the replay).
  std::vector<uint64_t>& kept = bad.transcript.revote.kept_indices;
  if (kept.front() == 0) {
    kept.erase(kept.begin());  // drop the selection's winner
  } else {
    kept.insert(kept.begin(), 0);  // keep a superseded/dummy item
  }
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("kept set differs from the replayed selection at position 0"),
            std::string::npos)
      << status.reason();
}

TEST(RevoteAdversarial, RemovedDummyGroupIsRejected) {
  AdversarialFixture f;
  TallyOutput bad = f.output;
  ASSERT_FALSE(bad.transcript.revote.dummies.empty());
  bad.transcript.revote.dummies.pop_back();
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("revote mix input size mismatch"), std::string::npos)
      << status.reason();
}

TEST(RevoteAdversarial, ForgedDummyOpeningLocalizedToItsGroup) {
  AdversarialFixture f;
  // Publish a different credential scalar than the one actually mixed: the
  // recomputed trivial encryptions no longer match the mix input.
  TallyOutput bad = f.output;
  ASSERT_FALSE(bad.transcript.revote.dummies.empty());
  bad.transcript.revote.dummies[0].credential =
      bad.transcript.revote.dummies[0].credential + Scalar::One();
  Status status = f.election.Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("dummy opening does not match mix input (group 0)"),
            std::string::npos)
      << status.reason();
}

TEST(RevoteAdversarial, UnpaddedBoardFailsTheEnvelopeCheck) {
  // A tally that skipped its padding (miscounted dummies) is rejected by a
  // verifier enforcing the envelope — run the tally with padding off, audit
  // with the published (padding-on) parameters.
  ChaChaRng rng(0xBADF00E);
  ElectionConfig config = RevoteConfig(0);
  config.revote_padding = false;
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 1, vsd, rng);
  auto bob = election.Register("bob", 1, vsd, rng);
  ASSERT_TRUE(alice.ok() && bob.ok());
  ASSERT_TRUE(election.Cast(alice->activated[0], "Alpha", rng).ok());
  ASSERT_TRUE(election.Cast(bob->activated[0], "Beta", rng).ok());
  TallyOutput output = election.Tally(rng);
  VerifierParams lax = election.verifier_params();
  EXPECT_FALSE(lax.revote_padding);
  ASSERT_TRUE(VerifyElection(election.ledger(), lax, election.candidates(), output,
                             election.executor())
                  .ok());
  VerifierParams strict = lax;
  strict.revote_padding = true;
  Status status = VerifyElection(election.ledger(), strict, election.candidates(), output,
                                 election.executor());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("below the cover envelope"), std::string::npos)
      << status.reason();
}

TEST(RevoteAdversarial, LegacyTallyMustNotCarryARevoteSection) {
  // Belt and braces: a legacy election whose transcript smuggles a revote
  // section is rejected outright.
  ChaChaRng rng(0xBADF00F);
  ElectionConfig config;
  config.roster = {"alice"};
  config.candidates = {"Alpha"};
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  auto voter = election.Register("alice", 1, vsd, rng);
  ASSERT_TRUE(voter.ok());
  ASSERT_TRUE(election.Cast(voter->activated[0], "Alpha", rng).ok());
  TallyOutput output = election.Tally(rng);
  ASSERT_TRUE(election.Verify(output).ok());
  output.transcript.revote.dummies.push_back({Scalar::One(), 1});
  Status status = election.Verify(output);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.reason().find("unexpected revote section"), std::string::npos)
      << status.reason();
}

}  // namespace
}  // namespace votegral
