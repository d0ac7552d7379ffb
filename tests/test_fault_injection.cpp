// Fault-tolerance suite: the deterministic fault-injection harness, the
// t-of-n threshold degradation of the tally, and the ledger crash-recovery
// drills.
//
// Contracts exercised here (see docs/ROBUSTNESS.md):
//  * FaultPlan decisions are a pure PRF of (seed, point, scope, key) —
//    reproducible, independent of thread count and call order.
//  * With a 5-member threshold-3 authority, any n-t faulted members (crash,
//    stall, Byzantine corruption) still yield a completed tally whose
//    excluded members are named with coded statuses, and whose transcript
//    passes universal verification. Fewer than t honest members fails with
//    kUnavailable — never a wrong result.
//  * A >= 32-seed randomized fault soak: every run either verifies with the
//    no-fault counts or fails coded. Degraded transcripts are byte-identical
//    across thread counts.
//  * FileLedgerStore drills: a torn append and a torn (partial) seal both
//    recover on reopen, and appends resume on the recovered log.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/faults.h"
#include "src/crypto/drbg.h"
#include "src/ledger/ledger.h"
#include "src/votegral/authority_client.h"
#include "src/votegral/election.h"
#include "src/votegral/tally_internal.h"
#include "tests/transcript_digest.h"

namespace votegral {
namespace {

namespace fs = std::filesystem;

// --- StatusCode / Outcome plumbing ------------------------------------------

TEST(StatusCode, CodedErrorsCarryClassAndReason)
{
  Status plain = Status::Error("old-style failure");
  EXPECT_EQ(plain.code(), StatusCode::kFailed);

  Status coded = Status::Error(StatusCode::kTimeout, "authority 2: deadline");
  EXPECT_FALSE(coded.ok());
  EXPECT_EQ(coded.code(), StatusCode::kTimeout);
  EXPECT_EQ(coded.reason(), "authority 2: deadline");
  EXPECT_STREQ(StatusCodeName(coded.code()), "timeout");

  EXPECT_THROW(Status::Error(StatusCode::kOk, "not a failure"), ProtocolError);
}

TEST(Outcome, FailedDereferenceNamesTheUnderlyingCode) {
  Outcome<int> failed = Outcome<int>::Fail(StatusCode::kUnavailable, "authority 3 down");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  try {
    (void)*failed;
    FAIL() << "dereference of failed outcome did not throw";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unavailable"), std::string::npos) << what;
    EXPECT_NE(what.find("authority 3 down"), std::string::npos) << what;
  }
}

// --- FaultPlan determinism ---------------------------------------------------

TEST(FaultPlan, DecisionsAreAPureFunctionOfSeedPointScopeKey) {
  FaultPlan a(77);
  a.Timeout(faults::kAuthorityComputeShare, 0.5);
  FaultPlan b(77);
  b.Timeout(faults::kAuthorityComputeShare, 0.5);

  size_t injected = 0;
  for (uint64_t scope = 0; scope < 4; ++scope) {
    for (uint64_t key = 0; key < 64; ++key) {
      FaultDecision da = a.Decide(faults::kAuthorityComputeShare, scope, key);
      FaultDecision db = b.Decide(faults::kAuthorityComputeShare, scope, key);
      EXPECT_EQ(da.kind, db.kind);
      injected += da.none() ? 0 : 1;
    }
  }
  // rate 0.5 over 256 draws: comfortably away from "always" and "never".
  EXPECT_GT(injected, 64u);
  EXPECT_LT(injected, 192u);

  // A different seed reshuffles the schedule.
  FaultPlan c(78);
  c.Timeout(faults::kAuthorityComputeShare, 0.5);
  size_t differs = 0;
  for (uint64_t key = 0; key < 64; ++key) {
    if (c.Decide(faults::kAuthorityComputeShare, 0, key).kind !=
        a.Decide(faults::kAuthorityComputeShare, 0, key).kind) {
      ++differs;
    }
  }
  EXPECT_GT(differs, 0u);
}

TEST(FaultPlan, CrashIsPermanentPerScopeAndIgnoresTheOperationKey) {
  FaultPlan plan(5);
  plan.Crash(faults::kAuthorityComputeShare, 0.5);
  for (uint64_t scope = 0; scope < 16; ++scope) {
    FaultDecision first = plan.Decide(faults::kAuthorityComputeShare, scope, 0);
    for (uint64_t key = 1; key < 32; ++key) {
      EXPECT_EQ(plan.Decide(faults::kAuthorityComputeShare, scope, key).kind, first.kind)
          << "crash decision varied with the operation key (scope " << scope << ")";
    }
  }
}

TEST(FaultPlan, RateEndpointsAndScopeFilters) {
  FaultPlan plan(9);
  plan.Crash(faults::kMixShuffle, 1.0, /*scope=*/1);
  plan.Corrupt(faults::kTagApply, 0.0);
  EXPECT_EQ(plan.Decide(faults::kMixShuffle, 1, 0).kind, FaultKind::kCrash);
  EXPECT_TRUE(plan.Decide(faults::kMixShuffle, 0, 0).none()) << "scope filter ignored";
  for (uint64_t key = 0; key < 64; ++key) {
    EXPECT_TRUE(plan.Decide(faults::kTagApply, 0, key).none()) << "rate 0 injected";
  }
}

TEST(FaultPlan, DelaySamplesWithinTheConfiguredWindow) {
  FaultPlan plan(11);
  plan.Delay(faults::kAuthorityComputeShare, 1.0, /*delay_ms_min=*/5, /*delay_ms_max=*/20);
  std::set<uint64_t> seen;
  for (uint64_t key = 0; key < 64; ++key) {
    FaultDecision d = plan.Decide(faults::kAuthorityComputeShare, 0, key);
    ASSERT_EQ(d.kind, FaultKind::kDelay);
    EXPECT_GE(d.delay_ms, 5u);
    EXPECT_LE(d.delay_ms, 20u);
    seen.insert(d.delay_ms);
  }
  EXPECT_GT(seen.size(), 1u) << "delay sampling degenerated to a constant";
}

TEST(FaultInjector, DisarmedProbesAreFreeAndArmedProbesAreCounted) {
  ASSERT_FALSE(FaultInjector::Armed());
  EXPECT_TRUE(ProbeFaultPoint(faults::kLedgerAppend, 0, 0).none());

  FaultPlan plan(3);
  plan.Crash(faults::kLedgerAppend, 1.0);
  {
    ArmedFaults armed(plan);
    ASSERT_TRUE(FaultInjector::Armed());
    EXPECT_EQ(ProbeFaultPoint(faults::kLedgerAppend, 0, 0).kind, FaultKind::kCrash);
    EXPECT_EQ(ProbeFaultPoint(faults::kLedgerAppend, 1, 7).kind, FaultKind::kCrash);
    EXPECT_TRUE(ProbeFaultPoint(faults::kMixShuffle, 0, 0).none());
    EXPECT_EQ(FaultInjector::Instance().InjectionCount(faults::kLedgerAppend), 2u);
    EXPECT_EQ(FaultInjector::Instance().TotalInjections(), 2u);
  }
  EXPECT_FALSE(FaultInjector::Armed());
}

TEST(FaultInjector, RegisteredPointCatalogCoversTheDrilledSites) {
  auto points = RegisteredFaultPoints();
  std::set<std::string_view> names(points.begin(), points.end());
  for (std::string_view expected :
       {faults::kAuthorityComputeShare, faults::kLedgerAppend, faults::kLedgerSeal,
        faults::kMixShuffle, faults::kTagApply, faults::kTallyDedup}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

// --- Threshold DKG -----------------------------------------------------------

TEST(ThresholdDkg, AnyTSubsetRecombinesAndFewerThrows) {
  ChaChaRng rng(101);
  auto authority = ElectionAuthority::CreateThreshold(3, 5, rng);
  ASSERT_TRUE(authority.is_threshold());
  EXPECT_EQ(authority.threshold(), 3u);
  EXPECT_TRUE(authority.VerifySetup().ok()) << authority.VerifySetup().reason();
  // The combined Shamir secret really is the discrete log of the public key.
  EXPECT_TRUE(authority.CombinedSecret() * RistrettoPoint::Base() ==
              authority.public_key());

  RistrettoPoint msg = Scalar::Random(rng) * RistrettoPoint::Base();
  auto ct = ElGamalEncrypt(authority.public_key(), msg, rng);

  for (std::vector<size_t> subset :
       {std::vector<size_t>{0, 1, 2}, {0, 2, 4}, {1, 3, 4}, {0, 1, 2, 3, 4}}) {
    std::vector<DecryptionShare> shares;
    for (size_t member : subset) {
      DecryptionShare share = authority.ComputeShare(member, ct, rng);
      ASSERT_TRUE(authority.VerifyShare(ct, share).ok());
      shares.push_back(std::move(share));
    }
    EXPECT_TRUE(authority.CombineShares(ct, shares) == msg)
        << "subset of " << subset.size() << " members decrypted wrongly";
  }

  std::vector<DecryptionShare> two = {authority.ComputeShare(0, ct, rng),
                                      authority.ComputeShare(3, ct, rng)};
  EXPECT_THROW((void)authority.CombineShares(ct, two), ProtocolError);
  // Duplicate members do not count towards the threshold.
  two.push_back(authority.ComputeShare(0, ct, rng));
  EXPECT_THROW((void)authority.CombineShares(ct, two), ProtocolError);
}

TEST(ThresholdDkg, ForgedShareIsRejectedByVerifyShare) {
  ChaChaRng rng(102);
  auto authority = ElectionAuthority::CreateThreshold(2, 4, rng);
  auto ct = ElGamalEncrypt(authority.public_key(), RistrettoPoint::Base(), rng);
  DecryptionShare share = authority.ComputeShare(1, ct, rng);
  share.share = share.share + RistrettoPoint::Base();
  Status rejected = authority.VerifyShare(ct, share);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidProof);
}

// --- Election-level degradation ----------------------------------------------

constexpr size_t kMembers = 5;
constexpr size_t kThreshold = 3;

struct FaultedRun {
  Outcome<TallyOutput> outcome = Outcome<TallyOutput>::Fail("not run");
  bool verified = false;
  std::array<uint8_t, 32> digest{};
};

// One small threshold election, reused across tallies: registration and
// casting run fault-free; each tally arms its own plan.
class SmallElection {
 public:
  explicit SmallElection(size_t threads = 0, bool revoting = false) {
    ChaChaRng rng(0xFA417);
    ElectionConfig config;
    config.roster = {"alice", "bob", "carol"};
    config.candidates = {"Alpha", "Beta"};
    config.authority_members = kMembers;
    config.authority_threshold = kThreshold;
    config.threads = threads;
    config.revoting = revoting;
    election_ = std::make_unique<Election>(config, rng);
    Vsd vsd = election_->trip().MakeVsd();
    const char* choices[] = {"Alpha", "Beta", "Alpha"};
    for (size_t i = 0; i < config.roster.size(); ++i) {
      auto voter = election_->Register(config.roster[i], /*fake_count=*/1, vsd, rng);
      Require(voter.ok(), "fixture: registration failed");
      Require(election_->Cast(voter->activated[0], choices[i], rng).ok(),
              "fixture: real cast failed");
      Require(election_->Cast(voter->activated[1], "Beta", rng).ok(),
              "fixture: fake cast failed");
      if (revoting && i == 0) {
        // Alice revotes: the dedup stage has real supersession work to do.
        Require(election_->Cast(voter->activated[0], "Beta", rng).ok(),
                "fixture: revote cast failed");
      }
    }
  }

  // Tallies under `plan` (or fault-free when null), always with the same
  // tally seed, and verifies successful outputs.
  FaultedRun Tally(const FaultPlan* plan) {
    ChaChaRng tally_rng(0xFA418);
    FaultedRun run;
    if (plan != nullptr) {
      ArmedFaults armed(*plan);
      run.outcome = election_->TryTally(tally_rng);
    } else {
      run.outcome = election_->TryTally(tally_rng);
    }
    if (run.outcome.ok()) {
      run.verified = election_->Verify(*run.outcome).ok();
      run.digest = DigestTranscriptWithWire(*run.outcome);
    }
    return run;
  }

  Election& election() { return *election_; }

 private:
  std::unique_ptr<Election> election_;
};

TEST(ThresholdTally, NoFaultThresholdRunVerifiesAndExcludesNobody) {
  SmallElection fixture;
  FaultedRun run = fixture.Tally(nullptr);
  ASSERT_TRUE(run.outcome.ok()) << run.outcome.status.reason();
  EXPECT_TRUE(run.verified);
  EXPECT_TRUE(run.outcome->excluded_authorities.empty());
  EXPECT_EQ(run.outcome->result.counts.at("Alpha"), 2u);
  EXPECT_EQ(run.outcome->result.counts.at("Beta"), 1u);
}

TEST(ThresholdTally, SurvivesNMinusTFaultedAuthoritiesWithNamedBlame) {
  SmallElection fixture;
  FaultedRun baseline = fixture.Tally(nullptr);
  ASSERT_TRUE(baseline.outcome.ok());

  // Exactly n - t = 2 members misbehave: member 1 crashes for the whole
  // run, member 4 responds with forged shares. The remaining {0, 2, 3}
  // carry the tally.
  FaultPlan plan(0xD1);
  plan.Crash(faults::kAuthorityComputeShare, 1.0, /*scope=*/1);
  plan.Corrupt(faults::kAuthorityComputeShare, 1.0, /*scope=*/4);

  FaultedRun run = fixture.Tally(&plan);
  ASSERT_TRUE(run.outcome.ok()) << run.outcome.status.reason();
  EXPECT_TRUE(run.verified) << "degraded transcript failed universal verification";
  EXPECT_EQ(run.outcome->result.counts, baseline.outcome->result.counts)
      << "degradation changed the election result";

  ASSERT_EQ(run.outcome->excluded_authorities.size(), 2u);
  const AuthorityBlame& crashed = run.outcome->excluded_authorities[0];
  EXPECT_EQ(crashed.member_index, 1u);
  EXPECT_EQ(crashed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(crashed.status.reason().find("authority 1: crash injected at "
                                         "authority.compute_share"),
            std::string::npos)
      << crashed.status.reason();
  const AuthorityBlame& byzantine = run.outcome->excluded_authorities[1];
  EXPECT_EQ(byzantine.member_index, 4u);
  EXPECT_EQ(byzantine.status.code(), StatusCode::kInvalidProof);
  EXPECT_NE(byzantine.status.reason().find("share rejected on arrival"),
            std::string::npos)
      << byzantine.status.reason();

  // Participation is recorded per ciphertext: only surviving members appear.
  for (const auto& per_ct : run.outcome->transcript.vote_shares) {
    ASSERT_GE(per_ct.size(), kThreshold);
    for (const DecryptionShare& share : per_ct) {
      EXPECT_NE(share.member_index, 1u);
      EXPECT_NE(share.member_index, 4u);
    }
  }
}

TEST(ThresholdTally, PersistentTimeoutsExhaustRetriesAndAreExcluded) {
  SmallElection fixture;
  FaultPlan plan(0xD2);
  plan.Timeout(faults::kAuthorityComputeShare, 1.0, /*scope=*/2);
  FaultedRun run = fixture.Tally(&plan);
  ASSERT_TRUE(run.outcome.ok()) << run.outcome.status.reason();
  EXPECT_TRUE(run.verified);
  ASSERT_EQ(run.outcome->excluded_authorities.size(), 1u);
  EXPECT_EQ(run.outcome->excluded_authorities[0].member_index, 2u);
  EXPECT_EQ(run.outcome->excluded_authorities[0].status.code(), StatusCode::kExhausted);
  // The exhausted status names how many attempts the retry budget bought.
  EXPECT_NE(run.outcome->excluded_authorities[0].status.reason().find("after 3 attempt(s)"),
            std::string::npos)
      << run.outcome->excluded_authorities[0].status.reason();
}

TEST(ThresholdTally, FewerThanTLiveAuthoritiesFailsUnavailableNeverWrong) {
  // 3 of 5 crashed leaves 2 < t = 3 live members.
  FaultPlan plan(0xD3);
  plan.Crash(faults::kAuthorityComputeShare, 1.0, /*scope=*/0);
  plan.Crash(faults::kAuthorityComputeShare, 1.0, /*scope=*/2);
  plan.Crash(faults::kAuthorityComputeShare, 1.0, /*scope=*/3);
  {
    SmallElection fixture;
    FaultedRun run = fixture.Tally(&plan);
    ASSERT_FALSE(run.outcome.ok()) << "tally claimed success below the threshold";
    EXPECT_EQ(run.outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_NE(run.outcome.status.reason().find("authority shares"), std::string::npos)
        << run.outcome.status.reason();
  }
  // Under revoting the first batch to finalize short is the dedup's tag
  // decryption, and the reason names it at any thread count.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("revoting, threads=" + std::to_string(threads));
    SmallElection fixture(threads, /*revoting=*/true);
    FaultedRun run = fixture.Tally(&plan);
    ASSERT_FALSE(run.outcome.ok()) << "tally claimed success below the threshold";
    EXPECT_EQ(run.outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(run.outcome.status.reason(),
              "dedup stage: revote tags: only 2 of 5 authority shares for ciphertext 0 "
              "(threshold 3)");
  }
}

TEST(ThresholdTally, VerifierRejectsForgedShareInRecordedSubset) {
  SmallElection fixture;
  FaultPlan plan(0xD4);
  plan.Crash(faults::kAuthorityComputeShare, 1.0, /*scope=*/1);
  FaultedRun run = fixture.Tally(&plan);
  ASSERT_TRUE(run.outcome.ok());
  ASSERT_TRUE(run.verified);

  TallyOutput tampered = *run.outcome;
  ASSERT_FALSE(tampered.transcript.vote_shares.empty());
  ASSERT_FALSE(tampered.transcript.vote_shares[0].empty());
  DecryptionShare& victim = tampered.transcript.vote_shares[0][0];
  victim.share = victim.share + RistrettoPoint::Base();
  EXPECT_FALSE(fixture.election().Verify(tampered).ok())
      << "verifier accepted a forged share inside a degraded subset";
}

TEST(ThresholdTally, StageFaultsFailCodedInsteadOfProducingOutput) {
  SmallElection fixture;
  {
    FaultPlan plan(0xD5);
    plan.Crash(faults::kMixShuffle, 1.0);
    FaultedRun run = fixture.Tally(&plan);
    ASSERT_FALSE(run.outcome.ok());
    EXPECT_EQ(run.outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_NE(run.outcome.status.reason().find("mix.shuffle"), std::string::npos)
        << run.outcome.status.reason();
  }
  {
    FaultPlan plan(0xD6);
    plan.Corrupt(faults::kTagApply, 1.0);
    FaultedRun run = fixture.Tally(&plan);
    ASSERT_FALSE(run.outcome.ok());
    EXPECT_EQ(run.outcome.status.code(), StatusCode::kCorrupted);
    EXPECT_NE(run.outcome.status.reason().find("tag.apply"), std::string::npos)
        << run.outcome.status.reason();
  }
  // Roster scope: the ballot-side probe (scope 0) passes, the roster-side one
  // fails the run with the stage-wrapped reason, and it fires exactly once.
  {
    FaultPlan plan(0xDB);
    plan.Crash(faults::kMixShuffle, 1.0, /*scope=*/1);
    FaultedRun run = fixture.Tally(&plan);
    ASSERT_FALSE(run.outcome.ok());
    EXPECT_EQ(run.outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(run.outcome.status.reason(),
              "mix stage: roster mix: crash injected at mix.shuffle");
    EXPECT_EQ(FaultInjector::Instance().InjectionCount(faults::kMixShuffle), 1u);
  }
  {
    FaultPlan plan(0xDC);
    plan.Corrupt(faults::kTagApply, 1.0, /*scope=*/1);
    FaultedRun run = fixture.Tally(&plan);
    ASSERT_FALSE(run.outcome.ok());
    EXPECT_EQ(run.outcome.status.code(), StatusCode::kCorrupted);
    EXPECT_EQ(run.outcome.status.reason(),
              "tag stage: roster tagging: output integrity check failed at tag.apply");
    EXPECT_EQ(FaultInjector::Instance().InjectionCount(faults::kTagApply), 1u);
  }
}

TEST(ThresholdTally, DedupStageFaultsFailCodedInBothModes) {
  // The tally.dedup point guards legacy dedup AND the revote supersession
  // pipeline: a crash fails kUnavailable with the point named, a corruption
  // fails kCorrupted — never silent wrong output.
  {
    SmallElection fixture;
    FaultPlan plan(0xD8);
    plan.Crash(faults::kTallyDedup, 1.0);
    FaultedRun run = fixture.Tally(&plan);
    ASSERT_FALSE(run.outcome.ok());
    EXPECT_EQ(run.outcome.status.code(), StatusCode::kUnavailable);
    EXPECT_NE(run.outcome.status.reason().find("dedup: crash injected at tally.dedup"),
              std::string::npos)
        << run.outcome.status.reason();
  }
  {
    SmallElection fixture(0, /*revoting=*/true);
    FaultPlan plan(0xD9);
    plan.Corrupt(faults::kTallyDedup, 1.0);
    FaultedRun run = fixture.Tally(&plan);
    ASSERT_FALSE(run.outcome.ok());
    EXPECT_EQ(run.outcome.status.code(), StatusCode::kCorrupted);
    EXPECT_NE(run.outcome.status.reason().find("revote dedup"), std::string::npos)
        << run.outcome.status.reason();
  }
}

TEST(ThresholdTally, RevoteStageFaultsFailCodedInsteadOfProducingOutput) {
  // The revote pipeline's own mix/tag probes (scope 2) fire under revoting
  // and fail coded like every other stage, exactly once, before any node of
  // the dedup's flow is submitted.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SmallElection fixture(threads, /*revoting=*/true);
    {
      FaultPlan plan(0xDA);
      plan.Crash(faults::kMixShuffle, 1.0, /*scope=*/2);
      FaultedRun run = fixture.Tally(&plan);
      ASSERT_FALSE(run.outcome.ok());
      EXPECT_EQ(run.outcome.status.code(), StatusCode::kUnavailable);
      EXPECT_EQ(run.outcome.status.reason(),
                "dedup stage: revote mix: crash injected at mix.shuffle");
      EXPECT_EQ(FaultInjector::Instance().InjectionCount(faults::kMixShuffle), 1u);
    }
    {
      FaultPlan plan(0xDB);
      plan.Corrupt(faults::kTagApply, 1.0, /*scope=*/2);
      FaultedRun run = fixture.Tally(&plan);
      ASSERT_FALSE(run.outcome.ok());
      EXPECT_EQ(run.outcome.status.code(), StatusCode::kCorrupted);
      EXPECT_EQ(run.outcome.status.reason(),
                "dedup stage: revote tagging: output integrity check failed at tag.apply");
      EXPECT_EQ(FaultInjector::Instance().InjectionCount(faults::kTagApply), 1u);
    }
  }
}

TEST(ThresholdTally, DegradedTranscriptIsByteIdenticalAcrossThreadCounts) {
  FaultPlan plan(0xD7);
  plan.Crash(faults::kAuthorityComputeShare, 1.0, /*scope=*/3);
  plan.Timeout(faults::kAuthorityComputeShare, 0.3);
  plan.Delay(faults::kAuthorityComputeShare, 0.3, 5, 60);

  for (bool revoting : {false, true}) {
    std::optional<std::array<uint8_t, 32>> reference;
    std::optional<std::vector<size_t>> reference_excluded;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string(revoting ? "revoting" : "legacy") +
                   ", threads=" + std::to_string(threads));
      SmallElection fixture(threads, revoting);
      FaultedRun run = fixture.Tally(&plan);
      ASSERT_TRUE(run.outcome.ok()) << run.outcome.status.reason();
      EXPECT_TRUE(run.verified);
      std::vector<size_t> excluded;
      for (const AuthorityBlame& blame : run.outcome->excluded_authorities) {
        excluded.push_back(blame.member_index);
      }
      if (revoting) {
        EXPECT_EQ(excluded, (std::vector<size_t>{0, 1, 3}));
      }
      if (!reference.has_value()) {
        reference = run.digest;
        reference_excluded = excluded;
      } else {
        EXPECT_EQ(run.digest, *reference) << "degraded transcript depends on thread count";
        EXPECT_EQ(excluded, *reference_excluded);
      }
    }
  }
}

// What a decrypt shard leaves for ciphertexts [begin, end): each share's
// member and bytes, each failed request's report, and the combination.
std::vector<std::string> DecryptShardRecord(const std::vector<std::vector<DecryptionShare>>& shares,
                                            const std::vector<CompressedRistretto>& encoded,
                                            const tally_internal::DecryptBatchBuffers& buffers,
                                            size_t begin, size_t end) {
  std::vector<std::string> record;
  for (size_t i = begin; i < end; ++i) {
    for (const DecryptionShare& share : shares[i]) {
      record.push_back(std::to_string(i) + " share " + std::to_string(share.member_index) + " " +
                       HexEncode(share.share_wire) + " " + HexEncode(share.share.Encode()) + " " +
                       HexEncode(share.proof.Serialize()));
    }
    if (!buffers.failed.empty()) {
      for (const ShareRequestReport& report : buffers.failed[i]) {
        record.push_back(std::to_string(i) + " failed " + std::to_string(report.member_index) +
                         " after " + std::to_string(report.attempts) + " in " +
                         std::to_string(report.sim_seconds) + " s: " + report.status.reason());
      }
    }
    record.push_back(std::to_string(i) + " short " +
                     std::to_string(buffers.short_of_threshold[i]) + " combined " +
                     HexEncode(encoded[i]));
  }
  return record;
}

TEST(ThresholdTally, DecryptShardMatchesOneCiphertextRanges) {
  // A decrypt shard plans its requests, proves each member's shares of the
  // range as one batch, then receives the responses. From one seeded stream
  // its shares, their bytes, the failed requests, the combinations and the
  // stream's end state are those of one-ciphertext ranges taken in order:
  // fault decisions and nonces follow (ciphertext, member) order. Checked
  // with no plan armed, and with a crashed member, timeouts, corruptions
  // (rejected on arrival) and delays.
  ChaChaRng rng(3006);
  const ElectionAuthority authority = ElectionAuthority::CreateThreshold(3, 5, rng);
  const TaggingService tagging = TaggingService::Create(2, rng);
  const TallyService service(authority, tagging);
  const AuthorityClient client(authority);
  std::vector<ElGamalCiphertext> cts;
  std::vector<ElGamalWire> cts_wire;
  for (int i = 0; i < 21; ++i) {
    cts.push_back(ElGamalEncrypt(authority.public_key(),
                                 RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)), rng));
    cts_wire.push_back(cts.back().Wire());
  }
  const size_t begin = 2;
  const size_t end = cts.size();
  const Bytes seed = rng.RandomBytes(32);
  FaultPlan plan(0x5A);
  plan.Crash(faults::kAuthorityComputeShare, 1.0, /*scope=*/4);
  plan.Timeout(faults::kAuthorityComputeShare, 0.2);
  plan.Corrupt(faults::kAuthorityComputeShare, 0.15);
  plan.Delay(faults::kAuthorityComputeShare, 0.3, 5, 60);
  for (bool armed : {false, true}) {
    SCOPED_TRACE(armed ? "faults armed" : "no faults");
    std::optional<ArmedFaults> faults;
    if (armed) {
      faults.emplace(plan);
    }
    auto run = [&](bool one_at_a_time, Rng& child) {
      std::vector<std::vector<DecryptionShare>> shares;
      std::vector<CompressedRistretto> encoded;
      tally_internal::DecryptBatchBuffers buffers;
      buffers.Init(authority, cts.size(), &shares, &encoded);
      for (size_t i = begin; i < end; i = one_at_a_time ? i + 1 : end) {
        tally_internal::DecryptShareShardRange(service, client, cts, cts_wire,
                                               tally_internal::kEpochVotes, i,
                                               one_at_a_time ? i + 1 : end, child, buffers);
      }
      return DecryptShardRecord(shares, encoded, buffers, begin, end);
    };
    ChaChaRng batch_rng(seed);
    ChaChaRng single_rng(seed);
    const std::vector<std::string> batched = run(false, batch_rng);
    const std::vector<std::string> singles = run(true, single_rng);
    EXPECT_EQ(batched, singles);
    EXPECT_EQ(batch_rng.RandomBytes(32), single_rng.RandomBytes(32));
    if (armed) {
      // The plan bites: some requests fail, and some ciphertexts still
      // combine.
      const auto has = [&](std::string_view what) {
        return std::any_of(batched.begin(), batched.end(), [&](const std::string& line) {
          return line.find(what) != std::string::npos;
        });
      };
      EXPECT_TRUE(has("rejected on arrival"));
      EXPECT_TRUE(has("crash injected"));
      EXPECT_TRUE(has("short 0"));
    }
  }
}

// --- Randomized fault soak ---------------------------------------------------

TEST(FaultSoak, ThirtyTwoSeedsEitherVerifyOrFailCoded) {
  SmallElection fixture;
  FaultedRun baseline = fixture.Tally(nullptr);
  ASSERT_TRUE(baseline.outcome.ok());
  ASSERT_TRUE(baseline.verified);

  size_t degraded_successes = 0;
  size_t coded_failures = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("fault plan seed " + std::to_string(seed));
    FaultPlan plan(seed);
    plan.Crash(faults::kAuthorityComputeShare, 0.18);
    plan.Timeout(faults::kAuthorityComputeShare, 0.20);
    plan.Corrupt(faults::kAuthorityComputeShare, 0.12);
    plan.Delay(faults::kAuthorityComputeShare, 0.25, 5, 120);
    FaultedRun run = fixture.Tally(&plan);
    if (run.outcome.ok()) {
      // Completed: must verify and must match the fault-free result exactly.
      EXPECT_TRUE(run.verified) << "seed " << seed << ": transcript failed verification";
      EXPECT_EQ(run.outcome->result.counts, baseline.outcome->result.counts)
          << "seed " << seed << ": degraded run changed the result";
      if (!run.outcome->excluded_authorities.empty()) {
        ++degraded_successes;
        for (const AuthorityBlame& blame : run.outcome->excluded_authorities) {
          EXPECT_LT(blame.member_index, kMembers);
          EXPECT_NE(blame.status.code(), StatusCode::kOk);
          EXPECT_NE(blame.status.code(), StatusCode::kFailed)
              << "blame must be coded, got: " << blame.status.reason();
        }
      }
    } else {
      ++coded_failures;
      EXPECT_EQ(run.outcome.status.code(), StatusCode::kUnavailable)
          << run.outcome.status.reason();
    }
  }
  // The rates are chosen so the soak exercises both regimes; if every seed
  // lands on one side the schedule has degenerated.
  EXPECT_GT(degraded_successes + coded_failures, 0u)
      << "soak never injected an observable fault";
}

TEST(FaultSoak, ThirtyTwoSeedsStayGreenUnderRevoting) {
  // The same drill over the revote configuration: the supersession pipeline
  // (padding oracle, revote mix, tag/counter decryptions) sits between the
  // faulted authority and the result, and must preserve the
  // verify-or-fail-coded contract.
  SmallElection fixture(0, /*revoting=*/true);
  FaultedRun baseline = fixture.Tally(nullptr);
  ASSERT_TRUE(baseline.outcome.ok()) << baseline.outcome.status.reason();
  ASSERT_TRUE(baseline.verified);
  // Alice's superseded cast plus each dummy group's internal supersessions.
  size_t dummy_superseded = 0;
  for (const RevoteDummyGroup& group : baseline.outcome->transcript.revote.dummies) {
    dummy_superseded += group.size - 1;
  }
  EXPECT_EQ(baseline.outcome->result.discards.superseded, 1u + dummy_superseded);

  size_t observable_faults = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("fault plan seed " + std::to_string(seed));
    FaultPlan plan(seed * 1000 + 7);
    plan.Crash(faults::kAuthorityComputeShare, 0.18);
    plan.Timeout(faults::kAuthorityComputeShare, 0.20);
    plan.Corrupt(faults::kAuthorityComputeShare, 0.12);
    plan.Delay(faults::kAuthorityComputeShare, 0.25, 5, 120);
    FaultedRun run = fixture.Tally(&plan);
    if (run.outcome.ok()) {
      EXPECT_TRUE(run.verified) << "seed " << seed << ": transcript failed verification";
      EXPECT_EQ(run.outcome->result.counts, baseline.outcome->result.counts)
          << "seed " << seed << ": degraded run changed the result";
      observable_faults += run.outcome->excluded_authorities.empty() ? 0 : 1;
      for (const AuthorityBlame& blame : run.outcome->excluded_authorities) {
        EXPECT_NE(blame.status.code(), StatusCode::kOk);
        EXPECT_NE(blame.status.code(), StatusCode::kFailed)
            << "blame must be coded, got: " << blame.status.reason();
      }
    } else {
      ++observable_faults;
      EXPECT_EQ(run.outcome.status.code(), StatusCode::kUnavailable)
          << run.outcome.status.reason();
    }
  }
  EXPECT_GT(observable_faults, 0u) << "soak never injected an observable fault";
}

// --- Ledger crash-recovery drills --------------------------------------------

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("votegral_faults_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

LedgerStorageConfig FileConfig(const std::string& dir, size_t segment_entries = 8) {
  LedgerStorageConfig config;
  config.backend = LedgerStorageConfig::Backend::kFile;
  config.directory = dir;
  config.segment_entries = segment_entries;
  return config;
}

Bytes Payload(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(LedgerCrashDrill, TornAppendRecoversAndResumes) {
  ScratchDir dir("torn_append");
  {
    Ledger ledger(FileConfig(dir.path));
    for (int i = 0; i < 5; ++i) {
      ledger.Append("a", Payload("entry-" + std::to_string(i)));
    }
    FaultPlan plan(21);
    plan.Crash(faults::kLedgerAppend, 1.0);
    ArmedFaults armed(plan);
    EXPECT_THROW(ledger.Append("a", Payload("torn")), InjectedCrash);
  }  // the "process" dies here; only the on-disk state survives

  auto recovered = Ledger::Open(FileConfig(dir.path));
  ASSERT_TRUE(recovered.ok()) << recovered.status.reason();
  EXPECT_EQ(recovered->size(), 5u) << "torn frame was not truncated away";
  EXPECT_TRUE(recovered->VerifyChain().ok());
  const auto& store = static_cast<const FileLedgerStore&>(recovered->store());
  EXPECT_TRUE(store.recovery_stats().truncated_tail);
  EXPECT_GT(store.recovery_stats().dropped_bytes, 0u);

  const_cast<Ledger&>(*recovered).Append("a", Payload("resumed"));
  EXPECT_EQ(recovered->size(), 6u);
  EXPECT_TRUE(recovered->VerifyChain().ok());
}

TEST(LedgerCrashDrill, TornSealLeavesTempAndReopenFinishesTheSeal) {
  ScratchDir dir("torn_seal");
  {
    Ledger ledger(FileConfig(dir.path, /*segment_entries=*/8));
    for (int i = 0; i < 7; ++i) {
      ledger.Append("a", Payload("entry-" + std::to_string(i)));
    }
    FaultPlan plan(22);
    plan.Crash(faults::kLedgerSeal, 1.0);
    ArmedFaults armed(plan);
    // The 8th append completes on disk, then the seal dies half way through
    // writing the temp file.
    EXPECT_THROW(ledger.Append("a", Payload("entry-7")), InjectedCrash);
  }
  // Crash evidence: the live segment is full but unsealed, plus a partial
  // temp file.
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / "seg-00000000.log.tmp"));

  auto recovered = Ledger::Open(FileConfig(dir.path));
  ASSERT_TRUE(recovered.ok()) << recovered.status.reason();
  // Nothing was lost: the frame flush preceded the seal.
  EXPECT_EQ(recovered->size(), 8u);
  EXPECT_TRUE(recovered->VerifyChain().ok());
  const auto& store = static_cast<const FileLedgerStore&>(recovered->store());
  EXPECT_TRUE(store.recovery_stats().removed_seal_temp);
  EXPECT_TRUE(store.recovery_stats().resealed_tail);
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / "seg-00000000.log.tmp"));

  // The re-sealed log accepts appends into a fresh segment and survives
  // another reopen with no repairs needed.
  const_cast<Ledger&>(*recovered).Append("a", Payload("resumed"));
  EXPECT_EQ(recovered->size(), 9u);
  auto clean = Ledger::Open(FileConfig(dir.path));
  ASSERT_TRUE(clean.ok()) << clean.status.reason();
  EXPECT_EQ(clean->size(), 9u);
  const auto& clean_store = static_cast<const FileLedgerStore&>(clean->store());
  EXPECT_FALSE(clean_store.recovery_stats().removed_seal_temp);
  EXPECT_FALSE(clean_store.recovery_stats().resealed_tail);
  EXPECT_FALSE(clean_store.recovery_stats().truncated_tail);
}

TEST(LedgerCrashDrill, SilentAppendCorruptionIsCaughtOnReopen) {
  ScratchDir dir("corrupt_append");
  {
    Ledger ledger(FileConfig(dir.path));
    FaultPlan plan(23);
    plan.Corrupt(faults::kLedgerAppend, 1.0);
    ArmedFaults armed(plan);
    // The writes "succeed" — the corruption is on disk only, invisible to
    // the running process.
    for (int i = 0; i < 3; ++i) {
      ledger.Append("a", Payload("entry-" + std::to_string(i)));
    }
    EXPECT_EQ(ledger.size(), 3u);
  }
  auto reopened = Ledger::Open(FileConfig(dir.path));
  ASSERT_FALSE(reopened.ok()) << "corrupted frames passed recovery";
  EXPECT_NE(reopened.status.reason().find("segment 0"), std::string::npos)
      << reopened.status.reason();
}

TEST(LedgerCrashDrill, ElectionCastCrashRecoversOnDiskBallotLog) {
  ScratchDir dir("election_crash");
  ChaChaRng rng(0xFA419);
  ElectionConfig config;
  config.roster = {"alice", "bob"};
  config.candidates = {"Alpha", "Beta"};
  config.authority_members = kMembers;
  config.authority_threshold = kThreshold;
  config.storage = FileConfig(dir.path, /*segment_entries=*/4);
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", /*fake_count=*/0, vsd, rng);
  ASSERT_TRUE(alice.ok()) << alice.status.reason();
  auto bob = election.Register("bob", /*fake_count=*/0, vsd, rng);
  ASSERT_TRUE(bob.ok()) << bob.status.reason();
  ASSERT_TRUE(election.Cast(alice->activated[0], "Alpha", rng).ok());

  {
    FaultPlan plan(24);
    plan.Crash(faults::kLedgerAppend, 1.0);
    ArmedFaults armed(plan);
    EXPECT_THROW((void)election.Cast(bob->activated[0], "Beta", rng), InjectedCrash);
  }

  // "Reboot": reopen the on-disk public ledger. The torn ballot frame is
  // gone, everything before it survived, and posting resumes.
  auto recovered = PublicLedger::Open(config.storage);
  ASSERT_TRUE(recovered.ok()) << recovered.status.reason();
  EXPECT_EQ(recovered->BallotCount(), 1u);
  EXPECT_TRUE(recovered->VerifyChains().ok());
  recovered->PostBallot(Payload("ballot-after-recovery"));
  EXPECT_EQ(recovered->BallotCount(), 2u);
  EXPECT_TRUE(recovered->VerifyChains().ok());
}

}  // namespace
}  // namespace votegral
