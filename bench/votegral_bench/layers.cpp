#include "bench/votegral_bench/layers.h"

#include <algorithm>
#include <filesystem>

#include "src/common/clock.h"
#include "src/crypto/batch.h"
#include "src/crypto/fe25519.h"
#include "src/crypto/msm.h"
#include "src/replica/follower.h"
#include "src/votegral/verifier.h"

namespace votegral::bench {

namespace fs = std::filesystem;

namespace {

constexpr int kReps = 5;

// Keeps a timed loop's result observable.
volatile uint8_t g_sink = 0;
void Sink(const RistrettoPoint& p) { g_sink = g_sink ^ p.Encode()[0]; }

// Median over kReps runs of `body`, divided by `units`: seconds per unit.
template <typename F>
double SecondsPerUnit(size_t units, F&& body) {
  std::vector<double> times;
  for (int r = 0; r < kReps; ++r) {
    WallTimer timer;
    body();
    times.push_back(timer.Seconds() / static_cast<double>(units));
  }
  return Quantile(times, 0.5);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += entry.file_size();
    }
  }
  return total;
}

// The board the ledger and replica replays read: the mirror workload's
// leader board, or the election's ballot log.
const Ledger& Board(const LastRound& last, const ElectionState& election) {
  return last.board != nullptr ? *last.board->board : election.election->ledger().ballot_log();
}

double Ms(const WallTimer& timer) { return timer.Seconds() * 1e3; }

}  // namespace

void WarmUp() {
  const CompressedRistretto zero = RistrettoPoint().Encode();
  SelectLastPerTag(std::span(&zero, 1), std::span(&zero, 1));
}

// The fastest of many short repetitions: a burst from another tenant of the
// host has to cover the whole ~0.2 s window to move the reading.
double HostProbeMs() {
  ChaChaRng rng(0x9E0B);
  std::vector<Scalar> scalars;
  for (size_t i = 0; i < 1024; ++i) {
    scalars.push_back(Scalar::Random(rng));
  }
  double best = 0.0;
  for (int r = 0; r < 16; ++r) {
    WallTimer timer;
    RistrettoPoint acc;
    for (const Scalar& s : scalars) {
      acc = acc + RistrettoPoint::MulBase(s);
    }
    Sink(acc);
    const double ms = Ms(timer);
    best = r == 0 ? ms : std::min(best, ms);
  }
  return best;
}

void MeasureCrypto(RunContext& ctx, Report& report) {
  Span span(ctx.tracer, "crypto");
  Executor serial(1);
  Executor::Scope scope(serial);
  ChaChaRng rng = StreamRng(ctx.options.seed, "crypto", 0, 0);

  Fe25519 a = FeFromBytes(rng.RandomBytes(32));
  const Fe25519 b = FeFromBytes(rng.RandomBytes(32));
  constexpr size_t kFeMuls = 200000;
  report.Add("crypto.fe_mul_ns", 1e9 * SecondsPerUnit(kFeMuls, [&] {
               for (size_t i = 0; i < kFeMuls; ++i) {
                 a = FeMul(a, b);
               }
             }), "ns");
  constexpr size_t kRoots = 2000;
  report.Add("crypto.fe_invsqrt_us", 1e6 * SecondsPerUnit(kRoots, [&] {
               for (size_t i = 0; i < kRoots; ++i) {
                 a = FeAdd(FeInvSqrt(a).root, b);
               }
             }), "us");
  g_sink = g_sink ^ FeToBytes(a)[0];

  constexpr size_t kMsmTerms = 4096;
  std::vector<RistrettoPoint> points;
  std::vector<Scalar> scalars;
  for (size_t i = 0; i < kMsmTerms; ++i) {
    points.push_back(RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)));
    scalars.push_back(Scalar::Random(rng));
  }
  constexpr size_t kAdds = 100000;
  RistrettoPoint acc = points[0];
  report.Add("crypto.point_add_ns", 1e9 * SecondsPerUnit(kAdds, [&] {
               for (size_t i = 0; i < kAdds; ++i) {
                 acc = acc + points[i % 1024];
               }
             }), "ns");
  constexpr size_t kCodec = 1024;
  std::vector<CompressedRistretto> encoded(kCodec);
  report.Add("crypto.encode_us", 1e6 * SecondsPerUnit(kCodec, [&] {
               for (size_t i = 0; i < kCodec; ++i) {
                 encoded[i] = points[i].Encode();
               }
             }), "us");
  size_t decoded = 0;
  report.Add("crypto.decode_us", 1e6 * SecondsPerUnit(kCodec, [&] {
               for (size_t i = 0; i < kCodec; ++i) {
                 decoded += RistrettoPoint::Decode(encoded[i]).has_value() ? 1 : 0;
               }
             }), "us");
  ctx.verdict.Check(decoded == kReps * kCodec, "crypto: decode rejected an encoding");
  constexpr size_t kMulBase = 256;
  report.Add("crypto.mul_base_us", 1e6 * SecondsPerUnit(kMulBase, [&] {
               for (size_t i = 0; i < kMulBase; ++i) {
                 acc = acc + RistrettoPoint::MulBase(scalars[i]);
               }
             }), "us");
  constexpr size_t kMulVar = 128;
  report.Add("crypto.mul_var_us", 1e6 * SecondsPerUnit(kMulVar, [&] {
               for (size_t i = 0; i < kMulVar; ++i) {
                 acc = acc + scalars[i] * points[i];
               }
             }), "us");
  report.Add("crypto.msm_term_ns", 1e9 * SecondsPerUnit(kMsmTerms, [&] {
               acc = acc + MultiScalarMul(scalars, points);
             }), "ns");
  Sink(acc);

  // Batch verification, per item, over 1024 distinct keys.
  constexpr size_t kBatch = 1024;
  std::vector<SchnorrBatchEntry> schnorr(kBatch);
  std::vector<DleqBatchEntry> dleq(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
    schnorr[i].public_key = key.public_bytes();
    schnorr[i].message = rng.RandomBytes(32);
    schnorr[i].signature = key.Sign(schnorr[i].message, rng);

    const Scalar x = Scalar::Random(rng);
    DleqStatement statement = DleqStatement::MakePair(
        RistrettoPoint::Base(), RistrettoPoint::MulBase(x), points[i], x * points[i]);
    statement.EnsureWire();
    dleq[i].domain = "votegral_bench/dleq";
    dleq[i].transcript = ProveDleqFs(dleq[i].domain, statement, x, rng);
    dleq[i].statement = std::move(statement);
  }
  bool batches_ok = true;
  report.Add("crypto.schnorr_batch_verify_us", 1e6 * SecondsPerUnit(kBatch, [&] {
               batches_ok = batches_ok && BatchVerifySchnorr(schnorr, rng).ok();
             }), "us");
  report.Add("crypto.dleq_batch_verify_us", 1e6 * SecondsPerUnit(kBatch, [&] {
               batches_ok = batches_ok && BatchVerifyDleq(dleq, rng).ok();
             }), "us");
  ctx.verdict.Check(batches_ok, "crypto: a valid batch failed to verify");
}

std::unique_ptr<ElectionState> ReplayElection(RunContext& ctx, LastRound& last,
                                              Report& report) {
  Span span(ctx.tracer, "replay.election");
  // Replay-side samples stay out of the façade series.
  Samples replay_samples;
  RunContext replay{ctx.options, ctx.sizes, ctx.threads, ctx.dir, ctx.tracer, ctx.verdict,
                    replay_samples};
  ChaChaRng rng = StreamRng(ctx.options.seed, "replay", 0, 1);
  std::unique_ptr<ElectionState> state = std::move(last.election);
  if (state == nullptr) {
    ChaChaRng inputs = StreamRng(ctx.options.seed, "replay", 0, 0);
    state = MakeElection(replay, "replay", MakeElectorate(ctx.sizes.replay_voters, inputs),
                         /*revoting=*/false, rng);
    RegisterAll(replay, *state, rng, "register");
    CastAll(replay, *state, rng);
  }
  if (!state->output.has_value()) {
    TallyAndVerify(replay, *state, rng);
  }
  const double threads = static_cast<double>(ctx.threads);
  report.Add("executor.tally_occupancy", state->tally_cpu_s / (state->tally_s * threads), "ratio");
  report.Add("executor.verify_occupancy", state->verify_cpu_s / (state->verify_s * threads),
             "ratio");
  return state;
}

void ReplayTripAndBallots(RunContext& ctx, bool revoting, Report& report) {
  Span span(ctx.tracer, "replay.trip");
  ChaChaRng inputs = StreamRng(ctx.options.seed, "replay.trip", 0, 0);
  ChaChaRng rng = StreamRng(ctx.options.seed, "replay.trip", 0, 1);
  auto state = MakeElection(ctx, "replay-trip", MakeElectorate(ctx.sizes.replay_voters, inputs),
                            revoting, rng);
  TripSystem& trip = state->election->trip();
  Official& official = trip.official();
  Kiosk& kiosk = trip.kiosk();
  EnvelopeSupply& booth = trip.booth_envelopes();

  // The ceremony step by step, in RegistrationDesk::RegisterVoter's order.
  std::vector<double> checkin, kiosk_real, kiosk_fake, checkout, activate;
  std::vector<ActivatedCredential> credentials;
  for (size_t i = 0; i < state->electorate.ids.size(); ++i) {
    const std::string& id = state->electorate.ids[i];
    WallTimer timer;
    auto ticket = official.CheckIn(id, trip.ledger());
    Expect(ctx, ticket.ok(), "trip: check-in");
    Expect(ctx, kiosk.StartSession(*ticket).ok(), "trip: kiosk session");
    checkin.push_back(Ms(timer));

    timer.Reset();
    auto printed = kiosk.BeginRealCredential(rng);
    Expect(ctx, printed.ok(), "trip: real credential commit");
    auto envelope = booth.TakeWithSymbol(printed->symbol, rng);
    Expect(ctx, envelope.ok(), "trip: envelope with symbol");
    auto real = kiosk.FinishRealCredential(*envelope, rng);
    Expect(ctx, real.ok(), "trip: real credential");
    kiosk_real.push_back(Ms(timer));
    std::vector<PaperCredential> papers = {*real};

    for (size_t f = 0; f < state->electorate.plans[i].fakes; ++f) {
      timer.Reset();
      auto any = booth.TakeAny(rng);
      Expect(ctx, any.ok(), "trip: envelope");
      auto fake = kiosk.CreateFakeCredential(*any, rng);
      Expect(ctx, fake.ok(), "trip: fake credential");
      kiosk_fake.push_back(Ms(timer));
      papers.push_back(*fake);
    }

    timer.Reset();
    Expect(ctx, kiosk.EndSession().ok(), "trip: end session");
    Expect(ctx, official.CheckOut(real->checkout, trip.authorized_kiosks(), trip.ledger(), rng)
                    .ok(),
           "trip: check-out");
    checkout.push_back(Ms(timer));

    Vsd vsd = trip.MakeVsd();
    for (const PaperCredential& paper : papers) {
      timer.Reset();
      auto activated = vsd.Activate(paper, trip.ledger());
      activate.push_back(Ms(timer));
      Expect(ctx, activated.ok(), "trip: activation");
      credentials.push_back(*activated);
    }
  }
  report.Add("trip.checkin_ms", Quantile(checkin, 0.5), "ms", checkin.size());
  report.Add("trip.kiosk_real_ms", Quantile(kiosk_real, 0.5), "ms", kiosk_real.size());
  report.Add("trip.kiosk_fake_ms", Quantile(kiosk_fake, 0.5), "ms", kiosk_fake.size());
  report.Add("trip.checkout_ms", Quantile(checkout, 0.5), "ms", checkout.size());
  report.Add("trip.activate_ms", Quantile(activate, 0.5), "ms", activate.size());

  Span ballots(ctx.tracer, "replay.ballot");
  const CandidateList& candidates = state->election->candidates();
  const RistrettoPoint& pk = trip.authority_pk();
  std::vector<double> make, check;
  constexpr size_t kBallots = 256;
  for (size_t j = 0; j < kBallots; ++j) {
    const ActivatedCredential& credential = credentials[j % credentials.size()];
    const size_t choice = static_cast<size_t>(rng.Uniform(candidates.size()));
    WallTimer timer;
    if (revoting) {
      RevoteBallot ballot = MakeRevoteBallot(credential, candidates, choice, pk,
                                             /*counter=*/j / credentials.size(), rng);
      make.push_back(timer.Seconds() * 1e6);
      timer.Reset();
      Status checked = CheckRevoteBallot(ballot, pk);
      check.push_back(timer.Seconds() * 1e6);
      Expect(ctx, checked.ok(), "ballot: check");
    } else {
      Ballot ballot = MakeBallot(credential, candidates, choice, pk, rng);
      make.push_back(timer.Seconds() * 1e6);
      timer.Reset();
      Status checked = CheckBallot(ballot, trip.authorized_kiosks());
      check.push_back(timer.Seconds() * 1e6);
      Expect(ctx, checked.ok(), "ballot: check");
    }
  }
  report.Add("ballot.make_us", Quantile(make, 0.5), "us", make.size());
  report.Add("ballot.check_us", Quantile(check, 0.5), "us", check.size());
}

void ReplayLedger(RunContext& ctx, const LastRound& last, const ElectionState& election,
                  Report& report) {
  Span span(ctx.tracer, "replay.ledger");
  const Ledger& board = Board(last, election);
  const uint64_t n = board.size();
  Expect(ctx, n >= 2, "ledger: board too small to replay");

  std::vector<Bytes> payloads;
  {
    LedgerCursor cursor = board.Scan(0, std::min<uint64_t>(n, 2048));
    for (LedgerEntryView view; cursor.Next(&view);) {
      payloads.emplace_back(view.payload.begin(), view.payload.end());
    }
  }
  {
    Span post(ctx.tracer, "ledger.post");
    PublicLedger fresh(FileStorage(ctx.dir + "/ledger-replay"));
    WallTimer timer;
    for (Bytes& payload : payloads) {
      fresh.PostBallot(std::move(payload));
    }
    report.Add("ledger.post_ballot_us", timer.Seconds() * 1e6 / payloads.size(), "us",
               payloads.size());
  }
  fs::remove_all(ctx.dir + "/ledger-replay");

  {
    Span scan(ctx.tracer, "ledger.scan");
    WallTimer timer;
    uint64_t entries = 0;
    uint64_t bytes = 0;
    LedgerCursor cursor = board.Scan();
    for (LedgerEntryView view; cursor.Next(&view);) {
      ++entries;
      bytes += view.payload.size();
    }
    report.Add("ledger.scan_s", timer.Seconds(), "s");
    Expect(ctx, entries == n && bytes > 0, "ledger: scan");
  }
  {
    Span chains(ctx.tracer, "ledger.verify_chains");
    WallTimer timer;
    Status verified = last.board != nullptr ? board.VerifyChain()
                                            : election.election->ledger().VerifyChains();
    report.Add("ledger.verify_chains_s", timer.Seconds(), "s");
    Expect(ctx, verified.ok(), "ledger: verify chains");
  }
  {
    Span consistency(ctx.tracer, "ledger.consistency");
    ChaChaRng rng = StreamRng(ctx.options.seed, "replay.ledger", 0, 0);
    constexpr size_t kPairs = 256;
    std::vector<std::pair<uint64_t, uint64_t>> sizes;
    std::vector<std::pair<LedgerHash, LedgerHash>> roots;
    for (size_t i = 0; i < kPairs; ++i) {
      const uint64_t old_size = 1 + rng.Uniform(n - 1);
      const uint64_t new_size = old_size + 1 + rng.Uniform(n - old_size);
      sizes.emplace_back(old_size, new_size);
      roots.emplace_back(board.MerkleRootAt(old_size), board.MerkleRootAt(new_size));
    }
    std::vector<ConsistencyProof> proofs;
    WallTimer prove;
    for (const auto& [old_size, new_size] : sizes) {
      auto proof = board.ProveConsistency(old_size, new_size);
      Expect(ctx, proof.ok(), "ledger: prove consistency");
      proofs.push_back(std::move(*proof));
    }
    report.Add("ledger.prove_consistency_us", prove.Seconds() * 1e6 / kPairs, "us", kPairs);
    bool all_ok = true;
    WallTimer verify;
    for (size_t i = 0; i < kPairs; ++i) {
      all_ok = VerifyConsistency(roots[i].first, roots[i].second, proofs[i]).ok() && all_ok;
    }
    report.Add("ledger.verify_consistency_us", verify.Seconds() * 1e6 / kPairs, "us", kPairs);
    Expect(ctx, all_ok, "ledger: verify consistency");
  }

  uint64_t entries = n;
  std::string dir = last.board != nullptr ? last.board->dir + "/leader" : election.dir;
  if (last.board == nullptr) {
    const PublicLedger& ledger = election.election->ledger();
    entries = ledger.roster_log().size() + ledger.registration_log().size() +
              ledger.envelope_log().size() + ledger.ballot_log().size();
  }
  report.Add("ledger.bytes_per_entry",
             static_cast<double>(DirectoryBytes(dir)) / static_cast<double>(entries), "B");
}

void ReplayTallyStages(RunContext& ctx, ElectionState& election, Report& report) {
  Span span(ctx.tracer, "replay.tally");
  const TallyOutput& output = *election.output;
  const TallyTranscript& t = output.transcript;
  TripSystem& trip = election.election->trip();
  const ElectionAuthority& authority = trip.authority();
  const RistrettoPoint& pk = authority.public_key();
  const PublicLedger& ledger = trip.ledger();
  const bool revoting = election.revoting;
  Executor executor(ctx.threads);
  Executor::Scope scope(executor);
  ChaChaRng rng = StreamRng(ctx.options.seed, "replay.tally", 0, 0);

  // Validate (and legacy dedup) over the whole ballot log.
  {
    Span validate(ctx.tracer, "tally.validate");
    TallyDiscards discards;
    if (!revoting) {
      WallTimer timer;
      auto validated = ValidateBallots(ledger, trip.authorized_kiosks(), &discards, executor);
      report.Add("tally.validate_s", timer.Seconds(), "s");
      Span dedup(ctx.tracer, "tally.dedup");
      timer.Reset();
      std::vector<Ballot> accepted = DeduplicateBallots(validated, &discards);
      report.Add("tally.dedup_s", timer.Seconds(), "s");
      Expect(ctx, accepted.size() == t.accepted_ballots.size(), "tally: replayed dedup");
    } else {
      const size_t n = ledger.BallotCount();
      std::vector<std::optional<RevoteBallot>> validated(n);
      std::vector<uint8_t> outcome(n, 0);
      auto shards = Executor::Shards(n, Executor::kRngShards);
      WallTimer timer;
      executor.ParallelForEach(shards.size(), [&](size_t s) {
        RevoteValidateShard(ledger, pk, shards[s].first, shards[s].second, validated, outcome);
      });
      report.Add("tally.validate_s", timer.Seconds(), "s");
      const size_t valid = static_cast<size_t>(
          std::count_if(validated.begin(), validated.end(), [](const auto& b) { return b; }));
      Expect(ctx, valid == t.revote.accepted.size(), "tally: replayed revote validation");
    }
  }

  // Mix, tag and decrypt every section the tally produced: ballots and
  // roster, plus the revote dedup section (width 3) under revoting.
  struct Section {
    const char* name;
    const MixBatch* input;
    const MixBatch* output;
    const MixProof* proof;
    size_t credential_column;
    const std::vector<TaggingStep>* steps;
  };
  std::vector<Section> sections = {
      {"ballot", &t.ballot_mix_input, &t.ballot_mix_output, &t.ballot_mix_proof, 1,
       &t.ballot_tag_steps},
      {"roster", &t.roster_mix_input, &t.roster_mix_output, &t.roster_mix_proof, 0,
       &t.roster_tag_steps}};
  if (revoting) {
    sections.push_back({"revote", &t.revote.mix_input, &t.revote.mix_output,
                        &t.revote.mix_proof, 1, &t.revote.tag_steps});
  }
  // Every member's decryption share for each ciphertext, then a check of
  // each share against the member's public share: {share_s, verify_s}.
  const size_t members = authority.size();
  auto decrypt = [&](const std::vector<ElGamalCiphertext>& cts) {
    Span span(ctx.tracer, "decrypt");
    std::vector<std::vector<DecryptionShare>> shares(cts.size(),
                                                     std::vector<DecryptionShare>(members));
    auto shards = Executor::Shards(cts.size(), Executor::kRngShards);
    auto seeds = ForkRngSeeds(rng, shards.size());
    WallTimer timer;
    executor.ParallelForEach(shards.size(), [&](size_t s) {
      ChaChaRng child(seeds[s]);
      for (size_t i = shards[s].first; i < shards[s].second; ++i) {
        for (size_t m = 0; m < members; ++m) {
          shares[i][m] = authority.ComputeShare(m, cts[i], child);
        }
      }
    });
    const double share_s = timer.Seconds();
    timer.Reset();
    auto bad = ParallelFirstFailure(executor, cts.size(), [&](size_t i) {
      for (size_t m = 0; m < members; ++m) {
        if (!VerifyShareAgainstCommitment(authority.member(m).public_share, cts[i],
                                          shares[i][m])
                 .ok()) {
          return false;
        }
      }
      return true;
    });
    const double verify_s = timer.Seconds();
    Expect(ctx, !bad.has_value(), "decrypt: verify shares");
    return std::pair<double, double>(share_s, verify_s);
  };

  const size_t tagging_members = election.election->verifier_params().tagging_commitments.size();
  TaggingService fresh = TaggingService::Create(tagging_members, rng);
  double mix_prove = 0, mix_verify = 0, tag_apply = 0, tag_verify = 0;
  double share = 0, share_verify = 0, revote_prove = 0;
  for (const Section& section : sections) {
    Span mix(ctx.tracer, "mix");
    WallTimer timer;
    MixProof proof;
    MixBatch shuffled = RunRpcMixCascade(*section.input, pk, /*pair_count=*/2, rng, &proof,
                                         executor);
    const double prove_s = timer.Seconds();
    Expect(ctx, shuffled.size() == section.input->size(), "mix: replayed cascade");
    timer.Reset();
    Status mixed = VerifyRpcMixCascade(*section.input, *section.output, *section.proof, pk,
                                       MixLinkCheck::kBatchedMsm, executor);
    mix_verify += timer.Seconds();
    Expect(ctx, mixed.ok(), "mix: verify cascade");

    Span tag(ctx.tracer, "tag");
    const std::vector<ElGamalCiphertext> credentials =
        BatchColumn(*section.output, section.credential_column);
    std::vector<TaggingStep> steps;
    timer.Reset();
    fresh.ApplyAll(credentials, &steps, rng, executor);
    const double apply_s = timer.Seconds();
    timer.Reset();
    Status tagged =
        TaggingService::VerifyChain(credentials, steps, fresh.commitments(), executor);
    tag_verify += timer.Seconds();
    Expect(ctx, tagged.ok(), "tag: verify chain");

    // Decrypt what the tally itself tagged (and, for revote dedup, the
    // counter column), as the decrypt-tags stage does.
    std::vector<ElGamalCiphertext> cts =
        section.steps->empty() ? std::vector<ElGamalCiphertext>() : section.steps->back().output;
    const bool dedup = std::string_view(section.name) == "revote";
    if (dedup) {
      const std::vector<ElGamalCiphertext> counters = BatchColumn(*section.output, 2);
      cts.insert(cts.end(), counters.begin(), counters.end());
    }
    const auto [share_s, verify_s] = decrypt(cts);

    mix_prove += prove_s;
    tag_apply += apply_s;
    share += share_s;
    share_verify += verify_s;
    if (dedup) {
      revote_prove = prove_s + apply_s + share_s;
    }
  }
  report.Add("mix.prove_s", mix_prove, "s");
  report.Add("mix.verify_s", mix_verify, "s");
  report.Add("tag.apply_s", tag_apply, "s");
  report.Add("tag.verify_s", tag_verify, "s");
  report.Add("decrypt.share_s", share, "s");
  report.Add("decrypt.verify_s", share_verify, "s");

  // Supersession selection over the published tags: the revote tags and
  // counters, or the legacy ballot tags under counter zero.
  {
    Span select(ctx.tracer, "revote.select");
    std::vector<CompressedRistretto> zero_counters;
    std::span<const CompressedRistretto> tags = revoting ? t.revote.tags : t.ballot_tags;
    std::span<const CompressedRistretto> counters = t.revote.counter_points;
    if (!revoting) {
      zero_counters.assign(tags.size(), RistrettoPoint().Encode());
      counters = zero_counters;
    }
    WallTimer timer;
    RevoteSelection selection = SelectLastPerTag(tags, counters);
    const double select_s = timer.Seconds();
    report.Add("revote.select_s", select_s, "s");
    Expect(ctx,
           revoting ? selection.kept == t.revote.kept_indices
                    : selection.kept.size() == tags.size(),
           "revote: replayed selection");
    if (revoting) {
      report.Add("tally.dedup_s", revote_prove + select_s, "s");
    }
  }
  report.Add("tally.counted_over_ballots",
             static_cast<double>(output.result.counted) /
                 static_cast<double>(ledger.BallotCount()),
             "ratio");
}

void ReplayReplica(RunContext& ctx, const LastRound& last, const ElectionState& election,
                   Report& report) {
  Span span(ctx.tracer, "replay.replica");
  const Ledger& board = Board(last, election);
  const uint64_t n = board.size();
  ChaChaRng rng = StreamRng(ctx.options.seed, "replay.replica", 0, 0);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);

  uint64_t payload_bytes = 0;
  LedgerCursor cursor = board.Scan();
  for (LedgerEntryView view; cursor.Next(&view);) {
    payload_bytes += view.payload.size();
  }

  const std::string follower_dir = ctx.dir + "/replica-follower";
  fs::remove_all(follower_dir);
  {
    ServedBoard served(board, key, rng.Uniform(UINT64_MAX), ctx.dir + "/replica.sock");
    Expect(ctx, served.ok(), "replica: connect to the leader");
    auto follower = ReplicationFollower::Open(FileStorage(follower_dir), key.public_bytes(),
                                              /*replica_id=*/3);
    Expect(ctx, follower.ok(), "replica: open follower");
    Span sync(ctx.tracer, "replica.cold_sync");
    WallTimer timer;
    auto synced = follower->SyncOnce(served.channel());
    const double cold_s = timer.Seconds();
    Expect(ctx, synced.ok(), "replica: cold sync");
    Expect(ctx, follower->ledger().MerkleRoot() == board.MerkleRoot(), "replica: mirror root");
    const CountingChannel& channel = served.channel();
    report.Add("net.recv_wait_s", channel.recv_wait_s, "s");
    report.Add("net.frames", static_cast<double>(channel.frames), "count");
    report.Add("net.payload_over_wire",
               static_cast<double>(payload_bytes) / static_cast<double>(channel.wire_bytes),
               "ratio");
    report.Add("replica.cold_entries_per_s", static_cast<double>(n) / cold_s, "1/s");
    Expect(ctx, served.Stop().ok(), "replica: leader serve loop");
  }
  fs::remove_all(follower_dir);

  Span checkpoint(ctx.tracer, "replica.checkpoint");
  ReplicationLeader leader(board, key, rng);
  constexpr size_t kCheckpoints = 64;
  bool sizes_ok = true;
  WallTimer timer;
  for (size_t i = 0; i < kCheckpoints; ++i) {
    CheckpointMsg msg = leader.MakeCheckpoint(i, rng.Uniform(n + 1));
    sizes_ok = sizes_ok && msg.checkpoint.size == n;
  }
  report.Add("replica.checkpoint_us", timer.Seconds() * 1e6 / kCheckpoints, "us",
             kCheckpoints);
  Expect(ctx, sizes_ok, "replica: checkpoint size");
}

}  // namespace votegral::bench
