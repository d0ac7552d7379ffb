// Reproduces Fig. 5b: total tally-phase latency (log-log, minutes) versus
// electorate size for Civitas, SwissPost, VoteAgain and Votegral.
//
// The paper's headline numbers at one million ballots: VoteAgain ~3 h,
// Votegral ~14 h, Swiss Post ~27 h, Civitas ~1768 *years* (quadratic,
// extrapolated — by the paper too). We reproduce the growth laws and the
// ordering; '*' marks extrapolated points (see fig5a for methodology).
//
// --full measures each model at larger sizes before extrapolating; --ballots
// N (default 4096) sizes the thread sweep over the real pipeline, which
// writes BENCH_tally_parallel.json.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "bench/figure_bench.h"
#include "src/baselines/civitas.h"
#include "src/baselines/swisspost.h"
#include "src/baselines/voteagain.h"
#include "src/baselines/votegral_model.h"
#include "src/common/clock.h"
#include "src/common/mapped.h"
#include "src/common/table.h"
#include "src/crypto/drbg.h"
#include "src/sim/pipeline.h"
#include "src/trip/registrar.h"
#include "src/votegral/ballot.h"
#include "src/votegral/mixnet.h"
#include "src/votegral/tally.h"
#include "src/votegral/verifier.h"
#include "tests/transcript_digest.h"

namespace votegral {
namespace {

// MSM ablation: mix-proof verification is the group-operation hot path of
// the tally's verifiability story. Times VerifyRpcMixCascade with the
// batched-MSM link check against the per-link (seed) path at growing batch
// sizes, so the amortization that keeps the linear tally *fast* is visible
// in the figure output.
void RunMixVerifyMsmAblation(figure::Bench& bench) {
  ChaChaRng rng(0x4D534D);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);

  std::vector<figure::Row> rows;
  for (size_t n : {size_t{16}, size_t{256}, size_t{4096}}) {
    MixBatch input(n);
    for (MixItem& item : input) {
      item.cts = {ElGamalEncrypt(pk, RistrettoPoint::Base(), rng),
                  ElGamalEncrypt(pk, RistrettoPoint::Base(), rng)};
    }
    EnsureWireCache(input, Executor::Global());  // the verifier checks the items' bytes
    MixProof proof;
    MixBatch output = RunRpcMixCascade(input, pk, 1, rng, &proof);

    WallTimer per_link_timer;
    Status per_link = VerifyRpcMixCascade(input, output, proof, pk, MixLinkCheck::kPerLink);
    double per_link_s = per_link_timer.Seconds();
    WallTimer batched_timer;
    Status batched = VerifyRpcMixCascade(input, output, proof, pk,
                                         MixLinkCheck::kBatchedMsm);
    double batched_s = batched_timer.Seconds();
    Require(per_link.ok() && batched.ok(), "fig5b: mix verification must pass");
    rows.push_back({{"ballots", uint64_t{n}},
                    {"per_link_s", per_link_s},
                    {"batched_msm_s", batched_s},
                    {"speedup", per_link_s / batched_s}});
  }
  bench.Table("mix_verify_msm", std::move(rows));
}

void RunFig5b(bool full) {
  const std::vector<size_t> display_sizes = {100,    1000,    10000,
                                             100000, 1000000};

  struct Plan {
    std::unique_ptr<VotingSystemModel> model;
    std::vector<size_t> sizes;
    size_t max_measured;
  };
  std::vector<Plan> plans;
  plans.push_back({std::make_unique<CivitasModel>(), {24, 100, 1000, 10000, 100000, 1000000},
                   size_t{24}});
  plans.push_back({std::make_unique<SwissPostModel>(), display_sizes,
                   full ? size_t{1000} : size_t{100}});
  plans.push_back({std::make_unique<VoteAgainModel>(), display_sizes,
                   full ? size_t{2000} : size_t{100}});
  plans.push_back({std::make_unique<VotegralModel>(), display_sizes,
                   full ? size_t{1000} : size_t{100}});

  TextTable table("Fig. 5b — Tally-phase wall-clock (minutes; '*' = extrapolated)");
  std::vector<std::string> header = {"System"};
  for (size_t n : display_sizes) {
    header.push_back("10^" + std::to_string(static_cast<int>(std::log10(n))));
  }
  table.SetHeader(header);

  std::map<std::string, std::map<size_t, ScalingRow>> results;
  for (Plan& plan : plans) {
    ChaChaRng rng(0x516B);
    auto rows = SweepSystem(*plan.model, plan.sizes, plan.max_measured, rng);
    for (const ScalingRow& row : rows) {
      results[plan.model->name()][row.voters] = row;
    }
    std::vector<std::string> table_row = {plan.model->name()};
    for (size_t n : display_sizes) {
      const ScalingRow& row = results[plan.model->name()].at(n);
      table_row.push_back(FormatMinutes(row.tally_total, row.extrapolated));
    }
    table.AddRow(table_row);
  }
  std::printf("%s\n", table.Format().c_str());

  // Shape checks at 10^6.
  double civitas = results["Civitas"][1000000].tally_total;
  double votegral = results["TRIP-Core"][1000000].tally_total;
  double swisspost = results["SwissPost"][1000000].tally_total;
  double voteagain = results["VoteAgain"][1000000].tally_total;
  std::printf("At 10^6 ballots (ours, extrapolated):\n");
  std::printf("  VoteAgain  %s   (paper ~3 h; fastest)\n", FormatSeconds(voteagain).c_str());
  std::printf("  Votegral   %s   (paper ~14 h)\n", FormatSeconds(votegral).c_str());
  std::printf("  SwissPost  %s   (paper ~27 h)\n", FormatSeconds(swisspost).c_str());
  std::printf("  Civitas    %s   (paper ~1768 years; impractical)\n",
              FormatSeconds(civitas).c_str());
  std::printf("Shape: VoteAgain fastest: %s; Civitas impractical vs all linear systems: %s\n",
              (voteagain < votegral && voteagain < swisspost) ? "yes" : "NO",
              (civitas > 100 * swisspost) ? "yes" : "NO");
  std::printf("Civitas quadratic blow-up factor from 10^3 to 10^6: %.2e (expected ~1e6)\n",
              results["Civitas"][1000000].tally_total / results["Civitas"][1000].tally_total);
  std::printf("\nCSV:\n%s", table.Csv().c_str());
}

// Peak heap in use while it lives: a helper thread samples mallinfo2 every
// millisecond (arena chunks in use plus malloc's own mapped chunks) and adds
// the blocks mapped through MapBytes, which malloc does not see. Includes
// whatever the process already holds (the election and its ledger).
// mallinfo2 holds each arena's lock while it walks the free lists, which
// stalls the measured threads' allocations, so the sweep times each step in
// a run of its own without the sampler.
class HeapPeak {
 public:
  HeapPeak() : thread_([this] { Sample(); }) {}
  ~HeapPeak() { Stop(); }
  HeapPeak(const HeapPeak&) = delete;
  HeapPeak& operator=(const HeapPeak&) = delete;

  double StopMb() {
    Stop();
    return static_cast<double>(peak_) / (1024.0 * 1024.0);
  }

 private:
  void Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }
  void Sample() {
    while (!stop_.load()) {
      const struct mallinfo2 info = ::mallinfo2();
      peak_ = std::max<uint64_t>(peak_, info.uordblks + info.hblkhd + MappedBytesInUse());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<bool> stop_{false};
  uint64_t peak_ = 0;
  std::thread thread_;
};

// Wall and CPU seconds of one run of `step`, and the peak heap in use of a
// second, sampled run.
struct StepCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double heap_mb = 0.0;
};

template <typename F>
StepCost Measure(F&& step) {
  StepCost cost;
  CpuTimer cpu;
  WallTimer wall;
  step();
  cost.wall_s = wall.Seconds();
  cost.cpu_s = cpu.Elapsed().Total();
  HeapPeak heap;
  step();
  cost.heap_mb = heap.StopMb();
  return cost;
}

// Thread-count sweep over the *real* staged tally pipeline and universal
// verifier (not the baseline models): one fixed election of N ballots,
// tallied and verified at 1/2/4/8 threads. Emits BENCH_tally_parallel.json
// with each step's wall and CPU seconds and its peak heap in use, and
// checks that every thread count produces the byte-identical transcript
// (the reproducibility contract of the forked-DRBG sharding).
void RunParallelTallySweep(figure::Bench& bench, size_t ballots) {
  // Build one election through the real TRIP pipeline (serial, seeded):
  // the sweep below re-tallies the same ledger at each thread count.
  ChaChaRng rng(0x5CA1AB1E);
  TripSystemParams params;
  params.roster.reserve(ballots);
  for (size_t i = 0; i < ballots; ++i) {
    params.roster.push_back("voter-" + std::to_string(i));
  }
  std::printf("Fig. 5b addendum — staged parallel tally: registering %zu voters...\n",
              ballots);
  WallTimer setup_timer;
  TripSystem trip = TripSystem::Create(params, rng);
  TaggingService tagging = TaggingService::Create(4, rng);
  CandidateList candidates({"Alpha", "Beta", "Gamma"});
  Vsd vsd = trip.MakeVsd();
  for (size_t i = 0; i < ballots; ++i) {
    auto voter = RegisterAndActivate(trip, params.roster[i], /*fake_count=*/0, vsd, rng);
    Require(voter.ok(), "tally sweep: registration failed");
    Ballot ballot = MakeBallot(voter->activated[0], candidates, i % candidates.size(),
                               trip.authority_pk(), rng);
    trip.ledger().PostBallot(ballot.Serialize());
  }
  std::printf("  setup %.1fs; sweeping threads {1, 2, 4, 8}\n", setup_timer.Seconds());
  bench.Config("mix_pairs", uint64_t{kMixPairs});
  bench.Config("authority_members", uint64_t{trip.authority().size()});
  bench.Config("tagging_members", uint64_t{tagging.size()});

  VerifierParams vparams;
  vparams.authority_pk = trip.authority_pk();
  for (size_t i = 0; i < trip.authority().size(); ++i) {
    vparams.authority_shares.push_back(trip.authority().member(i).public_share);
  }
  vparams.tagging_commitments = tagging.commitments();
  vparams.authorized_kiosks = trip.authorized_kiosks();
  vparams.authorized_officials = trip.authorized_officials();

  std::vector<figure::Row> rows;
  std::array<uint8_t, 32> first_digest{};
  double first_tally_s = 0.0;
  double first_verify_s = 0.0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Executor executor(threads);
    TallyService service(trip.authority(), tagging, executor);
    std::optional<TallyOutput> output;
    const StepCost tally = Measure([&] {
      ChaChaRng tally_rng(0x5CA1AB1F);  // same stream every run: transcripts must match
      output.reset();  // the sampled run holds no earlier transcript
      output = std::move(
          *service.Run(trip.ledger(), candidates, trip.authorized_kiosks(), tally_rng));
    });
    Status verified = Status::Ok();
    const StepCost verify = Measure([&] {
      verified = VerifyElection(trip.ledger(), vparams, candidates, *output, executor);
    });
    Require(verified.ok(), "tally sweep: universal verification failed");
    const std::array<uint8_t, 32> digest = DigestTranscriptWithWire(*output);
    if (rows.empty()) {
      first_digest = digest;
      first_tally_s = tally.wall_s;
      first_verify_s = verify.wall_s;
    }
    bench.Check("transcripts_identical", digest == first_digest,
                "tally sweep: transcripts differ across thread counts");
    rows.push_back({{"threads", uint64_t{threads}},
                    {"tally_s", tally.wall_s},
                    {"verify_s", verify.wall_s},
                    {"tally_speedup", first_tally_s / tally.wall_s},
                    {"verify_speedup", first_verify_s / verify.wall_s},
                    {"tally_cpu_s", tally.cpu_s},
                    {"verify_cpu_s", verify.cpu_s},
                    {"tally_peak_heap_mb", tally.heap_mb},
                    {"verify_peak_heap_mb", verify.heap_mb}});
  }
  bench.Table("sweep", std::move(rows));
}

}  // namespace
}  // namespace votegral

int main(int argc, char** argv) {
  votegral::figure::Bench bench("tally_parallel", argc, argv);
  const size_t ballots = bench.Count("--ballots", 4096);
  const bool full = bench.Switch("--full");
  bench.RejectUnreadFlags();
  votegral::RunFig5b(full);
  votegral::RunMixVerifyMsmAblation(bench);
  votegral::RunParallelTallySweep(bench, ballots);
  bench.Finish();
  return 0;
}
