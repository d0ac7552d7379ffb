// Streaming large-N tally: the chunk-granular dataflow tally over a
// file-backed segmented ledger, at election scale.
//
// What this measures (and the paper property it backs):
//  * End-to-end tally wall clock at N ballots with ballots *streamed* off a
//    file-backed ledger — peak ledger-resident payload memory must stay
//    O(one segment), not O(N) (the storage-backend contract of the ledger
//    redesign; "1M ballots without 1M ballots of RAM").
//  * Per-stage occupancy of the task graph: busy/(wall*threads) per stage,
//    showing stage overlap (tag shards run while mix shards of the other
//    chain are still in flight).
//  * Thread-sweep speedups, with the transcript-identity check that makes
//    the sweep meaningful (same bytes at every thread count).
//  * Work-stealing executor counters (tasks, steals, queue depth) per run.
//
// The ballot corpus is forged directly (one synthetic kiosk, per-voter
// credential keys, ballots via the real MakeBallot) rather than through the
// full TRIP registration ceremony: registration costs ~4 signatures + 2
// encryptions per voter and would dominate setup at 10^5..10^6 ballots
// without touching a single tally code path. The tally sees exactly what a
// real election produces: valid kiosk-certified ballots on L_V and active
// registration records on L_R.
//
// Scale knobs: --ballots N (default 2^17), --threads 1,2,4 (default
// 1,2,4,8), --segment E (entries per sealed segment, default 1024). Emits
// BENCH_stream_tally.json next to the model curves for VoteAgain /
// SwissPost at the same N for context.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/figure_bench.h"
#include "src/baselines/swisspost.h"
#include "src/baselines/voteagain.h"
#include "src/crypto/drbg.h"
#include "src/crypto/schnorr.h"
#include "src/ledger/subledgers.h"
#include "src/sim/pipeline.h"
#include "src/trip/messages.h"
#include "src/trip/vsd.h"
#include "src/votegral/ballot.h"
#include "src/votegral/tally.h"
#include "tests/transcript_digest.h"

namespace votegral {
namespace {

// Forges the election corpus straight onto a file-backed PublicLedger: one
// authorized kiosk, one credential + registration record + ballot per voter.
// Everything the tally validates (kiosk cert, credential signature, roster
// eligibility, c_pc <-> c_pk tag join) is real; only the registration
// *ceremony* (envelopes, activation ZKPs) is skipped.
struct Fixture {
  PublicLedger ledger;
  ElectionAuthority authority;
  TaggingService tagging;
  CandidateList candidates;
  std::set<CompressedRistretto> authorized_kiosks;
  double ingest_seconds = 0.0;
  uint64_t ledger_bytes = 0;  // serialized ballot payload bytes appended

  Fixture(size_t ballots, size_t segment_entries, const std::string& dir, Rng& rng)
      : ledger(MakeStorage(segment_entries, dir)),
        authority(ElectionAuthority::Create(4, rng)),
        tagging(TaggingService::Create(4, rng)),
        candidates({"Alpha", "Beta", "Gamma"}) {
    SchnorrKeyPair kiosk = SchnorrKeyPair::Generate(rng);
    authorized_kiosks.insert(kiosk.public_bytes());

    WallTimer timer;
    for (size_t i = 0; i < ballots; ++i) {
      const std::string voter_id = "voter-" + std::to_string(i);
      ledger.AddEligibleVoter(voter_id);

      SchnorrKeyPair credential = SchnorrKeyPair::Generate(rng);
      ActivatedCredential activated;
      activated.voter_id = voter_id;
      activated.credential_sk = credential.secret();
      activated.credential_pk = credential.public_bytes();
      activated.public_credential =
          ElGamalEncrypt(authority.public_key(), credential.public_point(), rng);
      activated.kiosk_pk = kiosk.public_bytes();
      activated.challenge_response_hash.fill(0);
      activated.kiosk_response_sig = kiosk.Sign(
          ResponseSegment::SignedPayload(activated.credential_pk,
                                         activated.challenge_response_hash),
          rng);

      RegistrationRecord record;
      record.voter_id = voter_id;
      record.public_credential = activated.public_credential;
      record.kiosk_pk = activated.kiosk_pk;
      Require(ledger.PostRegistration(record).ok(),
              "fig_stream_tally: registration rejected");

      Ballot ballot = MakeBallot(activated, candidates, i % candidates.size(),
                                 authority.public_key(), rng);
      Bytes payload = ballot.Serialize();
      ledger_bytes += payload.size();
      ledger.PostBallot(std::move(payload));
    }
    ingest_seconds = timer.Seconds();
  }

  static LedgerStorageConfig MakeStorage(size_t segment_entries, const std::string& dir) {
    LedgerStorageConfig storage;
    storage.backend = LedgerStorageConfig::Backend::kFile;
    storage.directory = dir;
    storage.segment_entries = segment_entries;
    return storage;
  }

  const FileLedgerStore* ballot_store() const {
    return dynamic_cast<const FileLedgerStore*>(&ledger.ballot_log().store());
  }
};

struct RunRow {
  size_t threads = 0;
  double tally_s = 0.0;
  TallyRunMetrics metrics;
  std::array<uint8_t, 32> digest{};
};

RunRow RunOnce(const Fixture& fixture, size_t threads) {
  RunRow row;
  row.threads = threads;
  Executor executor(threads);
  TallyService service(fixture.authority, fixture.tagging, executor);
  // Same stream every run: the sweep's transcripts must match byte for byte.
  ChaChaRng tally_rng(0x57E1ABAD);
  WallTimer timer;
  TallyOutput output = std::move(*service.Run(
      fixture.ledger, fixture.candidates, fixture.authorized_kiosks, tally_rng,
      &row.metrics));
  row.tally_s = timer.Seconds();
  row.digest = DigestTranscriptWithWire(output);
  Require(output.result.counted == fixture.ledger.BallotCount(),
          "fig_stream_tally: every forged ballot must count");
  return row;
}

void Main(int argc, char** argv) {
  figure::Bench bench("stream_tally", argc, argv);
  const size_t ballots = bench.Count("--ballots", size_t{1} << 17);  // 2^17 = 131072
  const std::vector<size_t> thread_counts = bench.Counts("--threads", {1, 2, 4, 8});
  const size_t segment_entries = bench.Count("--segment", 1024);
  bench.RejectUnreadFlags();

  const std::string dir = (bench.Scratch() / "ledger").string();
  std::printf("Streaming tally bench — forging %zu ballots onto %s "
              "(segment=%zu entries)...\n",
              ballots, dir.c_str(), segment_entries);
  ChaChaRng rng(0x57E1AB);
  Fixture fixture(ballots, segment_entries, dir, rng);
  const FileLedgerStore* store = fixture.ballot_store();
  Require(store != nullptr, "fig_stream_tally: expected the file backend");
  const uint64_t ingest_peak = store->PeakPinnedBytes();

  // Thread sweep. The store's PeakPinnedBytes is a high-water mark over its
  // whole lifetime, so it is not split per run: the peak reported (and
  // bounded below) covers the ingest and every run of the sweep together.
  std::vector<RunRow> runs;
  for (size_t threads : thread_counts) {
    std::printf("  tallying at %zu thread%s...\n", threads, threads == 1 ? "" : "s");
    runs.push_back(RunOnce(fixture, threads));
    bench.Check("transcripts_identical", runs.back().digest == runs[0].digest,
                "fig_stream_tally: transcripts differ across runs");
  }

  std::vector<figure::Row> sweep;
  std::vector<figure::Row> stages;
  for (const RunRow& run : runs) {
    const double capacity = run.metrics.wall_seconds * static_cast<double>(run.threads);
    auto occupancy = [&](double busy) { return capacity > 0 ? busy / capacity : 0.0; };
    double busy = 0.0;
    for (const TallyStageBusy& stage : run.metrics.stages) {
      busy += stage.busy_seconds;
      stages.push_back({{"threads", uint64_t{run.threads}},
                        {"stage", stage.name},
                        {"busy_s", stage.busy_seconds},
                        {"occupancy", occupancy(stage.busy_seconds)}});
    }
    const ExecutorStats& a = run.metrics.executor_start;
    const ExecutorStats& b = run.metrics.executor_end;
    sweep.push_back({{"threads", uint64_t{run.threads}},
                     {"tally_s", run.tally_s},
                     {"speedup", runs[0].tally_s / run.tally_s},
                     {"occupancy", occupancy(busy)},
                     {"tasks", uint64_t{b.tasks_executed - a.tasks_executed}},
                     {"steals", uint64_t{b.steals - a.steals}},
                     {"steal_failures", uint64_t{b.steal_failures - a.steal_failures}},
                     {"max_queue_depth", uint64_t{b.max_queue_depth}}});
  }
  bench.Table("sweep", std::move(sweep));
  bench.Table("stages", std::move(stages));

  // "Streaming" means the tally never holds more than a couple of segment
  // buffers of ledger payload: one per concurrently-scanning validate shard
  // plus the active tail. Compare against total ledger bytes for the claim.
  // The bound is (threads + 2) x 2 pinned segments at the sweep's largest
  // thread count; a run whose bound_over_log is below 1 is one where a tally
  // that held the whole log would fail the check.
  const uint64_t peak_pinned = store->PeakPinnedBytes();
  const size_t max_threads = *std::max_element(thread_counts.begin(), thread_counts.end());
  const uint64_t segment_bound = figure::PinnedSegmentBound(*store, max_threads);
  const double log_bytes = static_cast<double>(fixture.ledger_bytes);
  bench.Table("ledger", {{{"segments", uint64_t{store->SegmentCount()}},
                          {"ledger_payload_bytes", fixture.ledger_bytes},
                          {"ingest_s", fixture.ingest_seconds},
                          {"ingest_peak_pinned_bytes", ingest_peak},
                          {"peak_pinned_bytes", peak_pinned},
                          {"peak_pinned_over_total", static_cast<double>(peak_pinned) / log_bytes},
                          {"bound_over_log", static_cast<double>(segment_bound) / log_bytes}}});
  bench.Check("peak_pinned_within_segment_bound", peak_pinned <= segment_bound,
              "fig_stream_tally: peak pinned bytes not O(segment)");

  // Context curves: what the VoteAgain / SwissPost cost models predict for a
  // tally of the same size (measured small, extrapolated to N — the fig5b
  // methodology).
  double voteagain_s = 0.0, swisspost_s = 0.0;
  {
    ChaChaRng model_rng(0x516B);
    VoteAgainModel voteagain;
    SwissPostModel swisspost;
    for (const ScalingRow& r : SweepSystem(voteagain, {100, ballots}, 100, model_rng)) {
      if (r.voters == ballots) voteagain_s = r.tally_total;
    }
    for (const ScalingRow& r : SweepSystem(swisspost, {100, ballots}, 100, model_rng)) {
      if (r.voters == ballots) swisspost_s = r.tally_total;
    }
  }
  bench.Table("baselines", {{{"voteagain_tally_s", voteagain_s},
                             {"swisspost_tally_s", swisspost_s},
                             {"extrapolated", true}}});
  bench.Finish();
}

}  // namespace
}  // namespace votegral

int main(int argc, char** argv) {
  votegral::Main(argc, argv);
  return 0;
}
