// Deniable-revoting cost: supersession dedup + cover-traffic padding at
// election scale (docs/REVOTING.md, docs/BENCHMARKS.md).
//
// What this measures (and the claims it backs):
//  * The selection kernel differential at 10^5+ items: SelectLastPerTag
//    (quasilinear tag-sort) must match the quadratic last-write-wins
//    reference byte for byte at the headline size — the at-scale leg of the
//    tests/test_revote.cpp differential.
//  * Kernel sweep: selection + padding-plan time across sizes, showing the
//    dedup core is quasilinear and the padded board stays within the cover
//    envelope bound <= 5T + O(log^2 T) items.
//  * Full revote tallies off a file-backed segmented ledger, sweeping
//    revote rate x ballot count, each at every thread count: end-to-end
//    wall clock, the dedup stage's busy time (summed over its task-graph
//    nodes and sequential steps, so above the wall clock on more than one
//    thread), padding overhead (dummy groups/items), and the streaming
//    contract — peak pinned ledger payload stays O(one segment), not O(N),
//    even though the dedup pipeline mixes ~3.3N padded width-3 items.
//  * Determinism at scale: every thread count must produce a byte-identical
//    transcript (DigestTranscriptWithWire), on boards large enough that the
//    dedup's shards hold many items each.
//  * Supersession accounting: every run cross-checks superseded /
//    unmatched-tag discards against the forged corpus and the published
//    dummy openings, and (while affordable) replays the kept set with the
//    quadratic reference over the published tags and counters.
//
// The corpus is forged directly (per-credential keys, ballots via the real
// MakeRevoteBallot) like bench/fig_stream_tally.cpp: registration ceremony
// costs would dominate setup without touching a tally code path. Revotes
// are extra casts with incremented counters by the first rate*N credentials,
// so the corpus has floor(rate*N) supersessions by construction.
//
// Scale knobs: --ballots N (headline kernel size, default 2^17), --tally
// N1,N2 (full-tally sizes, default 2048,8192,32768), --rate R (default
// 0.25), --threads T1,T2 (default 1), --segment E (default 1024). Emits
// BENCH_revote.json.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench/figure_bench.h"
#include "src/crypto/drbg.h"
#include "src/crypto/schnorr.h"
#include "src/ledger/subledgers.h"
#include "src/trip/vsd.h"
#include "src/votegral/ballot.h"
#include "src/votegral/revote.h"
#include "src/votegral/tally.h"
#include "tests/transcript_digest.h"

namespace votegral {
namespace {

namespace fs = std::filesystem;

// --- Part 1: selection kernel + padding plan, crypto-free ------------------

// k*B encodings for k = 0..n-1, built incrementally (the counter table).
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

// A shuffled board of `items` (tag, counter-point) pairs at the given revote
// rate: floor(rate*items) casts are re-casts (counter 1) by the first
// credentials, the rest first casts. Tags are uniform 32-byte strings — the
// selection kernel treats them as opaque sort keys, exactly as it treats
// the real post-mix tag decryptions.
struct KernelBoard {
  std::vector<CompressedRistretto> tags;
  std::vector<CompressedRistretto> counters;
  size_t credentials = 0;
  size_t revotes = 0;
};

KernelBoard MakeKernelBoard(size_t items, double rate,
                            const std::vector<CompressedRistretto>& counter_table,
                            Rng& rng) {
  KernelBoard board;
  board.revotes = static_cast<size_t>(static_cast<double>(items) * rate);
  board.credentials = items - board.revotes;
  Require(board.credentials > 0, "fig_revote: rate leaves no credentials");
  std::vector<CompressedRistretto> credential_tags(board.credentials);
  for (auto& tag : credential_tags) {
    rng.Fill(tag);
  }
  board.tags.reserve(items);
  board.counters.reserve(items);
  for (size_t i = 0; i < board.credentials; ++i) {
    board.tags.push_back(credential_tags[i]);
    board.counters.push_back(counter_table[0]);
  }
  for (size_t i = 0; i < board.revotes; ++i) {
    const size_t credential = i % board.credentials;
    board.tags.push_back(credential_tags[credential]);
    board.counters.push_back(counter_table[1 + i / board.credentials]);
  }
  // Fisher–Yates: the kernel must not benefit from a presorted board.
  for (size_t i = items; i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.Uniform(i));
    std::swap(board.tags[i - 1], board.tags[j]);
    std::swap(board.counters[i - 1], board.counters[j]);
  }
  return board;
}

bool SameSelection(const RevoteSelection& a, const RevoteSelection& b) {
  return a.kept == b.kept && a.superseded == b.superseded &&
         a.duplicate_tag == b.duplicate_tag &&
         a.invalid_structure == b.invalid_structure && a.group_sizes == b.group_sizes;
}

// Envelope item bound: padded board <= 5T + S(S+1)/2 (revote.h).
size_t PaddedItemBound(size_t total) {
  const size_t classes = RevoteCoverClasses(total);
  return 5 * total + classes * (classes + 1) / 2;
}

// --- Part 2: full revote tallies off a file-backed ledger ------------------

// Forges the revote corpus straight onto a file-backed PublicLedger: one
// credential + registration record per voter, a counter-0 cast each, then
// floor(rate*N) counter-1 re-casts by the first credentials. No kiosk: under
// revoting, eligibility is the tag join and validity the binding proof.
struct Fixture {
  PublicLedger ledger;
  ElectionAuthority authority;
  TaggingService tagging;
  CandidateList candidates;
  size_t credentials = 0;
  size_t revotes = 0;
  double ingest_seconds = 0.0;
  uint64_t ledger_bytes = 0;

  Fixture(size_t ballots, double rate, size_t segment_entries, const std::string& dir,
          Rng& rng)
      : ledger(MakeStorage(segment_entries, dir)),
        authority(ElectionAuthority::Create(4, rng)),
        tagging(TaggingService::Create(4, rng)),
        candidates({"Alpha", "Beta", "Gamma"}) {
    revotes = static_cast<size_t>(static_cast<double>(ballots) * rate);
    credentials = ballots - revotes;
    Require(credentials > 0, "fig_revote: rate leaves no credentials");

    WallTimer timer;
    std::vector<ActivatedCredential> activated(credentials);
    for (size_t i = 0; i < credentials; ++i) {
      const std::string voter_id = "voter-" + std::to_string(i);
      ledger.AddEligibleVoter(voter_id);

      SchnorrKeyPair credential = SchnorrKeyPair::Generate(rng);
      activated[i].voter_id = voter_id;
      activated[i].credential_sk = credential.secret();
      activated[i].credential_pk = credential.public_bytes();
      activated[i].public_credential =
          ElGamalEncrypt(authority.public_key(), credential.public_point(), rng);

      RegistrationRecord record;
      record.voter_id = voter_id;
      record.public_credential = activated[i].public_credential;
      Require(ledger.PostRegistration(record).ok(), "fig_revote: registration rejected");

      Post(MakeRevoteBallot(activated[i], candidates, i % candidates.size(),
                            authority.public_key(), /*counter=*/0, rng));
    }
    for (size_t i = 0; i < revotes; ++i) {
      const size_t credential = i % credentials;
      Post(MakeRevoteBallot(activated[credential], candidates,
                            (credential + 1) % candidates.size(), authority.public_key(),
                            /*counter=*/1 + i / credentials, rng));
    }
    ingest_seconds = timer.Seconds();
  }

  void Post(const RevoteBallot& ballot) {
    Bytes payload = ballot.Serialize();
    ledger_bytes += payload.size();
    ledger.PostBallot(std::move(payload));
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

// Replaying the quadratic reference over the published tags/counters is
// affordable up to roughly this many padded items on one core.
constexpr size_t kKeptReplayLimit = 140000;

// Forges one corpus and tallies it at every thread count of the sweep; the
// transcripts must be byte-identical.
std::vector<figure::Row> RunTallies(figure::Bench& bench, size_t ballots, double rate,
                                    const std::vector<size_t>& thread_counts,
                                    size_t segment_entries, size_t index) {
  const fs::path dir = bench.Scratch() / ("corpus-" + std::to_string(index));
  ChaChaRng rng(0x2EF07E000 + index);
  Fixture fixture(ballots, rate, segment_entries, dir.string(), rng);
  const FileLedgerStore* store = fixture.ballot_store();
  Require(store != nullptr, "fig_revote: expected the file backend");
  const size_t max_threads = *std::max_element(thread_counts.begin(), thread_counts.end());

  std::vector<figure::Row> rows;
  std::array<uint8_t, 32> first_digest{};
  bool kept_replayed = false;
  for (size_t threads : thread_counts) {
    std::printf("  tallying at %zu thread%s...\n", threads, threads == 1 ? "" : "s");
    Executor executor(threads);
    TallyService service(fixture.authority, fixture.tagging, executor, RetryPolicy(),
                         /*revoting=*/true, /*revote_padding=*/true);
    TallyRunMetrics metrics;
    ChaChaRng tally_rng(0x57E1ABAD);
    WallTimer timer;
    TallyOutput output = std::move(*service.Run(
        fixture.ledger, fixture.candidates, /*authorized_kiosks=*/{}, tally_rng, &metrics));
    const double tally_s = timer.Seconds();
    double dedup_stage_s = 0.0;
    for (const TallyStageBusy& stage : metrics.stages) {
      if (stage.name == std::string("dedup")) {
        dedup_stage_s = stage.busy_seconds;
      }
    }
    const std::array<uint8_t, 32> digest = DigestTranscriptWithWire(output);
    if (rows.empty()) {
      first_digest = digest;
    }
    bench.Check("transcripts_identical", digest == first_digest,
                "fig_revote: transcript differs across thread counts");

    const RevoteTranscript& rt = output.transcript.revote;
    const size_t accepted = rt.accepted.size();
    const size_t padded_items = rt.mix_input.size();
    const size_t dummy_groups = rt.dummies.size();
    size_t dummy_items = 0;
    size_t dummy_superseded = 0;
    for (const RevoteDummyGroup& group : rt.dummies) {
      Require(group.size >= 1, "fig_revote: empty dummy group");
      dummy_items += group.size;
      dummy_superseded += static_cast<size_t>(group.size) - 1;
    }
    const TallyDiscards& discards = output.result.discards;
    const uint64_t peak_pinned_bytes = store->PeakPinnedBytes();
    const uint64_t segments = store->SegmentCount();

    // Supersession accounting against the forged corpus and the published
    // dummy openings: every re-cast supersedes one real ballot, every dummy
    // group contributes size-1 superseded members and one unmatched tag.
    Require(accepted == ballots, "fig_revote: every forged ballot must be accepted");
    Require(output.result.counted == fixture.credentials,
            "fig_revote: every credential's last cast must count");
    Require(discards.superseded == fixture.revotes + dummy_superseded,
            "fig_revote: superseded discards do not match the corpus + dummies");
    Require(discards.unmatched_tag == dummy_groups,
            "fig_revote: each dummy group must drop as exactly one unmatched tag");
    Require(padded_items == accepted + dummy_items,
            "fig_revote: padded board must be accepted + dummy items");
    Require(padded_items <= PaddedItemBound(accepted),
            "fig_revote: padded board exceeds the cover envelope bound");

    // Replay the selection with the quadratic reference over the *published*
    // tags and counter points (what any auditor sees) while affordable. The
    // transcripts are byte-identical, so one replay covers every count.
    if (rows.empty() && padded_items <= kKeptReplayLimit) {
      RevoteSelection fast = SelectLastPerTag(rt.tags, rt.counter_points);
      RevoteSelection reference = SelectLastPerTagQuadratic(rt.tags, rt.counter_points);
      Require(SameSelection(fast, reference),
              "fig_revote: quadratic replay diverged from the tally's selection");
      Require(fast.kept == rt.kept_indices,
              "fig_revote: published kept set differs from the replayed selection");
      kept_replayed = true;
    }

    // The streaming claim under revoting: even with the padded width-3 dedup
    // mix in flight, peak pinned ledger payload stays O(one segment) — the
    // dedup pipeline works on parsed ballots, never on pinned segments. The
    // peak is the store's high-water mark over every run of its corpus, so it
    // is bounded, by (threads + 2) x 2 pinned segments, at the sweep's largest
    // thread count; below a bound_over_log of 1 a tally that held the whole
    // log would fail the check.
    const uint64_t segment_bound = figure::PinnedSegmentBound(*store, max_threads);
    bench.Check("peak_pinned_within_segment_bound", peak_pinned_bytes <= segment_bound,
                "fig_revote: peak pinned bytes not O(segment)");

    rows.push_back({{"ballots", uint64_t{ballots}},
                    {"rate", rate},
                    {"threads", uint64_t{threads}},
                    {"credentials", uint64_t{fixture.credentials}},
                    {"accepted", uint64_t{accepted}},
                    {"padded_items", uint64_t{padded_items}},
                    {"dummy_groups", uint64_t{dummy_groups}},
                    {"dummy_items", uint64_t{dummy_items}},
                    {"superseded", uint64_t{discards.superseded}},
                    {"unmatched_tag", uint64_t{discards.unmatched_tag}},
                    {"counted", uint64_t{output.result.counted}},
                    {"ingest_s", fixture.ingest_seconds},
                    {"tally_s", tally_s},
                    {"dedup_stage_s", dedup_stage_s},
                    {"peak_pinned_bytes", peak_pinned_bytes},
                    {"segments", segments},
                    {"ledger_payload_bytes", fixture.ledger_bytes},
                    {"bound_over_log", static_cast<double>(segment_bound) /
                                           static_cast<double>(fixture.ledger_bytes)},
                    {"kept_replayed", kept_replayed}});
  }

  fs::remove_all(dir);
  return rows;
}

void Main(int argc, char** argv) {
  figure::Bench bench("revote", argc, argv);
  const size_t ballots = bench.Count("--ballots", size_t{1} << 17);
  const std::vector<size_t> tally_ballots = bench.Counts("--tally", {2048, 8192, 32768});
  const double rate = bench.Number("--rate", 0.25);
  const std::vector<size_t> threads = bench.Counts("--threads", {1});
  const size_t segment_entries = bench.Count("--segment", 1024);
  bench.RejectUnreadFlags();
  Require(rate >= 0.0 && rate < 1.0, "fig_revote: rate in [0, 1)");

  // ---- Part 1: kernel sweep + the 10^5 differential -----------------------
  const std::vector<CompressedRistretto> counter_table =
      CounterEncodings(kRevoteCounterLimit);
  std::vector<size_t> kernel_sizes;
  for (size_t n = std::max<size_t>(ballots / 16, 1024); n < ballots; n *= 2) {
    kernel_sizes.push_back(n);
  }
  kernel_sizes.push_back(ballots);

  std::printf("Revote dedup kernel sweep (rate %.2f)...\n", rate);
  std::vector<figure::Row> kernel_rows;
  for (size_t n : kernel_sizes) {
    ChaChaRng rng(0x2EF07E00 + static_cast<uint64_t>(n));
    KernelBoard board = MakeKernelBoard(n, rate, counter_table, rng);

    WallTimer select_timer;
    RevoteSelection selection = SelectLastPerTag(board.tags, board.counters);
    const double select_s = select_timer.Seconds();
    Require(selection.kept.size() == board.credentials,
            "fig_revote: kernel selection must keep one item per credential");

    WallTimer plan_timer;
    std::vector<uint64_t> plan = RevotePaddingPlan(n, selection.group_sizes);
    const double plan_s = plan_timer.Seconds();
    size_t dummy_items = 0;
    for (uint64_t size : plan) {
      dummy_items += static_cast<size_t>(size);
    }
    const size_t padded_items = n + dummy_items;
    Require(padded_items <= PaddedItemBound(n),
            "fig_revote: kernel padding exceeds the cover envelope bound");
    size_t groups = 0;
    for (const auto& [group_size, count] : selection.group_sizes) {
      groups += count;
    }
    kernel_rows.push_back({{"items", uint64_t{n}},
                           {"groups", uint64_t{groups}},
                           {"dummy_items", uint64_t{dummy_items}},
                           {"padded_items", uint64_t{padded_items}},
                           {"padded_over_items",
                            static_cast<double>(padded_items) / static_cast<double>(n)},
                           {"select_s", select_s},
                           {"plan_s", plan_s}});

    if (n == ballots) {
      // The headline differential: quadratic last-write-wins reference,
      // byte for byte, at 10^5+ items.
      std::printf("  quadratic reference at %zu items...\n", n);
      WallTimer quad_timer;
      RevoteSelection reference = SelectLastPerTagQuadratic(board.tags, board.counters);
      bench.Table("differential", {{{"items", uint64_t{n}},
                                    {"select_s", select_s},
                                    {"quadratic_s", quad_timer.Seconds()}}});
      bench.Check("selection_matches_quadratic", SameSelection(selection, reference),
                  "fig_revote: quasilinear selection diverged from the quadratic reference");
    }
  }
  bench.Table("kernel", std::move(kernel_rows));

  // ---- Part 2: full revote tallies off the file ledger --------------------
  // Sweep rate x ballots: both rates at every size but the largest (the
  // padded board is a pure function of the accepted count, so the rate-0
  // control shows cost is driven by N, not by who revoted).
  std::vector<std::pair<size_t, double>> sweep;
  for (size_t i = 0; i < tally_ballots.size(); ++i) {
    if (i + 1 < tally_ballots.size()) {
      sweep.emplace_back(tally_ballots[i], 0.0);
    }
    sweep.emplace_back(tally_ballots[i], rate);
  }
  std::vector<figure::Row> tally_rows;
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::printf("Full revote tally: %zu ballots at rate %.2f...\n", sweep[i].first,
                sweep[i].second);
    for (figure::Row& row :
         RunTallies(bench, sweep[i].first, sweep[i].second, threads, segment_entries, i)) {
      tally_rows.push_back(std::move(row));
    }
  }
  bench.Table("tally", std::move(tally_rows));
  bench.Finish();
}

}  // namespace
}  // namespace votegral

int main(int argc, char** argv) {
  votegral::Main(argc, argv);
  return 0;
}
