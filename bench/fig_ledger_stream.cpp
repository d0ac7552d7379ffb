// Ledger storage-backend streaming bench: the scaling evidence for the
// segmented-log redesign (ROADMAP "Streaming ledger ingestion").
//
// Sweeps ballot-sized entry counts (--entries, default 4096,16384,65536) over
// both backends (in-memory deque vs file-backed segmented log) and measures,
// per backend:
//   * append throughput (hash chain + Merkle frontier + write-through),
//   * a full sequential cursor scan (the tally validate stage's access
//     pattern: zero-copy views, one pinned segment at a time),
//   * MerkleRoot() latency — O(log n) off the incremental frontier,
//   * ProveInclusion() latency — no segment reads,
//   * VerifyChain() (streamed full re-hash, the auditor's integrity pass),
//   * peak pinned segment bytes (file backend) — the O(segment size), not
//     O(ledger size), resident-memory bound.
//
// Emits BENCH_ledger.json for the CI artifact next to the fig5b sweep.
//
// --threads N (default: the global pool's size, which VOTEGRAL_THREADS
// sets) sizes a local Executor for the thread-safe read paths: the
// sequential scan becomes per-shard cursors (each pinning its own segment)
// and inclusion-proof *verification* fans out. Proof generation stays
// serial — the commitment tree's hash-invocation counter is deliberately
// unsynchronized.
#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/figure_bench.h"
#include "src/common/executor.h"
#include "src/crypto/drbg.h"
#include "src/ledger/ledger.h"

namespace votegral {
namespace {

namespace fs = std::filesystem;

// Realistic ballot payload size: a serialized Ballot (two ciphertexts, two
// signatures, kiosk certificate) is ~330 bytes.
constexpr size_t kPayloadBytes = 330;
constexpr size_t kSegmentEntries = 1024;

figure::Row RunOne(const LedgerStorageConfig& config, const std::string& backend,
                   size_t entries, Executor& executor) {
  Ledger ledger(config);
  ChaChaRng rng(0x1ED6E5);

  WallTimer append_timer;
  for (size_t i = 0; i < entries; ++i) {
    ledger.Append("ballot", rng.RandomBytes(kPayloadBytes));
  }
  const double append_s = append_timer.Seconds();

  // Scan: sum payload bytes through zero-copy views — one cursor per shard,
  // each pinning at most one segment (shard boundaries are thread-count
  // independent; cursors share nothing mutable).
  WallTimer scan_timer;
  const auto shards = Executor::Shards(entries, executor.threads());
  std::atomic<uint64_t> scanned{0};
  executor.ParallelForEach(shards.size(), [&](size_t s) {
    uint64_t local = 0;
    LedgerEntryView view;
    for (LedgerCursor cursor = ledger.Scan(shards[s].first, shards[s].second);
         cursor.Next(&view);) {
      local += view.payload.size();
    }
    scanned.fetch_add(local, std::memory_order_relaxed);
  });
  const double scan_s = scan_timer.Seconds();
  Require(scanned.load() == entries * kPayloadBytes, "ledger bench: scan lost bytes");

  // Commitment queries, averaged over a few calls.
  constexpr int kReps = 64;
  WallTimer root_timer;
  LedgerHash root = {};
  for (int i = 0; i < kReps; ++i) {
    root = ledger.MerkleRoot();
  }
  const double root_us = root_timer.Seconds() / kReps * 1e6;

  // Proof generation is serial (the tree's hash-invocation counter is not
  // synchronized); verification is pure and fans out.
  WallTimer prove_timer;
  std::vector<InclusionProof> proofs;
  proofs.reserve(kReps);
  for (int i = 0; i < kReps; ++i) {
    auto proof = ledger.ProveInclusion((entries / kReps) * i);
    Require(proof.ok(), "ledger bench: proof failed");
    proofs.push_back(std::move(*proof));
  }
  executor.ParallelForEach(proofs.size(), [&](size_t i) {
    Require(
        Ledger::VerifyInclusion(root, ledger.LeafHash(proofs[i].index), proofs[i]).ok(),
        "ledger bench: proof did not verify");
  });
  const double prove_us = prove_timer.Seconds() / kReps * 1e6;

  WallTimer verify_timer;
  Require(ledger.VerifyChain().ok(), "ledger bench: chain verify failed");
  const double verify_chain_s = verify_timer.Seconds();

  uint64_t peak_pinned_bytes = 0;
  uint64_t segment_bytes = 0;
  if (const auto* file = dynamic_cast<const FileLedgerStore*>(&ledger.store())) {
    peak_pinned_bytes = file->PeakPinnedBytes();
    segment_bytes = fs::file_size(file->SegmentPath(0));
    Require(peak_pinned_bytes <= 4 * segment_bytes,
            "ledger bench: resident memory exceeded O(segment size)");
  }
  return {{"backend", backend},
          {"entries", uint64_t{entries}},
          {"append_s", append_s},
          {"scan_s", scan_s},
          {"merkle_root_us", root_us},
          {"prove_inclusion_us", prove_us},
          {"verify_chain_s", verify_chain_s},
          {"peak_pinned_bytes", peak_pinned_bytes},
          {"segment_bytes", segment_bytes}};
}

void Main(int argc, char** argv) {
  figure::Bench bench("ledger", argc, argv);
  const size_t threads = bench.Count("--threads", Executor::Global().threads());
  const std::vector<size_t> sizes = bench.Counts("--entries", {4096, 16384, 65536});
  bench.RejectUnreadFlags();
  bench.Config("payload_bytes", uint64_t{kPayloadBytes});
  bench.Config("segment_entries", uint64_t{kSegmentEntries});

  Executor executor(threads);
  Executor::Scope scope(executor);
  const std::string dir = (bench.Scratch() / "ledger").string();
  std::vector<figure::Row> rows;
  for (size_t n : sizes) {
    LedgerStorageConfig memory;
    rows.push_back(RunOne(memory, "memory", n, executor));

    LedgerStorageConfig file;
    file.backend = LedgerStorageConfig::Backend::kFile;
    file.directory = dir;
    file.segment_entries = kSegmentEntries;
    rows.push_back(RunOne(file, "file", n, executor));
    std::filesystem::remove_all(dir);
  }
  bench.Table("sweep", std::move(rows));
  bench.Finish();
}

}  // namespace
}  // namespace votegral

int main(int argc, char** argv) {
  votegral::Main(argc, argv);
  return 0;
}
