// Tests for the ledger storage backends: file-backed segmented log round
// trips, crash recovery (torn tail vs corrupted/missing sealed segments),
// streaming memory bounds, and the cross-backend determinism contract — an
// election tallied off the file store must produce the byte-identical
// transcript the in-memory store produces, at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/files.h"
#include "src/crypto/drbg.h"
#include "src/ledger/ledger.h"
#include "src/ledger/persistence.h"
#include "src/votegral/election.h"
#include "tests/transcript_digest.h"

namespace votegral {
namespace {

namespace fs = std::filesystem;

Bytes Payload(const std::string& s) { return Bytes(s.begin(), s.end()); }

// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("votegral_store_" + name + "_" + std::to_string(::getpid())))
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

// Appends n deterministic entries.
void Fill(Ledger& ledger, int n) {
  for (int i = 0; i < n; ++i) {
    ledger.Append(i % 3 == 0 ? "a" : "b", Payload("entry-" + std::to_string(i)));
  }
}

TEST(FileLedgerStore, RoundTripMatchesMemoryBackend) {
  ScratchDir dir("roundtrip");
  Ledger memory;
  Fill(memory, 21);

  {
    Ledger file(FileConfig(dir.path));
    Fill(file, 21);
    EXPECT_EQ(file.Head(), memory.Head());
    EXPECT_EQ(file.MerkleRoot(), memory.MerkleRoot());
    EXPECT_TRUE(file.VerifyChain().ok());
    // 21 entries at 8/segment: two sealed segments + an active one.
    EXPECT_EQ(file.store().SegmentCount(), 3u);
  }

  // Reopen from disk: identical commitments, identical contents, indices
  // rebuilt (topic index, Merkle frontier, head).
  auto reopened = Ledger::Open(FileConfig(dir.path));
  ASSERT_TRUE(reopened.ok()) << reopened.status.reason();
  EXPECT_EQ(reopened->size(), 21u);
  EXPECT_EQ(reopened->Head(), memory.Head());
  EXPECT_EQ(reopened->MerkleRoot(), memory.MerkleRoot());
  EXPECT_EQ(reopened->TopicIndices("a"), memory.TopicIndices("a"));
  EXPECT_TRUE(reopened->VerifyChain().ok());

  LedgerCursor expect = memory.Scan();
  LedgerCursor got = reopened->Scan();
  LedgerEntryView a, b;
  while (expect.Next(&a)) {
    ASSERT_TRUE(got.Next(&b));
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.topic, b.topic);
    EXPECT_EQ(Bytes(a.payload.begin(), a.payload.end()),
              Bytes(b.payload.begin(), b.payload.end()));
    EXPECT_EQ(a.entry_hash, b.entry_hash);
  }
  EXPECT_FALSE(got.Next(&b));
}

TEST(FileLedgerStore, MerkleRootIdenticalAcrossSegmentGeometries) {
  ScratchDir small("geom_small");
  ScratchDir large("geom_large");
  Ledger a(FileConfig(small.path, 4));
  Ledger b(FileConfig(large.path, 64));
  Ledger c;  // memory
  Fill(a, 37);
  Fill(b, 37);
  Fill(c, 37);
  EXPECT_EQ(a.MerkleRoot(), c.MerkleRoot());
  EXPECT_EQ(b.MerkleRoot(), c.MerkleRoot());
  EXPECT_EQ(a.Head(), c.Head());
}

TEST(FileLedgerStore, TornTailEntryIsTruncatedOnOpen) {
  ScratchDir dir("torn_tail");
  std::string last_segment;
  {
    Ledger ledger(FileConfig(dir.path));
    Fill(ledger, 12);  // segments: seg0 sealed (8), seg1 active (4)
    last_segment =
        static_cast<const FileLedgerStore&>(ledger.store()).SegmentPath(1);
  }
  // Simulate a crash mid-append: chop bytes off the last frame.
  const auto full_size = fs::file_size(last_segment);
  fs::resize_file(last_segment, full_size - 5);

  auto recovered = Ledger::Open(FileConfig(dir.path));
  ASSERT_TRUE(recovered.ok()) << recovered.status.reason();
  // The torn entry is gone; everything before it survived and verifies.
  EXPECT_EQ(recovered->size(), 11u);
  EXPECT_TRUE(recovered->VerifyChain().ok());
  const auto& store = static_cast<const FileLedgerStore&>(recovered->store());
  EXPECT_TRUE(store.recovery_stats().truncated_tail);
  EXPECT_GT(store.recovery_stats().dropped_bytes, 0u);

  // The log accepts appends again and the chain stays consistent.
  auto reopened_entry_count = recovered->size();
  const_cast<Ledger&>(*recovered).Append("a", Payload("post-recovery"));
  EXPECT_EQ(recovered->size(), reopened_entry_count + 1);
  EXPECT_TRUE(recovered->VerifyChain().ok());
}

TEST(FileLedgerStore, TornHeaderTailSegmentIsRecovered) {
  ScratchDir dir("torn_header");
  {
    Ledger ledger(FileConfig(dir.path));
    Fill(ledger, 16);  // exactly two sealed segments, no active file
  }
  // Simulate a crash between creating the next segment file and flushing
  // its first frame: a partial (or empty) header.
  {
    std::ofstream torn(fs::path(dir.path) / "seg-00000002.log", std::ios::binary);
    torn.write("VGLSEG", 6);
  }
  auto recovered = Ledger::Open(FileConfig(dir.path));
  ASSERT_TRUE(recovered.ok()) << recovered.status.reason();
  EXPECT_EQ(recovered->size(), 16u);
  EXPECT_TRUE(recovered->VerifyChain().ok());
  const auto& store = static_cast<const FileLedgerStore&>(recovered->store());
  EXPECT_TRUE(store.recovery_stats().truncated_tail);
  // Appends resume cleanly into a fresh tail segment.
  const_cast<Ledger&>(*recovered).Append("a", Payload("after"));
  EXPECT_EQ(recovered->size(), 17u);
  EXPECT_TRUE(recovered->VerifyChain().ok());
}

TEST(FileLedgerStore, BitFlipInSealedSegmentIsLocalized) {
  ScratchDir dir("bitflip");
  std::string sealed;
  {
    Ledger ledger(FileConfig(dir.path));
    Fill(ledger, 20);
    sealed = static_cast<const FileLedgerStore&>(ledger.store()).SegmentPath(0);
  }
  // Flip one payload byte deep inside the sealed segment.
  {
    std::fstream f(sealed, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(60);
    char byte = 0;
    f.seekg(60);
    f.get(byte);
    byte ^= 1;
    f.seekp(60);
    f.put(byte);
  }
  auto opened = Ledger::Open(FileConfig(dir.path));
  ASSERT_FALSE(opened.ok());
  // The failure names the damaged segment, not just "corrupt ledger".
  EXPECT_NE(opened.status.reason().find("segment 0"), std::string::npos)
      << opened.status.reason();
}

TEST(FileLedgerStore, MissingSegmentFileIsLocalized) {
  ScratchDir dir("missing");
  {
    Ledger ledger(FileConfig(dir.path));
    Fill(ledger, 20);  // seg0, seg1 sealed; seg2 active
  }
  fs::remove(fs::path(dir.path) / "seg-00000001.log");
  auto opened = Ledger::Open(FileConfig(dir.path));
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status.reason().find("missing segment file seg-00000001.log"),
            std::string::npos)
      << opened.status.reason();
}

TEST(FileLedgerStore, SegmentPathThatIsADirectoryFailsUnavailable) {
  ScratchDir dir("segment_is_dir");
  const std::string segment = (fs::path(dir.path) / "seg-00000000.log").string();
  fs::create_directories(segment);
  auto opened = Ledger::Open(FileConfig(dir.path));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status.code(), StatusCode::kUnavailable) << opened.status;
  EXPECT_NE(opened.status.reason().find(segment), std::string::npos) << opened.status;
}

TEST(FileLedgerStore, SealedSegmentsAreNotResident) {
  ScratchDir dir("resident");
  Ledger ledger(FileConfig(dir.path, 8));
  Fill(ledger, 64);
  const auto& store = static_cast<const FileLedgerStore&>(ledger.store());
  // A full sequential scan touches all 8 segments but pins at most one
  // sealed segment's buffer at a time.
  LedgerEntryView view;
  size_t seen = 0;
  for (LedgerCursor cursor = ledger.Scan(); cursor.Next(&view);) {
    ++seen;
  }
  EXPECT_EQ(seen, 64u);
  uint64_t one_segment_bytes = fs::file_size(store.SegmentPath(0));
  EXPECT_LE(store.PeakPinnedBytes(), 2 * one_segment_bytes)
      << "scan pinned more than O(segment) bytes";
}

TEST(FileLedgerStore, LivePinsOfASealedSegmentShareOneRead) {
  // Four cursors on four threads hold pins of one sealed segment at once:
  // they share one read of its file, and the gauge counts its bytes once.
  ScratchDir dir("shared_pins");
  Ledger ledger(FileConfig(dir.path, 8));
  Fill(ledger, 64);
  const auto& store = static_cast<const FileLedgerStore&>(ledger.store());
  const uint64_t one_segment_bytes = fs::file_size(store.SegmentPath(1));
  constexpr size_t kReaders = 4;
  std::latch all_pinned(kReaders);
  std::vector<std::string> first_payload(kReaders);
  std::vector<size_t> seen(kReaders, 0);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      LedgerCursor cursor = ledger.Scan(8, 16);
      LedgerEntryView view;
      Require(cursor.Next(&view), "cursor ended early");
      all_pinned.arrive_and_wait();  // every pin is alive here
      first_payload[r].assign(view.payload.begin(), view.payload.end());
      seen[r] = 1;
      while (cursor.Next(&view)) {
        ++seen[r];
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(first_payload[r], "entry-8") << "reader " << r;
    EXPECT_EQ(seen[r], 8u) << "reader " << r;
  }
  EXPECT_EQ(store.PeakPinnedBytes(), one_segment_bytes);

  // A tamper drops the shared bytes: a pin taken before it keeps the old
  // payload, and the next pin reads the rewritten file.
  LedgerCursor before = ledger.Scan(8, 16);
  LedgerEntryView old_view;
  ASSERT_TRUE(before.Next(&old_view));
  ledger.TamperWithPayloadForTest(8, Payload("tampered"));
  LedgerCursor after = ledger.Scan(8, 16);
  LedgerEntryView new_view;
  ASSERT_TRUE(after.Next(&new_view));
  EXPECT_EQ(std::string(old_view.payload.begin(), old_view.payload.end()), "entry-8");
  EXPECT_EQ(std::string(new_view.payload.begin(), new_view.payload.end()), "tampered");
}

TEST(FileLedgerStore, PublicLedgerOpenRebuildsDerivedState) {
  ScratchDir dir("public");
  ChaChaRng rng(4242);
  Scalar challenge = Scalar::Random(rng);
  {
    PublicLedger ledger(FileConfig(dir.path));
    ledger.AddEligibleVoter("alice");
    ledger.AddEligibleVoter("bob");
    EnvelopeCommitment commitment;
    commitment.challenge_hash = Sha256::Hash(challenge.ToBytes());
    ledger.PostEnvelopeCommitment(commitment);
    ASSERT_TRUE(ledger.RevealEnvelopeChallenge(challenge).ok());
    ledger.PostBallot(Payload("ballot-0"));
  }
  auto restored = PublicLedger::Open(FileConfig(dir.path));
  ASSERT_TRUE(restored.ok()) << restored.status.reason();
  EXPECT_EQ(restored->eligible_count(), 2u);
  EXPECT_TRUE(restored->IsEligible("alice"));
  EXPECT_EQ(restored->revealed_challenge_count(), 1u);
  EXPECT_EQ(restored->BallotCount(), 1u);
  EXPECT_TRUE(restored->VerifyChains().ok());
  // Duplicate-reveal defense survives recovery.
  EXPECT_FALSE(restored->RevealEnvelopeChallenge(challenge).ok());
}

TEST(Persistence, SnapshotImportsOntoFileBackend) {
  // An auditor downloads a serialized snapshot and rebuilds a file-backed
  // segmented copy from it; commitments must match the original.
  ScratchDir dir("import");
  PublicLedger live;
  live.AddEligibleVoter("alice");
  live.PostBallot(Payload("ballot-a"));
  live.PostBallot(Payload("ballot-b"));
  Bytes wire = SerializePublicLedger(live);

  auto imported = ParsePublicLedger(wire, FileConfig(dir.path));
  ASSERT_TRUE(imported.ok()) << imported.status.reason();
  EXPECT_EQ(imported->ballot_log().Head(), live.ballot_log().Head());
  EXPECT_EQ(imported->ballot_log().MerkleRoot(), live.ballot_log().MerkleRoot());
  EXPECT_EQ(imported->eligible_count(), 1u);

  // And the imported copy is a real segmented log: reopening the directory
  // recovers the same state.
  auto reopened = PublicLedger::Open(FileConfig(dir.path));
  ASSERT_TRUE(reopened.ok()) << reopened.status.reason();
  EXPECT_EQ(reopened->ballot_log().Head(), live.ballot_log().Head());
}

TEST(Persistence, RejectedImportKeepsOnlyTheVerifiedPrefixOnDisk) {
  // A snapshot with one payload byte of entry 5 flipped. The import fails,
  // and the directory it wrote must hold entries 0-4 only: never entry 5's
  // tampered payload under a freshly computed, valid hash.
  ScratchDir dir("tampered_import");
  Ledger source;
  Fill(source, 10);
  Bytes wire = SerializeLedger(source);
  const Bytes fifth = Payload("entry-5");
  auto at = std::search(wire.begin(), wire.end(), fifth.begin(), fifth.end());
  ASSERT_NE(at, wire.end());
  *at ^= 1;

  auto imported = ParseLedger(wire, FileConfig(dir.path));
  ASSERT_FALSE(imported.ok());
  EXPECT_EQ(imported.status.code(), StatusCode::kCorrupted) << imported.status;
  EXPECT_NE(imported.status.reason().find("entry 5 recomputed hash mismatch (file tampered?)"),
            std::string::npos)
      << imported.status;

  auto reopened = Ledger::Open(FileConfig(dir.path));
  ASSERT_TRUE(reopened.ok()) << reopened.status;
  EXPECT_EQ(reopened->size(), 5u);
  EXPECT_TRUE(reopened->VerifyChain().ok());
  EXPECT_EQ(reopened->Head(), source.LeafHash(4));
}

// ---------------------------------------------------------------------------
// Ledger::AppendVerified: the verify-then-apply step of replication and
// snapshot import.
// ---------------------------------------------------------------------------

// Everything a rejected AppendVerified must leave as it was.
struct LedgerState {
  uint64_t size = 0;
  LedgerHash head{};
  LedgerHash root{};
  std::map<std::string, Bytes> files;  // segment directory, by file name

  bool operator==(const LedgerState&) const = default;
};

LedgerState Capture(const Ledger& ledger, const std::string& dir) {
  LedgerState state{ledger.size(), ledger.Head(), ledger.MerkleRoot(), {}};
  for (const fs::directory_entry& file : fs::directory_iterator(dir)) {
    Outcome<Bytes> bytes = ReadFileBytes(file.path().string());
    EXPECT_TRUE(bytes.ok()) << bytes.status;
    state.files[file.path().filename().string()] = bytes.ok() ? *bytes : Bytes{};
  }
  return state;
}

LedgerEntry EntryAt(const Ledger& ledger, uint64_t index) {
  LedgerCursor cursor = ledger.Scan(index, index + 1);
  LedgerEntryView view;
  EXPECT_TRUE(cursor.Next(&view));
  return view.Materialize();
}

// A file-backed mirror of the first 10 entries of an 11-entry source (one
// sealed segment and an open one); entry 10 is the next to apply.
struct Mirror {
  explicit Mirror(const std::string& name) : dir(name), ledger(FileConfig(dir.path)) {
    Fill(source, 11);
    for (uint64_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(ledger.AppendVerified(EntryAt(source, i)).ok());
    }
  }

  // Applies `entry` and expects a kCorrupted rejection containing `reason`
  // that leaves the mirror as it was; then applies the true entry 10.
  void ExpectRejected(LedgerEntry entry, const std::string& reason) {
    const LedgerState before = Capture(ledger, dir.path);
    const Status rejected = ledger.AppendVerified(std::move(entry));
    EXPECT_EQ(rejected.code(), StatusCode::kCorrupted) << rejected;
    EXPECT_NE(rejected.reason().find(reason), std::string::npos) << rejected;
    EXPECT_TRUE(Capture(ledger, dir.path) == before) << "a rejected entry changed the mirror";
    ASSERT_TRUE(ledger.AppendVerified(EntryAt(source, 10)).ok());
    EXPECT_EQ(ledger.Head(), source.Head());
    EXPECT_EQ(ledger.MerkleRoot(), source.MerkleRoot());
  }

  ScratchDir dir;
  Ledger source;
  Ledger ledger;
};

TEST(LedgerAppendVerified, RejectsAWrongIndex) {
  Mirror mirror("verified_index");
  LedgerEntry entry = EntryAt(mirror.source, 10);
  entry.index = 11;
  mirror.ExpectRejected(std::move(entry), "entry carries index 11, expected 10");
}

TEST(LedgerAppendVerified, RejectsABrokenChainLink) {
  Mirror mirror("verified_chain");
  LedgerEntry entry = EntryAt(mirror.source, 10);
  entry.prev_hash[7] ^= 0x01;
  mirror.ExpectRejected(std::move(entry), "entry 10 chain link mismatch");
}

TEST(LedgerAppendVerified, RejectsAPayloadThatDoesNotMatchItsHash) {
  Mirror mirror("verified_hash");
  LedgerEntry entry = EntryAt(mirror.source, 10);
  entry.payload[0] ^= 0x01;
  mirror.ExpectRejected(std::move(entry), "entry 10 recomputed hash mismatch");
}

// ---------------------------------------------------------------------------
// Cross-backend determinism: the acceptance contract of the storage API.
// ---------------------------------------------------------------------------

struct TalliedRun {
  std::array<uint8_t, 32> digest;
  bool verified = false;
};

TalliedRun RunElection(const LedgerStorageConfig& storage, size_t threads) {
  ChaChaRng rng(0x5709A6E);
  ElectionConfig config;
  config.roster = {"alice", "bob", "carol", "dave"};
  config.candidates = {"Alpha", "Beta"};
  config.threads = threads;
  config.storage = storage;
  // Tiny segments so the four-voter election actually crosses segment
  // boundaries in every sub-log.
  config.storage.segment_entries = 4;
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  const char* choices[] = {"Alpha", "Beta", "Alpha", "Alpha"};
  for (size_t i = 0; i < config.roster.size(); ++i) {
    auto voter = election.Register(config.roster[i], /*fake_count=*/1, vsd, rng);
    EXPECT_TRUE(voter.ok()) << voter.status.reason();
    EXPECT_TRUE(election.Cast(voter->activated[0], choices[i], rng).ok());
    EXPECT_TRUE(election.Cast(voter->activated[1], "Beta", rng).ok());
  }
  ChaChaRng tally_rng(0x5709A6F);
  TallyOutput output = election.Tally(tally_rng);
  TalliedRun run;
  run.digest = DigestTranscriptWithWire(output);  // protocol bytes + wire caches
  run.verified = election.Verify(output).ok();
  return run;
}

TEST(StorageDeterminism, FileAndMemoryBackendsYieldByteIdenticalTallies) {
  TalliedRun baseline = RunElection(LedgerStorageConfig{}, /*threads=*/1);
  EXPECT_TRUE(baseline.verified);

  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TalliedRun memory = RunElection(LedgerStorageConfig{}, threads);
    EXPECT_EQ(memory.digest, baseline.digest);
    EXPECT_TRUE(memory.verified);

    ScratchDir dir("determinism_t" + std::to_string(threads));
    TalliedRun file = RunElection(FileConfig(dir.path), threads);
    EXPECT_EQ(file.digest, baseline.digest)
        << "file-backed transcript differs from in-memory";
    EXPECT_TRUE(file.verified);
  }
}

}  // namespace
}  // namespace votegral
