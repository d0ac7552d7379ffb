// Offline audit: universal verifiability without ever touching the live
// system — now against the file-backed segmented ledger.
//
// The election runs with its public ledger on disk (fixed-size sealed
// segments, hash-chained entries, incremental Merkle commitments), so the
// tally streams ballots off segments instead of holding the log in RAM.
// The auditor then re-checks the entire tally two independent ways:
//   1. by recovering the segment directory itself (crash-safe open:
//      per-segment hash re-verification, derived indices rebuilt), and
//   2. by downloading a serialized snapshot and importing it (every entry
//      frame re-hashed and compared on load).
// Either path ends in the same universal verification of the published
// transcript — mixing, tagging, decryption proofs, the tag join and the
// counts — from public data alone.
//
//   $ ./offline_audit
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "src/crypto/drbg.h"
#include "src/ledger/persistence.h"
#include "src/votegral/election.h"

using namespace votegral;

namespace {

// The on-disk ledger and the downloaded snapshot, removed on every exit
// path. The pid suffix keeps concurrent runs (two build trees' test suites)
// apart.
struct TempPaths {
  std::string ledger_dir;
  std::string snapshot;

  TempPaths() {
    const std::filesystem::path base =
        std::filesystem::temp_directory_path() /
        ("votegral_offline_audit-" + std::to_string(static_cast<unsigned>(getpid())));
    ledger_dir = base.string() + ".ledgerd";
    snapshot = base.string() + ".ledger";
    Remove();
  }
  ~TempPaths() { Remove(); }

  void Remove() const {
    std::error_code ignored;
    std::filesystem::remove_all(ledger_dir, ignored);
    std::filesystem::remove(snapshot, ignored);
  }
};

}  // namespace

int main() {
  ChaChaRng rng(777);
  const TempPaths paths;
  const std::string& ledger_dir = paths.ledger_dir;

  // --- Election side, on a segmented on-disk ledger ----------------------
  ElectionConfig config;
  for (int i = 0; i < 12; ++i) {
    config.roster.push_back("voter-" + std::to_string(i));
  }
  config.candidates = {"Option Alpha", "Option Beta"};
  config.storage.backend = LedgerStorageConfig::Backend::kFile;
  config.storage.directory = ledger_dir;
  config.storage.segment_entries = 16;  // small segments so the demo seals a few
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  for (int i = 0; i < 12; ++i) {
    auto voter = election.Register(config.roster[static_cast<size_t>(i)], 1, vsd, rng);
    if (!voter.ok()) {
      std::printf("registration failed: %s\n", voter.status.reason().c_str());
      return 1;
    }
    (void)election.Cast(voter->activated[0], i % 3 == 0 ? "Option Beta" : "Option Alpha",
                        rng);
    (void)election.Cast(voter->activated[1], "Option Beta", rng);  // decoys
  }
  TallyOutput output = election.Tally(rng);
  std::printf("Published result: Alpha=%zu Beta=%zu (counted=%zu, fakes discarded=%zu)\n",
              output.result.counts.at("Option Alpha"),
              output.result.counts.at("Option Beta"), output.result.counted,
              output.result.discards.unmatched_tag);
  std::printf("Ledger lives in %s (%llu ballot-log segments, backend \"%s\")\n",
              ledger_dir.c_str(),
              static_cast<unsigned long long>(
                  election.ledger().ballot_log().store().SegmentCount()),
              election.ledger().ballot_log().store().Describe().c_str());

  // --- Auditor path 1: recover the segment directory directly ------------
  {
    auto recovered = PublicLedger::Open(config.storage);
    if (!recovered.ok()) {
      std::printf("auditor: segment recovery failed: %s\n",
                  recovered.status.reason().c_str());
      return 1;
    }
    Status verdict = VerifyElection(*recovered, election.verifier_params(),
                                    election.candidates(), output);
    std::printf("Auditor (segment recovery): %s\n",
                verdict.ok() ? "ELECTION VERIFIES" : verdict.reason().c_str());
    if (!verdict.ok()) {
      return 1;
    }
  }

  // --- Auditor path 2: serialized snapshot download -----------------------
  const std::string& snapshot = paths.snapshot;
  if (Status s = SavePublicLedger(election.ledger(), snapshot); !s.ok()) {
    std::printf("save failed: %s\n", s.reason().c_str());
    return 1;
  }
  auto restored = LoadPublicLedger(snapshot);
  if (!restored.ok()) {
    std::printf("auditor: load failed: %s\n", restored.status.reason().c_str());
    return 1;
  }
  std::printf("Auditor loaded snapshot: %zu registrations, %zu ballots, chains intact\n",
              restored->ActiveRegistrations().size(), restored->AllBallots().size());
  Status verdict = VerifyElection(*restored, election.verifier_params(),
                                  election.candidates(), output);
  std::printf("Auditor (snapshot): %s\n", verdict.ok() ? "ELECTION VERIFIES" :
                                                         verdict.reason().c_str());

  // Demonstrate tamper-evidence at rest: flip one byte of the snapshot.
  Bytes bytes = SerializePublicLedger(election.ledger());
  bytes[bytes.size() / 2] ^= 1;
  auto tampered = ParsePublicLedger(bytes);
  std::printf("Tampered snapshot rejected on load: %s\n",
              tampered.ok() ? "NO (bad!)" : tampered.status.reason().c_str());
  return verdict.ok() && !tampered.ok() ? 0 : 1;
}
