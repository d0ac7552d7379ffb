// Quickstart: the smallest complete Votegral election.
//
// One voter registers in person with TRIP (receiving one real and one fake
// paper credential), activates both on her device, votes with the real one,
// and the election tallies and verifies end-to-end.
//
//   $ ./quickstart
#include <cstdio>

#include "src/crypto/drbg.h"
#include "src/votegral/election.h"

using namespace votegral;

int main() {
  // Seeded, so every run (and the ctest that runs it) replays the same
  // election. With a fresh random stream the tiny booth stock occasionally
  // lacks the symbol the kiosk prints, and registration fails gracefully.
  ChaChaRng rng(20260101);

  // 1. Election setup: 4-member authority, 4 tagging talliers, 4 shufflers.
  ElectionConfig config;
  config.roster = {"alice"};
  config.candidates = {"Proposal YES", "Proposal NO"};
  // Serial escape hatch: one voter doesn't need the work pool, and the
  // transcript (and so this program's output) is identical at any thread
  // count — the parallel pipeline is byte-reproducible by construction.
  config.threads = 1;
  Election election(config, rng);
  std::printf("Setup: authority of %zu members, %zu envelopes committed on-ledger\n",
              election.trip().authority().size(),
              election.ledger().envelope_commitment_count());

  // 2. In-person registration: 1 real + 1 fake credential; activation on
  //    Alice's device runs every Fig. 11 check.
  Vsd device = election.trip().MakeVsd();
  auto alice = election.Register("alice", /*fake_count=*/1, device, rng);
  if (!alice.ok()) {
    std::printf("registration failed: %s\n", alice.status.reason().c_str());
    return 1;
  }
  std::printf("Registered alice: real credential marked '%s', fake marked '%s'\n",
              alice->paper.real.voter_marking.c_str(),
              alice->paper.fakes[0].voter_marking.c_str());
  std::printf("Both activated: %zu credentials on device (indistinguishable to anyone\n"
              "but alice — same ledger record, same check-out ticket)\n",
              device.credentials().size());

  // 3. Voting: the real credential carries her true choice; the fake one can
  //    be handed to a coercer — its votes silently never count.
  Status cast = election.Cast(alice->activated[0], "Proposal YES", rng);
  if (!cast.ok()) {
    std::printf("cast failed: %s\n", cast.reason().c_str());
    return 1;
  }
  std::printf("Ballot cast with the real credential\n");

  // 4. Tally: mix, tag, filter, decrypt — all verifiably.
  TallyOutput output = election.Tally(rng);
  std::printf("\nResults:\n");
  for (const auto& [candidate, count] : output.result.counts) {
    std::printf("  %-14s %zu\n", candidate.c_str(), count);
  }
  std::printf("counted=%zu, fake/unmatched discarded=%zu\n", output.result.counted,
              output.result.discards.unmatched_tag);

  // 5. Universal verification from public data only.
  Status verified = election.Verify(output);
  std::printf("\nUniversal verification: %s\n",
              verified.ok() ? "PASS" : verified.reason().c_str());
  return verified.ok() ? 0 : 1;
}
