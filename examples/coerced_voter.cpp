// Coercion scenario walk-through (the paper's Fig. 3 story).
//
// Act 1 — fake credentials: Alice is coerced: the coercer demands a
// credential and watches her vote. She hands over a *fake* credential and
// complies under observation; later, in private, she casts her true vote
// with the real one. The tally counts only her real vote, and nothing the
// coercer can see — the credential, its proof transcript, the ledger, or
// the results — reveals the deception.
//
// Act 2 — deniable revoting (docs/REVOTING.md): a second election runs with
// ElectionConfig::revoting. This time the coercer is stronger — Alice must
// surrender her REAL credential. The coercer votes with it at a counter of
// their choosing; Alice privately casts once more with a higher counter and
// her ballot supersedes. Cover-traffic padding lifts the board's revealed
// group-size multiset to a pure function of the ballot count, so the
// coercer cannot even see THAT someone revoted.
//
//   $ ./coerced_voter
#include <cstdio>

#include "src/crypto/drbg.h"
#include "src/votegral/election.h"

using namespace votegral;

int main() {
  // Seeded, so every run (and the ctest that runs it) replays the same
  // election. With a fresh random stream the tiny booth stock occasionally
  // lacks the symbol the kiosk prints, and registration fails gracefully.
  ChaChaRng rng(20260102);

  ElectionConfig config;
  config.roster = {"alice", "bob", "carol", "dave"};
  config.candidates = {"Reform Party", "Coercer's Party"};
  Election election(config, rng);

  // Honest background voters (their behavior gives Alice statistical cover).
  Vsd bob_device = election.trip().MakeVsd();
  Vsd carol_device = election.trip().MakeVsd();
  Vsd dave_device = election.trip().MakeVsd();
  auto bob = election.Register("bob", 1, bob_device, rng);
  auto carol = election.Register("carol", 2, carol_device, rng);
  auto dave = election.Register("dave", 0, dave_device, rng);
  if (!bob.ok() || !carol.ok() || !dave.ok()) {
    std::printf("background registration failed\n");
    return 1;
  }
  (void)election.Cast(bob->activated[0], "Reform Party", rng);
  (void)election.Cast(carol->activated[0], "Coercer's Party", rng);
  // Dave abstains.

  // Alice registers; she expects coercion, so she makes an extra fake.
  Vsd alice_device = election.trip().MakeVsd();
  auto alice = election.Register("alice", 2, alice_device, rng);
  if (!alice.ok()) {
    std::printf("alice registration failed: %s\n", alice.status.reason().c_str());
    return 1;
  }
  std::printf("Alice holds 3 paper credentials; only she knows '%s' is real.\n",
              alice->paper.real.voter_marking.c_str());

  // The coercer takes one credential ("give me your voting credential!").
  const ActivatedCredential& surrendered = alice->activated[1];  // a fake
  std::printf("Coercer receives a credential and checks it:\n");
  std::printf("  - ledger has a registration record for alice: %s\n",
              election.ledger().ActiveRegistration("alice") ? "yes" : "no");
  std::printf("  - its c_pc matches the credential's printed c_pc: %s\n",
              election.ledger().ActiveRegistration("alice")->public_credential ==
                      surrendered.public_credential
                  ? "yes"
                  : "no");
  std::printf("  - proof transcript on the receipt is structurally valid: yes (by design)\n");
  std::printf("The coercer cannot do better: real and fake transcripts are\n");
  std::printf("indistinguishable outside the booth (Section 4.3).\n\n");

  // Coercer votes with the surrendered credential, watching Alice's screen.
  (void)election.Cast(surrendered, "Coercer's Party", rng);
  std::printf("Coercer casts 'Coercer's Party' with the surrendered credential.\n");

  // Later, privately, Alice votes her conscience with the real credential.
  (void)election.Cast(alice->activated[0], "Reform Party", rng);
  std::printf("Alice privately casts 'Reform Party' with her real credential.\n\n");

  TallyOutput output = election.Tally(rng);
  std::printf("Final tally:\n");
  for (const auto& [candidate, count] : output.result.counts) {
    std::printf("  %-16s %zu\n", candidate.c_str(), count);
  }
  std::printf("(ballots silently discarded as fake: %zu — the coercer cannot tell\n",
              output.result.discards.unmatched_tag);
  std::printf(" which discarded ballot was theirs, or whether any was)\n\n");

  Status verified = election.Verify(output);
  std::printf("Universal verification: %s\n", verified.ok() ? "PASS" : "FAIL");
  bool alice_counted = output.result.counts.at("Reform Party") == 2;  // bob + alice
  std::printf("Alice's true vote counted: %s\n\n", alice_counted ? "yes" : "NO");
  if (!verified.ok() || !alice_counted) {
    return 1;
  }

  // ---- Act 2: the coercer demands the REAL credential -----------------------
  std::printf("=== Act 2: deniable revoting ===\n");
  ElectionConfig revote_config;
  revote_config.roster = {"alice", "bob"};
  revote_config.candidates = {"Reform Party", "Coercer's Party"};
  revote_config.revoting = true;
  Election revote_election(revote_config, rng);
  Vsd alice2_device = revote_election.trip().MakeVsd();
  Vsd bob2_device = revote_election.trip().MakeVsd();
  auto alice2 = revote_election.Register("alice", 1, alice2_device, rng);
  auto bob2 = revote_election.Register("bob", 1, bob2_device, rng);
  if (!alice2.ok() || !bob2.ok()) {
    std::printf("revote registration failed\n");
    return 1;
  }
  // This coercer knows about fakes and demands proof-of-real (say, watching
  // the activation). Alice surrenders the real credential.
  std::printf("Alice surrenders her REAL credential.\n");
  (void)revote_election.CastRevote(alice2->activated[0], "Coercer's Party", 0, rng);
  std::printf("Coercer casts 'Coercer's Party' with it (cast counter 0).\n");
  // Privately, Alice outbids the surrendered counter.
  (void)revote_election.CastRevote(alice2->activated[0], "Reform Party", 1, rng);
  std::printf("Alice privately revotes 'Reform Party' (cast counter 1).\n");
  (void)revote_election.Cast(bob2->activated[0], "Reform Party", rng);

  TallyOutput revote_output = revote_election.Tally(rng);
  std::printf("Final tally:\n");
  for (const auto& [candidate, count] : revote_output.result.counts) {
    std::printf("  %-16s %zu\n", candidate.c_str(), count);
  }
  std::printf("(superseded ballots: %zu — cover-traffic dummies revote too, so the\n",
              revote_output.result.discards.superseded);
  std::printf(" count does not reveal whether ALICE did; the padded board's group\n");
  std::printf(" sizes are a pure function of the ballot count)\n");
  Status revote_verified = revote_election.Verify(revote_output);
  std::printf("Universal verification: %s\n", revote_verified.ok() ? "PASS" : "FAIL");
  bool revote_counted = revote_output.result.counts.at("Reform Party") == 2;
  std::printf("Alice's revote counted over the coercer's: %s\n",
              revote_counted ? "yes" : "NO");
  return revote_verified.ok() && revote_counted ? 0 : 1;
}
