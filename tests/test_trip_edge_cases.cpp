// Edge cases and operational scenarios for the TRIP registration site:
// multiple kiosks/officials, envelope stock exhaustion, notification hooks,
// restocking, and cross-kiosk credential flows.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/crypto/drbg.h"
#include "src/trip/registrar.h"

namespace votegral {
namespace {

TEST(TripSite, MultipleKiosksAndOfficialsInterleave) {
  ChaChaRng rng(1100);
  TripSystemParams params;
  params.kiosks = 3;
  params.officials = 2;
  for (int i = 0; i < 6; ++i) {
    params.roster.push_back("voter-" + std::to_string(i));
  }
  TripSystem system = TripSystem::Create(params, rng);
  EXPECT_EQ(system.authorized_kiosks().size(), 3u);
  EXPECT_EQ(system.authorized_officials().size(), 2u);

  Vsd vsd = system.MakeVsd();
  // Voters spread across desks; all credentials activate regardless of
  // which kiosk/official pair served them.
  for (int i = 0; i < 6; ++i) {
    RegistrationDesk desk(system, /*kiosk_index=*/static_cast<size_t>(i) % 3,
                          /*official_index=*/static_cast<size_t>(i) % 2);
    auto outcome = desk.RegisterVoter("voter-" + std::to_string(i), 1, rng);
    ASSERT_TRUE(outcome.ok()) << outcome.status.reason();
    EXPECT_TRUE(vsd.Activate(outcome->real, system.ledger()).ok());
    EXPECT_TRUE(vsd.Activate(outcome->fakes[0], system.ledger()).ok());
  }
  EXPECT_EQ(system.ledger().ActiveRegistrations().size(), 6u);
}

TEST(TripSite, CredentialFromOneKioskChecksOutAtAnyDesk) {
  ChaChaRng rng(1101);
  TripSystemParams params;
  params.kiosks = 2;
  params.officials = 2;
  params.roster = {"alice"};
  TripSystem system = TripSystem::Create(params, rng);

  // Register at kiosk 1, check out with official 1 (different desk pair).
  Official& check_in_official = system.official(0);
  Kiosk& kiosk = system.kiosk(1);
  auto ticket = check_in_official.CheckIn("alice", system.ledger());
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(kiosk.StartSession(*ticket).ok());
  auto printed = kiosk.BeginRealCredential(rng);
  ASSERT_TRUE(printed.ok());
  auto envelope = system.booth_envelopes().TakeWithSymbol(printed->symbol, rng);
  ASSERT_TRUE(envelope.ok());
  auto real = kiosk.FinishRealCredential(*envelope, rng);
  ASSERT_TRUE(real.ok());
  ASSERT_TRUE(kiosk.EndSession().ok());
  EXPECT_TRUE(system.official(1)
                  .CheckOut(real->checkout, system.authorized_kiosks(), system.ledger(), rng)
                  .ok());
}

TEST(TripSite, NotificationHookFiresOnCheckOut) {
  ChaChaRng rng(1102);
  TripSystemParams params;
  params.roster = {"alice"};
  TripSystem system = TripSystem::Create(params, rng);
  std::vector<std::string> notifications;
  system.official().set_notification_hook(
      [&](const std::string& voter_id) { notifications.push_back(voter_id); });
  RegistrationDesk desk(system);
  ASSERT_TRUE(desk.RegisterVoter("alice", 1, rng).ok());
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0], "alice");
}

TEST(TripSite, EnvelopeStockExhaustionFailsGracefully) {
  ChaChaRng rng(1103);
  // Tiny stock: the booth runs dry mid-session and reports it.
  std::vector<Envelope> tiny;
  PublicLedger scratch;
  EnvelopePrinter printer(SchnorrKeyPair::Generate(rng));
  tiny = printer.IssueBatch(1, scratch, rng);
  EnvelopeSupply supply(std::move(tiny));
  EXPECT_EQ(supply.remaining(), 1u);
  auto first = supply.TakeAny(rng);
  EXPECT_TRUE(first.ok());
  auto second = supply.TakeAny(rng);
  EXPECT_FALSE(second.ok());
  EXPECT_NE(second.status.reason().find("exhausted"), std::string::npos);
  // Restocking recovers.
  supply.Add(printer.IssueBatch(4, scratch, rng));
  EXPECT_EQ(supply.remaining(), 4u);
  EXPECT_TRUE(supply.TakeAny(rng).ok());
}

TEST(TripSite, SymbolSpecificExhaustion) {
  ChaChaRng rng(1104);
  PublicLedger scratch;
  EnvelopePrinter printer(SchnorrKeyPair::Generate(rng));
  // Collect a stock, then drain one symbol entirely.
  EnvelopeSupply supply(printer.IssueBatch(40, scratch, rng));
  int drained = 0;
  while (true) {
    auto envelope = supply.TakeWithSymbol(2, rng);
    if (!envelope.ok()) {
      EXPECT_NE(envelope.status.reason().find("symbol"), std::string::npos);
      break;
    }
    EXPECT_EQ(envelope->symbol, 2);
    ++drained;
  }
  EXPECT_GT(drained, 0);
  // Other symbols remain available.
  EXPECT_TRUE(supply.TakeAny(rng).ok());
}

// The booth's stock as one vector scanned on every take: each take lists
// the candidates in stock order, draws one, and erases it from the middle.
// EnvelopeSupply must pick the same envelope with the same draws.
class LinearEnvelopeStock {
 public:
  explicit LinearEnvelopeStock(std::vector<Envelope> envelopes)
      : envelopes_(std::move(envelopes)) {}

  size_t remaining() const { return envelopes_.size(); }

  Outcome<Envelope> TakeWithSymbol(int symbol, Rng& rng) {
    std::vector<size_t> matching;
    for (size_t i = 0; i < envelopes_.size(); ++i) {
      if (envelopes_[i].symbol == symbol) {
        matching.push_back(i);
      }
    }
    if (matching.empty()) {
      return Outcome<Envelope>::Fail("booth: no envelope with the requested symbol in stock");
    }
    return Outcome<Envelope>::Ok(Erase(matching[rng.Uniform(matching.size())]));
  }

  Outcome<Envelope> TakeAny(Rng& rng) {
    if (envelopes_.empty()) {
      return Outcome<Envelope>::Fail("booth: envelope stock exhausted");
    }
    return Outcome<Envelope>::Ok(Erase(rng.Uniform(envelopes_.size())));
  }

  void Add(const std::vector<Envelope>& envelopes) {
    envelopes_.insert(envelopes_.end(), envelopes.begin(), envelopes.end());
  }

 private:
  Envelope Erase(size_t pick) {
    Envelope envelope = envelopes_[pick];
    envelopes_.erase(envelopes_.begin() + static_cast<ptrdiff_t>(pick));
    return envelope;
  }

  std::vector<Envelope> envelopes_;
};

TEST(TripSite, EnvelopeTakesMatchTheLinearStockScan) {
  // Envelopes told apart by their challenge; symbols 0..4, one more than a
  // printer prints, so a symbol the booth never stocks is asked for too.
  ChaChaRng script(1106);
  uint64_t serial = 0;
  auto batch = [&](size_t count) {
    std::vector<Envelope> out(count);
    for (Envelope& envelope : out) {
      envelope.challenge = Scalar::FromU64(++serial);
      envelope.symbol = static_cast<int>(script.Uniform(kNumEnvelopeSymbols + 1));
    }
    return out;
  };
  std::vector<Envelope> initial = batch(200);
  LinearEnvelopeStock reference(initial);
  EnvelopeSupply supply(std::move(initial));
  ChaChaRng reference_rng(1107);
  ChaChaRng supply_rng(1107);
  size_t symbol_misses = 0;
  size_t stock_misses = 0;
  for (int op = 0; op < 4000; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    // Restocks are frequent in some stretches and rare in others, so the
    // stock both grows and runs dry.
    const uint64_t restock_per_mille = (op / 500) % 2 == 0 ? 250 : 20;
    const uint64_t roll = script.Uniform(1000);
    if (roll < restock_per_mille) {
      std::vector<Envelope> more = batch(script.Uniform(12));
      reference.Add(more);
      supply.Add(std::move(more));
      continue;
    }
    const bool any = roll % 2 == 0;
    const int symbol = static_cast<int>(script.Uniform(kNumEnvelopeSymbols + 2));
    Outcome<Envelope> want =
        any ? reference.TakeAny(reference_rng) : reference.TakeWithSymbol(symbol, reference_rng);
    Outcome<Envelope> got =
        any ? supply.TakeAny(supply_rng) : supply.TakeWithSymbol(symbol, supply_rng);
    ASSERT_EQ(got.ok(), want.ok());
    if (want.ok()) {
      EXPECT_EQ(got->challenge, want->challenge);
      EXPECT_EQ(got->symbol, want->symbol);
    } else {
      EXPECT_EQ(got.status.reason(), want.status.reason());
      ++(any ? stock_misses : symbol_misses);
    }
    ASSERT_EQ(supply.remaining(), reference.remaining());
  }
  EXPECT_GT(symbol_misses, 0u);
  EXPECT_GT(stock_misses, 0u);
  // Every draw matched: the two streams are still in step.
  EXPECT_EQ(supply_rng.Uniform(uint64_t{1} << 40), reference_rng.Uniform(uint64_t{1} << 40));
}

TEST(TripSite, SessionAcrossVotersKeepsChallengeGuardFresh) {
  // The per-session envelope-reuse guard resets between sessions; the
  // *ledger* guard is what catches cross-session duplicates.
  ChaChaRng rng(1105);
  TripSystemParams params;
  params.roster = {"alice", "bob"};
  TripSystem system = TripSystem::Create(params, rng);
  RegistrationDesk desk(system);
  ASSERT_TRUE(desk.RegisterVoter("alice", 2, rng).ok());
  ASSERT_TRUE(desk.RegisterVoter("bob", 2, rng).ok());
  // 6 distinct envelopes consumed; all commitments were pre-published.
  EXPECT_EQ(system.ledger().envelope_commitment_count(),
            system.booth_envelopes().remaining() + 6);
}

TEST(TripSite, VsdRejectsForeignSystemCredential) {
  // A credential from a different deployment (different authority/printers)
  // fails activation against this system's ledger and trust roots.
  ChaChaRng rng(1106);
  TripSystemParams params;
  params.roster = {"alice"};
  TripSystem system_a = TripSystem::Create(params, rng);
  TripSystem system_b = TripSystem::Create(params, rng);
  RegistrationDesk desk_a(system_a);
  auto outcome = desk_a.RegisterVoter("alice", 0, rng);
  ASSERT_TRUE(outcome.ok());
  Vsd vsd_b = system_b.MakeVsd();
  auto activated = vsd_b.Activate(outcome->real, system_b.ledger());
  EXPECT_FALSE(activated.ok());
}

}  // namespace
}  // namespace votegral
