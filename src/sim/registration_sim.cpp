#include "src/sim/registration_sim.h"

#include "src/common/clock.h"

namespace votegral {

const char* RegPhaseName(RegPhase phase) {
  switch (phase) {
    case RegPhase::kCheckIn:
      return "CheckIn";
    case RegPhase::kAuthorization:
      return "Authorization";
    case RegPhase::kRealToken:
      return "RealToken";
    case RegPhase::kFakeToken:
      return "FakeToken";
    case RegPhase::kCheckOut:
      return "CheckOut";
    case RegPhase::kActivation:
      return "Activation";
  }
  return "?";
}

const char* ComponentName(Component component) {
  switch (component) {
    case Component::kCryptoLogic:
      return "Crypto & Logic";
    case Component::kQrReadWrite:
      return "QR Read/Write";
    case Component::kQrScan:
      return "QR Scan";
    case Component::kQrPrint:
      return "QR Print";
  }
  return "?";
}

double PhaseBreakdown::TotalWall() const {
  double sum = 0.0;
  for (double w : wall) {
    sum += w;
  }
  return sum;
}

double PhaseBreakdown::TotalCpu() const {
  double sum = 0.0;
  for (size_t i = 0; i < kComponentCount; ++i) {
    sum += cpu_user[i] + cpu_system[i];
  }
  return sum;
}

double SessionMeasurement::TotalWall() const {
  double sum = 0.0;
  for (const PhaseBreakdown& phase : phases) {
    sum += phase.TotalWall();
  }
  return sum;
}

double SessionMeasurement::TotalCpu() const {
  double sum = 0.0;
  for (const PhaseBreakdown& phase : phases) {
    sum += phase.TotalCpu();
  }
  return sum;
}

double SessionMeasurement::WallForComponent(Component component) const {
  double sum = 0.0;
  for (const PhaseBreakdown& phase : phases) {
    sum += phase.wall[static_cast<size_t>(component)];
  }
  return sum;
}

void RegistrationSessionSimulator::ChargeCpu(PhaseBreakdown& breakdown, Component component,
                                             double cpu_seconds) {
  size_t c = static_cast<size_t>(component);
  breakdown.cpu_user[c] += cpu_seconds * (1.0 - device_.system_cpu_fraction);
  breakdown.cpu_system[c] += cpu_seconds * device_.system_cpu_fraction;
}

template <typename F>
auto RegistrationSessionSimulator::TimedCrypto(SessionMeasurement& m, RegPhase phase, F&& f) {
  // Crypto is single-threaded and CPU-bound; high-resolution wall time of
  // the host run stands in for CPU time (getrusage granularity is too
  // coarse for millisecond phases), then both are scaled per profile.
  WallTimer timer;
  auto result = f();
  double host_seconds = timer.Seconds();
  PhaseBreakdown& breakdown = m.phases[static_cast<size_t>(phase)];
  size_t c = static_cast<size_t>(Component::kCryptoLogic);
  breakdown.wall[c] += host_seconds * device_.crypto_scale;
  ChargeCpu(breakdown, Component::kCryptoLogic, host_seconds * device_.cpu_scale);
  return result;
}

void RegistrationSessionSimulator::RecordPrint(SessionMeasurement& m, RegPhase phase,
                                               const std::vector<QrSymbol>& symbols) {
  PhaseBreakdown& breakdown = m.phases[static_cast<size_t>(phase)];
  VirtualClock clock;
  double cpu = ModelPrintJob(device_, symbols, clock);
  breakdown.wall[static_cast<size_t>(Component::kQrPrint)] += clock.Seconds();
  ChargeCpu(breakdown, Component::kQrPrint, cpu);
}

QrSymbol RegistrationSessionSimulator::RecordEncode(SessionMeasurement& m, RegPhase phase,
                                                    std::span<const uint8_t> payload,
                                                    Symbology symbology) {
  PhaseBreakdown& breakdown = m.phases[static_cast<size_t>(phase)];
  WallTimer timer;
  QrSymbol symbol = QrCodec::Encode(payload, symbology);
  double host_seconds = timer.Seconds();
  breakdown.wall[static_cast<size_t>(Component::kQrReadWrite)] +=
      host_seconds * device_.crypto_scale;
  ChargeCpu(breakdown, Component::kQrReadWrite, host_seconds * device_.cpu_scale);
  return symbol;
}

Bytes RegistrationSessionSimulator::RecordScan(SessionMeasurement& m, RegPhase phase,
                                               const QrSymbol& symbol) {
  PhaseBreakdown& breakdown = m.phases[static_cast<size_t>(phase)];
  VirtualClock clock;
  double scan_cpu = ModelScan(device_, symbol, clock);
  breakdown.wall[static_cast<size_t>(Component::kQrScan)] += clock.Seconds();
  ChargeCpu(breakdown, Component::kQrScan, scan_cpu);

  WallTimer timer;
  auto payload = QrCodec::Decode(symbol);
  Require(payload.ok(), "sim: scanned symbol failed integrity check");
  double host_seconds = timer.Seconds();
  breakdown.wall[static_cast<size_t>(Component::kQrReadWrite)] +=
      host_seconds * device_.crypto_scale;
  ChargeCpu(breakdown, Component::kQrReadWrite, host_seconds * device_.cpu_scale);
  return *payload;
}

SessionMeasurement RegistrationSessionSimulator::RunOnce(TripSystem& system,
                                                         const std::string& voter_id,
                                                         size_t fakes, Rng& rng) {
  SessionMeasurement m;
  Official& official = system.official();
  Kiosk& kiosk = system.kiosk();
  EnvelopeSupply& booth = system.booth_envelopes();

  // --- CheckIn: official verifies eligibility, prints the barcode ticket.
  auto ticket = TimedCrypto(m, RegPhase::kCheckIn, [&] {
    auto result = official.CheckIn(voter_id, system.ledger());
    Require(result.ok(), "sim: check-in failed");
    return *result;
  });
  QrSymbol ticket_symbol =
      RecordEncode(m, RegPhase::kCheckIn, ticket.Serialize(), Symbology::kBarcode128);
  RecordPrint(m, RegPhase::kCheckIn, {ticket_symbol});

  // --- Authorization: kiosk scans the ticket and validates the MAC.
  Bytes ticket_payload = RecordScan(m, RegPhase::kAuthorization, ticket_symbol);
  TimedCrypto(m, RegPhase::kAuthorization, [&] {
    auto parsed = CheckInTicket::Parse(ticket_payload);
    Require(parsed.ok(), "sim: ticket parse failed");
    Status s = kiosk.StartSession(*parsed);
    Require(s.ok(), "sim: authorization failed");
    return 0;
  });

  // --- RealToken: commit print -> envelope scan -> completion print.
  auto printed = TimedCrypto(m, RegPhase::kRealToken, [&] {
    auto result = kiosk.BeginRealCredential(rng);
    Require(result.ok(), "sim: real credential begin failed");
    return *result;
  });
  QrSymbol commit_symbol = RecordEncode(m, RegPhase::kRealToken,
                                        printed.commit.Serialize(), Symbology::kQrCode);
  RecordPrint(m, RegPhase::kRealToken, {commit_symbol});

  auto envelope = booth.TakeWithSymbol(printed.symbol, rng);
  Require(envelope.ok(), "sim: no matching envelope");
  QrSymbol envelope_symbol =
      QrCodec::Encode(envelope->Serialize(), Symbology::kQrCode);  // pre-printed
  Bytes envelope_payload = RecordScan(m, RegPhase::kRealToken, envelope_symbol);

  auto real = TimedCrypto(m, RegPhase::kRealToken, [&] {
    auto parsed = Envelope::Parse(envelope_payload);
    Require(parsed.ok(), "sim: envelope parse failed");
    auto result = kiosk.FinishRealCredential(*parsed, rng);
    Require(result.ok(), "sim: real credential finish failed");
    return *result;
  });
  QrSymbol checkout_symbol = RecordEncode(m, RegPhase::kRealToken,
                                          real.checkout.Serialize(), Symbology::kQrCode);
  QrSymbol response_symbol = RecordEncode(m, RegPhase::kRealToken,
                                          real.response.Serialize(), Symbology::kQrCode);
  RecordPrint(m, RegPhase::kRealToken, {checkout_symbol, response_symbol});

  // --- FakeToken: envelope scan -> full receipt print, per fake credential.
  for (size_t f = 0; f < fakes; ++f) {
    auto fake_envelope = booth.TakeAny(rng);
    Require(fake_envelope.ok(), "sim: booth out of envelopes");
    QrSymbol fake_env_symbol = QrCodec::Encode(fake_envelope->Serialize(), Symbology::kQrCode);
    Bytes fake_env_payload = RecordScan(m, RegPhase::kFakeToken, fake_env_symbol);
    auto fake = TimedCrypto(m, RegPhase::kFakeToken, [&] {
      auto parsed = Envelope::Parse(fake_env_payload);
      Require(parsed.ok(), "sim: envelope parse failed");
      auto result = kiosk.CreateFakeCredential(*parsed, rng);
      Require(result.ok(), "sim: fake credential failed");
      return *result;
    });
    QrSymbol fc = RecordEncode(m, RegPhase::kFakeToken, fake.commit.Serialize(),
                               Symbology::kQrCode);
    QrSymbol ft = RecordEncode(m, RegPhase::kFakeToken, fake.checkout.Serialize(),
                               Symbology::kQrCode);
    QrSymbol fr = RecordEncode(m, RegPhase::kFakeToken, fake.response.Serialize(),
                               Symbology::kQrCode);
    RecordPrint(m, RegPhase::kFakeToken, {fc, ft, fr});
  }
  TimedCrypto(m, RegPhase::kFakeToken, [&] {
    Status s = kiosk.EndSession();
    Require(s.ok(), "sim: end session failed");
    return 0;
  });

  // --- CheckOut: official scans t_ot through the envelope window.
  Bytes checkout_payload = RecordScan(m, RegPhase::kCheckOut, checkout_symbol);
  TimedCrypto(m, RegPhase::kCheckOut, [&] {
    auto parsed = CheckOutSegment::Parse(checkout_payload);
    Require(parsed.ok(), "sim: check-out parse failed");
    Status s = official.CheckOut(*parsed, system.authorized_kiosks(), system.ledger(), rng);
    Require(s.ok(), "sim: check-out failed");
    return 0;
  });

  // --- Activation: the VSD scans the three visible QRs of the real
  // credential and runs all Fig. 11 checks.
  Bytes commit_payload = RecordScan(m, RegPhase::kActivation, commit_symbol);
  Bytes response_payload = RecordScan(m, RegPhase::kActivation, response_symbol);
  Bytes env_payload = RecordScan(m, RegPhase::kActivation, envelope_symbol);
  TimedCrypto(m, RegPhase::kActivation, [&] {
    PaperCredential credential;
    auto commit = CommitSegment::Parse(commit_payload);
    auto response = ResponseSegment::Parse(response_payload);
    auto env = Envelope::Parse(env_payload);
    Require(commit.ok() && response.ok() && env.ok(), "sim: activation parse failed");
    credential.commit = *commit;
    credential.checkout = real.checkout;
    credential.response = *response;
    credential.envelope = *env;
    Vsd vsd = system.MakeVsd();
    auto activated = vsd.Activate(credential, system.ledger());
    Require(activated.ok(), "sim: activation failed");
    return 0;
  });

  return m;
}

}  // namespace votegral
