// The Fig. 4 experiment harness: a scripted TRIP registration (one real and
// one fake credential, no human) instrumented per sub-task and component,
// run against a hardware device profile.
//
// Components follow the paper exactly:
//  * "Crypto & Logic" — real protocol computation, measured live on the host
//    and scaled by the profile's CPU factor,
//  * "QR Read/Write" — symbol encode/decode, measured live and scaled,
//  * "QR Scan" / "QR Print" — mechanical peripherals, modeled on a virtual
//    clock (the substitution and its constants are in src/peripherals).
#ifndef SRC_SIM_REGISTRATION_SIM_H_
#define SRC_SIM_REGISTRATION_SIM_H_

#include <array>
#include <map>
#include <string>

#include "src/peripherals/devices.h"
#include "src/trip/registrar.h"

namespace votegral {

// The six sub-tasks of Fig. 4.
enum class RegPhase {
  kCheckIn = 0,
  kAuthorization,
  kRealToken,
  kFakeToken,
  kCheckOut,
  kActivation,
};
inline constexpr size_t kRegPhaseCount = 6;
const char* RegPhaseName(RegPhase phase);

// The four components of Fig. 4.
enum class Component {
  kCryptoLogic = 0,
  kQrReadWrite,
  kQrScan,
  kQrPrint,
};
inline constexpr size_t kComponentCount = 4;
const char* ComponentName(Component component);

// Wall and CPU (user/system) seconds for one phase, per component.
struct PhaseBreakdown {
  std::array<double, kComponentCount> wall{};
  std::array<double, kComponentCount> cpu_user{};
  std::array<double, kComponentCount> cpu_system{};

  double TotalWall() const;
  double TotalCpu() const;
};

// One full scripted registration session's measurements.
struct SessionMeasurement {
  std::array<PhaseBreakdown, kRegPhaseCount> phases{};

  double TotalWall() const;
  double TotalCpu() const;
  double WallForComponent(Component component) const;
};

// Runs instrumented registrations on a device profile.
class RegistrationSessionSimulator {
 public:
  explicit RegistrationSessionSimulator(const DeviceProfile& device) : device_(device) {}

  // Runs one scripted session (1 real + `fakes` fake credentials, activation
  // of the real credential) for `voter_id` against `system`.
  SessionMeasurement RunOnce(TripSystem& system, const std::string& voter_id, size_t fakes,
                             Rng& rng);

 private:
  // Records scaled crypto time for `phase`.
  template <typename F>
  auto TimedCrypto(SessionMeasurement& m, RegPhase phase, F&& f);

  void RecordPrint(SessionMeasurement& m, RegPhase phase,
                   const std::vector<QrSymbol>& symbols);
  // Scans + decodes a symbol, charging scan and read/write time.
  Bytes RecordScan(SessionMeasurement& m, RegPhase phase, const QrSymbol& symbol);
  QrSymbol RecordEncode(SessionMeasurement& m, RegPhase phase,
                        std::span<const uint8_t> payload, Symbology symbology);
  void ChargeCpu(PhaseBreakdown& breakdown, Component component, double cpu_seconds);

  const DeviceProfile& device_;
};

}  // namespace votegral

#endif  // SRC_SIM_REGISTRATION_SIM_H_
