// Reproduces Fig. 4a (wall-clock median latency per TRIP sub-task and
// component) and Fig. 4b (CPU median latency, user/system split) across the
// four hardware platforms of §7.1, plus the §7.2 headline claims.
//
// Protocol work and QR encode/decode run live (scaled per profile); printer
// and scanner mechanics are modeled — see src/peripherals/devices.cpp for
// the calibration against the paper's
// reported component medians.
//
// Workload: 10 scripted registrations of 1 real + 1 fake credential,
// activation of the real credential (the paper's §7.2 script).
#include <cstdio>
#include <vector>

#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/crypto/drbg.h"
#include "src/sim/registration_sim.h"

namespace votegral {
namespace {

constexpr int kRuns = 10;

struct DeviceResults {
  const DeviceProfile* device;
  // Median per phase/component (seconds).
  std::array<PhaseBreakdown, kRegPhaseCount> median;
  double total_wall = 0.0;
  double total_cpu = 0.0;
  double scan_wall = 0.0;
  double print_wall = 0.0;
  double readwrite_wall = 0.0;
  size_t scans = 7;  // 1 ticket + 2 envelopes + 1 check-out + 3 activation
};

DeviceResults RunDevice(const DeviceProfile& device) {
  ChaChaRng rng(0xF16'4000 + static_cast<uint64_t>(device.code[1]));
  std::vector<std::string> roster;
  for (int i = 0; i < kRuns; ++i) {
    roster.push_back("voter-" + std::to_string(i));
  }
  TripSystemParams params;
  params.roster = roster;
  TripSystem system = TripSystem::Create(params, rng);
  RegistrationSessionSimulator simulator(device);

  std::vector<SessionMeasurement> runs;
  for (int i = 0; i < kRuns; ++i) {
    runs.push_back(simulator.RunOnce(system, roster[static_cast<size_t>(i)], 1, rng));
  }

  DeviceResults results;
  results.device = &device;
  for (size_t p = 0; p < kRegPhaseCount; ++p) {
    for (size_t c = 0; c < kComponentCount; ++c) {
      std::vector<double> wall, user, sys;
      for (const auto& run : runs) {
        wall.push_back(run.phases[p].wall[c]);
        user.push_back(run.phases[p].cpu_user[c]);
        sys.push_back(run.phases[p].cpu_system[c]);
      }
      results.median[p].wall[c] = Median(wall);
      results.median[p].cpu_user[c] = Median(user);
      results.median[p].cpu_system[c] = Median(sys);
    }
  }
  std::vector<double> totals, cpus;
  for (const auto& run : runs) {
    totals.push_back(run.TotalWall());
    cpus.push_back(run.TotalCpu());
  }
  results.total_wall = Median(totals);
  results.total_cpu = Median(cpus);
  for (const auto& phase : results.median) {
    results.scan_wall += phase.wall[static_cast<size_t>(Component::kQrScan)];
    results.print_wall += phase.wall[static_cast<size_t>(Component::kQrPrint)];
    results.readwrite_wall += phase.wall[static_cast<size_t>(Component::kQrReadWrite)];
  }
  return results;
}

}  // namespace
}  // namespace votegral

int main() {
  using namespace votegral;
  std::printf("=== Figure 4: TRIP voter-observable registration latency ===\n");
  std::printf("Workload: %d scripted registrations, 1 real + 1 fake credential,\n", kRuns);
  std::printf("activation of the real credential. Medians reported.\n\n");

  std::vector<DeviceResults> all;
  for (const DeviceProfile* device : DeviceProfile::All()) {
    all.push_back(RunDevice(*device));
  }

  // ---- Fig. 4a: wall-clock per sub-task and component --------------------
  TextTable wall_table("Fig. 4a — Wall-clock median latency per sub-task (seconds)");
  wall_table.SetHeader({"Phase", "Device", "Crypto&Logic", "QR Read/Write", "QR Scan",
                        "QR Print", "Phase total"});
  for (size_t p = 0; p < kRegPhaseCount; ++p) {
    for (const DeviceResults& r : all) {
      const PhaseBreakdown& b = r.median[p];
      wall_table.AddRow({RegPhaseName(static_cast<RegPhase>(p)), r.device->code,
                         FormatDouble(b.wall[0], 4), FormatDouble(b.wall[1], 4),
                         FormatDouble(b.wall[2], 3), FormatDouble(b.wall[3], 3),
                         FormatDouble(b.TotalWall(), 3)});
    }
  }
  std::printf("%s\n", wall_table.Format().c_str());

  // ---- Fig. 4b: CPU per sub-task (user/system) ----------------------------
  TextTable cpu_table("Fig. 4b — CPU median latency per sub-task (seconds)");
  cpu_table.SetHeader({"Phase", "Device", "Crypto (usr/sys)", "QR R/W (usr/sys)",
                       "Scan (usr/sys)", "Print (usr/sys)", "Phase total"});
  for (size_t p = 0; p < kRegPhaseCount; ++p) {
    for (const DeviceResults& r : all) {
      const PhaseBreakdown& b = r.median[p];
      auto pair = [&](size_t c) {
        return FormatDouble(b.cpu_user[c], 4) + "/" + FormatDouble(b.cpu_system[c], 4);
      };
      cpu_table.AddRow({RegPhaseName(static_cast<RegPhase>(p)), r.device->code, pair(0),
                        pair(1), pair(2), pair(3), FormatDouble(b.TotalCpu(), 4)});
    }
  }
  std::printf("%s\n", cpu_table.Format().c_str());

  // ---- §7.2 headline claims ------------------------------------------------
  TextTable summary("Section 7.2 summary vs. paper claims");
  summary.SetHeader({"Metric", "L1", "L2", "H1", "H2", "Paper"});
  std::vector<std::string> total_row = {"Total wall (s)"};
  std::vector<std::string> qr_share_row = {"QR print+scan share"};
  std::vector<std::string> per_scan_row = {"Mean per QR scan (ms)"};
  std::vector<std::string> cpu_row = {"Total CPU (s)"};
  for (const DeviceResults& r : all) {
    total_row.push_back(FormatDouble(r.total_wall, 1));
    double qr_share = (r.print_wall + r.scan_wall) / r.total_wall;
    qr_share_row.push_back(FormatDouble(100.0 * qr_share, 1) + "%");
    per_scan_row.push_back(FormatDouble(1000.0 * r.scan_wall / r.scans, 0));
    cpu_row.push_back(FormatDouble(r.total_cpu, 2));
  }
  total_row.push_back("19.7 (L1) / 15.8 (H1)");
  qr_share_row.push_back(">= 69.5%");
  per_scan_row.push_back("~948");
  cpu_row.push_back("L ~260% of H");
  summary.AddRow(total_row);
  summary.AddRow(qr_share_row);
  summary.AddRow(per_scan_row);
  summary.AddRow(cpu_row);
  std::printf("%s\n", summary.Format().c_str());

  double l1 = all[0].total_wall;
  double h1 = all[2].total_wall;
  std::printf("Shape checks: slowest device is L1 (%.1f s), fastest high-end is H1 (%.1f s);\n",
              l1, h1);
  std::printf("L1 exceeds H1 by %.1f%% (paper: resource-constrained ~16.5%% slower wall).\n\n",
              100.0 * (l1 - h1) / h1);
  std::printf("CSV (Fig. 4a):\n%s\n", wall_table.Csv().c_str());
  return 0;
}
