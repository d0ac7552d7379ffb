// Peripheral latency models and hardware device profiles for the Fig. 4
// registration-latency experiment.
//
// Substitution: we do not have the paper's kiosk, EPSON
// TM-T20III receipt printer, Bluetooth scanner, Raspberry Pi, MacBook or
// Beelink. The *protocol* fixes how many symbols of which size are printed
// and scanned per phase; these models supply per-operation constants
// calibrated to the component medians the paper reports:
//   * ~948 ms mean per QR scan, dominated by Bluetooth transfer (§7.2),
//   * printing dominating wall time (QR print+scan >= 69.5% of total),
//   * resource-constrained devices: ~260% higher crypto CPU time, ~380%
//     higher print CPU time, overall wall ~16.5% above high-end devices,
//   * totals: L1 kiosk 19.7 s, H1 MacBook 15.8 s for the scripted
//     1-real + 1-fake registration.
// Mechanical time advances a VirtualClock (no sleeping); crypto time is
// measured live and scaled by the profile's CPU factor.
#ifndef SRC_PERIPHERALS_DEVICES_H_
#define SRC_PERIPHERALS_DEVICES_H_

#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/peripherals/qr.h"

namespace votegral {

// Thermal receipt printer model (EPSON TM-T20III-like).
struct PrinterModel {
  double job_setup_seconds = 0.25;      // driver/spool/job start (CUPS path)
  double seconds_per_mm = 1.0 / 80.0;   // feed: 80 mm/s class printer
  double cutter_seconds = 0.45;         // auto-cutter cycle
  double mm_per_module_row = 0.45;      // printed height of one QR module row
  double text_line_mm = 3.5;            // symbol label / human-readable line
  double cpu_seconds_per_job = 0.12;    // host-side raster/driver CPU (scaled)
};

// Handheld/embedded barcode-QR scanner model (Bluetooth HID transport).
struct ScannerModel {
  double trigger_seconds = 0.15;        // aim + decode on the scanner itself
  double bt_setup_seconds = 0.35;       // Bluetooth wake + connection events
  double seconds_per_byte = 0.0035;     // HID keystroke-style transfer drip
  double cpu_seconds_per_scan = 0.02;   // host-side input processing (scaled)
};

// A hardware platform from §7.1.
struct DeviceProfile {
  std::string code;          // "L1", "L2", "H1", "H2"
  std::string name;          // human-readable platform name
  bool resource_constrained = false;
  double crypto_scale = 1.0;       // wall-clock multiplier on measured crypto
  double cpu_scale = 1.0;          // CPU-time multiplier on measured crypto
  double print_cpu_scale = 1.0;    // multiplier on printer-driver CPU
  double system_cpu_fraction = 0.3;  // share of scaled CPU attributed to kernel
  PrinterModel printer;
  ScannerModel scanner;

  static const DeviceProfile& L1PosKiosk();
  static const DeviceProfile& L2RaspberryPi4();
  static const DeviceProfile& H1MacbookPro();
  static const DeviceProfile& H2BeelinkGtr7();
  static const std::vector<const DeviceProfile*>& All();
};

// Models printing a receipt segment containing the given symbols; advances
// `clock` by the modeled wall time and returns the modeled CPU seconds.
double ModelPrintJob(const DeviceProfile& device, const std::vector<QrSymbol>& symbols,
                     VirtualClock& clock);

// Models scanning one symbol; advances `clock` and returns modeled CPU
// seconds. Scan time is dominated by transferring the framed payload over
// the Bluetooth HID transport (~948 ms for typical TRIP payloads).
double ModelScan(const DeviceProfile& device, const QrSymbol& symbol, VirtualClock& clock);

}  // namespace votegral

#endif  // SRC_PERIPHERALS_DEVICES_H_
