// Tests for the peripheral substrate: QR/barcode codec and the calibrated
// printer/scanner/device latency models behind Fig. 4.
#include <gtest/gtest.h>

#include "src/crypto/drbg.h"
#include "src/peripherals/devices.h"
#include "src/peripherals/qr.h"

namespace votegral {
namespace {

TEST(QrCodec, EncodeDecodeRoundTrip) {
  ChaChaRng rng(400);
  for (size_t size : {0u, 1u, 13u, 100u, 356u, 1000u, 2331u}) {
    Bytes payload = rng.RandomBytes(size);
    QrSymbol symbol = QrCodec::Encode(payload, Symbology::kQrCode);
    auto decoded = QrCodec::Decode(symbol);
    ASSERT_TRUE(decoded.ok()) << "size " << size;
    EXPECT_EQ(*decoded, payload);
  }
}

TEST(QrCodec, BarcodeRoundTripAndCapacity) {
  ChaChaRng rng(401);
  Bytes payload = rng.RandomBytes(30);
  QrSymbol symbol = QrCodec::Encode(payload, Symbology::kBarcode128);
  EXPECT_EQ(symbol.version, 0);
  auto decoded = QrCodec::Decode(symbol);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
  // Over-capacity payloads are protocol bugs.
  Bytes too_big = rng.RandomBytes(QrCodec::kMaxBarcodePayload + 1);
  EXPECT_THROW((void)QrCodec::Encode(too_big, Symbology::kBarcode128), ProtocolError);
  Bytes way_too_big = rng.RandomBytes(QrCodec::kMaxQrPayload + 1);
  EXPECT_THROW((void)QrCodec::Encode(way_too_big, Symbology::kQrCode), ProtocolError);
}

TEST(QrCodec, CorruptionDetected) {
  ChaChaRng rng(402);
  Bytes payload = rng.RandomBytes(64);
  QrSymbol symbol = QrCodec::Encode(payload, Symbology::kQrCode);
  // Flip a payload byte inside the frame: CRC must catch it.
  QrSymbol corrupted = symbol;
  corrupted.framed[6] ^= 0x40;
  EXPECT_FALSE(QrCodec::Decode(corrupted).ok());
  // Truncated frame fails cleanly.
  QrSymbol truncated = symbol;
  truncated.framed.pop_back();
  EXPECT_FALSE(QrCodec::Decode(truncated).ok());
}

TEST(QrCodec, VersionSelectionMatchesCapacityTable) {
  EXPECT_EQ(QrCodec::VersionForPayload(14), 1);
  EXPECT_EQ(QrCodec::VersionForPayload(15), 2);
  EXPECT_EQ(QrCodec::VersionForPayload(2331), 40);
  EXPECT_THROW((void)QrCodec::VersionForPayload(2332), ProtocolError);
  // Modules = 17 + 4*version.
  EXPECT_EQ(QrCodec::ModulesForVersion(1), 21);
  EXPECT_EQ(QrCodec::ModulesForVersion(40), 177);
  EXPECT_THROW((void)QrCodec::ModulesForVersion(0), ProtocolError);
}

TEST(QrCodec, VersionGrowsMonotonically) {
  int last = 1;
  for (size_t size = 1; size <= 2331; size += 37) {
    int version = QrCodec::VersionForPayload(size);
    EXPECT_GE(version, last);
    last = version;
  }
}

TEST(QrCodec, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  auto data = AsBytes("123456789");
  EXPECT_EQ(QrCodec::Crc32(data), 0xCBF43926u);
  EXPECT_EQ(QrCodec::Crc32({}), 0u);
}

TEST(Devices, ProfilesAreDistinctAndComplete) {
  const auto& all = DeviceProfile::All();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0]->code, "L1");
  EXPECT_EQ(all[1]->code, "L2");
  EXPECT_EQ(all[2]->code, "H1");
  EXPECT_EQ(all[3]->code, "H2");
  EXPECT_TRUE(all[0]->resource_constrained);
  EXPECT_TRUE(all[1]->resource_constrained);
  EXPECT_FALSE(all[2]->resource_constrained);
  // Resource-constrained devices have substantially higher CPU scaling
  // (paper: ~260% higher crypto CPU, ~380% higher print CPU).
  EXPECT_GT(all[0]->cpu_scale, 2.5 * all[2]->cpu_scale);
  EXPECT_GT(all[0]->print_cpu_scale, 3.0 * all[2]->print_cpu_scale);
}

TEST(Devices, PrintModelScalesWithContent) {
  const DeviceProfile& device = DeviceProfile::L1PosKiosk();
  ChaChaRng rng(403);
  QrSymbol small = QrCodec::Encode(rng.RandomBytes(20), Symbology::kQrCode);
  QrSymbol large = QrCodec::Encode(rng.RandomBytes(800), Symbology::kQrCode);

  VirtualClock clock_small;
  (void)ModelPrintJob(device, {small}, clock_small);
  VirtualClock clock_large;
  (void)ModelPrintJob(device, {large}, clock_large);
  VirtualClock clock_two;
  (void)ModelPrintJob(device, {small, small}, clock_two);

  EXPECT_GT(clock_large.Seconds(), clock_small.Seconds());
  EXPECT_GT(clock_two.Seconds(), clock_small.Seconds());
  // Two symbols in one job are cheaper than two jobs (setup+cut once).
  EXPECT_LT(clock_two.Seconds(), 2 * clock_small.Seconds());
}

TEST(Devices, ScanModelMatchesPaperMagnitude) {
  // A typical TRIP payload (~200 bytes framed) must scan in roughly the
  // paper's 948 ms (Bluetooth-transfer dominated).
  const DeviceProfile& device = DeviceProfile::H1MacbookPro();
  ChaChaRng rng(404);
  QrSymbol symbol = QrCodec::Encode(rng.RandomBytes(140), Symbology::kQrCode);
  VirtualClock clock;
  (void)ModelScan(device, symbol, clock);
  EXPECT_GT(clock.Seconds(), 0.7);
  EXPECT_LT(clock.Seconds(), 1.3);
  // Bigger payloads take longer.
  QrSymbol big = QrCodec::Encode(rng.RandomBytes(356), Symbology::kQrCode);
  VirtualClock clock_big;
  (void)ModelScan(device, big, clock_big);
  EXPECT_GT(clock_big.Seconds(), clock.Seconds());
}

TEST(Devices, ScanWallTimeIsPlatformIndependent) {
  // The same scanner is attached to every platform (§7.1): wall time equal,
  // host CPU differs.
  ChaChaRng rng(405);
  QrSymbol symbol = QrCodec::Encode(rng.RandomBytes(100), Symbology::kQrCode);
  VirtualClock l1_clock, h1_clock;
  double l1_cpu = ModelScan(DeviceProfile::L1PosKiosk(), symbol, l1_clock);
  double h1_cpu = ModelScan(DeviceProfile::H1MacbookPro(), symbol, h1_clock);
  EXPECT_DOUBLE_EQ(l1_clock.Seconds(), h1_clock.Seconds());
  EXPECT_GT(l1_cpu, h1_cpu);
}

}  // namespace
}  // namespace votegral
