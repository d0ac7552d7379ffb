// Machine-readable code encoding/decoding ("QR Read/Write" in Fig. 4).
//
// Substitution note: the paper's prototype uses real QR
// imagery via gozxing/gofpdf. We have no camera or printer, so this codec
// produces a *symbol description* — payload, symbology, version/module
// geometry, CRC — that exercises the same code path: every protocol message
// is serialized, framed, size-checked against symbology capacity, and
// integrity-checked on scan. The symbol geometry drives the printer and
// scanner latency models, which is what the evaluation measures.
#ifndef SRC_PERIPHERALS_QR_H_
#define SRC_PERIPHERALS_QR_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"
#include "src/common/outcome.h"
#include "src/common/status.h"

namespace votegral {

// Symbology used for a given artifact. The paper switched the check-in
// ticket from QR to a 1-D barcode after the first user study (§7.5).
enum class Symbology {
  kQrCode,
  kBarcode128,
};

// A rendered machine-readable symbol.
struct QrSymbol {
  Symbology symbology = Symbology::kQrCode;
  int version = 1;       // QR version 1..40 (0 for barcodes)
  int modules = 21;      // matrix width for QR; bar count for barcodes
  Bytes framed;          // length-prefixed payload + CRC32 trailer
};

// Encoder/decoder for protocol symbols.
class QrCodec {
 public:
  // Maximum payload capacity used for version selection (byte mode,
  // error-correction level M, per the QR standard's capacity table).
  static constexpr size_t kMaxQrPayload = 2331;   // version 40-M
  static constexpr size_t kMaxBarcodePayload = 48;

  // Encodes `payload` into a symbol; throws ProtocolError when the payload
  // exceeds the symbology's capacity (a protocol-design bug, not input).
  static QrSymbol Encode(std::span<const uint8_t> payload, Symbology symbology);

  // Decodes and integrity-checks a scanned symbol.
  static Outcome<Bytes> Decode(const QrSymbol& symbol);

  // Smallest QR version (1..40) whose byte-mode EC-M capacity fits `bytes`.
  static int VersionForPayload(size_t bytes);

  // Module (matrix) width for a QR version: 17 + 4*version.
  static int ModulesForVersion(int version);

  // CRC-32 (IEEE 802.3) used as the symbol integrity check.
  static uint32_t Crc32(std::span<const uint8_t> data);
};

}  // namespace votegral

#endif  // SRC_PERIPHERALS_QR_H_
