#include "src/peripherals/qr.h"

#include "src/common/serde.h"

namespace votegral {

namespace {

// Byte-mode data capacity at error-correction level M for QR versions 1..40
// (ISO/IEC 18004 capacity table).
constexpr int kCapacityM[40] = {
    14,   26,   42,   62,   84,   106,  122,  152,  180,  213,  251,  287,  331,  362,
    412,  450,  504,  560,  624,  666,  711,  779,  857,  911,  997,  1059, 1125, 1190,
    1264, 1370, 1452, 1538, 1628, 1722, 1809, 1911, 1989, 2099, 2213, 2331};

}  // namespace

uint32_t QrCodec::Crc32(std::span<const uint8_t> data) {
  static const auto kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (uint8_t b : data) {
    c = kTable[(c ^ b) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

int QrCodec::VersionForPayload(size_t bytes) {
  for (int v = 0; v < 40; ++v) {
    if (bytes <= static_cast<size_t>(kCapacityM[v])) {
      return v + 1;
    }
  }
  throw ProtocolError("QrCodec: payload exceeds QR version 40 capacity");
}

int QrCodec::ModulesForVersion(int version) {
  Require(version >= 1 && version <= 40, "QrCodec: QR version out of range");
  return 17 + 4 * version;
}

QrSymbol QrCodec::Encode(std::span<const uint8_t> payload, Symbology symbology) {
  ByteWriter w;
  w.Var(payload);
  w.U32(Crc32(payload));

  QrSymbol symbol;
  symbol.symbology = symbology;
  symbol.framed = w.Take();
  if (symbology == Symbology::kQrCode) {
    Require(payload.size() <= kMaxQrPayload, "QrCodec: payload too large for QR");
    symbol.version = VersionForPayload(payload.size());
    symbol.modules = ModulesForVersion(symbol.version);
  } else {
    Require(payload.size() <= kMaxBarcodePayload, "QrCodec: payload too large for barcode");
    symbol.version = 0;
    // Code 128: 11 modules per symbol character plus start/stop/checksum.
    symbol.modules = static_cast<int>(payload.size() + 3) * 11 + 2;
  }
  return symbol;
}

Outcome<Bytes> QrCodec::Decode(const QrSymbol& symbol) {
  ByteReader r(symbol.framed, "qr symbol");
  std::span<const uint8_t> payload = r.Var();
  const uint32_t crc = r.U32();
  r.Check(crc == Crc32(payload), "crc mismatch");
  return r.Finish(Bytes(payload.begin(), payload.end()));
}

}  // namespace votegral
