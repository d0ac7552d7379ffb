#include "src/ledger/persistence.h"

#include <fstream>

#include "src/common/files.h"
#include "src/common/serde.h"

namespace votegral {

namespace {

constexpr std::string_view kMagic = "votegral-ledger/v2";

// ParseLedger under a caller-chosen message name, so a snapshot failure
// names its sub-log.
Outcome<Ledger> ParseLog(std::span<const uint8_t> bytes, const LedgerStorageConfig& storage,
                         std::string_view message) {
  ByteReader r(bytes, message);
  const uint64_t count = r.U64();
  Ledger ledger(storage);
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    LedgerEntry entry;
    r.DecodeAt(&entry, DecodeEntryFrame);
    if (!r.ok()) {
      break;
    }
    // The stored frame must agree in full (index, chain link, hash) before
    // it reaches the store, so a flipped byte anywhere in it, even in the
    // redundant prev-hash field, leaves nothing of it behind on disk.
    if (Status appended = ledger.AppendVerified(std::move(entry)); !appended.ok()) {
      r.Fail(appended.reason() + " (file tampered?)");
    }
  }
  LedgerHash head{};
  r.Fixed(head);
  r.Check(ConstantTimeEqual(ledger.Head(), head), "ledger head mismatch (file tampered?)");
  return r.Finish(std::move(ledger));
}

}  // namespace

Bytes SerializeLedger(const Ledger& ledger) {
  ByteWriter w;
  w.U64(ledger.size());
  // Streamed export: one frame per entry, one segment pinned at a time.
  Bytes frame;
  LedgerEntryView view;
  for (LedgerCursor cursor = ledger.Scan(); cursor.Next(&view);) {
    frame.clear();
    AppendEntryFrame(&frame, view);
    w.Fixed(frame);
  }
  w.Fixed(ledger.Head());
  return w.Take();
}

Outcome<Ledger> ParseLedger(std::span<const uint8_t> bytes,
                            const LedgerStorageConfig& storage) {
  return ParseLog(bytes, storage, "serialized ledger");
}

Bytes SerializePublicLedger(const PublicLedger& ledger) {
  ByteWriter w;
  w.Str(kMagic);
  // Sub-logs in SubLogs() order — the import loop reads them back the same
  // way, so the two lists cannot drift apart.
  w.Var(SerializeLedger(ledger.roster_log()));
  w.Var(SerializeLedger(ledger.registration_log()));
  w.Var(SerializeLedger(ledger.envelope_log()));
  w.Var(SerializeLedger(ledger.ballot_log()));
  return w.Take();
}

Outcome<PublicLedger> ParsePublicLedger(std::span<const uint8_t> bytes,
                                        const LedgerStorageConfig& storage) {
  ByteReader r(bytes, "ledger snapshot");
  r.Check(r.Str() == kMagic, "bad magic");
  PublicLedger ledger;
  // Sub-logs appear in SubLogs() order.
  for (const PublicLedger::SubLogSpec& spec : PublicLedger::SubLogs()) {
    const std::string name = std::string(spec.name) + " log";
    r.DecodeVar(&(ledger.*spec.member), [&](std::span<const uint8_t> wire) {
      return ParseLog(wire, storage.ForSubLog(spec.name), name);
    });
  }
  Outcome<PublicLedger> parsed = r.Finish(std::move(ledger));
  // Rebuild the derived lookup state by streaming the verified logs —
  // same path as recovering a segment directory via PublicLedger::Open.
  if (parsed.ok()) {
    if (Status derived = parsed->RebuildDerivedState(); !derived.ok()) {
      return Outcome<PublicLedger>::Fail(StatusCode::kCorrupted,
                                         "ledger snapshot: " + derived.reason());
    }
  }
  return parsed;
}

Outcome<PublicLedger> ParsePublicLedger(std::span<const uint8_t> bytes) {
  return ParsePublicLedger(bytes, LedgerStorageConfig{});
}

Status SavePublicLedger(const PublicLedger& ledger, const std::string& path) {
  Bytes bytes = SerializePublicLedger(ledger);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Error("persistence: cannot open " + path + " for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::Error("persistence: write to " + path + " failed");
  }
  return Status::Ok();
}

Outcome<PublicLedger> LoadPublicLedger(const std::string& path) {
  Outcome<Bytes> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return Outcome<PublicLedger>::Fail(std::move(bytes.status));
  }
  return ParsePublicLedger(*bytes);
}

}  // namespace votegral
