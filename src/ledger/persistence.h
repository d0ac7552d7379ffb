// On-disk persistence for the public ledger: the full system state an
// auditor downloads (§D.1's "publicly accessible" ledger).
//
// The wire format is a *segment export*: each sub-log is written as the
// exact length-prefixed entry frames its segmented store holds (index,
// topic, payload, prev hash, entry hash — see src/ledger/store.h), produced
// by streaming cursors so serialization never materializes a log. Import
// replays every frame through a fresh Ledger on the caller's chosen storage
// backend, re-deriving each hash and comparing it with the stored one —
// tampering with the file is as detectable as tampering with the live log,
// and is reported per entry. Derived indices (roster set, active
// registrations, used challenges) are rebuilt by streaming the imported
// logs, exactly as PublicLedger::Open does for a recovered directory.
#ifndef SRC_LEDGER_PERSISTENCE_H_
#define SRC_LEDGER_PERSISTENCE_H_

#include <string>

#include "src/common/outcome.h"
#include "src/ledger/subledgers.h"

namespace votegral {

// Serializes one append-only log as its entry frames (streamed, zero-copy).
Bytes SerializeLedger(const Ledger& ledger);

// Parses and *re-verifies* a serialized log into a fresh ledger on the
// given backend: every entry's index, chain link and hash are checked
// (Ledger::AppendVerified) before it reaches the backend; any corruption
// yields a localized kCorrupted failure, and a file-backed import keeps only
// the verified prefix. A failing backend (a directory that already holds a
// log, a failed segment write) throws ProtocolError, as any Ledger append
// does.
Outcome<Ledger> ParseLedger(std::span<const uint8_t> bytes,
                            const LedgerStorageConfig& storage = {});

// Serializes the full public ledger (all sub-logs; derived indices are
// rebuilt on load).
Bytes SerializePublicLedger(const PublicLedger& ledger);
Outcome<PublicLedger> ParsePublicLedger(std::span<const uint8_t> bytes);
// Import onto a specific backend (e.g. rebuild an auditor's file-backed
// segmented copy from a downloaded snapshot).
Outcome<PublicLedger> ParsePublicLedger(std::span<const uint8_t> bytes,
                                        const LedgerStorageConfig& storage);

// File convenience wrappers.
Status SavePublicLedger(const PublicLedger& ledger, const std::string& path);
Outcome<PublicLedger> LoadPublicLedger(const std::string& path);

}  // namespace votegral

#endif  // SRC_LEDGER_PERSISTENCE_H_
