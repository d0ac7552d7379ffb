// Status/error types used across the Votegral codebase.
//
// Convention (docs/ROBUSTNESS.md §Status codes): *verification failures are
// values*, because rejecting a forged proof or a tampered ledger entry is
// expected behaviour that callers must branch on. So is rejecting malformed
// outside bytes: every decoder of them returns Outcome<T> (docs/TRANSCRIPTS.md
// §Conventions). Programming errors and protocol misuse (e.g. encoding a
// payload too large for its QR symbol) throw ProtocolError.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

namespace votegral {

// Thrown on API misuse and unrecoverable internal invariant violations.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

// Throws ProtocolError when `condition` is false. Used for internal
// invariants and argument validation, never for crypto verification results.
inline void Require(bool condition, const char* message) {
  if (!condition) {
    throw ProtocolError(message);
  }
}

// Stable failure category. The reason string localizes a failure ("which
// authority, which segment, which proof"); the code classifies it, so tests
// and retry/degradation logic branch on the class instead of string-matching:
//  * kFailed        — uncategorized failure (the pre-StatusCode default).
//  * kInvalidProof  — a cryptographic check rejected (forged/corrupt proof,
//                     bad signature, stale wire cache, hash mismatch caught
//                     by a proof-style check).
//  * kUnavailable   — a required party or resource is down (crashed
//                     authority, fewer than t live trustees, missing file).
//  * kTimeout       — a deadline elapsed before a response arrived.
//  * kCorrupted     — stored or transported data failed an integrity check
//                     (torn sealed segment, chain break, malformed frame).
//  * kExhausted     — a bounded retry/attempt budget ran out.
//  * kEquivocation  — a party presented two validly-signed commitments that
//                     cannot both belong to one append-only history (e.g. a
//                     replication leader signing incompatible checkpoint
//                     roots — the split-view attack the board must detect).
enum class StatusCode : uint8_t {
  kOk = 0,
  kFailed,
  kInvalidProof,
  kUnavailable,
  kTimeout,
  kCorrupted,
  kExhausted,
  kEquivocation,
};

// Stable lowercase name ("ok", "invalid_proof", ...) for logs and tests.
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kFailed: return "failed";
    case StatusCode::kInvalidProof: return "invalid_proof";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kTimeout: return "timeout";
    case StatusCode::kCorrupted: return "corrupted";
    case StatusCode::kExhausted: return "exhausted";
    case StatusCode::kEquivocation: return "equivocation";
  }
  return "unknown";
}

// Result of a fallible operation that callers must inspect.
//
// A Status is either OK or a failure carrying a category code and a
// human-readable reason. The reason strings are stable enough to assert on
// in tests ("which check rejected this credential?") and are surfaced to
// voters/auditors by the examples; the code is what degradation logic and
// tests branch on.
class Status {
 public:
  // Successful status.
  static Status Ok() { return Status(StatusCode::kOk, ""); }

  // Failed status with a reason. `reason` should name the check that failed,
  // e.g. "activation: kiosk commit signature invalid". Uncategorized
  // (StatusCode::kFailed); prefer the two-argument overload in new code.
  static Status Error(std::string reason) {
    return Status(StatusCode::kFailed, std::move(reason));
  }

  // Failed status with an explicit category. `code` must not be kOk.
  static Status Error(StatusCode code, std::string reason) {
    if (code == StatusCode::kOk) {
      throw ProtocolError("Status::Error: kOk is not a failure code");
    }
    return Status(code, std::move(reason));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& reason() const { return reason_; }

  explicit operator bool() const { return ok(); }

  // Returns the first failure among `this` and `other` (error short-circuit).
  Status And(const Status& other) const { return ok() ? other : *this; }

  // "ok" for success, "[code_name] reason" otherwise — the code name leads so
  // coded failures (replication drills, fault soaks) read unambiguously in
  // test logs even when two checks share similar reason text.
  std::string ToString() const {
    if (ok()) {
      return "ok";
    }
    return "[" + std::string(StatusCodeName(code_)) + "] " + reason_;
  }

 private:
  Status(StatusCode code, std::string reason)
      : code_(code), reason_(std::move(reason)) {}

  StatusCode code_;
  std::string reason_;
};

// Streams Status::ToString(); picked up by gtest's value printers, so
// `ASSERT_TRUE(status.ok()) << status` logs the category with the reason.
inline std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace votegral

#endif  // SRC_COMMON_STATUS_H_
