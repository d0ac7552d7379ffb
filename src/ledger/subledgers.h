// Typed views over the public ledger: the registration sub-ledger L_R, the
// envelope-commitment sub-ledger L_E and the ballot sub-ledger L_V (§D.1),
// plus a tamper-evident roster log for the electoral roll V.
//
// Key semantics implemented here, straight from the paper:
//  * L_R: one *active* record per voter identity; a new registration
//    supersedes and invalidates all prior records for that voter (§3.1).
//  * L_E: at setup, envelope printers publish (printer_pk, H(e), σ_p) for
//    every envelope; at activation, VSDs publish the revealed challenge e
//    and reject duplicates — the duplicate-envelope defense of App. F.3.5.
//  * L_V: append-only encrypted ballots.
//
// Storage: every sub-log sits on a LedgerStore backend selected by the
// LedgerStorageConfig the PublicLedger is constructed with — in-memory by
// default, or a file-backed segmented log (one subdirectory per sub-log)
// for ledgers larger than RAM. The derived lookup state (active
// registrations, used challenges, the eligibility set) is an index over the
// logs, rebuilt by streaming them on Open(); consumers read entries through
// cursors (BallotCursor / the logs' Scan/ScanTopic), never by index pokes.
#ifndef SRC_LEDGER_SUBLEDGERS_H_
#define SRC_LEDGER_SUBLEDGERS_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/outcome.h"
#include "src/common/status.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/schnorr.h"
#include "src/ledger/ledger.h"

namespace votegral {

// A voter's registration record as posted at check-out (Fig. 10):
// L_R[V_id] <- (c_pc, K_pk, σ_kot, O_pk, σ_o).
struct RegistrationRecord {
  std::string voter_id;
  ElGamalCiphertext public_credential;  // c_pc = Enc_A(c_pk of the real credential)
  CompressedRistretto kiosk_pk{};
  SchnorrSignature kiosk_sig;           // σ_kot over (V_id || c_pc)
  CompressedRistretto official_pk{};
  SchnorrSignature official_sig;        // σ_o over (V_id || c_pc || σ_kot)

  Bytes Serialize() const;
  // The same bytes from the already-encoded public credential.
  Bytes Serialize(const ElGamalWire& credential_wire) const;
  static Outcome<RegistrationRecord> Parse(std::span<const uint8_t> bytes);
};

// An envelope commitment published at setup (Fig. 7, line 5):
// (P_pk, H(e), Sig(P_sk, H(e))).
struct EnvelopeCommitment {
  CompressedRistretto printer_pk{};
  std::array<uint8_t, 32> challenge_hash{};
  SchnorrSignature printer_sig;

  Bytes Serialize() const;
  static Outcome<EnvelopeCommitment> Parse(std::span<const uint8_t> bytes);
};

// The sub-ledgers plus the eligibility roster, bundled as the paper's
// single logical ledger L. All mutations go through typed methods that also
// append to the underlying tamper-evident logs. Move-only (it owns the
// storage backends).
class PublicLedger {
 public:
  // In-memory backend.
  PublicLedger() : PublicLedger(LedgerStorageConfig{}) {}
  // Fresh (empty) logs on the configured backend; throws ProtocolError when
  // a file backend directory already holds a ledger — recovery is Open().
  explicit PublicLedger(const LedgerStorageConfig& storage);

  // Recovers an existing ledger from its backend (file: crash-safe segment
  // recovery per sub-log) and rebuilds all derived indices by streaming the
  // logs. Corruption yields a localized, named failure.
  static Outcome<PublicLedger> Open(const LedgerStorageConfig& storage);

  PublicLedger(PublicLedger&&) = default;
  PublicLedger& operator=(PublicLedger&&) = default;

  // --- Roster (electoral roll V, populated at setup) -----------------------
  void AddEligibleVoter(const std::string& voter_id);
  bool IsEligible(const std::string& voter_id) const;
  size_t eligible_count() const { return eligible_.size(); }

  // --- L_R ------------------------------------------------------------------
  // Posts a registration record; supersedes any previous record for the
  // voter. Fails if the voter is not on the roster.
  Status PostRegistration(const RegistrationRecord& record);
  // The same, with the record's c_pc already encoded as `credential_wire`.
  Status PostRegistration(const RegistrationRecord& record, const ElGamalWire& credential_wire);

  // The voter's currently active record, if any.
  std::optional<RegistrationRecord> ActiveRegistration(const std::string& voter_id) const;

  // The bytes of the active record's c_pc and kiosk key, read without
  // decoding a point: the VSD's ledger match compares them with the
  // receipt's bytes. nullopt when the voter has no record, or the record
  // does not parse (every other field is checked as Parse checks it).
  struct RegistrationKeys {
    ElGamalWire public_credential{};
    CompressedRistretto kiosk_pk{};
  };
  std::optional<RegistrationKeys> ActiveRegistrationKeys(const std::string& voter_id) const;

  // All currently active records (one per registered voter). When
  // `credential_wires` is given it receives each record's c_pc bytes as
  // posted, parallel to the records (Parse accepts only canonical
  // encodings, so they are the encoding of each public_credential).
  std::vector<RegistrationRecord> ActiveRegistrations(
      std::vector<ElGamalWire>* credential_wires = nullptr) const;

  // How many times this voter has (re-)registered — the registration-event
  // notification feed of Appendix J.
  size_t RegistrationEventCount(const std::string& voter_id) const;

  // --- L_E ------------------------------------------------------------------
  // Setup-time: record an envelope commitment.
  void PostEnvelopeCommitment(const EnvelopeCommitment& commitment);
  size_t envelope_commitment_count() const { return envelope_hashes_.size(); }

  // True when some printer committed to H(e).
  bool HasEnvelopeCommitment(const std::array<uint8_t, 32>& challenge_hash) const;

  // Activation-time: reveal a challenge. Fails if e was already revealed
  // (duplicate envelope) or if no commitment to H(e) exists.
  Status RevealEnvelopeChallenge(const Scalar& challenge);

  // Number of challenges revealed so far (the coercer-visible aggregate the
  // coercion-resistance proof reasons about).
  size_t revealed_challenge_count() const { return revealed_challenges_.size(); }

  // --- L_V ------------------------------------------------------------------
  // Appends an opaque ballot payload; returns its ledger index.
  uint64_t PostBallot(Bytes ballot_payload);
  std::vector<Bytes> AllBallots() const;

  // Streaming, zero-copy iteration for the sharded tally pipeline: stages
  // open one cursor per Executor::Shards range and stream ballots straight
  // off the backing segments — at most one segment resident per cursor,
  // instead of a materialized copy of the whole ballot log.
  size_t BallotCount() const { return ballot_log_.size(); }
  LedgerCursor BallotCursor(uint64_t begin = 0,
                            uint64_t end = LedgerCursor::kEnd) const {
    return ballot_log_.Scan(begin, end);
  }

  // --- Integrity -------------------------------------------------------------
  // Verifies all underlying hash chains (streamed per segment).
  Status VerifyChains() const;

  // Raw log access (audits, tests).
  const Ledger& roster_log() const { return roster_log_; }
  const Ledger& registration_log() const { return registration_log_; }
  const Ledger& envelope_log() const { return envelope_log_; }
  const Ledger& ballot_log() const { return ballot_log_; }
  Ledger& mutable_registration_log() { return registration_log_; }

 private:
  // Streams all logs, validating topics/payloads and rebuilding the derived
  // lookup state (roster set, registration index, envelope hashes, revealed
  // challenges). Used by Open() and the persistence import.
  Status RebuildDerivedState();

  // The sub-logs as one table (storage subdirectory name + member), so the
  // recovery paths — Open() and the persistence import — iterate the same
  // list and a future sub-log cannot be added to one but not the other.
  struct SubLogSpec {
    const char* name;
    Ledger PublicLedger::* member;
  };
  static std::span<const SubLogSpec> SubLogs();

  friend Outcome<PublicLedger> ParsePublicLedger(std::span<const uint8_t> bytes,
                                                 const LedgerStorageConfig& storage);

  std::set<std::string> eligible_;
  Ledger roster_log_;
  Ledger registration_log_;
  Ledger envelope_log_;
  Ledger ballot_log_;

  // Index: voter id -> ledger indices of their registration records.
  std::map<std::string, std::vector<uint64_t>> registrations_by_voter_;
  std::set<std::array<uint8_t, 32>> envelope_hashes_;
  std::set<std::array<uint8_t, 32>> revealed_challenges_;  // keyed by H(e)
};

}  // namespace votegral

#endif  // SRC_LEDGER_SUBLEDGERS_H_
