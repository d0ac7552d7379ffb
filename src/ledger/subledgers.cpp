#include "src/ledger/subledgers.h"

#include <algorithm>

#include "src/common/serde.h"

namespace votegral {

namespace {

constexpr std::string_view kRosterTopic = "roster-member";
constexpr std::string_view kRegistrationTopic = "registration";
constexpr std::string_view kEnvelopeTopic = "envelope-commitment";
constexpr std::string_view kChallengeTopic = "envelope-challenge";
constexpr std::string_view kBallotTopic = "ballot";

std::array<uint8_t, 32> HashChallenge(const Scalar& challenge) {
  return Sha256::Hash(challenge.ToBytes());
}

}  // namespace

Bytes RegistrationRecord::Serialize() const { return Serialize(public_credential.Wire()); }

Bytes RegistrationRecord::Serialize(const ElGamalWire& credential_wire) const {
  ByteWriter w;
  w.Str(voter_id);
  w.Var(credential_wire);
  w.Fixed(kiosk_pk);
  w.Var(kiosk_sig.Serialize());
  w.Fixed(official_pk);
  w.Var(official_sig.Serialize());
  return w.Take();
}

Outcome<RegistrationRecord> RegistrationRecord::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "registration record");
  RegistrationRecord record;
  record.voter_id = r.Str();
  r.DecodeVar(&record.public_credential, ElGamalCiphertext::Parse);
  r.Fixed(record.kiosk_pk);
  r.DecodeVar(&record.kiosk_sig, SchnorrSignature::Parse);
  r.Fixed(record.official_pk);
  r.DecodeVar(&record.official_sig, SchnorrSignature::Parse);
  return r.Finish(std::move(record));
}

Bytes EnvelopeCommitment::Serialize() const {
  ByteWriter w;
  w.Fixed(printer_pk);
  w.Fixed(challenge_hash);
  w.Var(printer_sig.Serialize());
  return w.Take();
}

Outcome<EnvelopeCommitment> EnvelopeCommitment::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "envelope commitment");
  EnvelopeCommitment c;
  r.Fixed(c.printer_pk);
  r.Fixed(c.challenge_hash);
  r.DecodeVar(&c.printer_sig, SchnorrSignature::Parse);
  return r.Finish(std::move(c));
}

PublicLedger::PublicLedger(const LedgerStorageConfig& storage)
    : roster_log_(storage.ForSubLog("roster")),
      registration_log_(storage.ForSubLog("registration")),
      envelope_log_(storage.ForSubLog("envelope")),
      ballot_log_(storage.ForSubLog("ballot")) {}

std::span<const PublicLedger::SubLogSpec> PublicLedger::SubLogs() {
  static constexpr SubLogSpec kLogs[] = {
      {"roster", &PublicLedger::roster_log_},
      {"registration", &PublicLedger::registration_log_},
      {"envelope", &PublicLedger::envelope_log_},
      {"ballot", &PublicLedger::ballot_log_},
  };
  return kLogs;
}

Outcome<PublicLedger> PublicLedger::Open(const LedgerStorageConfig& storage) {
  using Out = Outcome<PublicLedger>;
  PublicLedger ledger;
  for (const SubLogSpec& spec : SubLogs()) {
    auto opened = Ledger::Open(storage.ForSubLog(spec.name));
    if (!opened.ok()) {
      return Out::Fail("ledger: " + std::string(spec.name) + " log: " +
                       opened.status.reason());
    }
    ledger.*spec.member = std::move(*opened);
  }
  if (Status derived = ledger.RebuildDerivedState(); !derived.ok()) {
    return Out::Fail(derived.reason());
  }
  return Out::Ok(std::move(ledger));
}

Status PublicLedger::RebuildDerivedState() {
  eligible_.clear();
  registrations_by_voter_.clear();
  envelope_hashes_.clear();
  revealed_challenges_.clear();

  LedgerEntryView view;
  for (LedgerCursor cursor = roster_log_.Scan(); cursor.Next(&view);) {
    if (view.topic != kRosterTopic) {
      return Status::Error("ledger: unknown roster-log topic at index " +
                           std::to_string(view.index));
    }
    eligible_.insert(std::string(reinterpret_cast<const char*>(view.payload.data()),
                                 view.payload.size()));
  }

  for (LedgerCursor cursor = envelope_log_.Scan(); cursor.Next(&view);) {
    if (view.topic == kEnvelopeTopic) {
      auto commitment = EnvelopeCommitment::Parse(view.payload);
      if (!commitment.ok()) {
        return Status::Error("ledger: corrupt envelope commitment at index " +
                             std::to_string(view.index) + ": " +
                             commitment.status.reason());
      }
      envelope_hashes_.insert(commitment->challenge_hash);
    } else if (view.topic == kChallengeTopic) {
      auto challenge = Scalar::FromCanonicalBytes(view.payload);
      if (!challenge.has_value()) {
        return Status::Error("ledger: corrupt challenge reveal at index " +
                             std::to_string(view.index));
      }
      auto hash = HashChallenge(*challenge);
      if (envelope_hashes_.count(hash) == 0 || !revealed_challenges_.insert(hash).second) {
        return Status::Error("ledger: challenge reveal at index " +
                             std::to_string(view.index) +
                             " violates the commitment/duplicate rules");
      }
    } else {
      return Status::Error("ledger: unknown envelope-log topic at index " +
                           std::to_string(view.index));
    }
  }

  for (LedgerCursor cursor = registration_log_.Scan(); cursor.Next(&view);) {
    if (view.topic != kRegistrationTopic) {
      return Status::Error("ledger: unknown registration-log topic at index " +
                           std::to_string(view.index));
    }
    auto record = RegistrationRecord::Parse(view.payload);
    if (!record.ok()) {
      return Status::Error("ledger: corrupt registration record at index " +
                           std::to_string(view.index) + ": " + record.status.reason());
    }
    if (!IsEligible(record->voter_id)) {
      return Status::Error("ledger: registration at index " + std::to_string(view.index) +
                           " for a voter not on the roster");
    }
    registrations_by_voter_[record->voter_id].push_back(view.index);
  }

  for (LedgerCursor cursor = ballot_log_.Scan(); cursor.Next(&view);) {
    if (view.topic != kBallotTopic) {
      return Status::Error("ledger: unknown ballot-log topic at index " +
                           std::to_string(view.index));
    }
  }
  return Status::Ok();
}

void PublicLedger::AddEligibleVoter(const std::string& voter_id) {
  if (eligible_.insert(voter_id).second) {
    roster_log_.Append(kRosterTopic, Bytes(voter_id.begin(), voter_id.end()));
  }
}

bool PublicLedger::IsEligible(const std::string& voter_id) const {
  return eligible_.count(voter_id) > 0;
}

Status PublicLedger::PostRegistration(const RegistrationRecord& record) {
  return PostRegistration(record, record.public_credential.Wire());
}

Status PublicLedger::PostRegistration(const RegistrationRecord& record,
                                      const ElGamalWire& credential_wire) {
  if (!IsEligible(record.voter_id)) {
    return Status::Error("ledger: voter not on the electoral roll: " + record.voter_id);
  }
  uint64_t index = registration_log_.Append(kRegistrationTopic, record.Serialize(credential_wire));
  registrations_by_voter_[record.voter_id].push_back(index);
  return Status::Ok();
}

std::optional<RegistrationRecord> PublicLedger::ActiveRegistration(
    const std::string& voter_id) const {
  auto it = registrations_by_voter_.find(voter_id);
  if (it == registrations_by_voter_.end() || it->second.empty()) {
    return std::nullopt;
  }
  // The most recent record supersedes all prior ones (§3.1).
  LedgerCursor cursor = registration_log_.Scan(it->second.back(), it->second.back() + 1);
  LedgerEntryView view;
  Require(cursor.Next(&view), "ledger: registration index points past the log");
  return RegistrationRecord::Parse(view.payload).value;
}

std::optional<PublicLedger::RegistrationKeys> PublicLedger::ActiveRegistrationKeys(
    const std::string& voter_id) const {
  auto it = registrations_by_voter_.find(voter_id);
  if (it == registrations_by_voter_.end() || it->second.empty()) {
    return std::nullopt;
  }
  LedgerCursor cursor = registration_log_.Scan(it->second.back(), it->second.back() + 1);
  LedgerEntryView view;
  Require(cursor.Next(&view), "ledger: registration index points past the log");
  // RegistrationRecord::Parse's reads, with c_pc kept as its bytes.
  ByteReader r(view.payload, "registration record");
  RegistrationKeys keys;
  SchnorrSignature signature;
  r.Str();
  std::span<const uint8_t> credential = r.Var();
  if (r.Check(credential.size() == keys.public_credential.size(), "bad ciphertext length")) {
    std::copy(credential.begin(), credential.end(), keys.public_credential.begin());
  }
  r.Fixed(keys.kiosk_pk);
  r.DecodeVar(&signature, SchnorrSignature::Parse);
  CompressedRistretto official_pk;
  r.Fixed(official_pk);
  r.DecodeVar(&signature, SchnorrSignature::Parse);
  auto parsed = r.Finish(std::move(keys));
  if (!parsed.ok()) {
    return std::nullopt;
  }
  return std::move(parsed.value);
}

std::vector<RegistrationRecord> PublicLedger::ActiveRegistrations(
    std::vector<ElGamalWire>* credential_wires) const {
  std::vector<RegistrationRecord> out;
  out.reserve(registrations_by_voter_.size());
  if (credential_wires != nullptr) {
    credential_wires->clear();
    credential_wires->reserve(registrations_by_voter_.size());
  }
  // One cursor for the whole pass: voters' latest indices are read in voter
  // order, and the cursor's segment pin is reused whenever consecutive
  // records share a segment.
  LedgerCursor cursor = registration_log_.Scan();
  LedgerEntryView view;
  for (const auto& [voter_id, indices] : registrations_by_voter_) {
    if (indices.empty()) {
      continue;
    }
    cursor.Seek(indices.back());
    Require(cursor.Next(&view), "ledger: registration index points past the log");
    auto record = RegistrationRecord::Parse(view.payload);
    Require(record.ok(), "ledger: stored registration record is corrupt");
    if (credential_wires != nullptr) {
      // The field Parse just decoded: the voter id, then c_pc's bytes.
      ByteReader r(view.payload, "registration record");
      r.Str();
      const std::span<const uint8_t> credential = r.Var();
      ElGamalWire& wire = credential_wires->emplace_back();
      std::copy(credential.begin(), credential.end(), wire.begin());
    }
    out.push_back(std::move(*record));
  }
  return out;
}

size_t PublicLedger::RegistrationEventCount(const std::string& voter_id) const {
  auto it = registrations_by_voter_.find(voter_id);
  return it == registrations_by_voter_.end() ? 0 : it->second.size();
}

void PublicLedger::PostEnvelopeCommitment(const EnvelopeCommitment& commitment) {
  envelope_log_.Append(kEnvelopeTopic, commitment.Serialize());
  envelope_hashes_.insert(commitment.challenge_hash);
}

bool PublicLedger::HasEnvelopeCommitment(const std::array<uint8_t, 32>& challenge_hash) const {
  return envelope_hashes_.count(challenge_hash) > 0;
}

Status PublicLedger::RevealEnvelopeChallenge(const Scalar& challenge) {
  auto hash = HashChallenge(challenge);
  if (!HasEnvelopeCommitment(hash)) {
    return Status::Error("ledger: challenge has no printer commitment (forged envelope?)");
  }
  if (revealed_challenges_.count(hash) > 0) {
    return Status::Error("ledger: duplicate envelope challenge (possible envelope stuffing)");
  }
  revealed_challenges_.insert(hash);
  auto challenge_bytes = challenge.ToBytes();
  envelope_log_.Append(kChallengeTopic, Bytes(challenge_bytes.begin(), challenge_bytes.end()));
  return Status::Ok();
}

uint64_t PublicLedger::PostBallot(Bytes ballot_payload) {
  return ballot_log_.Append(kBallotTopic, std::move(ballot_payload));
}

std::vector<Bytes> PublicLedger::AllBallots() const {
  std::vector<Bytes> out;
  out.reserve(ballot_log_.TopicIndices(kBallotTopic).size());
  LedgerEntryView view;
  for (TopicCursor cursor = ballot_log_.ScanTopic(kBallotTopic); cursor.Next(&view);) {
    out.emplace_back(view.payload.begin(), view.payload.end());
  }
  return out;
}

Status PublicLedger::VerifyChains() const {
  return roster_log_.VerifyChain()
      .And(registration_log_.VerifyChain())
      .And(envelope_log_.VerifyChain())
      .And(ballot_log_.VerifyChain());
}

}  // namespace votegral
