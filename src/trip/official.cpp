#include "src/trip/official.h"

#include "src/common/serde.h"
#include "src/crypto/batch.h"
#include "src/trip/kiosk.h"

namespace votegral {

namespace {

constexpr std::string_view kOfficialDomain = "trip/sig/official-checkout/v1";

Bytes OfficialPayload(std::string_view voter_id, const ElGamalWire& credential_wire,
                      const SchnorrSignature& kiosk_sig) {
  ByteWriter w;
  w.Str(kOfficialDomain);
  w.Str(voter_id);
  w.Fixed(credential_wire);
  w.Fixed(kiosk_sig.Serialize());
  return w.Take();
}

// A record's σ_kot and σ_o as batch entries, both messages built from the
// bytes of its public credential.
std::array<SchnorrBatchEntry, 2> RecordSignatureEntries(const RegistrationRecord& record,
                                                        const ElGamalWire& credential) {
  return {SchnorrBatchEntry{record.kiosk_pk,
                            CheckOutSegment::SignedPayload(record.voter_id, credential),
                            record.kiosk_sig},
          SchnorrBatchEntry{record.official_pk,
                            OfficialPayload(record.voter_id, credential, record.kiosk_sig),
                            record.official_sig}};
}

// VerifyRegistrationRecord with c_pc's bytes in hand.
Status CheckRecord(const RegistrationRecord& record, const ElGamalWire& credential,
                   const std::set<CompressedRistretto>& authorized_kiosks,
                   const std::set<CompressedRistretto>& authorized_officials) {
  if (authorized_kiosks.count(record.kiosk_pk) == 0) {
    return Status::Error("registration record: unknown kiosk key");
  }
  if (authorized_officials.count(record.official_pk) == 0) {
    return Status::Error("registration record: unknown official key");
  }
  const auto [kiosk, official] = RecordSignatureEntries(record, credential);
  if (!SchnorrVerify(kiosk.public_key, kiosk.message, kiosk.signature).ok()) {
    return Status::Error("registration record: kiosk signature invalid");
  }
  if (!SchnorrVerify(official.public_key, official.message, official.signature).ok()) {
    return Status::Error("registration record: official signature invalid");
  }
  return Status::Ok();
}

}  // namespace

Bytes OfficialCheckOutPayload(const CheckOutSegment& checkout) {
  return OfficialPayload(checkout.voter_id, checkout.public_credential.Wire(),
                         checkout.kiosk_sig);
}

Official::Official(SchnorrKeyPair key, Bytes mac_key)
    : key_(std::move(key)), mac_key_(std::move(mac_key)) {}

Outcome<CheckInTicket> Official::CheckIn(const std::string& voter_id,
                                         const PublicLedger& ledger) {
  if (!ledger.IsEligible(voter_id)) {
    return Outcome<CheckInTicket>::Fail("official: voter not on the electoral roll");
  }
  CheckInTicket ticket;
  ticket.voter_id = voter_id;
  ticket.mac_tag = ComputeCheckInMac(mac_key_, voter_id);
  return Outcome<CheckInTicket>::Ok(std::move(ticket));
}

Status Official::CheckOut(const CheckOutSegment& checkout,
                          const std::set<CompressedRistretto>& authorized_kiosks,
                          PublicLedger& ledger, Rng& rng) {
  // K_pk ∈ K_pk? (Fig. 10 line 2)
  if (authorized_kiosks.count(checkout.kiosk_pk) == 0) {
    return Status::Error("official: credential issued by unauthorized kiosk");
  }
  // Verify σ_kot (Fig. 10 line 3). One encoding of c_pc serves σ_kot's
  // message, σ_o's and the posted record.
  const ElGamalWire credential_wire = checkout.public_credential.Wire();
  Status sig_ok = SchnorrVerify(
      checkout.kiosk_pk, CheckOutSegment::SignedPayload(checkout.voter_id, credential_wire),
      checkout.kiosk_sig);
  if (!sig_ok.ok()) {
    return Status::Error("official: kiosk check-out signature invalid: " + sig_ok.reason());
  }

  RegistrationRecord record;
  record.voter_id = checkout.voter_id;
  record.public_credential = checkout.public_credential;
  record.kiosk_pk = checkout.kiosk_pk;
  record.kiosk_sig = checkout.kiosk_sig;
  record.official_pk = key_.public_bytes();
  record.official_sig =
      key_.Sign(OfficialPayload(checkout.voter_id, credential_wire, checkout.kiosk_sig), rng);

  Status posted = ledger.PostRegistration(record, credential_wire);
  if (!posted.ok()) {
    return posted;
  }
  if (notify_) {
    notify_(checkout.voter_id);
  }
  return Status::Ok();
}

Status VerifyRegistrationRecord(const RegistrationRecord& record,
                                const std::set<CompressedRistretto>& authorized_kiosks,
                                const std::set<CompressedRistretto>& authorized_officials) {
  return CheckRecord(record, record.public_credential.Wire(), authorized_kiosks,
                     authorized_officials);
}

Status VerifyRegistrationRecords(std::span<const RegistrationRecord> records,
                                 std::span<const ElGamalWire> credential_wires,
                                 const std::set<CompressedRistretto>& authorized_kiosks,
                                 const std::set<CompressedRistretto>& authorized_officials,
                                 Executor& executor) {
  Require(credential_wires.size() == records.size(),
          "VerifyRegistrationRecords: one credential encoding per record");
  std::vector<uint8_t> bad(records.size(), 0);
  const auto shards = Executor::Shards(records.size(), Executor::kRngShards);
  executor.ParallelForEach(shards.size(), [&](size_t s) {
    const auto [begin, end] = shards[s];
    std::vector<SchnorrBatchEntry> signatures;
    signatures.reserve(2 * (end - begin));
    std::vector<size_t> group_end(end - begin);
    for (size_t i = begin; i < end; ++i) {
      if (authorized_kiosks.count(records[i].kiosk_pk) != 0 &&
          authorized_officials.count(records[i].official_pk) != 0) {
        for (SchnorrBatchEntry& entry : RecordSignatureEntries(records[i], credential_wires[i])) {
          signatures.push_back(std::move(entry));
        }
      } else {
        bad[i] = 1;
      }
      group_end[i - begin] = signatures.size();
    }
    VerifySchnorrGroups(signatures, group_end,
                        std::span<uint8_t>(bad).subspan(begin, end - begin));
  });
  if (auto i = FirstMarked(bad); i.has_value()) {
    return CheckRecord(records[*i], credential_wires[*i], authorized_kiosks,
                       authorized_officials);
  }
  return Status::Ok();
}

}  // namespace votegral
