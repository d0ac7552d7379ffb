#include "src/votegral/extensions.h"

#include "src/common/serde.h"

namespace votegral {

// ---------------------------------------------------------------------------
// C.1 — Voting history
// ---------------------------------------------------------------------------

void VotingHistory::Record(const CompressedRistretto& credential_pk,
                           const std::string& candidate, uint64_t ledger_index,
                           const Bytes& ballot_payload) {
  HistoryEntry entry;
  entry.credential_pk = credential_pk;
  entry.candidate = candidate;
  entry.ledger_index = ledger_index;
  entry.ballot_hash = Sha256::Hash(ballot_payload);
  entries_.push_back(std::move(entry));
}

std::vector<HistoryEntry> VotingHistory::ForCredential(
    const CompressedRistretto& credential_pk) const {
  std::vector<HistoryEntry> out;
  for (const HistoryEntry& entry : entries_) {
    if (entry.credential_pk == credential_pk) {
      out.push_back(entry);
    }
  }
  return out;
}

Status VotingHistory::VerifyAgainstLedger(const PublicLedger& ledger) const {
  // One cursor for the whole pass: history entries are usually clustered,
  // so segment pins get reused across seeks.
  LedgerCursor cursor = ledger.BallotCursor();
  LedgerEntryView view;
  for (const HistoryEntry& entry : entries_) {
    if (entry.ledger_index >= ledger.BallotCount()) {
      return Status::Error("history: recorded ballot index beyond ledger");
    }
    cursor.Seek(entry.ledger_index);
    Require(cursor.Next(&view), "history: ballot cursor read failed");
    auto hash = Sha256::Hash(view.payload);
    if (hash != entry.ballot_hash) {
      return Status::Error("history: ledger ballot differs from recorded cast");
    }
  }
  return Status::Ok();
}

Outcome<HistoryDecryption> DecryptOwnVote(const ElectionAuthority& authority,
                                          const PublicLedger& ledger,
                                          const ActivatedCredential& credential,
                                          uint64_t ledger_index, Rng& rng) {
  using Out = Outcome<HistoryDecryption>;
  if (ledger_index >= ledger.BallotCount()) {
    return Out::Fail("history: no such ballot on the ledger");
  }
  LedgerCursor cursor = ledger.BallotCursor(ledger_index, ledger_index + 1);
  LedgerEntryView entry_view;
  Require(cursor.Next(&entry_view), "history: ballot cursor read failed");
  auto ballot = Ballot::Parse(entry_view.payload);
  if (!ballot.ok()) {
    return Out::Fail("history: ledger entry is not a ballot");
  }
  // Ownership proof: the requester must control the credential that cast
  // this ballot (sign a fresh context binding the request).
  if (!(ballot->credential_pk == credential.credential_pk)) {
    return Out::Fail("history: ballot was cast with a different credential");
  }
  SchnorrKeyPair key = SchnorrKeyPair::FromSecret(credential.credential_sk);
  ByteWriter w;
  w.Str("votegral/ext/history-request/v1");
  w.U64(ledger_index);
  auto request_sig = key.Sign(w.bytes(), rng);
  if (!SchnorrVerify(credential.credential_pk, w.bytes(), request_sig).ok()) {
    return Out::Fail("history: ownership proof failed");
  }
  // Each authority member returns a verifiable share; the device combines
  // locally, so no member learns the vote.
  HistoryDecryption result;
  for (size_t m = 0; m < authority.size(); ++m) {
    auto share = authority.ComputeShare(m, ballot->encrypted_vote, rng);
    if (!authority.VerifyShare(ballot->encrypted_vote, share).ok()) {
      return Out::Fail("history: authority returned an invalid share");
    }
    result.shares.push_back(std::move(share));
  }
  result.vote_point = authority.CombineShares(ballot->encrypted_vote, result.shares);
  return Out::Ok(std::move(result));
}

// ---------------------------------------------------------------------------
// C.2 — Credential rotation
// ---------------------------------------------------------------------------

Bytes CredentialTransfer::SignedPayload() const {
  ByteWriter w;
  w.Str("votegral/ext/credential-transfer/v1");
  w.Fixed(old_pk);
  w.Fixed(new_pk);
  return w.Take();
}

RotatedCredential RotateCredential(const ActivatedCredential& credential, Rng& rng) {
  SchnorrKeyPair old_key = SchnorrKeyPair::FromSecret(credential.credential_sk);
  SchnorrKeyPair new_key = SchnorrKeyPair::Generate(rng);

  RotatedCredential rotated;
  rotated.transfer.old_pk = old_key.public_bytes();
  rotated.transfer.new_pk = new_key.public_bytes();
  rotated.transfer.transfer_sig = old_key.Sign(rotated.transfer.SignedPayload(), rng);

  rotated.credential = credential;
  rotated.credential.credential_sk = new_key.secret();
  rotated.credential.credential_pk = new_key.public_bytes();
  // The kiosk certificate still covers the *original* key; ballot validation
  // resolves through the transfer table (ValidateWithTransfers).
  return rotated;
}

Status TransferRegistry::Register(const CredentialTransfer& transfer) {
  Status sig = SchnorrVerify(transfer.old_pk, transfer.SignedPayload(), transfer.transfer_sig);
  if (!sig.ok()) {
    return Status::Error("transfer: signature by old key invalid");
  }
  if (rotated_old_keys_.count(transfer.old_pk) > 0) {
    return Status::Error("transfer: old key already rotated (replay?)");
  }
  if (by_new_pk_.count(transfer.new_pk) > 0) {
    return Status::Error("transfer: new key already registered");
  }
  by_new_pk_[transfer.new_pk] = transfer;
  rotated_old_keys_.insert(transfer.old_pk);
  return Status::Ok();
}

CompressedRistretto TransferRegistry::ResolveToOriginal(const CompressedRistretto& pk) const {
  CompressedRistretto current = pk;
  // Follow rotation chains (device -> newer device -> ...), bounded to avoid
  // malicious cycles.
  for (int hops = 0; hops < 16; ++hops) {
    auto it = by_new_pk_.find(current);
    if (it == by_new_pk_.end()) {
      return current;
    }
    current = it->second.old_pk;
  }
  return current;
}

std::vector<Ballot> ValidateWithTransfers(
    const PublicLedger& ledger, const std::set<CompressedRistretto>& authorized_kiosks,
    const TransferRegistry& registry, TallyDiscards* discards) {
  Require(discards != nullptr, "extensions: discards output required");
  std::map<CompressedRistretto, Ballot> latest;
  std::map<CompressedRistretto, size_t> first_seen_order;
  size_t order = 0;
  LedgerCursor cursor = ledger.BallotCursor();
  LedgerEntryView view;
  while (cursor.Next(&view)) {
    auto ballot = Ballot::Parse(view.payload);
    if (!ballot.ok()) {
      ++discards->invalid_structure;
      continue;
    }
    // The credential signature is checked against the *casting* key; the
    // kiosk certificate against the resolved original key.
    if (authorized_kiosks.count(ballot->kiosk_pk) == 0 ||
        !SchnorrVerify(ballot->credential_pk, ballot->SignedPayload(),
                       ballot->credential_sig)
             .ok()) {
      ++discards->invalid_signature;
      continue;
    }
    CompressedRistretto original = registry.ResolveToOriginal(ballot->credential_pk);
    Status cert = SchnorrVerify(
        ballot->kiosk_pk, ResponseSegment::SignedPayload(original, ballot->kiosk_cert_hash),
        ballot->kiosk_cert);
    if (!cert.ok()) {
      ++discards->invalid_signature;
      continue;
    }
    // Rewrite to the original key so the tag join sees kiosk-issued keys.
    Ballot resolved = *ballot;
    resolved.credential_pk = original;
    auto [it, inserted] = latest.insert_or_assign(original, resolved);
    if (inserted) {
      first_seen_order[original] = order++;
    } else {
      ++discards->superseded;
    }
  }
  std::vector<Ballot> accepted(latest.size());
  for (const auto& [credential, ballot] : latest) {
    accepted[first_seen_order.at(credential)] = ballot;
  }
  return accepted;
}

// ---------------------------------------------------------------------------
// C.3 — Delegation
// ---------------------------------------------------------------------------

DelegationKiosk::DelegationKiosk(SchnorrKeyPair key, Bytes mac_key,
                                 RistrettoPoint authority_pk)
    : Kiosk(std::move(key), std::move(mac_key), authority_pk) {}

Status DelegationKiosk::DelegateSession(const RistrettoPoint& party_pk, Rng& rng) {
  if (!in_session_) {
    return Status::Error("delegation: no active session");
  }
  if (real_issued_ || delegated_) {
    return Status::Error("delegation: session already issued a credential");
  }
  // c_pc encrypts the *party's* public key; the kiosk never needs the
  // party's private key (Appendix C.3).
  ElGamalCiphertext c_pc = ElGamalEncrypt(authority_pk_, party_pk, rng);
  const ElGamalWire c_pc_wire = c_pc.Wire();

  checkout_.voter_id = voter_id_;
  checkout_.public_credential = c_pc;
  checkout_.kiosk_pk = key_.public_bytes();
  checkout_.kiosk_sig = SignCheckout(c_pc_wire, rng);

  // Fake credentials issued from here on reference the delegated c_pc.
  delegated_ = true;
  RecordSessionCredential(c_pc, c_pc_wire, checkout_);
  RecordAction(KioskAction::kPrintedCheckoutAndResponse);
  return Status::Ok();
}

Outcome<CheckOutSegment> DelegationKiosk::delegated_checkout() const {
  if (!delegated_) {
    return Outcome<CheckOutSegment>::Fail("delegation: session did not delegate");
  }
  return Outcome<CheckOutSegment>::Ok(checkout_);
}

}  // namespace votegral
