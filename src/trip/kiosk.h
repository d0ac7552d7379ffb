// The privacy-booth kiosk (paper §4, Figs. 8–9): authorizes sessions from
// check-in tickets, issues the real credential via a *sound* interactive
// Chaum–Pedersen proof (commit printed before the envelope is scanned), and
// issues fake credentials via *simulated* proofs (envelope scanned first).
//
// The kiosk records an action log per session. The log models what the voter
// physically observes in the booth — the order of printing and scanning —
// which is exactly the one bit of information that distinguishes real from
// fake credential creation (§4.3) and the basis of the malicious-kiosk
// detection study (§7.5).
#ifndef SRC_TRIP_KIOSK_H_
#define SRC_TRIP_KIOSK_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/outcome.h"
#include "src/common/rng.h"
#include "src/crypto/dleq.h"
#include "src/crypto/schnorr.h"
#include "src/trip/messages.h"

namespace votegral {

// Voter-observable kiosk actions, in booth order.
enum class KioskAction {
  kSessionStarted,
  kPrintedSymbolAndCommit,   // real flow step 2: symbol + commit QR
  kScannedEnvelope,          // voter presented an envelope
  kPrintedCheckoutAndResponse,  // real flow step 4: completes the receipt
  kPrintedFullReceipt,       // fake flow step 2: entire receipt at once
  kRejectedEnvelope,         // wrong symbol or reused envelope
  kSessionEnded,
};

// Returned by BeginRealCredential: what the kiosk has printed so far.
struct PrintedCommit {
  int symbol = 0;
  CommitSegment commit;
};

// An honest TRIP kiosk.
class Kiosk {
 public:
  // `mac_key` is the official/kiosk shared secret s_rk; `authority_pk` the
  // collective election-authority key A_pk.
  Kiosk(SchnorrKeyPair key, Bytes mac_key, RistrettoPoint authority_pk);
  virtual ~Kiosk() = default;

  const CompressedRistretto& public_key() const { return key_.public_bytes(); }

  // Authorization (Fig. 8): verifies the check-in ticket's MAC and opens a
  // session. At most one session at a time.
  Status StartSession(const CheckInTicket& ticket);

  // Real-credential step 2 (Fig. 9a): generates the credential and prints
  // the symbol + commit. Must precede any envelope scan — the sound order.
  virtual Outcome<PrintedCommit> BeginRealCredential(Rng& rng);

  // Real-credential step 4: consumes the voter's envelope (the challenge),
  // prints check-out ticket + response. Rejects a wrong-symbol envelope
  // ("gently", per §4.4) and envelope reuse within the session.
  virtual Outcome<PaperCredential> FinishRealCredential(const Envelope& envelope, Rng& rng);

  // Fake-credential flow (Fig. 9b): envelope first, then the whole receipt,
  // containing a transcript simulated from the known challenge. Requires the
  // session's real credential to exist (fakes share its c_pc and t_ot).
  virtual Outcome<PaperCredential> CreateFakeCredential(const Envelope& envelope, Rng& rng);

  // Closes the session.
  Status EndSession();

  bool in_session() const { return in_session_; }
  const std::vector<KioskAction>& session_actions() const { return actions_; }

 protected:
  // Shared helpers for honest and malicious kiosks. σ_kc and σ_kot cover
  // the session's voter and take c_pc (and Y) already encoded, so a session
  // encodes c_pc once however many receipts it prints.
  SchnorrSignature SignCommit(const ElGamalWire& credential_wire, const CompressedRistretto& y1,
                              const CompressedRistretto& y2, Rng& rng) const;
  SchnorrSignature SignCheckout(const ElGamalWire& credential_wire, Rng& rng) const;
  SchnorrSignature SignResponse(const CompressedRistretto& credential_pk,
                                const std::array<uint8_t, 32>& h_er, Rng& rng) const;
  void RecordAction(KioskAction action) { actions_.push_back(action); }
  Status ConsumeEnvelope(const Envelope& envelope);
  // Records the session's credential: every fake from here on shares its
  // c_pc (signed from `credential_wire`) and its t_ot.
  void RecordSessionCredential(const ElGamalCiphertext& public_credential,
                               const ElGamalWire& credential_wire,
                               const CheckOutSegment& checkout);

  SchnorrKeyPair key_;
  Bytes mac_key_;
  RistrettoPoint authority_pk_;
  // Canonical encoding of authority_pk_, computed once at construction: the
  // kiosk builds one DLEQ statement over (B, A_pk) per credential, and the
  // wire-carrying statement API takes these standing bytes for free.
  CompressedRistretto authority_pk_wire_{};

  // Session state.
  bool in_session_ = false;
  std::string voter_id_;
  std::vector<KioskAction> actions_;
  std::set<std::array<uint8_t, 32>> session_challenges_;  // envelope reuse guard

  // Pending real credential between Begin and Finish.
  struct PendingReal {
    SchnorrKeyPair credential_key;
    ElGamalCiphertext public_credential;
    ElGamalWire credential_wire{};
    std::unique_ptr<DleqProver> prover;
    int symbol = 0;
    CommitSegment commit;
  };
  std::unique_ptr<PendingReal> pending_real_;

  // After the real credential is issued: material shared by fake credentials.
  bool real_issued_ = false;
  ElGamalCiphertext session_public_credential_;
  ElGamalWire session_credential_wire_{};
  CheckOutSegment session_checkout_;  // reused verbatim — fakes are identical here
};

// Computes the truncated check-in MAC tag τ_r = MAC(s_rk, V_id).
std::array<uint8_t, 16> ComputeCheckInMac(std::span<const uint8_t> mac_key,
                                          const std::string& voter_id);

}  // namespace votegral

#endif  // SRC_TRIP_KIOSK_H_
