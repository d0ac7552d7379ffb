// The physical and digital artifacts of TRIP registration (paper §3.2, §E,
// Figs. 2 and 9): check-in tickets, envelopes, the three printed receipt
// segments, and the assembled paper credential.
//
// Every artifact serializes to the exact byte string carried by its QR code
// or barcode, so the peripheral latency models see realistic payload sizes
// (13–356 bytes in the paper's measurements).
#ifndef SRC_TRIP_MESSAGES_H_
#define SRC_TRIP_MESSAGES_H_

#include <array>
#include <optional>
#include <string>

#include "src/common/bytes.h"
#include "src/common/outcome.h"
#include "src/crypto/dleq.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/schnorr.h"

namespace votegral {

// Number of distinct envelope symbols (§4.4: the kiosk prints "one of a few
// symbols" and the voter picks a matching envelope — process training that
// prevents presenting an envelope before the commit is printed).
inline constexpr int kNumEnvelopeSymbols = 4;

// Check-in ticket t_in = (V_id, τ_r), τ_r = MAC(s_rk, V_id), printed as a
// 1-D barcode (switched from QR after the first preliminary user study,
// §7.5; the MAC is truncated to fit Code 128 capacity, footnote 7).
struct CheckInTicket {
  std::string voter_id;
  std::array<uint8_t, 16> mac_tag{};

  Bytes Serialize() const;
  static Outcome<CheckInTicket> Parse(std::span<const uint8_t> bytes);
};

// A privacy-booth envelope (Fig. 2a): pre-printed with a symbol and a QR
// carrying (P_pk, e, σ_p). The hash H(e) is committed on L_E at setup.
struct Envelope {
  CompressedRistretto printer_pk{};
  Scalar challenge;              // e — the voter-chosen ZKP challenge
  SchnorrSignature printer_sig;  // σ_p over H(e)
  int symbol = 0;                // printed marking in [0, kNumEnvelopeSymbols)

  // The payload of the envelope's QR code.
  Bytes Serialize() const;
  static Outcome<Envelope> Parse(std::span<const uint8_t> bytes);

  // H(e), the committed value on L_E.
  std::array<uint8_t, 32> ChallengeHash() const;

  // The byte string σ_p signs.
  Bytes SignedPayload() const;
};

// Receipt segment 1 — the commit QR q_c = (V_id, c_pc, Y_c, σ_kc) printed
// *before* the envelope is chosen in the real-credential flow (Fig. 9a).
struct CommitSegment {
  std::string voter_id;
  ElGamalCiphertext public_credential;  // c_pc
  RistrettoPoint commit_y1;             // Y_1 = g^y   (or simulated)
  RistrettoPoint commit_y2;             // Y_2 = A^y   (or simulated)
  SchnorrSignature kiosk_sig;           // σ_kc over (V_id ‖ c_pc ‖ Y)

  // The canonical bytes of c_pc, Y_1 and Y_2 as printed: the kiosk fills
  // them from the bytes σ_kc signs, Parse from the bytes it consumed. A
  // cache like Ballot::vote_wire, neither serialized nor compared; the VSD
  // checks it against the points before it binds anything.
  struct Wire {
    ElGamalWire public_credential{};
    CompressedRistretto commit_y1{};
    CompressedRistretto commit_y2{};
  };
  std::optional<Wire> wire;

  Bytes Serialize() const;
  static Outcome<CommitSegment> Parse(std::span<const uint8_t> bytes);
  Bytes SignedPayload() const;
  // The same bytes from the already-encoded public credential and commits.
  static Bytes SignedPayload(std::string_view voter_id, const ElGamalWire& credential_wire,
                             const CompressedRistretto& y1, const CompressedRistretto& y2);
};

// Receipt segment 2 — the check-out ticket t_ot = (V_id, c_pc, K_pk, σ_kot),
// visible through the envelope window in the transport state (Fig. 2c).
struct CheckOutSegment {
  std::string voter_id;
  ElGamalCiphertext public_credential;
  CompressedRistretto kiosk_pk{};
  SchnorrSignature kiosk_sig;  // σ_kot over (V_id ‖ c_pc)

  Bytes Serialize() const;
  static Outcome<CheckOutSegment> Parse(std::span<const uint8_t> bytes);
  Bytes SignedPayload() const;
  // The same bytes from the already-encoded public credential.
  static Bytes SignedPayload(std::string_view voter_id, const ElGamalWire& credential_wire);
};

// Receipt segment 3 — the response QR q_r = (c_sk, r, K_pk, σ_kr). Contains
// the credential secret key; hidden by the envelope until activation.
struct ResponseSegment {
  Scalar credential_sk;          // c_sk
  Scalar zkp_response;           // r
  CompressedRistretto kiosk_pk{};
  SchnorrSignature kiosk_sig;    // σ_kr over (c_pk ‖ H(e ‖ r))

  Bytes Serialize() const;
  static Outcome<ResponseSegment> Parse(std::span<const uint8_t> bytes);

  // The byte string σ_kr signs, given the credential public key and H(e‖r).
  static Bytes SignedPayload(const CompressedRistretto& credential_pk,
                             const std::array<uint8_t, 32>& challenge_response_hash);
};

// H(e ‖ r), binding the response to the challenge inside σ_kr.
std::array<uint8_t, 32> ChallengeResponseHash(const Scalar& challenge, const Scalar& response);

// A complete paper credential as the voter carries it out of the booth:
// printed receipt (three segments) inside a chosen envelope, plus the
// voter's private marking (§3.2 "Real Credential Creation").
struct PaperCredential {
  int symbol = 0;  // symbol printed above the commit QR
  CommitSegment commit;
  CheckOutSegment checkout;
  ResponseSegment response;
  Envelope envelope;
  std::string voter_marking;  // e.g. "R" — meaningful only to the voter

  // The credential public key recomputed from the secret on the receipt.
  CompressedRistretto CredentialPublicKey() const;
};

}  // namespace votegral

#endif  // SRC_TRIP_MESSAGES_H_
