// The voter-supporting device (VSD): credential activation with the full
// check list of Fig. 11, registration-event monitoring (Appendix J), and the
// activated-credential store used for voting.
//
// Activation is where individual verifiability is enforced: every signature,
// the proof-transcript equations, the ledger record match, and envelope
// challenge uniqueness. A credential passing activation is structurally
// valid whether real or fake — by design, the transcript does not reveal
// which (§4.3); only the in-booth printing order did.
#ifndef SRC_TRIP_VSD_H_
#define SRC_TRIP_VSD_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/outcome.h"
#include "src/crypto/schnorr.h"
#include "src/ledger/subledgers.h"
#include "src/trip/messages.h"

namespace votegral {

// A credential after successful activation — everything the device needs to
// cast (and authenticate) ballots with it.
struct ActivatedCredential {
  std::string voter_id;
  Scalar credential_sk;
  CompressedRistretto credential_pk{};
  ElGamalCiphertext public_credential;  // c_pc, as printed and ledger-matched
  CompressedRistretto kiosk_pk{};
  SchnorrSignature kiosk_response_sig;  // σ_kr — doubles as the ballot-time
                                        // kiosk certificate on c_pk (§4.5)
  std::array<uint8_t, 32> challenge_response_hash{};  // H(e‖r) bound by σ_kr
};

// A voter's device.
class Vsd {
 public:
  // `authority_pk` is A_pk; `trusted_printer_keys` the published envelope
  // printer roster P_pk.
  Vsd(RistrettoPoint authority_pk, std::set<CompressedRistretto> trusted_printer_keys);

  // Runs all activation checks of Fig. 11 against the public ledger; on
  // success stores and returns the activated credential, and publishes the
  // envelope challenge on L_E (duplicate-envelope defense). The receipt
  // checks (lines 3-8: three signatures and the two transcript equations)
  // run as one random linear combination on the calling thread; only a
  // credential that fails it, or whose printer is not trusted, is checked
  // one equation at a time, to name the reason (docs/ARCHITECTURE.md
  // §Activation check).
  Outcome<ActivatedCredential> Activate(const PaperCredential& credential,
                                        PublicLedger& ledger);

  // Credentials activated on this device, in activation order.
  const std::vector<ActivatedCredential>& credentials() const { return credentials_; }

  // Registration-event monitoring (Appendix J): returns how many
  // registration events the ledger shows for `voter_id` beyond those this
  // device has witnessed — nonzero values indicate possible impersonation.
  size_t UnexpectedRegistrationEvents(const std::string& voter_id,
                                      const PublicLedger& ledger) const;

  // Marks a registration event as witnessed (called after the voter's own
  // registration trip).
  void AcknowledgeRegistration(const std::string& voter_id);

 private:
  RistrettoPoint authority_pk_;
  std::set<CompressedRistretto> trusted_printer_keys_;
  std::vector<ActivatedCredential> credentials_;
  std::map<std::string, size_t> acknowledged_events_;
};

}  // namespace votegral

#endif  // SRC_TRIP_VSD_H_
