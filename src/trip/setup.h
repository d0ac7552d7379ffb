// TRIP system setup (Fig. 7): distributed authority key generation, actor
// keying, electoral-roll publication, and envelope issuance with ledger
// commitments. Produces a ready-to-run registration site.
#ifndef SRC_TRIP_SETUP_H_
#define SRC_TRIP_SETUP_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/dkg.h"
#include "src/ledger/subledgers.h"
#include "src/trip/kiosk.h"
#include "src/trip/messages.h"
#include "src/trip/official.h"
#include "src/trip/vsd.h"

namespace votegral {

// An envelope printer P_i: issues envelopes and publishes (P_pk, H(e), σ_p)
// commitments on L_E.
class EnvelopePrinter {
 public:
  explicit EnvelopePrinter(SchnorrKeyPair key);

  const CompressedRistretto& public_key() const { return key_.public_bytes(); }

  // Issues one envelope with a random challenge and symbol, posting the
  // commitment on the ledger.
  Envelope IssueEnvelope(PublicLedger& ledger, Rng& rng);

  // Issues `count` envelopes.
  std::vector<Envelope> IssueBatch(size_t count, PublicLedger& ledger, Rng& rng);

  // Issues an envelope with a *caller-chosen* challenge. An honest printer
  // never reuses a challenge; a malicious one calls this repeatedly to stuff
  // booths with duplicates (§5.1 integrity adversary).
  Envelope IssueEnvelopeWithChallenge(const Scalar& challenge, PublicLedger& ledger, Rng& rng);

 private:
  SchnorrKeyPair key_;
};

// The booth's envelope stock, with voter-style selection. The stock keeps
// its order: a take removes one envelope, a restock appends. A take draws
// the rank of its pick among the candidates in stock order and costs
// O(log stock): a count index over the whole stock and one over each
// symbol's envelopes find the envelope of that rank without a pass.
class EnvelopeSupply {
 public:
  explicit EnvelopeSupply(std::vector<Envelope> envelopes);

  size_t remaining() const { return stock_.Count(); }

  // Voter picks any envelope bearing `symbol` uniformly at random; removes
  // it from the stock.
  Outcome<Envelope> TakeWithSymbol(int symbol, Rng& rng);

  // Voter picks any envelope uniformly at random (fake-credential flow).
  Outcome<Envelope> TakeAny(Rng& rng);

  // Restocking (officials replenish booths).
  void Add(std::vector<Envelope> envelopes);

 private:
  // Which slots of an append-only sequence are still in stock, as a Fenwick
  // tree of counts: append, remove and "the k-th slot still in stock" each
  // cost O(log slots).
  class SlotIndex {
   public:
    void Append();
    void Remove(size_t slot);
    size_t Count() const { return count_; }
    // The slot of the k-th (0-based) remaining one; k < Count().
    size_t Kth(size_t k) const;

   private:
    std::vector<size_t> tree_;  // node j (1-based) at tree_[j - 1]
    size_t count_ = 0;
  };
  struct SymbolStock {
    std::vector<size_t> slots;  // the stock slots bearing this symbol, ascending
    SlotIndex index;            // over `slots`
  };

  // Indexes slots_[first, end) as newly stocked.
  void IndexFrom(size_t first);
  Envelope Take(size_t slot);

  std::vector<Envelope> slots_;  // every envelope stocked, in stock order
  SlotIndex stock_;              // over slots_
  std::map<int, SymbolStock> by_symbol_;
};

// Setup parameters (counts per Fig. 7; n_E should satisfy
// n_E > c·|V| + λ_E·|K| — see §E.2).
struct TripSystemParams {
  size_t authority_members = 4;
  // 0 = additive n-of-n DKG (seed behaviour); t >= 1 = dealerless Shamir
  // DKG with decryption threshold t (see ElectionAuthority::CreateThreshold).
  size_t authority_threshold = 0;
  size_t kiosks = 1;
  size_t officials = 1;
  size_t envelope_printers = 1;
  // Envelopes issued per expected credential; the default matches the
  // paper's constant c >= 2 plus booth minimum slack λ_E.
  size_t envelopes_per_voter = 3;
  size_t booth_min_envelopes = 16;  // λ_E
  std::vector<std::string> roster;
  // Storage backend for the public ledger (in-memory by default; point the
  // file backend at a directory to run registration and tallying against a
  // segmented on-disk log).
  LedgerStorageConfig storage;
};

// A fully initialized TRIP registration system.
class TripSystem {
 public:
  static TripSystem Create(const TripSystemParams& params, Rng& rng);

  PublicLedger& ledger() { return ledger_; }
  const PublicLedger& ledger() const { return ledger_; }
  ElectionAuthority& authority() { return authority_; }
  const ElectionAuthority& authority() const { return authority_; }
  const RistrettoPoint& authority_pk() const { return authority_.public_key(); }

  Kiosk& kiosk(size_t i = 0) { return *kiosks_.at(i); }
  Official& official(size_t i = 0) { return officials_.at(i); }
  EnvelopeSupply& booth_envelopes() { return booth_envelopes_; }
  EnvelopePrinter& envelope_printer(size_t i = 0) { return printers_.at(i); }

  const std::set<CompressedRistretto>& authorized_kiosks() const { return kiosk_keys_; }
  const std::set<CompressedRistretto>& authorized_officials() const { return official_keys_; }
  const std::set<CompressedRistretto>& trusted_printers() const { return printer_keys_; }

  // Builds a fresh VSD configured with this system's public parameters.
  Vsd MakeVsd() const;

  // Replaces kiosk `i` (tests inject malicious kiosks this way). The old
  // kiosk's key is de-authorized.
  void ReplaceKiosk(size_t i, std::unique_ptr<Kiosk> kiosk);

  // Installs an additional kiosk (e.g. a delegation-capable one) alongside
  // the existing ones; returns its index.
  size_t AddKiosk(std::unique_ptr<Kiosk> kiosk);

  const Bytes& shared_mac_key() const { return mac_key_; }

 private:
  explicit TripSystem(const LedgerStorageConfig& storage) : ledger_(storage) {}

  ElectionAuthority authority_;
  PublicLedger ledger_;
  Bytes mac_key_;
  std::vector<std::unique_ptr<Kiosk>> kiosks_;
  std::vector<Official> officials_;
  std::vector<EnvelopePrinter> printers_;
  EnvelopeSupply booth_envelopes_{{}};
  std::set<CompressedRistretto> kiosk_keys_;
  std::set<CompressedRistretto> official_keys_;
  std::set<CompressedRistretto> printer_keys_;
};

}  // namespace votegral

#endif  // SRC_TRIP_SETUP_H_
