#include "src/trip/setup.h"

#include <algorithm>
#include <bit>

namespace votegral {

EnvelopePrinter::EnvelopePrinter(SchnorrKeyPair key) : key_(std::move(key)) {}

Envelope EnvelopePrinter::IssueEnvelope(PublicLedger& ledger, Rng& rng) {
  return IssueEnvelopeWithChallenge(Scalar::Random(rng), ledger, rng);
}

Envelope EnvelopePrinter::IssueEnvelopeWithChallenge(const Scalar& challenge,
                                                     PublicLedger& ledger, Rng& rng) {
  Envelope envelope;
  envelope.printer_pk = key_.public_bytes();
  envelope.challenge = challenge;
  envelope.symbol = static_cast<int>(rng.Uniform(kNumEnvelopeSymbols));
  envelope.printer_sig = key_.Sign(envelope.SignedPayload(), rng);

  EnvelopeCommitment commitment;
  commitment.printer_pk = envelope.printer_pk;
  commitment.challenge_hash = envelope.ChallengeHash();
  commitment.printer_sig = envelope.printer_sig;
  ledger.PostEnvelopeCommitment(commitment);
  return envelope;
}

std::vector<Envelope> EnvelopePrinter::IssueBatch(size_t count, PublicLedger& ledger,
                                                  Rng& rng) {
  std::vector<Envelope> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(IssueEnvelope(ledger, rng));
  }
  return out;
}

void EnvelopeSupply::SlotIndex::Append() {
  // A new node j covers slots (j - lowbit(j), j]: itself plus the nodes
  // below it that end inside that range.
  const size_t j = tree_.size() + 1;
  size_t covered = 1;
  for (size_t k = j - 1; k > j - (j & -j); k -= k & -k) {
    covered += tree_[k - 1];
  }
  tree_.push_back(covered);
  ++count_;
}

void EnvelopeSupply::SlotIndex::Remove(size_t slot) {
  for (size_t j = slot + 1; j <= tree_.size(); j += j & -j) {
    --tree_[j - 1];
  }
  --count_;
}

size_t EnvelopeSupply::SlotIndex::Kth(size_t k) const {
  // Binary lifting: the longest prefix holding at most k remaining slots
  // ends just before the k-th one.
  size_t prefix = 0;
  for (size_t step = std::bit_floor(tree_.size()); step > 0; step >>= 1) {
    if (prefix + step <= tree_.size() && tree_[prefix + step - 1] <= k) {
      prefix += step;
      k -= tree_[prefix - 1];
    }
  }
  return prefix;
}

EnvelopeSupply::EnvelopeSupply(std::vector<Envelope> envelopes) : slots_(std::move(envelopes)) {
  IndexFrom(0);
}

void EnvelopeSupply::IndexFrom(size_t first) {
  for (size_t slot = first; slot < slots_.size(); ++slot) {
    SymbolStock& stock = by_symbol_[slots_[slot].symbol];
    stock.slots.push_back(slot);
    stock.index.Append();
    stock_.Append();
  }
}

Envelope EnvelopeSupply::Take(size_t slot) {
  stock_.Remove(slot);
  SymbolStock& stock = by_symbol_.at(slots_[slot].symbol);
  const auto position = std::lower_bound(stock.slots.begin(), stock.slots.end(), slot);
  stock.index.Remove(static_cast<size_t>(position - stock.slots.begin()));
  return slots_[slot];
}

Outcome<Envelope> EnvelopeSupply::TakeWithSymbol(int symbol, Rng& rng) {
  auto it = by_symbol_.find(symbol);
  if (it == by_symbol_.end() || it->second.index.Count() == 0) {
    return Outcome<Envelope>::Fail("booth: no envelope with the requested symbol in stock");
  }
  const SymbolStock& matching = it->second;
  const size_t pick = matching.index.Kth(rng.Uniform(matching.index.Count()));
  return Outcome<Envelope>::Ok(Take(matching.slots[pick]));
}

Outcome<Envelope> EnvelopeSupply::TakeAny(Rng& rng) {
  if (stock_.Count() == 0) {
    return Outcome<Envelope>::Fail("booth: envelope stock exhausted");
  }
  return Outcome<Envelope>::Ok(Take(stock_.Kth(rng.Uniform(stock_.Count()))));
}

void EnvelopeSupply::Add(std::vector<Envelope> envelopes) {
  const size_t first = slots_.size();
  slots_.insert(slots_.end(), envelopes.begin(), envelopes.end());
  IndexFrom(first);
}

TripSystem TripSystem::Create(const TripSystemParams& params, Rng& rng) {
  TripSystem system(params.storage);
  system.authority_ =
      params.authority_threshold == 0
          ? ElectionAuthority::Create(params.authority_members, rng)
          : ElectionAuthority::CreateThreshold(params.authority_threshold,
                                               params.authority_members, rng);
  system.mac_key_ = rng.RandomBytes(32);

  for (const std::string& voter : params.roster) {
    system.ledger_.AddEligibleVoter(voter);
  }

  for (size_t i = 0; i < params.kiosks; ++i) {
    auto kiosk = std::make_unique<Kiosk>(SchnorrKeyPair::Generate(rng), system.mac_key_,
                                         system.authority_.public_key());
    system.kiosk_keys_.insert(kiosk->public_key());
    system.kiosks_.push_back(std::move(kiosk));
  }
  for (size_t i = 0; i < params.officials; ++i) {
    Official official(SchnorrKeyPair::Generate(rng), system.mac_key_);
    system.official_keys_.insert(official.public_key());
    system.officials_.push_back(std::move(official));
  }

  // Envelope issuance: n_E > c·|V| + λ_E·|K| (§E.2).
  size_t n_envelopes = params.envelopes_per_voter * params.roster.size() +
                       params.booth_min_envelopes * std::max<size_t>(params.kiosks, 1);
  std::vector<Envelope> stock;
  for (size_t i = 0; i < params.envelope_printers; ++i) {
    EnvelopePrinter printer(SchnorrKeyPair::Generate(rng));
    system.printer_keys_.insert(printer.public_key());
    size_t share = n_envelopes / params.envelope_printers +
                   (i < n_envelopes % params.envelope_printers ? 1 : 0);
    auto batch = printer.IssueBatch(share, system.ledger_, rng);
    for (auto& e : batch) {
      stock.push_back(std::move(e));
    }
    system.printers_.push_back(std::move(printer));
  }
  system.booth_envelopes_ = EnvelopeSupply(std::move(stock));
  return system;
}

Vsd TripSystem::MakeVsd() const {
  return Vsd(authority_.public_key(), printer_keys_);
}

void TripSystem::ReplaceKiosk(size_t i, std::unique_ptr<Kiosk> kiosk) {
  Require(i < kiosks_.size(), "TripSystem::ReplaceKiosk: index out of range");
  kiosk_keys_.erase(kiosks_[i]->public_key());
  kiosk_keys_.insert(kiosk->public_key());
  kiosks_[i] = std::move(kiosk);
}

size_t TripSystem::AddKiosk(std::unique_ptr<Kiosk> kiosk) {
  kiosk_keys_.insert(kiosk->public_key());
  kiosks_.push_back(std::move(kiosk));
  return kiosks_.size() - 1;
}

}  // namespace votegral
