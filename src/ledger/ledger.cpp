#include "src/ledger/ledger.h"

namespace votegral {

namespace {

constexpr LedgerHash kZeroHash = {};

}  // namespace

Ledger::Ledger() : store_(std::make_unique<InMemoryLedgerStore>()) {}

Ledger::Ledger(const LedgerStorageConfig& config) : store_(CreateFreshStore(config)) {}

Ledger::Ledger(std::unique_ptr<LedgerStore> store) : store_(std::move(store)) {
  Require(store_ != nullptr, "Ledger: null store");
  Require(store_->Size() == 0, "Ledger: non-empty store needs Ledger::Open");
}

Outcome<Ledger> Ledger::Open(std::unique_ptr<LedgerStore> store) {
  Require(store != nullptr, "Ledger::Open: null store");
  // One streaming pass rebuilds the derived commitments. The store verified
  // hashes on its own open; here we only index them.
  Ledger ledger;
  ledger.store_ = std::move(store);
  LedgerCursor cursor(*ledger.store_);
  LedgerEntryView view;
  while (cursor.Next(&view)) {
    ledger.merkle_.Append(view.entry_hash);
    ledger.topic_index_[std::string(view.topic)].push_back(view.index);
    ledger.head_ = view.entry_hash;
  }
  return Outcome<Ledger>::Ok(std::move(ledger));
}

Outcome<Ledger> Ledger::Open(const LedgerStorageConfig& config) {
  if (config.backend == LedgerStorageConfig::Backend::kMemory) {
    return Outcome<Ledger>::Ok(Ledger(config));
  }
  auto store = FileLedgerStore::Open(config.directory, config.segment_entries);
  if (!store.ok()) {
    return Outcome<Ledger>::Fail(store.status);
  }
  return Open(std::move(*store));
}

uint64_t Ledger::Append(std::string_view topic, Bytes payload) {
  LedgerEntry entry;
  entry.index = store_->Size();
  entry.topic = std::string(topic);
  entry.payload = std::move(payload);
  entry.prev_hash = head_;
  entry.entry_hash = HashLedgerEntry(entry.index, entry.topic, entry.payload,
                                     entry.prev_hash);
  Commit(entry);
  return entry.index;
}

Status Ledger::AppendVerified(LedgerEntry entry) {
  if (entry.index != size()) {
    return Status::Error(StatusCode::kCorrupted,
                         "entry carries index " + std::to_string(entry.index) +
                             ", expected " + std::to_string(size()));
  }
  if (entry.prev_hash != head_) {
    return Status::Error(StatusCode::kCorrupted,
                         "entry " + std::to_string(entry.index) + " chain link mismatch");
  }
  if (HashLedgerEntry(entry.index, entry.topic, entry.payload, entry.prev_hash) !=
      entry.entry_hash) {
    return Status::Error(StatusCode::kCorrupted, "entry " + std::to_string(entry.index) +
                                                     " recomputed hash mismatch");
  }
  Commit(entry);
  return Status::Ok();
}

void Ledger::Commit(const LedgerEntry& entry) {
  // Persist first: if the store throws (disk full), the facade's head,
  // frontier and topic index must not commit to a ghost entry.
  store_->Append(entry);
  head_ = entry.entry_hash;
  merkle_.Append(entry.entry_hash);
  topic_index_[entry.topic].push_back(entry.index);
}

Status Ledger::VerifyChain() const {
  LedgerHash prev = kZeroHash;
  LedgerCursor cursor(*store_);
  LedgerEntryView view;
  while (cursor.Next(&view)) {
    if (view.prev_hash != prev) {
      return Status::Error("ledger: chain break at index " + std::to_string(view.index));
    }
    LedgerHash expected =
        HashLedgerEntry(view.index, view.topic, view.payload, view.prev_hash);
    if (expected != view.entry_hash) {
      return Status::Error("ledger: entry hash mismatch at index " +
                           std::to_string(view.index));
    }
    prev = view.entry_hash;
  }
  if (prev != head_) {
    return Status::Error("ledger: stored chain does not end at the committed head");
  }
  return Status::Ok();
}

LedgerHash Ledger::MerkleRoot() const { return merkle_.Root(); }

Outcome<InclusionProof> Ledger::ProveInclusion(uint64_t index) const {
  if (size() == 0) {
    return Outcome<InclusionProof>::Fail("ledger: cannot prove inclusion in an empty ledger");
  }
  if (index >= size()) {
    return Outcome<InclusionProof>::Fail(
        "ledger: inclusion proof index " + std::to_string(index) +
        " out of range (tree size " + std::to_string(size()) + ")");
  }
  InclusionProof proof;
  proof.index = index;
  proof.tree_size = size();
  merkle_.Path(index, &proof.path);
  return Outcome<InclusionProof>::Ok(std::move(proof));
}

Status Ledger::VerifyInclusion(const LedgerHash& root, const LedgerHash& leaf,
                               const InclusionProof& proof) {
  if (proof.tree_size == 0) {
    return Status::Error("ledger: inclusion proof against an empty tree");
  }
  if (proof.index >= proof.tree_size) {
    return Status::Error("ledger: inclusion proof index " + std::to_string(proof.index) +
                         " >= tree size " + std::to_string(proof.tree_size));
  }
  // Recompute the root by walking the path; at each level we must know
  // whether the current node is a left or right child. Replay the split rule
  // top-down to learn the child directions, then fold bottom-up.
  std::vector<bool> is_left_child;  // for each path element, whether sibling is on the right
  uint64_t lo = 0;
  uint64_t hi = proof.tree_size;
  while (hi - lo > 1) {
    uint64_t size = hi - lo;
    uint64_t split = 1;
    while (split * 2 < size) {
      split *= 2;
    }
    if (proof.index < lo + split) {
      is_left_child.push_back(true);
      hi = lo + split;
    } else {
      is_left_child.push_back(false);
      lo = lo + split;
    }
  }
  if (is_left_child.size() != proof.path.size()) {
    return Status::Error("ledger: inclusion proof length mismatch");
  }
  LedgerHash acc = leaf;
  for (size_t level = proof.path.size(); level-- > 0;) {
    // path is leaf-to-root, is_left_child root-to-leaf; align them.
    size_t path_pos = proof.path.size() - 1 - level;
    const LedgerHash& sibling = proof.path[path_pos];
    if (is_left_child[level]) {
      acc = MerkleCommitmentTree::HashInternal(acc, sibling);
    } else {
      acc = MerkleCommitmentTree::HashInternal(sibling, acc);
    }
  }
  if (acc != root) {
    return Status::Error("ledger: inclusion proof does not match root");
  }
  return Status::Ok();
}

const std::vector<uint64_t>& Ledger::TopicIndices(std::string_view topic) const {
  static const std::vector<uint64_t> kEmpty;
  auto it = topic_index_.find(topic);
  return it == topic_index_.end() ? kEmpty : it->second;
}

void Ledger::TamperWithPayloadForTest(uint64_t index, Bytes new_payload) {
  Require(index < size(), "Ledger::TamperWithPayloadForTest: index out of range");
  store_->TamperWithPayloadForTest(index, std::move(new_payload));
}

}  // namespace votegral
