// Append-only, tamper-evident public ledger (the paper's L, §D.1), modeled
// after hash-chained tamper-evident logs [Crosby & Wallach] — now layered
// over a pluggable storage backend so the same contract holds whether the
// log lives in memory or as a file-backed segmented log larger than RAM.
//
// Layering:
//  * LedgerStore (src/ledger/store.h) persists raw, fully-hashed entries in
//    fixed-capacity segments. Backends: InMemoryLedgerStore and the
//    crash-recovering FileLedgerStore.
//  * Ledger (this file) is the integrity facade: it computes the SHA-256
//    hash chain on Append, maintains the per-topic index and the incremental
//    Merkle commitment tree (src/ledger/merkle.h), and answers commitment
//    queries without touching stored payloads:
//      - Head() is O(1) (cached chain head),
//      - MerkleRoot() is O(log n) hashes off the append-time frontier,
//      - ProveInclusion() is O(log^2 n) hashes and reads no segments.
//  * LedgerCursor/TopicCursor (src/ledger/cursor.h) are the read path:
//    forward streams and seeks that keep at most one segment pinned.
//    Random-access reads went away with the PR-3 cursor migration; code
//    scans (the only path that bounds resident payload memory).
//
// The paper idealizes the ledger as globally consistent with detectable
// tampering; VerifyChain() re-derives every entry hash by streaming the
// segments, and Merkle inclusion proofs let light clients (VSDs) check
// membership without holding the full log. Verification failures are Status
// values (docs/ROBUSTNESS.md §Status codes): a forged proof, an out-of-range
// proof index or a broken chain each yield a descriptive, localized reason,
// never UB.
#ifndef SRC_LEDGER_LEDGER_H_
#define SRC_LEDGER_LEDGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/outcome.h"
#include "src/common/status.h"
#include "src/crypto/sha256.h"
#include "src/ledger/consistency.h"
#include "src/ledger/cursor.h"
#include "src/ledger/merkle.h"
#include "src/ledger/store.h"

namespace votegral {

// Merkle inclusion proof for one entry against a root.
struct InclusionProof {
  uint64_t index = 0;
  uint64_t tree_size = 0;
  std::vector<LedgerHash> path;  // sibling hashes, leaf to root
};

// The append-only log. Move-only (it owns its storage backend).
class Ledger {
 public:
  // In-memory backend with default segment geometry.
  Ledger();
  // Fresh (empty) backend per `config`; throws ProtocolError when the file
  // backend's directory already holds entries — recovery is Open()'s job.
  explicit Ledger(const LedgerStorageConfig& config);
  // Takes ownership of an *empty* store.
  explicit Ledger(std::unique_ptr<LedgerStore> store);

  // Attaches a recovered (possibly non-empty) store: streams it once to
  // rebuild the head, Merkle frontier and topic index. Store-side corruption
  // has already been localized by the backend's own Open.
  static Outcome<Ledger> Open(std::unique_ptr<LedgerStore> store);
  static Outcome<Ledger> Open(const LedgerStorageConfig& config);

  Ledger(Ledger&&) = default;
  Ledger& operator=(Ledger&&) = default;

  // Appends a payload under `topic`; returns the new entry's index.
  // Invalidates outstanding cursors over this ledger.
  uint64_t Append(std::string_view topic, Bytes payload);

  // Appends an entry that arrived already hashed (a replica's frame, a
  // snapshot's entry) once it provably extends this ledger: its index is
  // size(), its prev_hash is Head(), and its entry_hash is the hash
  // recomputed from its fields. Verify-then-apply with one hash per entry.
  // A failed check appends nothing and returns kCorrupted naming the entry
  // ("entry 5 recomputed hash mismatch"); callers prefix their own layer.
  Status AppendVerified(LedgerEntry entry);

  size_t size() const { return store_->Size(); }

  // Head commitment: hash of the latest entry (zero hash when empty). O(1).
  LedgerHash Head() const { return head_; }

  // Streams every segment, recomputing the whole hash chain; detects any
  // in-place tampering. O(segment) resident memory.
  Status VerifyChain() const;

  // Merkle root over all entry hashes (RFC 6962-style tree), from the
  // incremental frontier — O(log n) hashes, no segment reads.
  LedgerHash MerkleRoot() const;

  // Historical Merkle root over the first `n` entries (the root a replica
  // that stopped at size n would have computed). O(log n) hashes, no segment
  // reads. Require()s n <= size().
  LedgerHash MerkleRootAt(uint64_t n) const { return merkle_.RootAt(n); }

  // Consistency proof that the first old_size entries are a prefix of the
  // first new_size entries (RFC 6962; see src/ledger/consistency.h). Fails as
  // a value when old_size > new_size or new_size > size(). No segment reads.
  Outcome<ConsistencyProof> ProveConsistency(uint64_t old_size,
                                             uint64_t new_size) const {
    return votegral::ProveConsistency(merkle_, old_size, new_size);
  }

  // Entry hash of leaf `index` from the commitment index (O(1), no segment
  // reads). Require()s index < size().
  const LedgerHash& LeafHash(uint64_t index) const { return merkle_.Leaf(index); }

  // Inclusion proof for entry `index` against the current tree. Fails (as a
  // value) on an empty ledger or index >= size().
  Outcome<InclusionProof> ProveInclusion(uint64_t index) const;

  // Verifies an inclusion proof for `leaf` against `root`.
  static Status VerifyInclusion(const LedgerHash& root, const LedgerHash& leaf,
                                const InclusionProof& proof);

  // --- Streaming read path ---------------------------------------------------

  // Forward cursor over entries [begin, min(end, size())).
  LedgerCursor Scan(uint64_t begin = 0, uint64_t end = LedgerCursor::kEnd) const {
    return LedgerCursor(*store_, begin, end);
  }

  // Cursor over all entries with `topic`, in append order (topic-index
  // driven; pins only segments that hold matching entries).
  TopicCursor ScanTopic(std::string_view topic) const {
    return TopicCursor(*store_, TopicIndices(topic));
  }

  // Indices of all entries with `topic`, maintained at append time (no
  // scan). The reference is invalidated by the next Append.
  const std::vector<uint64_t>& TopicIndices(std::string_view topic) const;

  // The storage backend (segment geometry, backend description, stats).
  const LedgerStore& store() const { return *store_; }

  // Test hook: mutates a stored payload in place, simulating a compromised
  // ledger replica. Production code has no business calling this.
  void TamperWithPayloadForTest(uint64_t index, Bytes new_payload);

  // Internal-hash counter of the commitment tree; tests assert the
  // incremental O(log n) bound per MerkleRoot/ProveInclusion call.
  uint64_t MerkleHashInvocationsForTest() const { return merkle_.hash_invocations(); }

 private:
  // Persists a fully hashed entry that extends the chain, then advances the
  // head, the Merkle frontier and the topic index.
  void Commit(const LedgerEntry& entry);

  std::unique_ptr<LedgerStore> store_;
  MerkleCommitmentTree merkle_;
  LedgerHash head_ = {};
  std::map<std::string, std::vector<uint64_t>, std::less<>> topic_index_;
};

}  // namespace votegral

#endif  // SRC_LEDGER_LEDGER_H_
