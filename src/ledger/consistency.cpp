#include "src/ledger/consistency.h"

#include <bit>

#include "src/common/serde.h"

namespace votegral {

namespace {

constexpr LedgerHash kZeroHash = {};

// Largest power of two strictly below `size` (size >= 2) — the RFC 6962
// split point, identical to the commitment tree's.
uint64_t SplitPoint(uint64_t size) {
  uint64_t split = 1;
  while (split * 2 < size) {
    split *= 2;
  }
  return split;
}

// SUBPROOF(old, [lo, hi), complete) from RFC 6962 §2.1.2, with `old` kept as
// an absolute leaf count. Invariant: lo < old <= hi. `complete` is true while
// the old tree is a full prefix of every range visited so far (its root is
// known to the verifier and omitted from the proof).
void SubProof(const MerkleCommitmentTree& tree, uint64_t old_size, uint64_t lo,
              uint64_t hi, bool complete, std::vector<LedgerHash>* path) {
  if (old_size == hi) {
    if (!complete) {
      path->push_back(tree.RangeHash(lo, hi));
    }
    return;
  }
  const uint64_t mid = lo + SplitPoint(hi - lo);
  if (old_size <= mid) {
    SubProof(tree, old_size, lo, mid, complete, path);
    path->push_back(tree.RangeHash(mid, hi));
  } else {
    SubProof(tree, old_size, mid, hi, false, path);
    path->push_back(tree.RangeHash(lo, mid));
  }
}

Status Invalid(std::string reason) {
  return Status::Error(StatusCode::kInvalidProof, std::move(reason));
}

}  // namespace

Bytes ConsistencyProof::Serialize() const {
  ByteWriter w;
  w.U64(old_size);
  w.U64(new_size);
  w.U32(static_cast<uint32_t>(path.size()));
  for (const LedgerHash& node : path) {
    w.Fixed(node);
  }
  return w.Take();
}

Outcome<ConsistencyProof> ConsistencyProof::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "consistency proof");
  ConsistencyProof proof;
  proof.old_size = r.U64();
  proof.new_size = r.U64();
  const uint32_t count = r.U32();
  // A valid proof carries at most ~2 log2(new_size) nodes; anything past 64
  // levels per side is structurally impossible and rejected before the
  // allocation it asks for.
  if (r.Check(count <= 128, "implausible node count", StatusCode::kInvalidProof)) {
    proof.path.resize(count);
  }
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    r.Fixed(proof.path[i]);
  }
  return r.Finish(std::move(proof));
}

Outcome<ConsistencyProof> ProveConsistency(const MerkleCommitmentTree& tree,
                                           uint64_t old_size, uint64_t new_size) {
  using Out = Outcome<ConsistencyProof>;
  if (new_size < old_size) {
    return Out::Fail("consistency proof: new size " + std::to_string(new_size) +
                     " smaller than old size " + std::to_string(old_size));
  }
  if (new_size > tree.size()) {
    return Out::Fail("consistency proof: new size " + std::to_string(new_size) +
                     " beyond tree size " + std::to_string(tree.size()));
  }
  ConsistencyProof proof;
  proof.old_size = old_size;
  proof.new_size = new_size;
  if (old_size != 0 && old_size != new_size) {
    SubProof(tree, old_size, 0, new_size, /*complete=*/true, &proof.path);
  }
  return Out::Ok(std::move(proof));
}

Status VerifyConsistency(const LedgerHash& old_root, const LedgerHash& new_root,
                         const ConsistencyProof& proof) {
  const uint64_t m = proof.old_size;
  const uint64_t n = proof.new_size;
  if (n < m) {
    return Invalid("consistency proof: tree shrank (" + std::to_string(m) + " -> " +
                   std::to_string(n) + ")");
  }
  if (m == n) {
    if (!proof.path.empty()) {
      return Invalid("consistency proof: non-empty path for equal sizes");
    }
    if (old_root != new_root) {
      return Invalid("consistency proof: roots differ at equal size " +
                     std::to_string(n));
    }
    return Status::Ok();
  }
  if (m == 0) {
    if (!proof.path.empty()) {
      return Invalid("consistency proof: non-empty path from the empty tree");
    }
    if (old_root != kZeroHash) {
      return Invalid("consistency proof: old root of an empty tree must be zero");
    }
    return Status::Ok();
  }

  // 0 < m < n. Recombine both roots from the node list (the iterative form of
  // RFC 6962 §2.1.4.2): walk up from the last old leaf (index m-1) inside the
  // new tree of n leaves. `inner` levels lie below the node where the paths
  // to leaf m-1 in the two trees diverge; above that the old path hangs off
  // the new tree's left border.
  const uint64_t last = m - 1;
  uint64_t inner = static_cast<uint64_t>(std::bit_width(last ^ (n - 1)));
  const uint64_t border = static_cast<uint64_t>(std::popcount(last >> inner));
  const uint64_t shift = static_cast<uint64_t>(std::countr_zero(m));
  inner -= shift;  // the old tree's complete subtree of 2^shift leaves needs no nodes

  // When m is a power of two the old root itself is a node of the new tree
  // and seeds the recombination; otherwise the first proof node does.
  size_t start = 0;
  LedgerHash seed;
  if (m == (uint64_t{1} << shift)) {
    seed = old_root;
  } else {
    if (proof.path.empty()) {
      return Invalid("consistency proof: empty path");
    }
    seed = proof.path[0];
    start = 1;
  }
  if (proof.path.size() != start + inner + border) {
    return Invalid("consistency proof: path holds " +
                   std::to_string(proof.path.size()) + " nodes, expected " +
                   std::to_string(start + inner + border));
  }
  const uint64_t mask = last >> shift;  // leaf position within the seed subtree's level

  // Old root: only the levels where leaf m-1 is a right child contribute
  // (left siblings), then the left-border chain.
  LedgerHash acc = seed;
  for (uint64_t i = 0; i < inner; ++i) {
    if ((mask >> i) & 1) {
      acc = MerkleCommitmentTree::HashInternal(proof.path[start + i], acc);
    }
  }
  for (uint64_t i = 0; i < border; ++i) {
    acc = MerkleCommitmentTree::HashInternal(proof.path[start + inner + i], acc);
  }
  if (acc != old_root) {
    return Invalid("consistency proof: old root does not recombine (size " +
                   std::to_string(m) + ")");
  }

  // New root: every inner level contributes, with the mask giving the side.
  acc = seed;
  for (uint64_t i = 0; i < inner; ++i) {
    if ((mask >> i) & 1) {
      acc = MerkleCommitmentTree::HashInternal(proof.path[start + i], acc);
    } else {
      acc = MerkleCommitmentTree::HashInternal(acc, proof.path[start + i]);
    }
  }
  for (uint64_t i = 0; i < border; ++i) {
    acc = MerkleCommitmentTree::HashInternal(proof.path[start + inner + i], acc);
  }
  if (acc != new_root) {
    return Invalid("consistency proof: new root does not recombine (size " +
                   std::to_string(n) + ")");
  }
  return Status::Ok();
}

}  // namespace votegral
