#include "src/votegral/mixnet.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/common/bytes.h"
#include "src/common/mapped.h"
#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/crypto/msm.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

constexpr std::string_view kChallengeDomain = "votegral/mixnet/rpc-challenge/v1";
constexpr std::string_view kLinkWeightDomain = "votegral/mixnet/link-rlc-weights/v1";

// Applies a re-encryption with the given per-ciphertext randomness.
MixItem ReEncryptItem(const MixItem& item, const RistrettoPoint& pk,
                      const std::vector<Scalar>& randomness) {
  Require(item.cts.size() == randomness.size(), "mixnet: randomness width mismatch");
  MixItem out;
  out.cts.reserve(item.cts.size());
  for (size_t c = 0; c < item.cts.size(); ++c) {
    out.cts.push_back(item.cts[c].ReRandomize(pk, randomness[c]));
  }
  return out;
}

Bytes SerializeItem(const MixItem& item) {
  Bytes wire;
  wire.reserve(64 * item.cts.size());
  for (const ElGamalCiphertext& ct : item.cts) {
    Bytes part = ct.Serialize();
    wire.insert(wire.end(), part.begin(), part.end());
  }
  return wire;
}

// Derives one challenge bit per middle index from the pair's commitment
// hashes. Batch hashes are passed in rather than recomputed; with wire
// caches each batch is serialized exactly once, in parallel, by whoever
// produced or validated it.
std::vector<uint8_t> DeriveChallengeBits(const std::array<uint8_t, 32>& h_in,
                                         const std::array<uint8_t, 32>& h_mid,
                                         const std::array<uint8_t, 32>& h_out,
                                         size_t mid_size, size_t pair_index) {
  uint8_t index_byte = static_cast<uint8_t>(pair_index);
  auto seed = Sha512::HashParts({AsBytes(kChallengeDomain), h_in, h_mid, h_out,
                                 {&index_byte, 1}});
  ChaChaRng bit_source(seed);
  std::vector<uint8_t> bits(mid_size);
  for (auto& bit : bits) {
    bit = static_cast<uint8_t>(bit_source.Uniform(2));
  }
  return bits;
}

}  // namespace

const Bytes& MixItem::EnsureWire() {
  if (wire.size() != 64 * cts.size()) {
    wire = SerializeItem(*this);
  }
  return wire;
}

std::array<uint8_t, 32> HashMixBatch(const MixBatch& batch) {
  Sha256 h;
  uint8_t width = batch.empty() ? 0 : static_cast<uint8_t>(batch[0].cts.size());
  h.Update({&width, 1});
  for (const MixItem& item : batch) {
    h.Update(item.wire);
  }
  return h.Finalize();
}

void EnsureWireCache(MixBatch& batch, Executor& executor) {
  executor.ParallelForEach(batch.size(), [&](size_t i) { batch[i].EnsureWire(); });
}

std::vector<ElGamalCiphertext> BatchColumn(const MixBatch& batch, size_t column) {
  std::vector<ElGamalCiphertext> out;
  out.reserve(batch.size());
  for (const MixItem& item : batch) {
    out.push_back(item.cts.at(column));
  }
  return out;
}

std::vector<ElGamalWire> BatchColumnWire(const MixBatch& batch, size_t column) {
  std::vector<ElGamalWire> out;
  out.reserve(batch.size());
  for (const MixItem& item : batch) {
    Require(column < item.cts.size() && item.wire.size() == 64 * item.cts.size(),
            "mixnet: column out of range or item without its bytes");
    ElGamalWire wire;
    std::copy(item.wire.begin() + static_cast<ptrdiff_t>(64 * column),
              item.wire.begin() + static_cast<ptrdiff_t>(64 * (column + 1)), wire.begin());
    out.push_back(wire);
  }
  return out;
}

void MixServer::Prepare(size_t n, Rng& rng) {
  source_.resize(n);
  dest_.resize(n);
  randomness_.assign(n, {});

  // Fisher-Yates permutation: source_[j] = which input lands at output j.
  // Drawn sequentially from the parent stream, like the per-shard seeds
  // forked right after, so the server's transcript never depends on
  // scheduling.
  std::vector<uint64_t> perm(n);
  for (size_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  for (size_t i = n; i > 1; --i) {
    size_t j = rng.Uniform(i);
    std::swap(perm[i - 1], perm[j]);
  }
  for (size_t j = 0; j < n; ++j) {
    source_[j] = perm[j];
    dest_[perm[j]] = j;
  }
}

void MixServer::ShuffleShardRange(const MixBatch& input, const RistrettoPoint& pk,
                                  size_t begin, size_t end, Rng& child, MixBatch& output) {
  Require(end <= source_.size() && output.size() == source_.size(),
          "mixnet: shard range outside prepared layer");
  // The shard's randomness in (item, component) order, then one batched r*B,
  // one batched r*pk and one batched encode of the re-encrypted points: the
  // same ciphertexts and bytes as ReEncryptItem and EnsureWire item by item.
  std::vector<Scalar> r;
  for (size_t j = begin; j < end; ++j) {
    for (size_t c = 0; c < input[source_[j]].cts.size(); ++c) {
      r.push_back(Scalar::Random(child));
    }
  }
  std::vector<RistrettoPoint> r_base(r.size());
  std::vector<RistrettoPoint> r_pk(r.size());
  RistrettoPoint::MulEach(RistrettoPoint::Base(), r, r_base);
  RistrettoPoint::MulEach(pk, r, r_pk);
  std::vector<RistrettoPoint> points;  // c1, c2 of each output ciphertext
  points.reserve(2 * r.size());
  for (size_t j = begin, k = 0; j < end; ++j) {
    for (const ElGamalCiphertext& ct : input[source_[j]].cts) {
      points.push_back(ct.c1 + r_base[k]);
      points.push_back(ct.c2 + r_pk[k++]);
    }
  }
  std::vector<CompressedRistretto> wire(points.size());
  {
    Executor::Scope serial(Executor::Serial());  // the shard is the unit of parallelism
    BatchEncodePoints(points, wire);
  }
  for (size_t j = begin, k = 0; j < end; ++j) {
    const size_t width = input[source_[j]].cts.size();
    MixItem& item = output[j];
    item.cts.resize(width);
    item.wire.resize(64 * width);
    for (size_t c = 0; c < width; ++c, ++k) {
      item.cts[c] = {points[2 * k], points[2 * k + 1]};
      for (size_t half = 0; half < 2; ++half) {
        std::copy(wire[2 * k + half].begin(), wire[2 * k + half].end(),
                  item.wire.begin() + static_cast<ptrdiff_t>(64 * c + 32 * half));
      }
    }
    randomness_[j].assign(r.begin() + static_cast<ptrdiff_t>(k - width),
                          r.begin() + static_cast<ptrdiff_t>(k));
  }
}

RpcReveal MixServer::RevealLinkForOutput(uint64_t output_index) const {
  Require(output_index < source_.size(), "mixnet: reveal index out of range");
  RpcReveal reveal;
  reveal.side = 0;
  reveal.source_or_dest = source_[output_index];
  reveal.randomness = randomness_[output_index];
  return reveal;
}

RpcReveal MixServer::RevealLinkForInput(uint64_t input_index) const {
  Require(input_index < dest_.size(), "mixnet: reveal index out of range");
  RpcReveal reveal;
  reveal.side = 1;
  reveal.source_or_dest = dest_[input_index];
  reveal.randomness = randomness_[dest_[input_index]];
  return reveal;
}

void FinishRpcPair(const MixServer& layer_a, const MixServer& layer_b,
                   const std::array<uint8_t, 32>& h_in, size_t pair_index,
                   RpcPairProof* pair, std::array<uint8_t, 32>* h_out_chain) {
  std::array<uint8_t, 32> h_mid = HashMixBatch(pair->mid);
  std::array<uint8_t, 32> h_out = HashMixBatch(pair->out);
  std::vector<uint8_t> bits =
      DeriveChallengeBits(h_in, h_mid, h_out, pair->mid.size(), pair_index);
  pair->reveals.resize(pair->mid.size());
  for (size_t j = 0; j < pair->mid.size(); ++j) {
    pair->reveals[j] =
        bits[j] == 0 ? layer_a.RevealLinkForOutput(j) : layer_b.RevealLinkForInput(j);
  }
  *h_out_chain = h_out;
}

MixBatch RunRpcMixCascade(const MixBatch& input, const RistrettoPoint& pk, size_t pair_count,
                          Rng& rng, MixProof* proof, Executor& executor) {
  Require(pair_count >= 1, "mixnet: need at least one pair");
  Require(proof != nullptr, "mixnet: proof output required");
  Executor::Scope scope(executor);  // nested crypto kernels follow this pool
  proof->pairs.clear();
  MixBatch current = input;
  EnsureWireCache(current, executor);  // one parallel encode; hashes are SHA-only after
  std::array<uint8_t, 32> h_current = HashMixBatch(current);
  // One layer: its permutation, then one forked seed per shard, both drawn
  // from `rng`; the re-encryption (two scalar multiplications plus one
  // canonical encoding per ciphertext component) then fans out by shard.
  const auto shards = Executor::Shards(current.size(), Executor::kRngShards);
  auto shuffle = [&](MixServer& layer, const MixBatch& in) {
    layer.Prepare(in.size(), rng);
    const auto seeds = ForkRngSeeds(rng, shards.size());
    MixBatch out(in.size());
    executor.ParallelForEach(shards.size(), [&](size_t s) {
      ChaChaRng child(seeds[s]);
      layer.ShuffleShardRange(in, pk, shards[s].first, shards[s].second, child, out);
    });
    return out;
  };
  for (size_t p = 0; p < pair_count; ++p) {
    MixServer layer_a;
    MixServer layer_b;
    RpcPairProof pair;
    pair.mid = shuffle(layer_a, current);
    pair.out = shuffle(layer_b, pair.mid);
    FinishRpcPair(layer_a, layer_b, h_current, p, &pair, &h_current);
    current = pair.out;
    proof->pairs.push_back(std::move(pair));
  }
  return current;
}

namespace {

// One structurally validated opened link of a pair: dst must be a
// re-encryption of src under `randomness`.
struct ResolvedLink {
  const MixItem* src = nullptr;
  const MixItem* dst = nullptr;
  const std::vector<Scalar>* randomness = nullptr;
  size_t mid_index = 0;  // for error messages
  uint8_t side = 0;
};

// Exact per-link re-encryption check (the pre-MSM path); names the first
// offending link. Checks run on the pool; "first" is by position in `links`
// (middle-index order), so the report is deterministic.
Status CheckLinksPerItem(std::span<const ResolvedLink> links, const RistrettoPoint& pk,
                         size_t pair_index, Executor& executor) {
  if (auto i = ParallelFirstFailure(executor, links.size(), [&](size_t i) {
        const ResolvedLink& link = links[i];
        return ReEncryptItem(*link.src, pk, *link.randomness) == *link.dst;
      });
      i.has_value()) {
    const ResolvedLink& link = links[*i];
    return Status::Error(std::string("mixnet: ") + (link.side == 0 ? "left" : "right") +
                         " re-encryption check failed at pair " +
                         std::to_string(pair_index) + " index " +
                         std::to_string(link.mid_index));
  }
  return Status::Ok();
}

// Batched check: every link equation
//   dst.c1 - src.c1 - r*B == 0   and   dst.c2 - src.c2 - r*pk == 0
// is weighted by an independent 128-bit scalar and folded into one flat
// multi-scalar multiplication that must be the identity. The weight seed
// must bind the *entire* pair transcript — committed batches AND the
// reveals themselves — so that a cheating mixer cannot first learn the
// weights and then solve for reveal randomness that cancels a tamper (the
// reveals are published after the commitments, so a seed over commitments
// alone would be known to the mixer while the randomness values are still
// free variables). On rejection the per-link path localizes the error.
//
// Weights are pre-drawn sequentially (the stream a serial verifier sees);
// the per-component difference points and weighted scalars are then written
// positionally by shard, with each shard folding partial coefficients of B
// and pk that are merged in shard order.
Status CheckLinksBatched(std::span<const ResolvedLink> links, const RistrettoPoint& pk,
                         size_t pair_index, std::span<const uint8_t> weight_seed,
                         Executor& executor) {
  // The cascade's shape check gave every src and dst the same width.
  std::vector<size_t> offset(links.size() + 1, 0);  // component offsets
  for (size_t i = 0; i < links.size(); ++i) {
    offset[i + 1] = offset[i] + links[i].src->cts.size();
  }
  const size_t components = offset[links.size()];
  ChaChaRng weight_rng(weight_seed);
  std::vector<Scalar> w1(components);
  std::vector<Scalar> w2(components);
  for (size_t c = 0; c < components; ++c) {
    w1[c] = RandomRlcWeight(weight_rng);
    w2[c] = RandomRlcWeight(weight_rng);
  }

  MappedVector<Scalar> scalars(2 * components + 1);
  MappedVector<RistrettoPoint> points(2 * components + 1);
  auto shards = Executor::Shards(links.size(), Executor::kRngShards);
  struct Partial {
    Scalar base_acc = Scalar::Zero();  // accumulated coefficient of B
    Scalar pk_acc = Scalar::Zero();    // accumulated coefficient of pk
  };
  std::vector<Partial> partials = executor.ParallelMap<Partial>(
      shards.size(), [&](size_t s) {
        Partial acc;
        for (size_t i = shards[s].first; i < shards[s].second; ++i) {
          const ResolvedLink& link = links[i];
          for (size_t c = 0; c < link.src->cts.size(); ++c) {
            const ElGamalCiphertext& src = link.src->cts[c];
            const ElGamalCiphertext& dst = link.dst->cts[c];
            const Scalar& r = (*link.randomness)[c];
            size_t at = offset[i] + c;
            scalars[2 * at] = w1[at];
            points[2 * at] = dst.c1 - src.c1;
            scalars[2 * at + 1] = w2[at];
            points[2 * at + 1] = dst.c2 - src.c2;
            acc.base_acc = acc.base_acc + w1[at] * r;
            acc.pk_acc = acc.pk_acc + w2[at] * r;
          }
        }
        return acc;
      });
  Scalar base_acc = Scalar::Zero();
  Scalar pk_acc = Scalar::Zero();
  for (const Partial& p : partials) {
    base_acc = base_acc + p.base_acc;
    pk_acc = pk_acc + p.pk_acc;
  }
  scalars[2 * components] = -pk_acc;
  points[2 * components] = pk;
  if (MultiScalarMulWithBase(-base_acc, scalars, points).IsIdentity()) {
    return Status::Ok();
  }
  // Re-run link by link so auditors get the exact failing index.
  Status localized = CheckLinksPerItem(links, pk, pair_index, executor);
  if (!localized.ok()) {
    return localized;
  }
  return Status::Error("mixnet: batched link check failed at pair " +
                       std::to_string(pair_index));
}

// The shape every batch of one cascade must have: the input's item count,
// and the input's width in every item.
struct BatchShape {
  size_t count = 0;
  size_t width = 0;
};

Status CheckBatchShape(const MixBatch& batch, const BatchShape& shape, const std::string& what) {
  if (batch.size() != shape.count) {
    return Status::Error("mixnet: " + what + " has " + std::to_string(batch.size()) +
                         " items, expected " + std::to_string(shape.count));
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].cts.size() != shape.width) {
      return Status::Error("mixnet: " + what + " item " + std::to_string(i) + " has width " +
                           std::to_string(batch[i].cts.size()) + ", expected " +
                           std::to_string(shape.width));
    }
  }
  return Status::Ok();
}

// Verifier-grade batch hash. The batch must first have the cascade's shape:
// the hash runs the items' bytes together, so it binds item boundaries only
// because every batch has the same count and width. An item's bytes are
// attacker-supplied, so before they may bind challenge bits they are checked
// against the item's ciphertexts. The check is one BatchValidateEncodings
// accumulator pass over every (point, 32-byte slice) pair: a slice passes
// iff it is the canonical encoding of its point (ristretto encodings are
// unique, so this is exactly a parse-and-compare), at ~8 field
// multiplications per pair instead of a decode's inverse square root. An
// item whose bytes are missing, mismatched or malformed is a verification
// failure — otherwise a cheating mixer could grind the hashed bytes
// independently of the checked group elements to steer the per-item
// challenge bits.
Status ValidatedBatchHash(const MixBatch& batch, const BatchShape& shape, Executor& executor,
                          const std::string& what, std::array<uint8_t, 32>* out) {
  if (Status s = CheckBatchShape(batch, shape, what); !s.ok()) {
    return s;
  }
  // Every item's (point, wire-slice) pairs, flat at fixed offsets so the
  // fill can run on the pool. An item without its bytes keeps the identity
  // and the all-zero encoding in its slots and is marked bad.
  const size_t pairs = 2 * shape.width;
  std::vector<uint8_t> bad(batch.size(), 0);
  MappedVector<RistrettoPoint> points(pairs * batch.size());
  MappedVector<CompressedRistretto> bytes(pairs * batch.size());
  executor.ParallelForEach(batch.size(), [&](size_t i) {
    const MixItem& item = batch[i];
    if (item.wire.size() != 64 * shape.width) {
      bad[i] = 1;
      return;
    }
    for (size_t c = 0; c < shape.width; ++c) {
      const size_t at = pairs * i + 2 * c;
      points[at] = item.cts[c].c1;
      points[at + 1] = item.cts[c].c2;
      std::memcpy(bytes[at].data(), item.wire.data() + 64 * c, 32);
      std::memcpy(bytes[at + 1].data(), item.wire.data() + 64 * c + 32, 32);
    }
  });
  std::vector<uint8_t> pair_ok(points.size(), 0);
  if (BatchValidateEncodings(points, bytes, pair_ok) != 0) {
    for (size_t k = 0; k < pair_ok.size(); ++k) {
      bad[k / pairs] |= pair_ok[k] == 0 ? 1 : 0;
    }
  }
  if (auto i = FirstMarked(bad); i.has_value()) {
    return Status::Error("mixnet: " + what + ": wire cache does not match points at index " +
                         std::to_string(*i));
  }
  *out = HashMixBatch(batch);
  return Status::Ok();
}

}  // namespace

Status VerifyRpcMixCascade(const MixBatch& input, const MixBatch& output,
                           const MixProof& proof, const RistrettoPoint& pk,
                           MixLinkCheck mode, Executor& executor) {
  Executor::Scope scope(executor);  // nested crypto kernels follow this pool
  if (proof.pairs.empty()) {
    return Status::Error("mixnet: empty proof");
  }
  const BatchShape shape{input.size(), input.empty() ? 0 : input[0].cts.size()};
  if (shape.count != 0 && shape.width == 0) {
    return Status::Error("mixnet: input item 0 has width 0");
  }
  const MixBatch* current = &input;
  std::array<uint8_t, 32> h_current;
  if (Status s = ValidatedBatchHash(input, shape, executor, "input", &h_current); !s.ok()) {
    return s;
  }
  for (size_t p = 0; p < proof.pairs.size(); ++p) {
    const RpcPairProof& pair = proof.pairs[p];
    std::array<uint8_t, 32> h_mid;
    std::array<uint8_t, 32> h_out;
    std::string pair_name = "pair " + std::to_string(p);
    if (Status s = ValidatedBatchHash(pair.mid, shape, executor, pair_name + " mid", &h_mid);
        !s.ok()) {
      return s;
    }
    if (Status s = ValidatedBatchHash(pair.out, shape, executor, pair_name + " out", &h_out);
        !s.ok()) {
      return s;
    }
    std::vector<uint8_t> bits =
        DeriveChallengeBits(h_current, h_mid, h_out, pair.mid.size(), p);
    if (pair.reveals.size() != pair.mid.size()) {
      return Status::Error("mixnet: reveal count mismatch in pair " + std::to_string(p));
    }
    // Injectivity tracking: each revealed source (left) and destination
    // (right) may be used at most once.
    std::vector<bool> left_used(current->size(), false);
    std::vector<bool> right_used(current->size(), false);
    std::vector<ResolvedLink> links;
    links.reserve(pair.mid.size());
    for (size_t j = 0; j < pair.mid.size(); ++j) {
      const RpcReveal& reveal = pair.reveals[j];
      if (reveal.side != bits[j]) {
        return Status::Error("mixnet: reveal side does not match challenge bit");
      }
      if (reveal.source_or_dest >= current->size()) {
        return Status::Error("mixnet: reveal index out of range");
      }
      // Proof data with the wrong randomness width is a verification
      // failure (a Status), not an internal invariant violation: the
      // reveal is attacker-supplied.
      if (reveal.randomness.size() != shape.width) {
        return Status::Error("mixnet: reveal randomness width mismatch at pair " +
                             std::to_string(p) + " index " + std::to_string(j));
      }
      ResolvedLink link;
      link.mid_index = j;
      link.side = reveal.side;
      link.randomness = &reveal.randomness;
      if (reveal.side == 0) {
        // mid[j] must be a re-encryption of input[source].
        if (left_used[reveal.source_or_dest]) {
          return Status::Error("mixnet: duplicate left link (not a permutation)");
        }
        left_used[reveal.source_or_dest] = true;
        link.src = &(*current)[reveal.source_or_dest];
        link.dst = &pair.mid[j];
      } else {
        // out[dest] must be a re-encryption of mid[j].
        if (right_used[reveal.source_or_dest]) {
          return Status::Error("mixnet: duplicate right link (not a permutation)");
        }
        right_used[reveal.source_or_dest] = true;
        link.src = &pair.mid[j];
        link.dst = &pair.out[reveal.source_or_dest];
      }
      links.push_back(link);
    }
    Status link_status = Status::Ok();
    if (mode == MixLinkCheck::kBatchedMsm) {
      // Weight seed binds the committed batches (hashes reused, not
      // recomputed), the pair index, AND every reveal. Binding the reveals
      // is load-bearing: they are published after the commitments, so
      // weights derived from commitments alone would be predictable to the
      // mixer while its reveal randomness is still a free variable.
      Sha512 seed_hash;
      seed_hash.Update(AsBytes(kLinkWeightDomain));
      seed_hash.Update(h_current);
      seed_hash.Update(h_mid);
      seed_hash.Update(h_out);
      uint8_t index_byte = static_cast<uint8_t>(p);
      seed_hash.Update({&index_byte, 1});
      for (const RpcReveal& reveal : pair.reveals) {
        uint8_t side = reveal.side;
        seed_hash.Update({&side, 1});
        uint8_t index_bytes[8];
        StoreLe64(index_bytes, reveal.source_or_dest);
        seed_hash.Update(index_bytes);
        for (const Scalar& r : reveal.randomness) {
          seed_hash.Update(r.ToBytes());
        }
      }
      auto seed = seed_hash.Finalize();
      link_status = CheckLinksBatched(links, pk, p, seed, executor);
    } else {
      link_status = CheckLinksPerItem(links, pk, p, executor);
    }
    if (!link_status.ok()) {
      return link_status;
    }
    current = &pair.out;
    h_current = h_out;
  }
  std::array<uint8_t, 32> h_output;
  if (Status s = ValidatedBatchHash(output, shape, executor, "published output", &h_output);
      !s.ok()) {
    return s;
  }
  if (!(h_current == h_output)) {
    return Status::Error("mixnet: final batch does not match published output");
  }
  return Status::Ok();
}

}  // namespace votegral
