#include "src/crypto/batch.h"

#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/executor.h"
#include "src/crypto/drbg.h"
#include "src/crypto/msm.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

constexpr std::string_view kSignatureBatchWeightDomain = "votegral/schnorr/batch-weights/v1";

// Public keys are canonical ristretto encodings, statistically uniform
// bytes, so the low 8 bytes are already a good hash.
struct WireKeyHash {
  size_t operator()(const CompressedRistretto& key) const {
    return static_cast<size_t>(LoadLe64(key.data()));
  }
};

// Reports the lowest failed entry index, or OK. Per-entry failure flags are
// written positionally by parallel workers, so the report is deterministic.
Status FirstFailure(std::span<const uint8_t> failed, const char* what) {
  if (auto i = FirstMarked(failed); i.has_value()) {
    return Status::Error(std::string(what) + " at entry " + std::to_string(*i));
  }
  return Status::Ok();
}

}  // namespace

Status BatchVerifySchnorr(std::span<const SchnorrBatchEntry> entries, Rng& rng) {
  // Each signature satisfies: R_i + c_i*P_i - s_i*B == 0.
  // Combined: sum_i w_i*R_i + sum_i (w_i*c_i)*P_i - (sum_i w_i*s_i)*B == 0.
  // R_i is the one term unique to its equation, so it carries the 128-bit
  // weight itself (a short scalar costs the MSM about half the additions);
  // the shared terms take the products. All weighted terms are collected
  // into one flat multi-scalar multiplication; the shared-doubling/bucket
  // engine amortizes the group work to a few additions per signature.
  //
  // Everything before the MSM is one pass on the calling thread: each board
  // batch is one shard of a check that already runs inside a graph node or
  // a parallel loop, so fanning its decodes out again only woke idle
  // workers for microseconds of work. Weights are drawn from `rng` up front,
  // sequentially.
  const size_t n = entries.size();
  std::vector<Scalar> weights(n);
  for (Scalar& w : weights) {
    w = RandomRlcWeight(rng);
  }

  // One MSM term per decoded point. A batch over a few signers (the kiosks
  // and officials of a board shard) repeats its keys, so a key is decoded,
  // and becomes a term, at its first occurrence only, and its weighted
  // challenges are summed into that term in entry order. Each R is a term
  // of its own.
  std::vector<RistrettoPoint> points;
  std::vector<Scalar> scalars;
  points.reserve(2 * n);
  scalars.reserve(2 * n);
  std::unordered_map<CompressedRistretto, size_t, WireKeyHash> key_term;
  Scalar combined_s = Scalar::Zero();
  auto push_decoded = [&](const CompressedRistretto& bytes, const Scalar& scalar) {
    std::optional<RistrettoPoint> point = RistrettoPoint::Decode(bytes);
    if (point.has_value()) {
      points.push_back(*point);
      scalars.push_back(scalar);
    }
    return point.has_value();
  };
  for (size_t i = 0; i < n; ++i) {
    const SchnorrBatchEntry& entry = entries[i];
    auto [key, inserted] = key_term.try_emplace(entry.public_key, points.size());
    if ((inserted && !push_decoded(entry.public_key, Scalar::Zero())) ||
        !push_decoded(entry.signature.r_bytes, weights[i])) {
      return Status::Error("batch-schnorr: undecodable point at entry " + std::to_string(i));
    }
    const Scalar challenge =
        SchnorrChallenge(entry.signature.r_bytes, entry.public_key, entry.message);
    scalars[key->second] = scalars[key->second] + weights[i] * challenge;
    combined_s = combined_s + weights[i] * entry.signature.s;
  }
  if (!MultiScalarMulWithBase(-combined_s, scalars, points).IsIdentity()) {
    return Status::Error("batch-schnorr: combined verification equation failed");
  }
  return Status::Ok();
}

std::array<uint8_t, 64> SchnorrBatchWeightSeed(std::string_view domain,
                                               std::span<const SchnorrBatchEntry> entries) {
  Sha512 h;
  h.Update(AsBytes(domain));
  for (const SchnorrBatchEntry& entry : entries) {
    std::array<uint8_t, 8> length;
    StoreLe64(length.data(), entry.message.size());
    h.Update(entry.public_key);
    h.Update(length);
    h.Update(entry.message);
    h.Update(entry.signature.r_bytes);
    h.Update(entry.signature.s.ToBytes());
  }
  return h.Finalize();
}

void VerifySchnorrGroups(std::span<const SchnorrBatchEntry> entries,
                         std::span<const size_t> group_end, std::span<uint8_t> bad) {
  const size_t groups = group_end.size();
  Require(bad.size() == groups && (groups == 0 ? entries.empty()
                                               : group_end.back() == entries.size()),
          "batch-schnorr: group layout does not cover the entries");
  auto first = [&](size_t g) { return g == 0 ? size_t{0} : group_end[g - 1]; };
  // Groups [lo, hi) as one batch, weighted from its own entries.
  auto range_ok = [&](size_t lo, size_t hi) {
    std::span<const SchnorrBatchEntry> range =
        entries.subspan(first(lo), group_end[hi - 1] - first(lo));
    ChaChaRng weights(SchnorrBatchWeightSeed(kSignatureBatchWeightDomain, range));
    return BatchVerifySchnorr(range, weights).ok();
  };
  if (groups == 0 || range_ok(0, groups)) {
    return;
  }
  // [lo, hi) holds a bad signature: follow it while only one half fails.
  size_t lo = 0;
  size_t hi = groups;
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (range_ok(lo, mid)) {
      lo = mid;  // so the right half fails
    } else if (range_ok(mid, hi)) {
      hi = mid;
    } else {
      for (size_t g = lo; g < hi; ++g) {
        for (size_t e = first(g); e < group_end[g]; ++e) {
          const SchnorrBatchEntry& entry = entries[e];
          if (!SchnorrVerify(entry.public_key, entry.message, entry.signature).ok()) {
            bad[g] = 1;
            break;
          }
        }
      }
      return;
    }
  }
  bad[lo] = 1;
}

Status BatchVerifyDleq(std::span<const DleqBatchEntry> entries, Rng& rng) {
  // Each proof satisfies, for every pair j:
  //   Y_ij - r_i*G_ij - e_i*P_ij == 0.
  // All pairs of all proofs are one DleqTermBatch: per pair its base, public
  // and commit are positional terms, except that a base equal to B rides
  // the batch's fixed-base coefficient.
  //
  // Statements built by the caller may carry producer-local encodings, and
  // transcripts carry the prover's commit encodings (docs/TRANSCRIPTS.md
  // §DLEQ). Those are attacker data, so before they may bind challenge bits
  // every entry's commit bytes are checked against its commit points in one
  // BatchValidateEncodings pass; missing or mismatching bytes are a
  // localized failure. Challenge recomputation is then SHA-only for entries
  // whose statements carry their bytes.
  const size_t n = entries.size();
  std::vector<size_t> first_term(n + 1, 0);  // entry i's terms: [first_term[i], first_term[i + 1])
  std::vector<size_t> first_commit(n + 1, 0);  // entry i's commits, flat
  for (size_t i = 0; i < n; ++i) {
    const DleqStatement& st = entries[i].statement;
    const DleqTranscript& t = entries[i].transcript;
    if (st.bases.size() != st.publics.size() || t.commits.size() != st.bases.size()) {
      return Status::Error("batch-dleq: malformed entry");
    }
    first_term[i + 1] = first_term[i];
    for (const RistrettoPoint& base : st.bases) {
      first_term[i + 1] += base == RistrettoPoint::Base() ? 2 : 3;
    }
    first_commit[i + 1] = first_commit[i] + t.commits.size();
  }

  // Commit-byte validation: every commit and its bytes, flat in entry order,
  // in one accumulator pass — BatchValidateEncodings amortizes the field
  // inversions across the whole batch and never pays a per-commit decode
  // (~8 field multiplications per commit instead of an inverse square root).
  {
    std::vector<CompressedRistretto> commit_bytes(first_commit[n]);
    std::vector<RistrettoPoint> commit_points(first_commit[n]);
    std::vector<uint8_t> bad_bytes(n, 0);
    for (size_t i = 0; i < n; ++i) {
      const DleqTranscript& t = entries[i].transcript;
      if (t.commit_wire.size() != t.commits.size()) {
        bad_bytes[i] = 1;  // its slots keep the identity and its all-zero bytes
        continue;
      }
      std::copy(t.commits.begin(), t.commits.end(), commit_points.begin() + first_commit[i]);
      std::copy(t.commit_wire.begin(), t.commit_wire.end(),
                commit_bytes.begin() + first_commit[i]);
    }
    std::vector<uint8_t> commit_ok(first_commit[n], 0);
    if (BatchValidateEncodings(commit_points, commit_bytes, commit_ok) != 0) {
      // Fold per-commit flags sequentially: two commits of one entry can
      // come from different shards, so the parallel pass never writes entry
      // flags.
      for (size_t i = 0; i < n; ++i) {
        for (size_t k = first_commit[i]; k < first_commit[i + 1]; ++k) {
          bad_bytes[i] |= commit_ok[k] == 0 ? 1 : 0;
        }
      }
    }
    if (Status s = FirstFailure(bad_bytes, "batch-dleq: commit wire cache does not match commits");
        !s.ok()) {
      return s;
    }
  }

  std::array<uint8_t, 64> seed;
  rng.Fill(seed);
  DleqTermBatch batch(n, first_term[n], {}, seed);
  std::vector<uint8_t> bad(n, 0);
  batch.Fill(Executor::Current(), [&](DleqTermBatch::ShardWriter& writer, size_t begin,
                                      size_t end) {
    using Slot = DleqTermBatch::Slot;
    for (size_t i = begin; i < end; ++i) {
      const DleqBatchEntry& entry = entries[i];
      const DleqStatement& st = entry.statement;
      const DleqTranscript& t = entry.transcript;
      // The Fiat–Shamir challenge must still bind per proof, over the commit
      // bytes validated above.
      if (DeriveFsChallenge(entry.domain, st, t.commits, t.commit_wire, entry.extra) !=
          t.challenge) {
        bad[i] = 1;  // the batch is not checked, so its terms may stay unset
        continue;
      }
      size_t term = first_term[i];
      for (size_t j = 0; j < st.bases.size(); ++j) {
        Slot base = Slot::Base();
        if (!(st.bases[j] == RistrettoPoint::Base())) {
          writer.SetPoint(term, st.bases[j]);
          base = Slot::Term(term++);
        }
        writer.SetPoint(term, st.publics[j]);
        writer.SetPoint(term + 1, t.commits[j]);
        writer.AddPair(t.challenge, t.response, base, Slot::Term(term), term + 1);
        term += 2;
      }
    }
    return true;
  });
  if (Status s = FirstFailure(bad, "batch-dleq: challenge mismatch"); !s.ok()) {
    return s;
  }
  if (!batch.Holds()) {
    return Status::Error("batch-dleq: combined verification equation failed");
  }
  return Status::Ok();
}

DleqTermBatch::ShardWriter::ShardWriter(DleqTermBatch& batch, size_t shard)
    : batch_(batch),
      weights_(batch.seeds_[shard]),
      partial_(std::span(batch.partials_).subspan(shard * (1 + batch.shared_.size()),
                                                   1 + batch.shared_.size())) {}

void DleqTermBatch::ShardWriter::SetPoint(size_t term, const RistrettoPoint& point) {
  batch_.points_[term] = &point;
}

void DleqTermBatch::ShardWriter::AddPair(const Scalar& challenge, const Scalar& response,
                                         Slot g, Slot p, size_t commit_term) {
  const Scalar w = RandomRlcWeight(weights_);
  batch_.scalars_[commit_term] = batch_.scalars_[commit_term] + w;
  auto add = [&](Slot slot, const Scalar& value) {
    Scalar& target = slot.kind == Slot::kTerm ? batch_.scalars_[slot.index]
                     : slot.kind == Slot::kBase ? partial_[0]
                                                : partial_[1 + slot.index];
    target = target - value;
  };
  add(g, w * response);
  add(p, w * challenge);
}

DleqTermBatch::DleqTermBatch(size_t items, size_t terms, std::span<const RistrettoPoint> shared,
                             const std::array<uint8_t, 64>& seed)
    : shards_(Executor::Shards(items, Executor::kRngShards)), shared_(shared) {
  ChaChaRng parent(seed);
  seeds_ = ForkRngSeeds(parent, shards_.size());
  // The batch-wide points join as the last terms once their scalars merge.
  scalars_.reserve(terms + shared.size());
  points_.reserve(terms + shared.size());
  scalars_.resize(terms);
  points_.resize(terms);
  partials_.resize(shards_.size() * (1 + shared.size()));
  failed_.assign(shards_.size(), 0);
}

void DleqTermBatch::Fill(Executor& executor,
                         const std::function<bool(ShardWriter&, size_t, size_t)>& body) {
  executor.ParallelForEach(shards_.size(), [&](size_t s) {
    ShardWriter writer(*this, s);
    failed_[s] = body(writer, shards_[s].first, shards_[s].second) ? 0 : 1;
  });
}

bool DleqTermBatch::Holds() {
  if (FirstMarked(failed_).has_value()) {
    return false;
  }
  const size_t width = 1 + shared_.size();
  Scalar base;
  std::vector<Scalar> shared_scalars(shared_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    base = base + partials_[s * width];
    for (size_t k = 0; k < shared_.size(); ++k) {
      shared_scalars[k] = shared_scalars[k] + partials_[s * width + 1 + k];
    }
  }
  for (size_t k = 0; k < shared_.size(); ++k) {
    scalars_.push_back(shared_scalars[k]);
    points_.push_back(&shared_[k]);
  }
  return MultiScalarMulRefs(base, scalars_, points_).IsIdentity();
}

void EncodingCheck::Clear() {
  points_.clear();
  bytes_.clear();
}

void EncodingCheck::Add(const RistrettoPoint& point, const CompressedRistretto& bytes) {
  points_.push_back(point);
  bytes_.push_back(bytes);
}

void EncodingCheck::Run() {
  ok_.assign(points_.size(), 0);
  Executor::Scope serial(Executor::Serial());
  BatchValidateEncodings(points_, bytes_, ok_);
}

DleqWeightSeed::DleqWeightSeed(std::string_view domain) { hash_.Update(AsBytes(domain)); }

void DleqWeightSeed::Add(const DleqTranscript& proof) {
  hash_.Update(proof.challenge.ToBytes());
  hash_.Update(proof.response.ToBytes());
}

std::array<uint8_t, 64> DleqWeightSeed::Finalize() { return hash_.Finalize(); }

}  // namespace votegral
