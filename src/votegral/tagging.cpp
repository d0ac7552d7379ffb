#include "src/votegral/tagging.h"

#include <algorithm>

#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"

namespace votegral {

namespace {

constexpr std::string_view kTagDomain = "votegral/tagging/step/v1";
constexpr std::string_view kChainWeightDomain = "votegral/tagging/chain-batch-weights/v1";

DleqStatement TagStatement(const ElGamalCiphertext& input, const ElGamalCiphertext& output,
                           const RistrettoPoint& commitment) {
  DleqStatement statement;
  statement.bases = {RistrettoPoint::Base(), input.c1, input.c2};
  statement.publics = {commitment, output.c1, output.c2};
  return statement;
}

// Wire-carrying statement: same points, plus the canonical bytes every
// challenge hash would otherwise recompute (one inverse sqrt per point).
// Callers vouch for the bytes (producer-local trust, src/crypto/dleq.h).
DleqStatement TagStatementWire(const ElGamalCiphertext& input, const ElGamalWire& input_wire,
                               const ElGamalCiphertext& output,
                               const ElGamalWire& output_wire,
                               const RistrettoPoint& commitment,
                               const CompressedRistretto& commitment_wire) {
  DleqStatement statement = TagStatement(input, output, commitment);
  statement.base_wire = {RistrettoPoint::BaseWire(), ElGamalWireHalf(input_wire, 0),
                         ElGamalWireHalf(input_wire, 1)};
  statement.public_wire = {commitment_wire, ElGamalWireHalf(output_wire, 0),
                           ElGamalWireHalf(output_wire, 1)};
  return statement;
}

}  // namespace

TaggingService TaggingService::Create(size_t members, Rng& rng) {
  Require(members >= 1, "tagging: need at least one member");
  TaggingService service;
  service.secrets_.reserve(members);
  service.commitments_.reserve(members);
  service.commitment_wires_.reserve(members);
  for (size_t i = 0; i < members; ++i) {
    Scalar z = Scalar::Random(rng);
    service.secrets_.push_back(z);
    service.commitments_.push_back(RistrettoPoint::MulBase(z));
    service.commitment_wires_.push_back(service.commitments_.back().Encode());
  }
  return service;
}

TaggingStep TaggingService::PrepareStep(size_t member, size_t n) const {
  Require(member < secrets_.size(), "tagging: member out of range");
  TaggingStep step;
  step.member_index = member;
  step.output.resize(n);
  step.proofs.resize(n);
  step.output_wire.resize(n);
  return step;
}

void TaggingService::ApplyShardRange(size_t member, std::span<const ElGamalCiphertext> input,
                                     std::span<const ElGamalWire> input_wire, size_t begin,
                                     size_t end, Rng& child, TaggingStep& step) const {
  const Scalar& z = secrets_.at(member);
  Require(end <= input.size() && step.output.size() == input.size(),
          "tagging: shard range outside prepared step");
  Require(input_wire.empty() || input_wire.size() == input.size(),
          "tagging: input wire size mismatch");
  // Per ciphertext, one proof derives the output (z*C1, z*C2) over the bases
  // (B, C1, C2): the commit y*B reads the generator's table, and each
  // ciphertext point's two multiples, z and y, share one doubling chain.
  // The output's bytes come from the prover's batched double-and-encode;
  // the step retains them for the next member's statements and the
  // decrypt stage.
  for (size_t i = begin; i < end; ++i) {
    const ElGamalWire in_wire = input_wire.empty() ? input[i].Wire() : input_wire[i];
    DleqStatement statement;
    statement.bases = {RistrettoPoint::Base(), input[i].c1, input[i].c2};
    statement.base_wire = {RistrettoPoint::BaseWire(), ElGamalWireHalf(in_wire, 0),
                           ElGamalWireHalf(in_wire, 1)};
    statement.publics = {commitments_[member]};
    statement.public_wire = {commitment_wires_[member]};
    step.proofs[i] = ProveDleqFsDeriving(kTagDomain, statement, z, child);
    step.output[i] = ElGamalCiphertext{statement.publics[1], statement.publics[2]};
    std::copy(statement.public_wire[1].begin(), statement.public_wire[1].end(),
              step.output_wire[i].begin());
    std::copy(statement.public_wire[2].begin(), statement.public_wire[2].end(),
              step.output_wire[i].begin() + 32);
  }
}

Status TaggingService::VerifyStep(const TaggingStep& step,
                                  const std::vector<ElGamalCiphertext>& input,
                                  const RistrettoPoint& commitment, Executor& executor) {
  if (step.output.size() != input.size() || step.proofs.size() != input.size()) {
    return Status::Error("tagging: step size mismatch");
  }
  if (auto i = ParallelFirstFailure(executor, input.size(), [&](size_t i) {
        return VerifyDleqFs(kTagDomain, TagStatement(input[i], step.output[i], commitment),
                            step.proofs[i])
            .ok();
      });
      i.has_value()) {
    // Re-run the single failing item for its exact reason string.
    Status ok = VerifyDleqFs(kTagDomain,
                             TagStatement(input[*i], step.output[*i], commitment),
                             step.proofs[*i]);
    return Status::Error("tagging: proof " + std::to_string(*i) +
                         " invalid: " + ok.reason());
  }
  return Status::Ok();
}

std::vector<ElGamalCiphertext> TaggingService::ApplyAll(
    const std::vector<ElGamalCiphertext>& input, std::vector<TaggingStep>* steps, Rng& rng,
    Executor& executor, std::span<const ElGamalWire> input_wire) const {
  Require(steps != nullptr, "tagging: steps output required");
  Executor::Scope scope(executor);
  const auto shards = Executor::Shards(input.size(), Executor::kRngShards);
  steps->clear();
  steps->reserve(secrets_.size());  // the spans below point into earlier steps
  std::span<const ElGamalCiphertext> current = input;
  std::span<const ElGamalWire> current_wire = input_wire;
  for (size_t member = 0; member < secrets_.size(); ++member) {
    // Per member: one forked seed per shard.
    const auto seeds = ForkRngSeeds(rng, shards.size());
    TaggingStep& step = steps->emplace_back(PrepareStep(member, input.size()));
    executor.ParallelForEach(shards.size(), [&](size_t s) {
      ChaChaRng child(seeds[s]);
      ApplyShardRange(member, current, current_wire, shards[s].first, shards[s].second, child,
                      step);
    });
    current = step.output;
    current_wire = step.output_wire;  // each step feeds the next one's statements
  }
  return std::vector<ElGamalCiphertext>(current.begin(), current.end());
}

Status TaggingService::VerifyChain(const std::vector<ElGamalCiphertext>& input,
                                   const std::vector<TaggingStep>& steps,
                                   const std::vector<RistrettoPoint>& commitments,
                                   Executor& executor,
                                   std::span<const ElGamalWire> input_wire) {
  if (steps.size() != commitments.size()) {
    return Status::Error("tagging: step count does not match committee size");
  }
  Executor::Scope scope(executor);  // the batched MSM below follows this pool
  // Structural pass.
  const std::vector<ElGamalCiphertext>* current = &input;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].member_index != i) {
      return Status::Error("tagging: steps out of order");
    }
    if (steps[i].output.size() != current->size() ||
        steps[i].proofs.size() != current->size()) {
      return Status::Error("tagging: step size mismatch");
    }
    current = &steps[i].output;
  }

  // Wire pass: produce per-step ciphertext bytes the statement caches can
  // trust. Steps carrying output_wire are attacker data — every cached
  // string must be the canonical encoding of its point, checked in one
  // pooled BatchValidateEncodings pass (exact, no inverse square roots);
  // a mismatch is a localized failure. Cacheless steps (and a cacheless
  // chain input) are encoded fresh — once per chain, where the pre-wire
  // verifier paid one encode per point per challenge hash.
  const size_t n = input.size();
  std::vector<ElGamalWire> fresh_input_wire;
  std::span<const ElGamalWire> in_wire = input_wire;
  if (in_wire.size() != n) {
    fresh_input_wire.resize(n);
    executor.ParallelForEach(n, [&](size_t j) { fresh_input_wire[j] = input[j].Wire(); });
    in_wire = fresh_input_wire;
  }
  std::vector<std::vector<ElGamalWire>> fresh_step_wire(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].HasWire()) {
      continue;
    }
    fresh_step_wire[i].resize(n);
    executor.ParallelForEach(
        n, [&, i](size_t j) { fresh_step_wire[i][j] = steps[i].output[j].Wire(); });
  }
  {
    // Every cached component against its point (2 per ciphertext).
    std::vector<CompressedRistretto> cache_bytes;
    std::vector<RistrettoPoint> cache_points;
    std::vector<std::pair<size_t, size_t>> cache_slot;  // (step, item)
    for (size_t i = 0; i < steps.size(); ++i) {
      if (!steps[i].HasWire()) {
        continue;
      }
      for (size_t j = 0; j < n; ++j) {
        cache_bytes.push_back(ElGamalWireHalf(steps[i].output_wire[j], 0));
        cache_bytes.push_back(ElGamalWireHalf(steps[i].output_wire[j], 1));
        cache_points.push_back(steps[i].output[j].c1);
        cache_points.push_back(steps[i].output[j].c2);
        cache_slot.emplace_back(i, j);
      }
    }
    std::vector<uint8_t> cache_ok(cache_bytes.size(), 0);
    if (BatchValidateEncodings(cache_points, cache_bytes, cache_ok) != 0) {
      size_t k = 0;
      while (cache_ok[2 * k] && cache_ok[2 * k + 1]) {
        ++k;
      }
      auto [i, j] = cache_slot[k];
      return Status::Error("tagging: step " + std::to_string(i) +
                           " output wire cache does not match ciphertexts at index " +
                           std::to_string(j));
    }
  }

  // Every proof of every step into one DLEQ batch over wire-backed
  // statements: challenge recomputation is SHA-only.
  std::vector<DleqBatchEntry> batch;
  batch.reserve(steps.size() * n);
  current = &input;
  std::span<const ElGamalWire> current_wire = in_wire;
  for (size_t i = 0; i < steps.size(); ++i) {
    const CompressedRistretto commitment_wire = commitments[i].Encode();
    std::span<const ElGamalWire> step_wire =
        steps[i].HasWire() ? std::span<const ElGamalWire>(steps[i].output_wire)
                           : std::span<const ElGamalWire>(fresh_step_wire[i]);
    for (size_t j = 0; j < current->size(); ++j) {
      DleqBatchEntry entry;
      entry.domain = std::string(kTagDomain);
      entry.statement =
          TagStatementWire((*current)[j], current_wire[j], steps[i].output[j], step_wire[j],
                           commitments[i], commitment_wire);
      entry.transcript = steps[i].proofs[j];
      batch.push_back(std::move(entry));
    }
    current = &steps[i].output;
    current_wire = step_wire;
  }
  ChaChaRng weights(DleqBatchWeightSeed(kChainWeightDomain, batch));
  if (BatchVerifyDleq(batch, weights).ok()) {
    return Status::Ok();
  }
  // Localize: re-verify step by step, item by item.
  current = &input;
  for (size_t i = 0; i < steps.size(); ++i) {
    Status ok = VerifyStep(steps[i], *current, commitments[i], executor);
    if (!ok.ok()) {
      return ok;
    }
    current = &steps[i].output;
  }
  return Status::Error("tagging: batched chain check failed");
}

Scalar TaggingService::CombinedExponent() const {
  Scalar product = Scalar::One();
  for (const Scalar& z : secrets_) {
    product = product * z;
  }
  return product;
}

}  // namespace votegral
