#include "src/votegral/tagging.h"

#include <algorithm>

#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

constexpr std::string_view kTagDomain = "votegral/tagging/step/v1";
constexpr std::string_view kChainWeightDomain = "votegral/tagging/chain-batch-weights/v2";

DleqStatement TagStatement(const ElGamalCiphertext& input, const ElGamalCiphertext& output,
                           const RistrettoPoint& commitment) {
  DleqStatement statement;
  statement.bases = {RistrettoPoint::Base(), input.c1, input.c2};
  statement.publics = {commitment, output.c1, output.c2};
  return statement;
}

// The bytes of an entry's input column: the caller's, or, when it passes
// none, one encoding per ciphertext made here into `encoded`.
std::span<const ElGamalWire> InputBytes(std::span<const ElGamalCiphertext> input,
                                        std::span<const ElGamalWire> input_wire,
                                        std::vector<ElGamalWire>& encoded,
                                        Executor& executor) {
  if (input_wire.empty()) {
    encoded.resize(input.size());
    executor.ParallelForEach(input.size(), [&](size_t i) { encoded[i] = input[i].Wire(); });
    return encoded;
  }
  Require(input_wire.size() == input.size(), "tagging: input wire size mismatch");
  return input_wire;
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
  Require(input_wire.size() == input.size(), "tagging: input wire size mismatch");
  // Per ciphertext, one proof derives the output (z*C1, z*C2) over the bases
  // (B, C1, C2), and the shard's proofs are one batch: the commits y*B read
  // the generator's table, and each ciphertext point's two multiples, z and
  // y, share one doubling chain, eight points at a time on AVX-512 IFMA
  // hosts. The nonces are drawn first, one per ciphertext in order, as one
  // proof at a time would draw them. The output's bytes come from the
  // prover's batched double-and-encode; the step retains them for the next
  // member's statements and the decrypt stage.
  const size_t n = end - begin;
  std::vector<DleqStatement> statements(n);
  std::vector<Scalar> nonces;
  nonces.reserve(n);
  for (size_t i = begin; i < end; ++i) {
    const ElGamalWire& in_wire = input_wire[i];
    DleqStatement& statement = statements[i - begin];
    statement.bases = {RistrettoPoint::Base(), input[i].c1, input[i].c2};
    statement.base_wire = {RistrettoPoint::BaseWire(), ElGamalWireHalf(in_wire, 0),
                           ElGamalWireHalf(in_wire, 1)};
    statement.publics = {commitments_[member]};
    statement.public_wire = {commitment_wires_[member]};
    nonces.push_back(Scalar::Random(child));
  }
  ProveDleqFsDeriving(kTagDomain, statements, z, nonces,
                      std::span(step.proofs).subspan(begin, n));
  for (size_t i = begin; i < end; ++i) {
    const DleqStatement& statement = statements[i - begin];
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
  std::vector<ElGamalWire> encoded;
  std::span<const ElGamalCiphertext> current = input;
  std::span<const ElGamalWire> current_wire = InputBytes(input, input_wire, encoded, executor);
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
    // Outputs without their bytes fail like outputs with wrong ones.
    if (steps[i].output_wire.size() != current->size()) {
      return Status::Error(
          "tagging: step " + std::to_string(i) +
          " output wire cache does not match ciphertexts at index " +
          std::to_string(std::min(steps[i].output_wire.size(), current->size())));
    }
    current = &steps[i].output;
  }

  // Every proof of every step in one positional batch. Item j's terms are
  // its chain input (c1, c2), then per step its output (c1, c2) and the
  // proof's three commits; step i's output is step i+1's input, so one term
  // carries both. B and the member commitments are batch-wide.
  const size_t n = input.size();
  const size_t m = steps.size();
  const size_t per_item = 2 + 5 * m;
  std::vector<ElGamalWire> encoded;
  input_wire = InputBytes(input, input_wire, encoded, executor);
  std::vector<CompressedRistretto> commitment_wire(m);
  for (size_t i = 0; i < m; ++i) {
    commitment_wire[i] = commitments[i].Encode();
  }
  DleqWeightSeed seed(kChainWeightDomain);
  for (const TaggingStep& step : steps) {
    for (const DleqTranscript& proof : step.proofs) {
      seed.Add(proof);
    }
  }
  // Output wire caches are attacker data: cache_bad[i * n + j] marks step
  // i's item j when its bytes are not the canonical encoding of its points.
  std::vector<uint8_t> cache_bad(m * n, 0);
  DleqTermBatch batch(n, n * per_item, commitments, seed.Finalize());
  // Items go through their shard in groups of about 64 cached points.
  const size_t group = std::max<size_t>(1, 64 / (5 * std::max<size_t>(m, 1)));
  auto well_formed = [](const DleqTranscript& proof) {
    return proof.commits.size() == 3 && proof.commit_wire.size() == 3;
  };
  batch.Fill(executor, [&](DleqTermBatch::ShardWriter& writer, size_t begin, size_t end) {
    EncodingCheck check;
    bool holds = true;
    for (size_t first_item = begin; first_item < end; first_item += group) {
      const size_t last_item = std::min(end, first_item + group);
      // The group's bytes in one pass (no inverse square root): each output
      // against its points, each proof's commit bytes against its commits.
      // Every group's outputs are checked even after the batch has failed,
      // since a stale output is reported first.
      check.Clear();
      for (size_t j = first_item; j < last_item; ++j) {
        for (size_t i = 0; i < m; ++i) {
          check.Add(steps[i].output[j].c1, ElGamalWireHalf(steps[i].output_wire[j], 0));
          check.Add(steps[i].output[j].c2, ElGamalWireHalf(steps[i].output_wire[j], 1));
          const DleqTranscript& proof = steps[i].proofs[j];
          if (well_formed(proof)) {
            for (size_t c = 0; c < 3; ++c) {
              check.Add(proof.commits[c], proof.commit_wire[c]);
            }
          }
        }
      }
      check.Run();
      size_t slot = 0;
      for (size_t j = first_item; j < last_item; ++j) {
        for (size_t i = 0; i < m; ++i) {
          if (!check.ok(slot) || !check.ok(slot + 1)) {
            cache_bad[i * n + j] = 1;
            holds = false;
          }
          slot += 2;
          if (!well_formed(steps[i].proofs[j])) {
            holds = false;  // the per-step path names it
            continue;
          }
          for (size_t c = 0; c < 3; ++c) {
            holds = check.ok(slot++) && holds;
          }
        }
      }

      for (size_t j = first_item; holds && j < last_item; ++j) {
        const size_t first = j * per_item;
        writer.SetPoint(first, input[j].c1);
        writer.SetPoint(first + 1, input[j].c2);
        const ElGamalWire* in_wire = &input_wire[j];
        for (size_t i = 0; holds && i < m; ++i) {
          const TaggingStep& step = steps[i];
          const DleqTranscript& proof = step.proofs[j];
          const ElGamalWire& out_wire = step.output_wire[j];
          // The challenge over (B, C1, C2), (Z_i, C1', C2') and the commits,
          // hashed from the bytes in hand: SHA-only.
          Sha512 h;
          const uint8_t separator = 0;
          h.Update(AsBytes(kTagDomain));
          h.Update({&separator, 1});
          h.Update(RistrettoPoint::BaseWire());
          h.Update(*in_wire);
          h.Update(commitment_wire[i]);
          h.Update(out_wire);
          for (size_t c = 0; c < 3; ++c) {
            h.Update(proof.commit_wire[c]);
          }
          if (Scalar::FromBytesWide(h.Finalize()) != proof.challenge) {
            holds = false;
            break;
          }
          const size_t in = i == 0 ? first : first + 2 + 5 * (i - 1);
          const size_t out = first + 2 + 5 * i;
          writer.SetPoint(out, step.output[j].c1);
          writer.SetPoint(out + 1, step.output[j].c2);
          for (size_t c = 0; c < 3; ++c) {
            writer.SetPoint(out + 2 + c, proof.commits[c]);
          }
          using Slot = DleqTermBatch::Slot;
          writer.AddPair(proof.challenge, proof.response, Slot::Base(), Slot::Shared(i), out + 2);
          writer.AddPair(proof.challenge, proof.response, Slot::Term(in), Slot::Term(out),
                         out + 3);
          writer.AddPair(proof.challenge, proof.response, Slot::Term(in + 1),
                         Slot::Term(out + 1), out + 4);
          in_wire = &out_wire;
        }
      }
    }
    return holds;
  });
  if (auto k = FirstMarked(cache_bad); k.has_value()) {
    return Status::Error("tagging: step " + std::to_string(*k / n) +
                         " output wire cache does not match ciphertexts at index " +
                         std::to_string(*k % n));
  }
  if (batch.Holds()) {
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
