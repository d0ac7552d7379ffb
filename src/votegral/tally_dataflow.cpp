// The tally: TallyService::Run schedules the pipeline's stages as a
// chunk-granular task graph.
//
// Scheduling shape (one flow per mixed list, ballots and roster, running
// concurrently):
//
//   validate[s] ─┐ (wave 1: ballots stream off per-shard LedgerCursors)
//                ├─ dedup ── mix-input[s] ── shuffle[layer][s] ── ... ──
//                                            tag[member][s] ── decrypt[s]
//
// A shuffle layer is all-to-all (output j reads input source_[j]), so each
// layer joins on the previous one; everywhere else dependencies are per
// shard: tagging member 0 starts on shard k the moment the final shuffle
// layer finishes shard k, member m+1 follows member m shard by shard, and
// share decryption follows the last tagging member the same way. The ballot
// and roster flows never wait for each other before the (sequential) join.
//
// In revote mode the dedup is a flow of its own over the padded width-3
// board (RunRevoteDedup), waited on before the ballot flow is drawn because
// the ballot flow's size is the count it keeps:
//
//   pad ── shuffle[layer][s] ── ... ─┬─ tag[member][s] ── decrypt-tags[s] ─┬─ select
//                                    └─ decrypt-counters[s] ───────────────┘
//
// Determinism (the reproducibility contract, made normative here): every
// randomness-consuming node gets its forked DRBG seed assigned at
// graph-BUILD time, drawn from the caller's stream in exactly this order:
//   1. revote mode only, the dedup: the dummy-group credentials; its
//      cascade and its tagging chain, each drawn as in steps 2 and 3 after
//      its scope-2 probe; then its tag-decrypt and counter-decrypt seeds;
//   2. the ballot cascade, then the roster cascade: per pair, layer A's
//      permutation and shard seeds, then layer B's;
//   3. the ballot tagging chain, then the roster one: per member, the
//      shard seeds;
//   4. the decrypt-tags shard seeds, roster batch first, then ballots;
//   5. after the join, the decrypt-votes shard seeds.
// (Each decrypt batch's share check draws nothing: its weights are a hash
// of the batch's proofs, VerifyShareBatch in src/crypto/dkg.h.)
// Shard boundaries come from Executor::Shards (data-size only); nodes commit
// results positionally. Scheduling therefore decides only *when* a node
// runs, never what it computes: transcripts are byte-identical at every
// thread count, which tests/test_parallel_tally.cpp and tests/test_revote.cpp
// pin against the two golden digests at 1, 2 and 8 threads.
//
// Failure order: the stage-level fault probes are pure PRF decisions,
// evaluated at build time, each just before its step's draws, stopping at
// the first failure (so injection counts are exact): tally.dedup (scope 0;
// in revote mode followed by mix.shuffle and tag.apply at scope 2 inside
// the dedup), then mix.shuffle scope 0 (ballot mix) and scope 1 (roster
// mix), then tag.apply scope 0 (ballot tagging) and scope 1 (roster
// tagging). Decrypt shortfalls are reported in the fixed finalize order
// revote tags, revote counters (both inside the dedup), roster tags, ballot
// tags, votes. A failed run reports the same coded status at any thread
// count.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/crypto/drbg.h"
#include "src/votegral/tally_internal.h"

namespace votegral {
namespace tally_internal {
namespace {

enum StageIdx : size_t {
  kSValidate = 0,
  kSDedup,
  kSMix,
  kSTag,
  kSDecryptTags,
  kSJoin,
  kSDecryptVotes,
  kNumStages,
};

constexpr const char* kStageNames[kNumStages] = {
    "validate", "dedup",         "mix",  "tag",
    "decrypt-tags", "join", "decrypt-votes",
};

// Per-stage busy-time accumulators (relaxed: summed once after Wait).
struct BusyClock {
  std::array<std::atomic<uint64_t>, kNumStages> nanos{};

  template <typename F>
  void Timed(size_t stage, F&& f) {
    const auto start = std::chrono::steady_clock::now();
    f();
    nanos[stage].fetch_add(
        static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - start)
                                  .count()),
        std::memory_order_relaxed);
  }
};

Status WrapStage(const char* stage, const Status& status) {
  return Status::Error(status.code(), std::string(stage) + " stage: " + status.reason());
}

// One mix -> tag -> decrypt chain (ballots, roster, or the revote dedup's):
// the pre-drawn randomness, the layer servers, and the working buffers its
// graph nodes write into. Everything here is sized and seeded at build time;
// nodes only fill positional slots.
struct ChainFlow {
  size_t n = 0;
  std::vector<std::pair<size_t, size_t>> shards;  // Shards(n, kRngShards)

  // Stage all nodes charge busy time to (the revote flow: dedup); unset,
  // each node charges its own kind (mix, tag, decrypt-tags).
  std::optional<StageIdx> stage;
  size_t Charge(StageIdx kind) const { return stage.value_or(kind); }

  // Mix cascade: layers[2p] / layers[2p+1] are pair p's A/B servers
  // (permutations drawn at build); proof->pairs pre-sized with mid/out
  // batches; h[p] is the chain hash entering pair p (h[0] = input hash).
  MixBatch* input = nullptr;
  MixProof* proof = nullptr;
  std::vector<MixServer> layers;
  std::vector<std::vector<std::array<uint8_t, 32>>> layer_seeds;  // [layer][shard]
  std::vector<std::array<uint8_t, 32>> h;

  // Tag chain over one column of the final mix output.
  size_t column = 0;
  std::vector<TaggingStep>* steps = nullptr;  // pre-sized, one per member
  std::vector<std::vector<std::array<uint8_t, 32>>> tag_seeds;  // [member][shard]
  std::vector<ElGamalCiphertext> tag_input;  // extracted column (per-shard)
  std::vector<ElGamalWire> tag_input_wire;

  // Share decryption of the fully tagged list.
  uint64_t epoch = 0;
  std::vector<std::array<uint8_t, 32>> decrypt_seeds;
  DecryptBatchBuffers buffers;
};

// Draws one chain's cascade randomness: per pair, layer A's permutation then
// its shard seeds, then layer B's.
void DrawCascadeRandomness(ChainFlow& flow, Rng& rng) {
  flow.layers.resize(2 * kMixPairs);
  flow.layer_seeds.resize(2 * kMixPairs);
  flow.h.resize(kMixPairs + 1);
  flow.proof->pairs.resize(kMixPairs);
  for (size_t p = 0; p < kMixPairs; ++p) {
    flow.proof->pairs[p].mid.resize(flow.n);
    flow.proof->pairs[p].out.resize(flow.n);
    for (size_t half = 0; half < 2; ++half) {
      const size_t l = 2 * p + half;
      flow.layers[l].Prepare(flow.n, rng);
      flow.layer_seeds[l] = ForkRngSeeds(rng, flow.shards.size());
    }
  }
}

// Draws one chain's tagging randomness: per member, the shard seeds.
void DrawTagRandomness(ChainFlow& flow, const TaggingService& tagging, Rng& rng) {
  const size_t members = tagging.size();
  flow.tag_seeds.resize(members);
  flow.steps->clear();
  flow.steps->reserve(members);
  for (size_t m = 0; m < members; ++m) {
    flow.tag_seeds[m] = ForkRngSeeds(rng, flow.shards.size());
    flow.steps->push_back(tagging.PrepareStep(m, flow.n));
  }
  flow.tag_input.resize(flow.n);
  flow.tag_input_wire.resize(flow.n);
}

// Copies column `column` of items [begin, end), points and 64-byte wire
// slices, into positional buffers.
void ExtractColumn(const MixBatch& batch, size_t column, size_t begin, size_t end,
                   std::vector<ElGamalCiphertext>& cts, std::vector<ElGamalWire>& wire) {
  for (size_t i = begin; i < end; ++i) {
    const MixItem& item = batch[i];
    cts[i] = item.cts.at(column);
    std::copy(item.wire.begin() + static_cast<ptrdiff_t>(64 * column),
              item.wire.begin() + static_cast<ptrdiff_t>(64 * (column + 1)), wire[i].begin());
  }
}

// Submits one chain's nodes: mix-input build (only when `build_item` is set;
// it fills mix-input slot i), the shuffle layers, pair finalization, the
// tagging chain, and share decryption. Returns the last shuffle layer's
// shard nodes, for more per-shard work over the mixed list; callers Wait()
// on the whole graph.
std::vector<TaskGraph::NodeId> SubmitChainNodes(
    TaskGraph& graph, const TallyService& service, ChainFlow& flow,
    const AuthorityClient& client, BusyClock& clock,
    const std::function<void(size_t)>& build_item) {
  const RistrettoPoint& pk = service.authority().public_key();
  const size_t members = service.tagging().size();
  const size_t shard_count = flow.shards.size();

  // Mix input: positional item builds, then the incoming chain hash.
  std::vector<TaskGraph::NodeId> input_nodes;
  if (build_item) {
    for (const auto& [begin, end] : flow.shards) {
      // build_item is copied per node: the caller's std::function is a
      // temporary that does not outlive this call, but the nodes do.
      input_nodes.push_back(graph.Submit([&, build_item, begin = begin, end = end] {
        clock.Timed(flow.Charge(kSMix), [&] {
          for (size_t i = begin; i < end; ++i) {
            build_item(i);
          }
        });
      }));
    }
  }
  const TaskGraph::NodeId input_done =
      graph.Submit([] {}, std::span<const TaskGraph::NodeId>(input_nodes));
  const TaskGraph::NodeId input_hash = graph.Submit(
      [&] { clock.Timed(flow.Charge(kSMix), [&] { flow.h[0] = HashMixBatch(*flow.input); }); },
      {input_done});

  // Shuffle layers: shard nodes joined per layer (a shuffle is all-to-all);
  // pair p finalizes once its B layer and the previous pair's challenge
  // chain are done. The last layer's shard nodes are remembered so the tag
  // chain can start per shard without waiting for the layer join.
  TaskGraph::NodeId prev_layer_done = input_done;
  TaskGraph::NodeId prev_finalize = input_hash;
  std::vector<TaskGraph::NodeId> last_layer_nodes;
  for (size_t p = 0; p < kMixPairs; ++p) {
    RpcPairProof& pair = flow.proof->pairs[p];
    for (size_t half = 0; half < 2; ++half) {
      const size_t l = 2 * p + half;
      const MixBatch* in_batch = half == 0
                                     ? (p == 0 ? flow.input : &flow.proof->pairs[p - 1].out)
                                     : &pair.mid;
      MixBatch* out_batch = half == 0 ? &pair.mid : &pair.out;
      std::vector<TaskGraph::NodeId> layer_nodes;
      layer_nodes.reserve(shard_count);
      for (size_t s = 0; s < shard_count; ++s) {
        const auto [begin, end] = flow.shards[s];
        layer_nodes.push_back(graph.Submit(
            [&, l, s, begin, end, in_batch, out_batch] {
              clock.Timed(flow.Charge(kSMix), [&] {
                ChaChaRng child(flow.layer_seeds[l][s]);
                flow.layers[l].ShuffleShardRange(*in_batch, pk, begin, end, child,
                                                 *out_batch);
              });
            },
            {prev_layer_done}));
      }
      prev_layer_done =
          graph.Submit([] {}, std::span<const TaskGraph::NodeId>(layer_nodes));
      if (p + 1 == kMixPairs && half == 1) {
        last_layer_nodes = std::move(layer_nodes);
      }
    }
    prev_finalize = graph.Submit(
        [&, p] {
          clock.Timed(flow.Charge(kSMix), [&] {
            FinishRpcPair(flow.layers[2 * p], flow.layers[2 * p + 1], flow.h[p], p,
                          &flow.proof->pairs[p], &flow.h[p + 1]);
          });
        },
        {prev_layer_done, prev_finalize});
  }

  // Tag chain, chunk-granular: member 0's shard node extracts its column
  // slice from the final shuffle output (points + 64-byte wire slices) and
  // applies the member; member m+1 follows member m shard by shard.
  std::vector<TaskGraph::NodeId> prev_member(shard_count);
  const MixBatch& final_out = flow.proof->pairs[kMixPairs - 1].out;
  for (size_t s = 0; s < shard_count; ++s) {
    const auto [begin, end] = flow.shards[s];
    prev_member[s] = graph.Submit(
        [&, s, begin, end] {
          clock.Timed(flow.Charge(kSTag), [&] {
            ExtractColumn(final_out, flow.column, begin, end, flow.tag_input,
                          flow.tag_input_wire);
            ChaChaRng child(flow.tag_seeds[0][s]);
            service.tagging().ApplyShardRange(0, flow.tag_input, flow.tag_input_wire, begin,
                                              end, child, (*flow.steps)[0]);
          });
        },
        {last_layer_nodes[s]});
  }
  for (size_t m = 1; m < members; ++m) {
    for (size_t s = 0; s < shard_count; ++s) {
      const auto [begin, end] = flow.shards[s];
      prev_member[s] = graph.Submit(
          [&, m, s, begin, end] {
            clock.Timed(flow.Charge(kSTag), [&] {
              ChaChaRng child(flow.tag_seeds[m][s]);
              service.tagging().ApplyShardRange(m, (*flow.steps)[m - 1].output,
                                                (*flow.steps)[m - 1].output_wire, begin,
                                                end, child, (*flow.steps)[m]);
            });
          },
          {prev_member[s]});
    }
  }

  // Share decryption follows the last tagging member, shard by shard.
  for (size_t s = 0; s < shard_count; ++s) {
    const auto [begin, end] = flow.shards[s];
    graph.Submit(
        [&, s, begin, end] {
          clock.Timed(flow.Charge(kSDecryptTags), [&] {
            const TaggingStep& last = flow.steps->back();
            ChaChaRng child(flow.decrypt_seeds[s]);
            DecryptShareShardRange(service, client, last.output, last.output_wire,
                                   flow.epoch, begin, end, child, flow.buffers);
          });
        },
        {prev_member[s]});
  }
  return last_layer_nodes;
}

// The revote supersession dedup (docs/REVOTING.md): pad -> width-3 mix ->
// tag the credential column -> decrypt tags and counters -> tag-sort
// last-write-wins, with the chain as one ChainFlow over the padded board.
// Draws step 1 of the order above. Consumes state.validated_revotes; fills
// the revote transcript, the discard counters, and state.revote_kept.
Status RunRevoteDedup(const TallyService& service, TaskGraph& graph, BusyClock& clock,
                      const AuthorityClient& client, Rng& rng, TallyPipelineState& state) {
  RevoteTranscript& rt = state.output.transcript.revote;
  if (Status fault = ProbeStageFault(faults::kTallyDedup, 0, "revote dedup"); !fault.ok()) {
    return fault;
  }
  clock.Timed(kSDedup, [&] { BuildRevoteMixInput(service, rng, state); });

  ChainFlow flow;
  flow.n = rt.mix_input.size();
  flow.shards = Executor::Shards(flow.n, Executor::kRngShards);
  flow.stage = kSDedup;
  flow.input = &rt.mix_input;
  flow.proof = &rt.mix_proof;
  flow.column = 1;
  flow.steps = &rt.tag_steps;
  flow.epoch = kEpochRevoteTags;
  if (Status fault = ProbeStageFault(faults::kMixShuffle, 2, "revote mix"); !fault.ok()) {
    return fault;
  }
  DrawCascadeRandomness(flow, rng);
  if (Status fault = ProbeStageFault(faults::kTagApply, 2, "revote tagging"); !fault.ok()) {
    return fault;
  }
  DrawTagRandomness(flow, service.tagging(), rng);
  flow.decrypt_seeds = ForkRngSeeds(rng, flow.shards.size());
  const auto counter_seeds = ForkRngSeeds(rng, flow.shards.size());
  flow.buffers.Init(service.authority(), flow.n, &rt.tag_shares, &rt.tags);
  DecryptBatchBuffers counter_buffers;
  counter_buffers.Init(service.authority(), flow.n, &rt.counter_shares, &rt.counter_points);

  // Counter decryption: one node per shard behind the last shuffle layer's.
  const std::vector<TaskGraph::NodeId> mixed_nodes =
      SubmitChainNodes(graph, service, flow, client, clock, nullptr);
  const MixBatch& mixed = rt.mix_proof.pairs.back().out;
  std::vector<ElGamalCiphertext> counters(flow.n);
  std::vector<ElGamalWire> counters_wire(flow.n);
  for (size_t s = 0; s < flow.shards.size(); ++s) {
    const auto [begin, end] = flow.shards[s];
    graph.Submit(
        [&, s, begin, end] {
          clock.Timed(kSDedup, [&] {
            ExtractColumn(mixed, 2, begin, end, counters, counters_wire);
            ChaChaRng child(counter_seeds[s]);
            DecryptShareShardRange(service, client, counters, counters_wire,
                                   kEpochRevoteCounters, begin, end, child, counter_buffers);
          });
        },
        {mixed_nodes[s]});
  }
  graph.Wait();

  // Publish the mixed board, close the decrypt batches in the fixed finalize
  // order (revote tags, then revote counters), and select.
  Status status = Status::Ok();
  clock.Timed(kSDedup, [&] {
    rt.mix_output = mixed;
    const TaggingStep& last = flow.steps->back();
    status = FinalizeDecryptBatch("revote tags", last.output, last.output_wire, flow.buffers,
                                  &state.authority_blame);
    if (status.ok()) {
      status = FinalizeDecryptBatch("revote counters", counters, counters_wire,
                                    counter_buffers, &state.authority_blame);
    }
    if (status.ok()) {
      SelectRevoteKept(service, state);
    }
  });
  return status;
}

void JoinTags(TallyPipelineState& state) {
  TallyTranscript& t = state.output.transcript;
  TallyResult& result = state.output.result;
  // Hash-join ballot tags against the roster tag multiset: at most one
  // ballot counts per tag; a tag appearing k times means k voters'
  // registrations point at the same credential (k > 1 only under the
  // delegation extension, Appendix C.3). Sequential by design — the join is
  // a cheap ordered map pass whose output order is part of the transcript.
  for (size_t i = 0; i < t.ballot_tags.size(); ++i) {
    auto it = state.roster_tag_counts.find(t.ballot_tags[i]);
    if (it == state.roster_tag_counts.end()) {
      ++result.discards.unmatched_tag;  // fake credential (or never registered)
      continue;
    }
    if (it->second == 0) {
      ++result.discards.duplicate_tag;  // tag already fully consumed
      continue;
    }
    t.counted_indices.push_back(i);
    t.counted_weights.push_back(it->second);
    it->second = 0;  // consume all matching registrations at once
  }
  Release(state.roster_tag_counts);
}

// Decrypt-votes close: folds the decrypted vote points into per-candidate
// counts with the join weights.
void CountVotes(const CandidateList& candidates, TallyPipelineState& state) {
  TallyTranscript& t = state.output.transcript;
  TallyResult& result = state.output.result;
  for (size_t c = 0; c < t.counted_indices.size(); ++c) {
    uint64_t weight = t.counted_weights[c];
    auto candidate = candidates.IndexOfEncoding(t.vote_points[c]);
    if (!candidate.has_value()) {
      ++result.discards.invalid_vote;
      continue;
    }
    result.counts[candidates.name(*candidate)] += weight;
    result.counted += weight;
  }
}

}  // namespace
}  // namespace tally_internal

Outcome<TallyOutput> TallyService::Run(const PublicLedger& ledger,
                                       const CandidateList& candidates,
                                       const std::set<CompressedRistretto>& authorized_kiosks,
                                       Rng& rng, TallyRunMetrics* metrics) const {
  using namespace tally_internal;
  Executor& executor = executor_;
  Executor::Scope scope(executor);  // nested crypto kernels follow this pool
  const auto run_start = std::chrono::steady_clock::now();
  ExecutorStats stats_start;
  if (metrics != nullptr) {
    stats_start = executor.Stats();
  }
  BusyClock clock;

  TallyPipelineState state;
  TallyTranscript& t = state.output.transcript;
  for (size_t i = 0; i < candidates.size(); ++i) {
    state.output.result.counts[candidates.name(i)] = 0;
  }

  auto finish = [&](Outcome<TallyOutput> outcome) {
    if (metrics != nullptr) {
      *metrics = TallyRunMetrics{};
      metrics->threads = executor.threads();
      metrics->executor_start = stats_start;
      metrics->executor_end = executor.Stats();
      metrics->wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
              .count();
      for (size_t i = 0; i < kNumStages; ++i) {
        metrics->stages.push_back(TallyStageBusy{
            kStageNames[i],
            static_cast<double>(clock.nanos[i].load(std::memory_order_relaxed)) * 1e-9});
      }
    }
    return outcome;
  };

  const AuthorityClient client(authority_, retry_policy_);
  TaskGraph graph(executor);

  // ---- Wave 1: validate (ballots stream off per-shard ledger cursors). ----
  const size_t ledger_n = ledger.BallotCount();
  std::vector<uint8_t> validate_outcome(ledger_n, kBallotOk);
  const auto validate_shards = Executor::Shards(ledger_n, Executor::kRngShards);
  if (revoting_) {
    state.validated_revotes.assign(ledger_n, std::nullopt);
    const RistrettoPoint& authority_pk = authority_.public_key();
    for (const auto& [begin, end] : validate_shards) {
      graph.Submit([&, begin = begin, end = end] {
        clock.Timed(kSValidate, [&] {
          RevoteValidateShard(ledger, authority_pk, begin, end, state.validated_revotes,
                              validate_outcome);
        });
      });
    }
  } else {
    state.validated_ballots.assign(ledger_n, std::nullopt);
    for (const auto& [begin, end] : validate_shards) {
      graph.Submit([&, begin = begin, end = end] {
        clock.Timed(kSValidate, [&] {
          ValidateBallotShard(ledger, authorized_kiosks, begin, end, state.validated_ballots,
                              validate_outcome);
        });
      });
    }
  }
  graph.Wait();
  clock.Timed(kSDedup,
              [&] { TallyValidationOutcomes(validate_outcome, &state.output.result.discards); });
  if (revoting_) {
    if (Status status = RunRevoteDedup(*this, graph, clock, client, rng, state);
        !status.ok()) {
      return finish(Outcome<TallyOutput>::Fail(WrapStage("dedup", status)));
    }
  } else {
    if (Status fault = ProbeStageFault(faults::kTallyDedup, 0, "dedup"); !fault.ok()) {
      return finish(Outcome<TallyOutput>::Fail(WrapStage("dedup", fault)));
    }
    clock.Timed(kSDedup, [&] {
      t.accepted_ballots =
          DeduplicateBallots(state.validated_ballots, &state.output.result.discards);
      Release(state.validated_ballots);
    });
  }

  // The roster is rng-free ledger state, read once before the mix draws.
  const std::vector<RegistrationRecord> roster = ledger.ActiveRegistrations();

  // ---- Build-time randomness + fault probes (steps 2-4 of the order). ----
  ChainFlow ballots;
  ballots.n = revoting_ ? state.revote_kept.size() : t.accepted_ballots.size();
  ballots.shards = Executor::Shards(ballots.n, Executor::kRngShards);
  ballots.input = &t.ballot_mix_input;
  ballots.proof = &t.ballot_mix_proof;
  ballots.column = 1;
  ballots.steps = &t.ballot_tag_steps;
  ballots.epoch = kEpochBallotTags;

  ChainFlow roster_flow;
  roster_flow.n = roster.size();
  roster_flow.shards = Executor::Shards(roster_flow.n, Executor::kRngShards);
  roster_flow.input = &t.roster_mix_input;
  roster_flow.proof = &t.roster_mix_proof;
  roster_flow.column = 0;
  roster_flow.steps = &t.roster_tag_steps;
  roster_flow.epoch = kEpochRosterTags;

  // Each probe runs just before its step's draws; the first failure stops
  // the run before any wave-2 node is submitted.
  if (Status fault = ProbeStageFault(faults::kMixShuffle, 0, "ballot mix"); !fault.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("mix", fault)));
  }
  DrawCascadeRandomness(ballots, rng);
  if (Status fault = ProbeStageFault(faults::kMixShuffle, 1, "roster mix"); !fault.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("mix", fault)));
  }
  DrawCascadeRandomness(roster_flow, rng);
  if (Status fault = ProbeStageFault(faults::kTagApply, 0, "ballot tagging"); !fault.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("tag", fault)));
  }
  DrawTagRandomness(ballots, tagging_, rng);
  if (Status fault = ProbeStageFault(faults::kTagApply, 1, "roster tagging"); !fault.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("tag", fault)));
  }
  DrawTagRandomness(roster_flow, tagging_, rng);
  // Decrypt-tags seeds: roster batch first, then ballots.
  roster_flow.decrypt_seeds = ForkRngSeeds(rng, roster_flow.shards.size());
  ballots.decrypt_seeds = ForkRngSeeds(rng, ballots.shards.size());

  t.ballot_mix_input.resize(ballots.n);
  t.roster_mix_input.resize(roster_flow.n);
  roster_flow.buffers.Init(authority_, roster_flow.n, &t.roster_tag_shares,
                           &t.roster_tags);
  ballots.buffers.Init(authority_, ballots.n, &t.ballot_tag_shares,
                       &t.ballot_tags);

  // ---- Wave 2: both chains, chunk-granular, fully concurrent. ----
  SubmitChainNodes(graph, *this, ballots, client, clock, [&](size_t i) {
    if (revoting_) {
      t.ballot_mix_input[i] = std::move(state.revote_kept[i]);
    } else {
      t.ballot_mix_input[i] = BallotMixItem(t.accepted_ballots[i]);
    }
  });
  SubmitChainNodes(graph, *this, roster_flow, client, clock, [&](size_t i) {
    MixItem item;
    item.cts = {roster[i].public_credential};
    item.EnsureWire();
    t.roster_mix_input[i] = std::move(item);
  });
  graph.Wait();

  // Publish the final mixed batches, then close the decrypt batches in the
  // fixed finalize order: roster tags, then ballot tags.
  clock.Timed(kSMix, [&] {
    t.ballot_mix_output = ballots.proof->pairs.back().out;
    t.roster_mix_output = roster_flow.proof->pairs.back().out;
  });
  Release(state.revote_kept);
  Status status = Status::Ok();
  clock.Timed(kSDecryptTags, [&] {
    const TaggingStep& last = roster_flow.steps->back();
    status = FinalizeDecryptBatch("roster tags", last.output, last.output_wire,
                                  roster_flow.buffers, &state.authority_blame);
  });
  if (!status.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("decrypt-tags", status)));
  }
  for (const CompressedRistretto& tag : t.roster_tags) {
    state.roster_tag_counts[tag] += 1;
  }
  clock.Timed(kSDecryptTags, [&] {
    const TaggingStep& last = ballots.steps->back();
    status = FinalizeDecryptBatch("ballot tags", last.output, last.output_wire,
                                  ballots.buffers, &state.authority_blame);
  });
  if (!status.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("decrypt-tags", status)));
  }

  // ---- Join (sequential: its output order is part of the transcript). ----
  clock.Timed(kSJoin, [&] { JoinTags(state); });

  // ---- Wave 3: decrypt the counted votes. ----
  std::vector<ElGamalCiphertext> counted_votes;
  std::vector<ElGamalWire> counted_votes_wire;
  clock.Timed(kSDecryptVotes, [&] {
    const std::vector<ElGamalWire> vote_column_wire = BatchColumnWire(t.ballot_mix_output, 0);
    counted_votes.reserve(t.counted_indices.size());
    counted_votes_wire.reserve(t.counted_indices.size());
    for (uint64_t index : t.counted_indices) {
      counted_votes.push_back(t.ballot_mix_output[index].cts.at(0));
      counted_votes_wire.push_back(vote_column_wire[index]);
    }
  });
  const auto vote_shards = Executor::Shards(counted_votes.size(), Executor::kRngShards);
  const auto vote_seeds = ForkRngSeeds(rng, vote_shards.size());
  DecryptBatchBuffers vote_buffers;
  vote_buffers.Init(authority_, counted_votes.size(), &t.vote_shares,
                    &t.vote_points);
  for (size_t s = 0; s < vote_shards.size(); ++s) {
    const auto [begin, end] = vote_shards[s];
    graph.Submit([&, s, begin, end] {
      clock.Timed(kSDecryptVotes, [&] {
        ChaChaRng child(vote_seeds[s]);
        DecryptShareShardRange(*this, client, counted_votes, counted_votes_wire,
                               kEpochVotes, begin, end, child, vote_buffers);
      });
    });
  }
  graph.Wait();
  clock.Timed(kSDecryptVotes, [&] {
    status = FinalizeDecryptBatch("votes", counted_votes, counted_votes_wire, vote_buffers,
                                  &state.authority_blame);
  });
  if (!status.ok()) {
    return finish(Outcome<TallyOutput>::Fail(WrapStage("decrypt-votes", status)));
  }
  clock.Timed(kSDecryptVotes, [&] { CountVotes(candidates, state); });

  for (const auto& [member, blame_status] : state.authority_blame) {
    state.output.excluded_authorities.push_back(AuthorityBlame{member, blame_status});
  }
  return finish(Outcome<TallyOutput>::Ok(std::move(state.output)));
}

}  // namespace votegral
