#include "src/votegral/revote.h"

#include <algorithm>

#include "src/votegral/tally_internal.h"

namespace votegral {

namespace {

// One small-counter point with its canonical encoding.
struct CounterEntry {
  RistrettoPoint point;
  CompressedRistretto wire;
};

// k -> (k*B, enc(k*B)) for k in [0, kRevoteCounterLimit). Built once via
// incremental addition and serial encodes (~2 ms); both the counter decode
// table and the dummy fast path read it. The initializer must never wait on
// the executor: the first call can come from a pool thread inside a parallel
// stage, which would help the pool while holding this static's guard, run a
// sibling task that reaches the guard, and block on itself
// (tests/test_revote_first_touch.cpp).
const std::vector<CounterEntry>& CounterEntries() {
  static const std::vector<CounterEntry> entries = [] {
    std::vector<CounterEntry> e(kRevoteCounterLimit);
    RistrettoPoint p = RistrettoPoint::Identity();
    for (uint64_t k = 0; k < kRevoteCounterLimit; ++k) {
      e[k] = CounterEntry{p, p.Encode()};
      p = p + RistrettoPoint::Base();
    }
    return e;
  }();
  return entries;
}

// encoding of k*B -> k: the counter and dummy-size decode direction.
const std::map<CompressedRistretto, uint64_t>& CounterTable() {
  static const std::map<CompressedRistretto, uint64_t> table = [] {
    std::map<CompressedRistretto, uint64_t> t;
    const std::vector<CounterEntry>& entries = CounterEntries();
    for (uint64_t k = 0; k < kRevoteCounterLimit; ++k) {
      t[entries[k].wire] = k;
    }
    return t;
  }();
  return table;
}

// Shared close of one tag group given its member (index, counter) pairs with
// the max-counter member last: last-write-wins, whole-group drop on a tied
// max. Both selection implementations fold through here so their outputs are
// structurally forced to agree.
void CloseGroup(std::span<const std::pair<uint64_t, uint64_t>> members,
                RevoteSelection& sel) {
  const size_t size = members.size();
  sel.group_sizes[size] += 1;
  const bool tied_max =
      size >= 2 && members[size - 2].second == members[size - 1].second;
  if (tied_max) {
    sel.duplicate_tag += size;
    return;
  }
  sel.kept.push_back(members[size - 1].first);
  sel.superseded += size - 1;
}

}  // namespace

std::optional<uint64_t> DecodeCounterPoint(const CompressedRistretto& encoding) {
  const auto& table = CounterTable();
  auto it = table.find(encoding);
  if (it == table.end()) {
    return std::nullopt;
  }
  return it->second;
}

MixItem RevoteDummyItem(const RevoteDummyGroup& group, uint64_t j) {
  MixItem item;
  item.cts = {ElGamalTrivialEncrypt(RevoteBottomPoint()),
              ElGamalTrivialEncrypt(RistrettoPoint::MulBase(group.credential)),
              ElGamalTrivialEncrypt(RistrettoPoint::MulBase(Scalar::FromU64(j)))};
  item.EnsureWire();
  return item;
}

void BuildRevoteDummyItems(std::span<const RevoteDummyGroup> groups,
                           std::span<const std::pair<size_t, uint64_t>> slots,
                           std::span<MixItem> out, Executor& executor) {
  Require(slots.size() == out.size(), "revote: dummy slot/output size mismatch");
  for (const auto& [g, j] : slots) {
    Require(g < groups.size() && j < kRevoteCounterLimit,
            "revote: dummy slot out of range");
  }
  Executor::Scope scope(executor);  // BatchEncodePoints follows this pool
  const std::vector<CounterEntry>& counters = CounterEntries();
  // Credential column: one product per group (every member of a group
  // shares d*B), multiplied and encoded in batches.
  std::vector<Scalar> credentials;
  credentials.reserve(groups.size());
  for (const RevoteDummyGroup& group : groups) {
    credentials.push_back(group.credential);
  }
  std::vector<RistrettoPoint> cred(groups.size());
  executor.ParallelFor(groups.size(), [&](size_t begin, size_t end) {
    RistrettoPoint::MulEach(RistrettoPoint::Base(),
                            std::span(credentials).subspan(begin, end - begin),
                            std::span(cred).subspan(begin, end - begin));
  });
  std::vector<CompressedRistretto> cred_wire(groups.size());
  BatchEncodePoints(cred, cred_wire);
  static const CompressedRistretto kZeroWire = RistrettoPoint::Identity().Encode();
  static const CompressedRistretto kBottomWire = RevoteBottomPoint().Encode();
  executor.ParallelForEach(slots.size(), [&](size_t k) {
    const auto& [g, j] = slots[k];
    MixItem item;
    item.cts = {ElGamalTrivialEncrypt(RevoteBottomPoint()),
                ElGamalTrivialEncrypt(cred[g]),
                ElGamalTrivialEncrypt(counters[j].point)};
    // Wire cache pasted from the shared encodings: trivial encryptions have
    // an identity c1, so the 192 bytes are
    // [0 | bottom | 0 | d*B | 0 | j*B] in 32-byte slots.
    item.wire.resize(192);
    const CompressedRistretto* slots32[6] = {&kZeroWire, &kBottomWire, &kZeroWire,
                                             &cred_wire[g], &kZeroWire,
                                             &counters[j].wire};
    for (size_t half = 0; half < 6; ++half) {
      std::copy(slots32[half]->begin(), slots32[half]->end(),
                item.wire.begin() + static_cast<ptrdiff_t>(32 * half));
    }
    out[k] = std::move(item);
  });
}

size_t RevoteCoverClasses(size_t total) {
  size_t classes = 0;
  while (total > 0) {
    ++classes;
    total >>= 1;
  }
  return classes;
}

size_t RevoteCoverTarget(size_t total, size_t size) {
  if (size < 1 || size > RevoteCoverClasses(total)) {
    return 0;
  }
  const size_t bucket = size_t{1} << (size - 1);
  return (total + bucket - 1) / bucket;
}

std::vector<uint64_t> RevotePaddingPlan(size_t total,
                                        const std::map<uint64_t, size_t>& real_group_sizes) {
  std::vector<uint64_t> plan;
  const size_t classes = RevoteCoverClasses(total);
  for (size_t s = 1; s <= classes; ++s) {
    const size_t target = RevoteCoverTarget(total, s);
    auto it = real_group_sizes.find(s);
    const size_t have = it == real_group_sizes.end() ? 0 : it->second;
    for (size_t g = have; g < target; ++g) {
      plan.push_back(s);
    }
  }
  return plan;
}

RevoteSelection SelectLastPerTag(std::span<const CompressedRistretto> tags,
                                 std::span<const CompressedRistretto> counter_points) {
  Require(tags.size() == counter_points.size(), "revote: tag/counter size mismatch");
  const size_t n = tags.size();
  RevoteSelection sel;
  std::vector<uint64_t> counter_of(n, 0);
  std::vector<uint64_t> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto counter = DecodeCounterPoint(counter_points[i]);
    if (!counter.has_value()) {
      ++sel.invalid_structure;
      continue;
    }
    counter_of[i] = *counter;
    order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
    if (tags[a] != tags[b]) return tags[a] < tags[b];
    if (counter_of[a] != counter_of[b]) return counter_of[a] < counter_of[b];
    return a < b;
  });
  std::vector<std::pair<uint64_t, uint64_t>> members;
  for (size_t run = 0; run < order.size();) {
    size_t end = run;
    while (end < order.size() && tags[order[end]] == tags[order[run]]) {
      ++end;
    }
    members.clear();
    for (size_t k = run; k < end; ++k) {
      members.emplace_back(order[k], counter_of[order[k]]);
    }
    CloseGroup(members, sel);
    run = end;
  }
  std::sort(sel.kept.begin(), sel.kept.end());
  return sel;
}

RevoteSelection SelectLastPerTagQuadratic(std::span<const CompressedRistretto> tags,
                                          std::span<const CompressedRistretto> counter_points) {
  Require(tags.size() == counter_points.size(), "revote: tag/counter size mismatch");
  const size_t n = tags.size();
  RevoteSelection sel;
  // Discover group representatives by linear scan (quadratic in the worst
  // case — this is deliberately the naive algorithm).
  std::vector<uint64_t> reps;
  std::vector<uint8_t> decodable(n, 0);
  std::vector<uint64_t> counter_of(n, 0);
  for (size_t i = 0; i < n; ++i) {
    auto counter = DecodeCounterPoint(counter_points[i]);
    if (!counter.has_value()) {
      ++sel.invalid_structure;
      continue;
    }
    decodable[i] = 1;
    counter_of[i] = *counter;
    bool seen = false;
    for (uint64_t r : reps) {
      if (tags[r] == tags[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      reps.push_back(i);
    }
  }
  // Close groups in ascending tag order (the sort-based kernel's run order)
  // so the two implementations also agree on any order-sensitive accounting.
  std::sort(reps.begin(), reps.end(),
            [&](uint64_t a, uint64_t b) { return tags[a] < tags[b]; });
  std::vector<std::pair<uint64_t, uint64_t>> members;
  for (uint64_t r : reps) {
    members.clear();
    for (size_t i = 0; i < n; ++i) {
      if (decodable[i] != 0 && tags[i] == tags[r]) {
        members.emplace_back(i, counter_of[i]);
      }
    }
    std::sort(members.begin(), members.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
    CloseGroup(members, sel);
  }
  std::sort(sel.kept.begin(), sel.kept.end());
  return sel;
}

void RevoteValidateShard(const PublicLedger& ledger, const RistrettoPoint& authority_pk,
                         size_t begin, size_t end,
                         std::vector<std::optional<RevoteBallot>>& validated,
                         std::vector<uint8_t>& outcome) {
  LedgerCursor cursor = ledger.BallotCursor(begin, end);
  LedgerEntryView view;
  for (size_t i = begin; i < end; ++i) {
    Require(cursor.Next(&view), "revote: ballot cursor ended before its shard");
    auto ballot = RevoteBallot::Parse(view.payload);
    if (!ballot.ok()) {
      outcome[i] = tally_internal::kBallotBadStructure;
      continue;
    }
    if (!CheckRevoteBallot(*ballot, view.payload, authority_pk).ok()) {
      outcome[i] = tally_internal::kBallotBadSignature;
      continue;
    }
    validated[i] = std::move(*ballot);
  }
}

namespace tally_internal {

void BuildRevoteMixInput(const TallyService& service, Rng& rng, TallyPipelineState& state) {
  RevoteTranscript& rt = state.output.transcript.revote;
  Executor& executor = service.executor();

  // Accepted board ballots, ledger order (the verifier replays this walk).
  for (std::optional<RevoteBallot>& ballot : state.validated_revotes) {
    if (ballot.has_value()) {
      rt.accepted.push_back(std::move(*ballot));
    }
  }
  Release(state.validated_revotes);
  const size_t total = rt.accepted.size();

  // Padding-oracle step (the VoteAgain trust split): decrypt the credential
  // column *internally* to learn the real group-size multiset and plan whole
  // dummy groups lifting it to the cover envelope of `total`. Privacy-trusted
  // only — every published byte below is verifier-replayed, and the dummy
  // openings let anyone recompute the padding exactly.
  if (service.revote_padding() && total > 0) {
    std::vector<CompressedRistretto> credentials(total);
    std::vector<uint8_t> decodable(total, 0);
    executor.ParallelForEach(total, [&](size_t i) {
      credentials[i] =
          service.authority().Decrypt(rt.accepted[i].encrypted_credential).Encode();
      // Census only ballots whose counter will decode post-mix: an
      // undecodable counter drops as invalid_structure at selection, so it
      // must not count toward the group sizes the verifier's envelope check
      // replays from the revealed tags.
      decodable[i] =
          DecodeCounterPoint(service.authority().Decrypt(rt.accepted[i].encrypted_counter)
                                 .Encode())
                  .has_value()
              ? 1
              : 0;
    });
    std::map<CompressedRistretto, size_t> casts_per_credential;
    for (size_t i = 0; i < total; ++i) {
      if (decodable[i] != 0) {
        casts_per_credential[credentials[i]] += 1;
      }
    }
    std::map<uint64_t, size_t> real_group_sizes;
    for (const auto& [credential, casts] : casts_per_credential) {
      real_group_sizes[casts] += 1;
    }
    for (uint64_t size : RevotePaddingPlan(total, real_group_sizes)) {
      rt.dummies.push_back(RevoteDummyGroup{Scalar::Random(rng), size});
    }
  }

  // Width-3 mix input: the accepted ballots' ciphertext triples, then every
  // dummy member's trivial encryptions. After the mix, tags, counters and
  // group sizes can be revealed without linking anything back to board rows.
  size_t padded = total;
  for (const RevoteDummyGroup& group : rt.dummies) {
    padded += group.size;
  }
  rt.mix_input.resize(padded);
  executor.ParallelForEach(total, [&](size_t i) {
    const RevoteBallot& b = rt.accepted[i];
    MixItem item;
    item.cts = {b.encrypted_vote, b.encrypted_credential, b.encrypted_counter};
    item.EnsureWire();
    rt.mix_input[i] = std::move(item);
  });
  std::vector<std::pair<size_t, uint64_t>> dummy_slots;  // (group, member)
  dummy_slots.reserve(padded - total);
  for (size_t g = 0; g < rt.dummies.size(); ++g) {
    for (uint64_t j = 0; j < rt.dummies[g].size; ++j) {
      dummy_slots.emplace_back(g, j);
    }
  }
  BuildRevoteDummyItems(rt.dummies, dummy_slots,
                        std::span<MixItem>(rt.mix_input).subspan(total), executor);
}

void SelectRevoteKept(const TallyService& service, TallyPipelineState& state) {
  RevoteTranscript& rt = state.output.transcript.revote;
  TallyDiscards& discards = state.output.result.discards;

  // tag-sort -> last-write-wins over the revealed (tag, counter) pairs.
  // Dummy groups contribute their size-1 supersessions by design: the board
  // observables stay a pure function of the envelope.
  RevoteSelection selection = SelectLastPerTag(rt.tags, rt.counter_points);
  rt.kept_indices = std::move(selection.kept);
  discards.superseded += selection.superseded;
  discards.duplicate_tag += selection.duplicate_tag;
  discards.invalid_structure += selection.invalid_structure;

  // The kept [Enc(vote), Enc(c_pk)] columns feed the ordinary ballot mix —
  // the second shuffle that decouples group membership from join outcomes.
  state.revote_kept.resize(rt.kept_indices.size());
  service.executor().ParallelForEach(rt.kept_indices.size(), [&](size_t i) {
    const MixItem& source = rt.mix_output[rt.kept_indices[i]];
    MixItem item;
    item.cts = {source.cts.at(0), source.cts.at(1)};
    item.EnsureWire();
    state.revote_kept[i] = std::move(item);
  });
}

}  // namespace tally_internal

}  // namespace votegral
