// Adversarial serialization tests: every decoder of bytes an attacker
// controls (QR payloads, ledger entries and snapshots, ballots, proofs,
// replica messages) either round-trips its input or rejects it with a coded
// Status that names the decoder, never throws, and never allocates past a
// fixed cap, whatever count or length its input claims. Whenever a mutated
// artifact *does* parse, downstream cryptographic verification must reject
// it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "src/crypto/drbg.h"
#include "src/ledger/persistence.h"
#include "src/peripherals/qr.h"
#include "src/replica/leader.h"
#include "src/trip/registrar.h"
#include "src/votegral/ballot.h"
#include "src/votegral/election.h"

// Every allocation of this binary goes through malloc, and while a decode is
// metered its bytes are summed, on any thread; one that would take the sum
// past the cap is refused with std::bad_alloc instead of being made, so a
// count an attacker sets cannot reserve memory even under overcommit.
namespace {
std::atomic<bool> g_metering{false};
std::atomic<uint64_t> g_metered_bytes{0};
std::atomic<bool> g_past_cap{false};
// Above the largest limit any decoder declares (the 8 MiB transport frame).
constexpr uint64_t kDecodeAllocationCap = uint64_t{16} << 20;
}  // namespace

void* operator new(std::size_t size) {
  if (g_metering.load(std::memory_order_relaxed) &&
      g_metered_bytes.fetch_add(size, std::memory_order_relaxed) + size >
          kDecodeAllocationCap) {
    g_past_cap.store(true, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace votegral {
namespace {

// Meters the allocations made while it lives (see operator new above).
class AllocationMeter {
 public:
  AllocationMeter() {
    g_metered_bytes.store(0);
    g_past_cap.store(false);
    g_metering.store(true);
  }
  ~AllocationMeter() { g_metering.store(false); }
  uint64_t bytes() const { return g_metered_bytes.load(); }
  bool past_cap() const { return g_past_cap.load(); }
};

// Applies `mutations` random single-byte mutations.
Bytes Mutate(Bytes data, size_t mutations, Rng& rng) {
  for (size_t i = 0; i < mutations && !data.empty(); ++i) {
    size_t pos = rng.Uniform(data.size());
    data[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
  }
  return data;
}

// Decodes bytes and re-encodes whatever the decoder accepted.
using RoundTrip = std::function<Outcome<Bytes>(std::span<const uint8_t>)>;

// One decoder under test: the name its failure reasons start with, honest
// inputs, its round trip, and the one code besides kCorrupted it may fail with.
struct Decoder {
  std::string name;
  std::vector<Bytes> honest;
  RoundTrip round_trip;
  StatusCode also_allowed = StatusCode::kCorrupted;
};

template <typename T>
RoundTrip Reencode(Outcome<T> (*parse)(std::span<const uint8_t>)) {
  return [parse](std::span<const uint8_t> bytes) {
    auto parsed = parse(bytes);
    if (!parsed.ok()) {
      return Outcome<Bytes>::Fail(parsed.status);
    }
    return Outcome<Bytes>::Ok(parsed->Serialize());
  };
}

// Replica messages: the mutated bytes are the payload under the right tag.
template <typename Msg>
RoundTrip ReencodeMessage(ReplicaMsgType type, Outcome<Msg> (*decode)(const WireMessage&),
                          WireMessage (*encode)(const Msg&)) {
  return [=](std::span<const uint8_t> bytes) {
    WireMessage msg{static_cast<uint16_t>(type), Bytes(bytes.begin(), bytes.end())};
    auto parsed = decode(msg);
    if (!parsed.ok()) {
      return Outcome<Bytes>::Fail(parsed.status);
    }
    return Outcome<Bytes>::Ok(encode(*parsed).payload);
  };
}

Outcome<Bytes> QrRoundTrip(std::span<const uint8_t> bytes) {
  QrSymbol symbol;
  symbol.framed.assign(bytes.begin(), bytes.end());
  auto payload = QrCodec::Decode(symbol);
  if (!payload.ok()) {
    return Outcome<Bytes>::Fail(payload.status);
  }
  return Outcome<Bytes>::Ok(QrCodec::Encode(*payload, Symbology::kQrCode).framed);
}

Outcome<Bytes> LedgerRoundTrip(std::span<const uint8_t> bytes) {
  auto ledger = ParseLedger(bytes);
  if (!ledger.ok()) {
    return Outcome<Bytes>::Fail(ledger.status);
  }
  return Outcome<Bytes>::Ok(SerializeLedger(*ledger));
}

Outcome<Bytes> SnapshotRoundTrip(std::span<const uint8_t> bytes) {
  auto ledger = ParsePublicLedger(bytes);
  if (!ledger.ok()) {
    return Outcome<Bytes>::Fail(ledger.status);
  }
  return Outcome<Bytes>::Ok(SerializePublicLedger(*ledger));
}

std::vector<Bytes> Payloads(const Ledger& log) {
  std::vector<Bytes> out;
  LedgerEntryView view;
  for (LedgerCursor cursor = log.Scan(); cursor.Next(&view);) {
    out.emplace_back(view.payload.begin(), view.payload.end());
  }
  return out;
}

// Honest artifacts of every decoder, from a seeded two-voter election, a
// revoting election and a replication leader serving the first one's board.
std::vector<Decoder> AllDecoders() {
  ChaChaRng rng(603);
  ElectionConfig config;
  config.roster = {"alice", "bob"};
  config.candidates = {"A", "B"};
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  std::vector<RegisteredVoter> voters;
  for (const std::string& id : config.roster) {
    auto voter = election.Register(id, 1, vsd, rng);
    Require(voter.ok(), "test: registration failed");
    voters.push_back(std::move(*voter));
    Require(election.Cast(voters.back().activated[0], "A", rng).ok(), "test: cast failed");
    Require(election.Cast(voters.back().activated[1], "B", rng).ok(), "test: cast failed");
  }
  config.revoting = true;
  Election revoting(config, rng);
  Vsd revote_vsd = revoting.trip().MakeVsd();
  auto revoter = revoting.Register("alice", 0, revote_vsd, rng);
  Require(revoter.ok(), "test: registration failed");
  Require(revoting.Cast(revoter->activated[0], "A", rng).ok(), "test: cast failed");
  Require(revoting.Cast(revoter->activated[0], "B", rng).ok(), "test: cast failed");

  const PublicLedger& board = election.ledger();
  std::vector<Bytes> ballots = Payloads(board.ballot_log());
  std::vector<Bytes> revote_ballots = Payloads(revoting.ledger().ballot_log());
  Ballot ballot = *Ballot::Parse(ballots[0]);
  RevoteBallot revote_ballot = *RevoteBallot::Parse(revote_ballots[0]);

  std::vector<Bytes> tickets, envelopes, commits, checkouts, responses, symbols;
  for (const RegisteredVoter& voter : voters) {
    tickets.push_back(voter.paper.ticket.Serialize());
    symbols.push_back(QrCodec::Encode(tickets.back(), Symbology::kBarcode128).framed);
    std::vector<PaperCredential> credentials = voter.paper.fakes;
    credentials.push_back(voter.paper.real);
    for (const PaperCredential& c : credentials) {
      envelopes.push_back(c.envelope.Serialize());
      commits.push_back(c.commit.Serialize());
      checkouts.push_back(c.checkout.Serialize());
      responses.push_back(c.response.Serialize());
      for (const Bytes* segment :
           {&envelopes.back(), &commits.back(), &checkouts.back(), &responses.back()}) {
        symbols.push_back(QrCodec::Encode(*segment, Symbology::kQrCode).framed);
      }
    }
  }
  std::vector<Bytes> commitments;
  LedgerEntryView view;
  for (LedgerCursor cursor = board.envelope_log().Scan(); cursor.Next(&view);) {
    if (view.topic == "envelope-commitment" && commitments.size() < 3) {
      commitments.emplace_back(view.payload.begin(), view.payload.end());
    }
  }

  const Scalar x = Scalar::Random(rng);
  DleqStatement statement;
  statement.bases = {RistrettoPoint::Base(), ballot.encrypted_vote.c1};
  statement.publics = {RistrettoPoint::MulBase(x), x * ballot.encrypted_vote.c1};
  DleqTranscript dleq = ProveDleqFs("test/decoders", statement, x, rng);

  SchnorrKeyPair leader_key = SchnorrKeyPair::Generate(rng);
  ReplicationLeader leader(board.ballot_log(), leader_key, rng);
  CheckpointMsg checkpoint = leader.MakeCheckpoint(7, 1);
  Require(!checkpoint.proof.path.empty(), "test: consistency proof has no nodes");
  WireMessage frames = leader.HandleRequest(EncodeGetFrames(GetFramesMsg{8, 0, 16}));
  Require(frames.type == static_cast<uint16_t>(ReplicaMsgType::kFrames),
          "test: leader did not answer with frames");

  return {
      {"check-in ticket", tickets, Reencode(CheckInTicket::Parse)},
      {"envelope", envelopes, Reencode(Envelope::Parse)},
      {"commit segment", commits, Reencode(CommitSegment::Parse)},
      {"check-out segment", checkouts, Reencode(CheckOutSegment::Parse)},
      {"response segment", responses, Reencode(ResponseSegment::Parse)},
      {"qr symbol", symbols, QrRoundTrip},
      {"ballot", ballots, Reencode(Ballot::Parse)},
      {"revote binding proof", {revote_ballot.proof.Serialize()},
       Reencode(RevoteBindingProof::Parse)},
      {"revote ballot", revote_ballots, Reencode(RevoteBallot::Parse)},
      {"dleq transcript", {dleq.Serialize()}, Reencode(DleqTranscript::Parse)},
      {"elgamal ciphertext", {ballot.encrypted_vote.Serialize()},
       Reencode(ElGamalCiphertext::Parse)},
      {"schnorr signature", {ballot.credential_sig.Serialize()},
       Reencode(SchnorrSignature::Parse)},
      {"registration record", {board.ActiveRegistrations()[0].Serialize()},
       Reencode(RegistrationRecord::Parse)},
      {"envelope commitment", commitments, Reencode(EnvelopeCommitment::Parse)},
      {"signed checkpoint", {checkpoint.checkpoint.Serialize()},
       Reencode(SignedCheckpoint::Parse)},
      {"consistency proof", {checkpoint.proof.Serialize()}, Reencode(ConsistencyProof::Parse),
       StatusCode::kInvalidProof},
      {"replica get_checkpoint", {EncodeGetCheckpoint(GetCheckpointMsg{5, 2}).payload},
       ReencodeMessage(ReplicaMsgType::kGetCheckpoint, DecodeGetCheckpoint,
                       EncodeGetCheckpoint)},
      {"replica checkpoint", {EncodeCheckpoint(checkpoint).payload},
       ReencodeMessage(ReplicaMsgType::kCheckpoint, DecodeCheckpoint, EncodeCheckpoint),
       StatusCode::kInvalidProof},
      {"replica get_frames", {EncodeGetFrames(GetFramesMsg{6, 0, 16}).payload},
       ReencodeMessage(ReplicaMsgType::kGetFrames, DecodeGetFrames, EncodeGetFrames)},
      {"replica frames", {frames.payload},
       ReencodeMessage(ReplicaMsgType::kFrames, DecodeFrames, EncodeFrames)},
      {"replica error",
       {EncodeError(ErrorMsg{9, StatusCode::kUnavailable, "leader busy"}).payload},
       ReencodeMessage(ReplicaMsgType::kError, DecodeError, EncodeError)},
      {"serialized ledger", {SerializeLedger(board.ballot_log())}, LedgerRoundTrip},
      {"ledger snapshot", {SerializePublicLedger(board)}, SnapshotRoundTrip},
  };
}

class DecoderTable : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { decoders_ = new std::vector<Decoder>(AllDecoders()); }
  static void TearDownTestSuite() {
    delete decoders_;
    decoders_ = nullptr;
  }

  // The contract for one input: no throw and no allocation past the cap; an
  // accepted input re-encodes to itself; a rejection is coded and its reason
  // starts with the decoder.
  static void Expect(const Decoder& d, std::span<const uint8_t> input, const char* kind) {
    Outcome<Bytes> out = Outcome<Bytes>::Fail(StatusCode::kFailed, "threw");
    bool threw = false;
    bool past_cap = false;
    uint64_t allocated = 0;
    {
      AllocationMeter meter;
      try {
        out = d.round_trip(input);
      } catch (...) {
        threw = true;
      }
      past_cap = meter.past_cap();
      allocated = meter.bytes();
    }
    EXPECT_FALSE(past_cap) << d.name << ", " << kind << ": asked for " << allocated
                           << " bytes, past the " << kDecodeAllocationCap << "-byte cap";
    EXPECT_FALSE(threw) << d.name << ", " << kind;
    if (out.ok()) {
      EXPECT_EQ(*out, Bytes(input.begin(), input.end()))
          << d.name << ": accepted " << kind << " input does not round-trip";
      return;
    }
    const StatusCode code = out.status.code();
    EXPECT_TRUE(code == StatusCode::kCorrupted || code == d.also_allowed)
        << d.name << ", " << kind << ": " << out.status;
    EXPECT_EQ(out.status.reason().rfind(d.name + ": ", 0), 0u)
        << d.name << ", " << kind << ": " << out.status;
  }

  static std::vector<Decoder>* decoders_;
};

std::vector<Decoder>* DecoderTable::decoders_ = nullptr;

TEST_F(DecoderTable, CoversEveryDecoderOfOutsideBytes) {
  EXPECT_EQ(decoders_->size(), 23u);
  for (const Decoder& d : *decoders_) {
    EXPECT_FALSE(d.honest.empty()) << d.name;
  }
}

TEST_F(DecoderTable, HonestArtifactsRoundTrip) {
  for (const Decoder& d : *decoders_) {
    for (const Bytes& wire : d.honest) {
      auto out = d.round_trip(wire);
      ASSERT_TRUE(out.ok()) << d.name << ": " << out.status;
      EXPECT_EQ(*out, wire) << d.name;
    }
  }
}

TEST_F(DecoderTable, EveryTruncationAndTrailingByteFailsCoded) {
  for (const Decoder& d : *decoders_) {
    for (const Bytes& wire : d.honest) {
      for (size_t cut = 0; cut < wire.size(); ++cut) {
        Expect(d, std::span<const uint8_t>(wire).first(cut), "truncated");
      }
      Bytes extended = wire;
      extended.push_back(0);
      Expect(d, extended, "extended");
    }
  }
}

TEST_F(DecoderTable, MutationsAndGarbageFailCodedOrRoundTrip) {
  ChaChaRng rng(604);
  for (const Decoder& d : *decoders_) {
    for (int trial = 0; trial < 200; ++trial) {
      const Bytes& wire = d.honest[static_cast<size_t>(trial) % d.honest.size()];
      Expect(d, Mutate(wire, 1 + rng.Uniform(4), rng), "mutated");
    }
    for (int trial = 0; trial < 200; ++trial) {
      Expect(d, rng.RandomBytes(rng.Uniform(2 * d.honest[0].size() + 16)), "random");
    }
  }
}

TEST(AllocationCap, MeteredAllocationPastTheCapIsRefused) {
  // The meter bites: a buffer sized by a claimed count past the cap is never
  // allocated, and the attempt is recorded.
  bool refused = false;
  bool past_cap = false;
  {
    AllocationMeter meter;
    try {
      Bytes claimed;
      claimed.reserve(kDecodeAllocationCap + 1);
    } catch (const std::bad_alloc&) {
      refused = true;
    }
    past_cap = meter.past_cap();
  }
  EXPECT_TRUE(refused);
  EXPECT_TRUE(past_cap);
  Bytes unmetered;
  unmetered.reserve(kDecodeAllocationCap + 1);  // no meter, no cap
  EXPECT_GE(unmetered.capacity(), kDecodeAllocationCap + 1);
}

TEST(DecoderReasons, NestedFailureNamesEachDecoderAndItsOffset) {
  Bytes wire = Ballot{}.Serialize();
  std::fill(wire.begin() + 32, wire.begin() + 64, 0xff);  // C2 of the vote
  auto ballot = Ballot::Parse(wire);
  ASSERT_FALSE(ballot.ok());
  EXPECT_EQ(ballot.status.code(), StatusCode::kCorrupted);
  EXPECT_EQ(ballot.status.reason(),
            "ballot: field at offset 0: elgamal ciphertext: non-canonical field at offset 32");

  // A nested failure that has its own code keeps it.
  CheckpointMsg msg;
  msg.proof = ConsistencyProof{1, 2, {}};
  WireMessage encoded = EncodeCheckpoint(msg);
  encoded.payload[8 + 104 + 4 + 16] = 200;  // the proof's node count
  auto decoded = DecodeCheckpoint(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status.code(), StatusCode::kInvalidProof);
  EXPECT_EQ(decoded.status.reason(),
            "replica checkpoint: field at offset 116: consistency proof: implausible node "
            "count at offset 16");
}

class SerializationFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<ChaChaRng>(600);
    TripSystemParams params;
    params.roster = {"alice"};
    system_ = std::make_unique<TripSystem>(TripSystem::Create(params, *rng_));
    RegistrationDesk desk(*system_);
    auto outcome = desk.RegisterVoter("alice", 1, *rng_);
    ASSERT_TRUE(outcome.ok());
    outcome_ = std::make_unique<RegistrationOutcome>(std::move(*outcome));
  }

  std::unique_ptr<ChaChaRng> rng_;
  std::unique_ptr<TripSystem> system_;
  std::unique_ptr<RegistrationOutcome> outcome_;
};

TEST_F(SerializationFuzz, MutatedCommitSegmentsNeverActivate) {
  Bytes wire = outcome_->real.commit.Serialize();
  int parsed_count = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = Mutate(wire, 1 + rng_->Uniform(4), *rng_);
    auto parsed = CommitSegment::Parse(mutated);
    if (!parsed.ok()) {
      continue;
    }
    ++parsed_count;
    if (mutated == wire) {
      continue;  // mutation happened to cancel out
    }
    // A structurally-parsable mutant must fail activation (signature or
    // proof or ledger check breaks).
    PaperCredential credential = outcome_->real;
    credential.commit = *parsed;
    Vsd vsd = system_->MakeVsd();
    auto activated = vsd.Activate(credential, system_->ledger());
    EXPECT_FALSE(activated.ok());
  }
  // Fixed-width point/scalar fields make some mutants parseable; ensure the
  // loop exercised the interesting path at least occasionally.
  EXPECT_GT(parsed_count, 0);
}

TEST_F(SerializationFuzz, MutatedResponseSegmentsNeverActivate) {
  Bytes wire = outcome_->real.response.Serialize();
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = Mutate(wire, 1 + rng_->Uniform(4), *rng_);
    if (mutated == wire) {
      continue;
    }
    auto parsed = ResponseSegment::Parse(mutated);
    if (!parsed.ok()) {
      continue;
    }
    PaperCredential credential = outcome_->real;
    credential.response = *parsed;
    Vsd vsd = system_->MakeVsd();
    EXPECT_FALSE(vsd.Activate(credential, system_->ledger()).ok());
  }
}

TEST_F(SerializationFuzz, MutatedBallotsNeverValidate) {
  ChaChaRng rng(601);
  ElectionConfig config;
  config.roster = {"alice"};
  config.candidates = {"A", "B"};
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  auto alice = election.Register("alice", 0, vsd, rng);
  ASSERT_TRUE(alice.ok());
  Ballot ballot = MakeBallot(alice->activated[0], election.candidates(), 0,
                             election.trip().authority_pk(), rng);
  Bytes wire = ballot.Serialize();
  ASSERT_TRUE(CheckBallot(ballot, election.trip().authorized_kiosks()).ok());

  int parsed_count = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = Mutate(wire, 1 + rng.Uniform(3), rng);
    if (mutated == wire) {
      continue;
    }
    auto parsed = Ballot::Parse(mutated);
    if (!parsed.ok()) {
      continue;
    }
    ++parsed_count;
    EXPECT_FALSE(CheckBallot(*parsed, election.trip().authorized_kiosks()).ok());
  }
  EXPECT_GT(parsed_count, 0);
}

}  // namespace
}  // namespace votegral
