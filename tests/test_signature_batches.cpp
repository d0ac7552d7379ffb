// Differential tests for the batched signature kernels: the tally's
// validate stage (ValidateBallots, one VerifySchnorrGroups batch per shard)
// against a per-ballot CheckBallot reference, and the verifier's record
// check (VerifyRegistrationRecords) against VerifyRegistrationRecord. Bad
// inputs of every kind sit at shard edges, inside one shard, in every shard
// and across a whole shard; outcomes, discard counts, the validated set and
// the reported record must match the per-item path at 1 and 4 threads.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/trip/official.h"
#include "src/votegral/election.h"

namespace votegral {
namespace {

// Sets the top bit of an encoding: no canonical field element has it, so
// the bytes never decode.
CompressedRistretto NonCanonical(CompressedRistretto bytes) {
  bytes[31] |= 0x80;
  return bytes;
}

// A signature whose s is off by one.
SchnorrSignature Broken(SchnorrSignature sig) {
  sig.s = sig.s + Scalar::One();
  return sig;
}

TEST(SchnorrGroups, VerdictsMatchPerItemChecksForAnyBadPattern) {
  ChaChaRng rng(2201);
  // Groups of 0 to 3 entries under a few repeated keys (as on a board).
  std::vector<SchnorrKeyPair> keys;
  for (int k = 0; k < 3; ++k) {
    keys.push_back(SchnorrKeyPair::Generate(rng));
  }
  std::vector<SchnorrBatchEntry> honest;
  std::vector<size_t> group_end;
  for (size_t g = 0; g < 37; ++g) {
    for (size_t e = 0; e < g % 4; ++e) {
      const SchnorrKeyPair& key = keys[(g + e) % keys.size()];
      SchnorrBatchEntry entry{key.public_bytes(), rng.RandomBytes(20 + g), {}};
      entry.signature = key.Sign(entry.message, rng);
      honest.push_back(std::move(entry));
    }
    group_end.push_back(honest.size());
  }
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<SchnorrBatchEntry> entries = honest;
    // Trial 0 is all good; trial 1 breaks everything; the rest break random
    // subsets of growing density.
    for (size_t i = 0; i < entries.size(); ++i) {
      const bool corrupt =
          trial == 1 || (trial > 1 && rng.Uniform(24) < static_cast<uint64_t>(trial) / 3);
      if (corrupt) {
        switch (i % 3) {
          case 0:
            entries[i].signature = Broken(entries[i].signature);
            break;
          case 1:
            entries[i].signature.r_bytes = NonCanonical(entries[i].signature.r_bytes);
            break;
          default:
            entries[i].public_key = NonCanonical(entries[i].public_key);
            break;
        }
      }
    }
    std::vector<uint8_t> expected(group_end.size(), 0);
    for (size_t g = 0; g < group_end.size(); ++g) {
      for (size_t e = g == 0 ? 0 : group_end[g - 1]; e < group_end[g]; ++e) {
        if (!SchnorrVerify(entries[e].public_key, entries[e].message, entries[e].signature)
                 .ok()) {
          expected[g] = 1;
        }
      }
    }
    std::vector<uint8_t> bad(group_end.size(), 0);
    VerifySchnorrGroups(entries, group_end, bad);
    EXPECT_EQ(bad, expected) << "trial " << trial;
  }
}

TEST(SchnorrGroups, WeightSeedBindsEveryEntryField) {
  ChaChaRng rng(2202);
  SchnorrKeyPair key = SchnorrKeyPair::Generate(rng);
  SchnorrBatchEntry entry{key.public_bytes(), rng.RandomBytes(32), {}};
  entry.signature = key.Sign(entry.message, rng);
  const std::vector<SchnorrBatchEntry> base = {entry};
  constexpr std::string_view kDomain = "votegral/schnorr/batch-weights/v1";
  const auto seed = SchnorrBatchWeightSeed(kDomain, base);
  EXPECT_NE(seed, SchnorrBatchWeightSeed("other domain", base));
  std::vector<std::function<void(SchnorrBatchEntry&)>> edits = {
      [](SchnorrBatchEntry& e) { e.public_key[0] ^= 1; },
      [](SchnorrBatchEntry& e) { e.message.back() ^= 1; },
      [](SchnorrBatchEntry& e) { e.message.push_back(0); },
      [](SchnorrBatchEntry& e) { e.signature.r_bytes[0] ^= 1; },
      [](SchnorrBatchEntry& e) { e.signature.s = e.signature.s + Scalar::One(); },
  };
  for (size_t k = 0; k < edits.size(); ++k) {
    std::vector<SchnorrBatchEntry> edited = base;
    edits[k](edited[0]);
    EXPECT_NE(SchnorrBatchWeightSeed(kDomain, edited), seed) << k;
  }
}

// --- Ballots ---------------------------------------------------------------

enum class BadBallot {
  kKioskCertificate,
  kCredentialSignature,
  kUnauthorizedKiosk,
  kNonCanonicalR,
  kUndecodableCredentialKey,
  kUndecodableKioskKey,
  kGarbage,
};
constexpr BadBallot kAllBadBallots[] = {
    BadBallot::kKioskCertificate,       BadBallot::kCredentialSignature,
    BadBallot::kUnauthorizedKiosk,      BadBallot::kNonCanonicalR,
    BadBallot::kUndecodableCredentialKey, BadBallot::kUndecodableKioskKey,
    BadBallot::kGarbage,
};

// A board of n honestly signed ballots under two authorized kiosks, and
// the bytes of a bad variant of any of them.
class BallotBoard {
 public:
  BallotBoard(size_t n, Rng& rng)
      : rng_(rng),
        authority_(SchnorrKeyPair::Generate(rng).public_point()),
        rogue_(SchnorrKeyPair::Generate(rng)) {
    kiosks_.push_back(SchnorrKeyPair::Generate(rng));
    kiosks_.push_back(SchnorrKeyPair::Generate(rng));
    for (const SchnorrKeyPair& kiosk : kiosks_) {
      authorized_.insert(kiosk.public_bytes());
    }
    // An authorized key that is not a point: its certificates never verify.
    authorized_.insert(undecodable_kiosk_);
    for (size_t i = 0; i < n; ++i) {
      credentials_.push_back(SchnorrKeyPair::Generate(rng));
      Ballot ballot;
      ballot.encrypted_vote = ElGamalEncrypt(authority_, RistrettoPoint::Base(), rng);
      ballot.credential_pk = credentials_.back().public_bytes();
      rng.Fill(ballot.kiosk_cert_hash);
      Sign(ballot, kiosks_[i % kiosks_.size()], credentials_.back());
      honest_.push_back(ballot);
    }
  }

  const std::set<CompressedRistretto>& authorized() const { return authorized_; }
  size_t size() const { return honest_.size(); }

  Bytes Variant(size_t i, BadBallot kind) {
    Ballot ballot = honest_[i];
    const SchnorrKeyPair& kiosk = kiosks_[i % kiosks_.size()];
    const SchnorrKeyPair& credential = credentials_[i];
    switch (kind) {
      case BadBallot::kKioskCertificate:
        // The credential signature covers the broken certificate, so only
        // the certificate fails.
        ballot.kiosk_cert = Broken(ballot.kiosk_cert);
        ballot.credential_sig = credential.Sign(ballot.SignedPayload(), rng_);
        break;
      case BadBallot::kCredentialSignature:
        ballot.credential_sig = Broken(ballot.credential_sig);
        break;
      case BadBallot::kUnauthorizedKiosk:
        Sign(ballot, rogue_, credential);
        break;
      case BadBallot::kNonCanonicalR:
        ballot.credential_sig.r_bytes = NonCanonical(ballot.credential_sig.r_bytes);
        break;
      case BadBallot::kUndecodableCredentialKey:
        // The kiosk certifies the bytes, so only the credential key fails.
        ballot.credential_pk = NonCanonical(ballot.credential_pk);
        Sign(ballot, kiosk, credential);
        break;
      case BadBallot::kUndecodableKioskKey:
        ballot.kiosk_pk = undecodable_kiosk_;
        ballot.credential_sig = credential.Sign(ballot.SignedPayload(), rng_);
        break;
      case BadBallot::kGarbage:
        return Bytes{1, 2, 3};
    }
    return ballot.Serialize();
  }

  Bytes Honest(size_t i) const { return honest_[i].Serialize(); }

 private:
  void Sign(Ballot& ballot, const SchnorrKeyPair& kiosk, const SchnorrKeyPair& credential) {
    ballot.kiosk_pk = kiosk.public_bytes();
    ballot.kiosk_cert = kiosk.Sign(
        ResponseSegment::SignedPayload(ballot.credential_pk, ballot.kiosk_cert_hash), rng_);
    ballot.credential_sig = credential.Sign(ballot.SignedPayload(), rng_);
  }

  Rng& rng_;
  RistrettoPoint authority_;
  SchnorrKeyPair rogue_;
  CompressedRistretto undecodable_kiosk_ = NonCanonical(CompressedRistretto{});
  std::vector<SchnorrKeyPair> kiosks_;
  std::vector<SchnorrKeyPair> credentials_;
  std::set<CompressedRistretto> authorized_;
  std::vector<Ballot> honest_;
};

// Where the bad entries sit, as index sets over a board of n entries.
std::vector<std::pair<std::string, std::vector<size_t>>> Placements(size_t n) {
  const auto shards = Executor::Shards(n, Executor::kRngShards);
  std::vector<size_t> edges;
  for (size_t s : {size_t{0}, size_t{1}, shards.size() / 2, shards.size() - 1}) {
    edges.push_back(shards[s].first);
    edges.push_back(shards[s].second - 1);
  }
  const auto [one_begin, one_end] = shards[shards.size() / 3];
  std::vector<size_t> every;
  for (size_t s = 0; s < shards.size(); ++s) {
    every.push_back(shards[s].first + s % (shards[s].second - shards[s].first));
  }
  const auto [whole_begin, whole_end] = shards[shards.size() / 4];
  std::vector<size_t> whole;
  for (size_t i = whole_begin; i < whole_end; ++i) {
    whole.push_back(i);
  }
  return {{"shard edges", edges},
          {"inside one shard", {one_begin + 1, one_end - 2}},
          {"every shard", every},
          {"a whole shard", whole}};
}

// The per-ballot reference: Parse, then CheckBallot. Outcome codes: 0 ok,
// 1 bad structure, 2 bad signature. `memo` keeps each distinct payload's
// code, so boards that differ in a few ballots pay for those only.
using Memo = std::map<std::string, uint8_t>;
uint8_t PerBallot(const Bytes& bytes, const std::set<CompressedRistretto>& authorized,
                  Memo& memo) {
  auto [it, inserted] = memo.try_emplace(std::string(bytes.begin(), bytes.end()), 0);
  if (inserted) {
    auto ballot = Ballot::Parse(bytes);
    it->second = !ballot.ok() ? 1 : !CheckBallot(*ballot, authorized).ok() ? 2 : 0;
  }
  return it->second;
}

void ExpectBatchedMatchesPerBallot(const std::vector<Bytes>& board,
                                   const std::set<CompressedRistretto>& authorized,
                                   Memo& memo) {
  PublicLedger ledger;
  TallyDiscards expected;
  std::vector<uint8_t> outcome;
  for (const Bytes& bytes : board) {
    ledger.PostBallot(bytes);
    outcome.push_back(PerBallot(bytes, authorized, memo));
    expected.invalid_structure += outcome.back() == 1 ? 1 : 0;
    expected.invalid_signature += outcome.back() == 2 ? 1 : 0;
  }
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Executor executor(threads);
    TallyDiscards discards;
    std::vector<std::optional<Ballot>> validated =
        ValidateBallots(ledger, authorized, &discards, executor);
    EXPECT_EQ(discards.invalid_structure, expected.invalid_structure);
    EXPECT_EQ(discards.invalid_signature, expected.invalid_signature);
    ASSERT_EQ(validated.size(), board.size());
    for (size_t i = 0; i < validated.size(); ++i) {
      ASSERT_EQ(validated[i].has_value(), outcome[i] == 0) << "ballot " << i;
      if (validated[i].has_value()) {
        EXPECT_EQ(validated[i]->Serialize(), board[i]) << "ballot " << i;
      }
    }
  }
}

TEST(BatchedBallotValidation, MatchesPerBallotCheckWhereverTheBadBallotsSit) {
  ChaChaRng rng(2203);
  // Five ballots per shard.
  BallotBoard board(5 * Executor::kRngShards, rng);
  Memo memo;
  for (const auto& [where, indices] : Placements(board.size())) {
    for (BadBallot kind : kAllBadBallots) {
      SCOPED_TRACE(where + ", kind " + std::to_string(static_cast<int>(kind)));
      std::vector<Bytes> bytes;
      for (size_t i = 0; i < board.size(); ++i) {
        bytes.push_back(board.Honest(i));
      }
      for (size_t i : indices) {
        bytes[i] = board.Variant(i, kind);
      }
      ExpectBatchedMatchesPerBallot(bytes, board.authorized(), memo);
    }
  }
}

TEST(BatchedBallotValidation, MatchesPerBallotCheckOnMixedAndAllBadBoards) {
  ChaChaRng rng(2204);
  // Three ballots per shard, so one board mixes every kind in each shard.
  BallotBoard board(3 * Executor::kRngShards + 7, rng);
  std::vector<Bytes> mixed;
  std::vector<Bytes> all_bad;
  constexpr size_t kKinds = std::size(kAllBadBallots);
  for (size_t i = 0; i < board.size(); ++i) {
    // Two honest ballots, then one bad one of the next kind.
    mixed.push_back(i % 3 == 2 ? board.Variant(i, kAllBadBallots[(i / 3) % kKinds])
                               : board.Honest(i));
    all_bad.push_back(board.Variant(i, kAllBadBallots[i % kKinds]));
  }
  Memo memo;
  {
    SCOPED_TRACE("mixed");
    ExpectBatchedMatchesPerBallot(mixed, board.authorized(), memo);
  }
  {
    SCOPED_TRACE("all bad");
    ExpectBatchedMatchesPerBallot(all_bad, board.authorized(), memo);
  }
}

TEST(BatchedBallotValidation, SignedPayloadFromWireEqualsSignedPayload) {
  // An honest ballot's credential-signature message is the domain plus the
  // first 224 bytes of its ledger payload: Parse accepts only canonical
  // encodings, so re-encoding the parsed points gives the same bytes.
  ChaChaRng rng(2205);
  Election election(
      [] {
        ElectionConfig config;
        config.roster = {"alice", "bob"};
        config.candidates = {"A", "B"};
        return config;
      }(),
      rng);
  Vsd vsd = election.trip().MakeVsd();
  for (const char* id : {"alice", "bob"}) {
    auto voter = election.Register(id, 1, vsd, rng);
    ASSERT_TRUE(voter.ok());
    for (const ActivatedCredential& credential : voter->activated) {
      ASSERT_TRUE(election.Cast(credential, "A", rng).ok());
    }
  }
  LedgerCursor cursor = election.ledger().BallotCursor();
  LedgerEntryView view;
  size_t seen = 0;
  while (cursor.Next(&view)) {
    auto ballot = Ballot::Parse(view.payload);
    ASSERT_TRUE(ballot.ok());
    EXPECT_EQ(Ballot::SignedPayloadFromWire(view.payload), ballot->SignedPayload());
    ++seen;
  }
  EXPECT_EQ(seen, 4u);
}

TEST(BallotMixWire, EqualsTheEncodedMixItemOnHonestBallots) {
  // The tally's ballot mix item [Enc(vote), Enc(c_pk)] takes its wire from
  // the bytes the parsed ballot holds; they must be what encoding the
  // item's four points gives. A ballot that was not parsed gets them by
  // encoding its vote.
  ChaChaRng rng(2206);
  Election election(
      [] {
        ElectionConfig config;
        config.roster = {"alice", "bob", "carol"};
        config.candidates = {"A", "B"};
        return config;
      }(),
      rng);
  Vsd vsd = election.trip().MakeVsd();
  for (const char* id : {"alice", "bob", "carol"}) {
    auto voter = election.Register(id, 1, vsd, rng);
    ASSERT_TRUE(voter.ok());
    for (const ActivatedCredential& credential : voter->activated) {
      ASSERT_TRUE(election.Cast(credential, "B", rng).ok());
    }
  }
  LedgerCursor cursor = election.ledger().BallotCursor();
  LedgerEntryView view;
  size_t seen = 0;
  while (cursor.Next(&view)) {
    auto ballot = Ballot::Parse(view.payload);
    ASSERT_TRUE(ballot.ok());
    ASSERT_TRUE(ballot->vote_wire.has_value());
    auto credential = RistrettoPoint::Decode(ballot->credential_pk);
    ASSERT_TRUE(credential.has_value());
    MixItem encoded({ballot->encrypted_vote, ElGamalTrivialEncrypt(*credential)});
    EXPECT_EQ(HexEncode(BallotMixWire(*ballot)), HexEncode(encoded.EnsureWire()));
    Ballot unparsed = *ballot;
    unparsed.vote_wire.reset();
    EXPECT_EQ(HexEncode(BallotMixWire(unparsed)), HexEncode(encoded.EnsureWire()));
    ++seen;
  }
  EXPECT_EQ(seen, 6u);
}

// --- Registration records ---------------------------------------------------

enum class BadRecord {
  kUnknownKiosk,
  kUnknownOfficial,
  kKioskSignature,
  kOfficialSignature,
  kNonCanonicalR,
  kUndecodableKioskKey,
};
constexpr BadRecord kAllBadRecords[] = {
    BadRecord::kUnknownKiosk,     BadRecord::kUnknownOfficial,
    BadRecord::kKioskSignature,   BadRecord::kOfficialSignature,
    BadRecord::kNonCanonicalR,    BadRecord::kUndecodableKioskKey,
};

class RecordSet {
 public:
  RecordSet(size_t n, Rng& rng) : rng_(rng), rogue_(SchnorrKeyPair::Generate(rng)) {
    for (int k = 0; k < 2; ++k) {
      kiosks_.push_back(SchnorrKeyPair::Generate(rng));
      officials_.push_back(SchnorrKeyPair::Generate(rng));
      authorized_kiosks_.insert(kiosks_.back().public_bytes());
      authorized_officials_.insert(officials_.back().public_bytes());
    }
    authorized_kiosks_.insert(undecodable_kiosk_);
    const RistrettoPoint authority = SchnorrKeyPair::Generate(rng).public_point();
    for (size_t i = 0; i < n; ++i) {
      RegistrationRecord record;
      record.voter_id = "voter-" + std::to_string(i);
      record.public_credential = ElGamalEncrypt(
          authority, RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)), rng);
      Sign(record, kiosks_[i % 2], officials_[(i / 2) % 2]);
      honest_.push_back(std::move(record));
    }
  }

  std::vector<RegistrationRecord> Records(const std::vector<size_t>& bad, BadRecord kind) {
    std::vector<RegistrationRecord> records = honest_;
    for (size_t i : bad) {
      RegistrationRecord& record = records[i];
      switch (kind) {
        case BadRecord::kUnknownKiosk:
          Sign(record, rogue_, officials_[0]);
          break;
        case BadRecord::kUnknownOfficial:
          Sign(record, kiosks_[0], rogue_);
          break;
        case BadRecord::kKioskSignature:
          // The official co-signs the broken signature: only σ_kot fails.
          record.kiosk_sig = Broken(record.kiosk_sig);
          record.official_pk = officials_[0].public_bytes();
          record.official_sig =
              officials_[0].Sign(OfficialCheckOutPayload(CheckOut(record)), rng_);
          break;
        case BadRecord::kOfficialSignature:
          record.official_sig = Broken(record.official_sig);
          break;
        case BadRecord::kNonCanonicalR:
          record.official_sig.r_bytes = NonCanonical(record.official_sig.r_bytes);
          break;
        case BadRecord::kUndecodableKioskKey:
          record.kiosk_pk = undecodable_kiosk_;
          break;
      }
    }
    return records;
  }

  const std::set<CompressedRistretto>& kiosks() const { return authorized_kiosks_; }
  const std::set<CompressedRistretto>& officials() const { return authorized_officials_; }

 private:
  static CheckOutSegment CheckOut(const RegistrationRecord& record) {
    CheckOutSegment checkout;
    checkout.voter_id = record.voter_id;
    checkout.public_credential = record.public_credential;
    checkout.kiosk_pk = record.kiosk_pk;
    checkout.kiosk_sig = record.kiosk_sig;
    return checkout;
  }

  void Sign(RegistrationRecord& record, const SchnorrKeyPair& kiosk,
            const SchnorrKeyPair& official) {
    record.kiosk_pk = kiosk.public_bytes();
    record.kiosk_sig = kiosk.Sign(CheckOut(record).SignedPayload(), rng_);
    record.official_pk = official.public_bytes();
    record.official_sig = official.Sign(OfficialCheckOutPayload(CheckOut(record)), rng_);
  }

  Rng& rng_;
  SchnorrKeyPair rogue_;
  CompressedRistretto undecodable_kiosk_ = NonCanonical(CompressedRistretto{});
  std::vector<SchnorrKeyPair> kiosks_;
  std::vector<SchnorrKeyPair> officials_;
  std::set<CompressedRistretto> authorized_kiosks_;
  std::set<CompressedRistretto> authorized_officials_;
  std::vector<RegistrationRecord> honest_;
};

// Each record's c_pc bytes, as the board holds them.
std::vector<ElGamalWire> CredentialWires(const std::vector<RegistrationRecord>& records) {
  std::vector<ElGamalWire> wires;
  for (const RegistrationRecord& record : records) {
    wires.push_back(record.public_credential.Wire());
  }
  return wires;
}

TEST(BatchedRecordCheck, NamesTheLowestFailingRecordWithItsExactReason) {
  ChaChaRng rng(2206);
  const size_t n = 4 * Executor::kRngShards + 3;
  RecordSet set(n, rng);
  for (size_t threads : {1u, 4u}) {
    Executor executor(threads);
    const std::vector<RegistrationRecord> honest = set.Records({}, BadRecord::kUnknownKiosk);
    EXPECT_TRUE(VerifyRegistrationRecords(honest, CredentialWires(honest), set.kiosks(),
                                          set.officials(), executor)
                    .ok());
  }
  for (const auto& [where, indices] : Placements(n)) {
    for (BadRecord kind : kAllBadRecords) {
      SCOPED_TRACE(where + ", kind " + std::to_string(static_cast<int>(kind)));
      const std::vector<RegistrationRecord> records = set.Records(indices, kind);
      Status expected = Status::Ok();
      for (const RegistrationRecord& record : records) {
        expected = VerifyRegistrationRecord(record, set.kiosks(), set.officials());
        if (!expected.ok()) {
          break;
        }
      }
      ASSERT_FALSE(expected.ok());
      for (size_t threads : {1u, 4u}) {
        Executor executor(threads);
        Status got = VerifyRegistrationRecords(records, CredentialWires(records), set.kiosks(),
                                               set.officials(), executor);
        EXPECT_EQ(got.reason(), expected.reason()) << "threads " << threads;
      }
    }
  }
}

TEST(BatchedRecordCheck, VerifierNamesAForgedRecordOnTheBoard) {
  ChaChaRng rng(2207);
  ElectionConfig config;
  config.roster = {"alice", "bob", "carol"};
  config.candidates = {"A", "B"};
  Election election(config, rng);
  Vsd vsd = election.trip().MakeVsd();
  for (const std::string& id : config.roster) {
    auto voter = election.Register(id, 0, vsd, rng);
    ASSERT_TRUE(voter.ok());
    ASSERT_TRUE(election.Cast(voter->activated[0], "A", rng).ok());
  }
  TallyOutput output = election.Tally(rng);
  ASSERT_TRUE(election.Verify(output).ok());
  // Bob's record again, with its official signature broken, supersedes the
  // honest one.
  std::optional<RegistrationRecord> bob = election.ledger().ActiveRegistration("bob");
  ASSERT_TRUE(bob.has_value());
  bob->official_sig = Broken(bob->official_sig);
  ASSERT_TRUE(election.ledger().PostRegistration(*bob).ok());
  EXPECT_EQ(election.Verify(output).reason(),
            "registration record: official signature invalid");
}

}  // namespace
}  // namespace votegral
