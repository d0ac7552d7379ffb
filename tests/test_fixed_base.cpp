// Fixed-base tables (src/crypto/ristretto.h): operator* reads a precomputed
// table when its point is the generator or a registered base, matched by
// exact coordinates, and runs the variable-base ladder otherwise.
//
//  * Differential: table against ladder, compared by encoding, on the
//    generator, a registered key and an unregistered point, over edge
//    scalars (0, 1, l-1, 2^252, all-7/8/15 nibbles at the signed-recoding
//    boundaries) and 4096 random ones.
//  * MulEach, the third path, over the same scalars in calls of 0, 1, 2, 3
//    and 9: the table, the ladder, and the shared rows with their buckets.
//  * Registry: copies of a registered key (and the DKG's election key) take
//    the table; an evicted key falls back to the ladder and stays correct;
//    registering while four threads multiply is race-free and exact.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/dkg.h"
#include "src/crypto/drbg.h"
#include "src/crypto/ristretto.h"

namespace votegral {
namespace {

RistrettoPoint RandomPoint(Rng& rng) {
  return RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
}

// The same point in other coordinates (adding the identity scales X, Y, Z
// and T by 4Z), so operator* on it runs the ladder even when p has a table.
RistrettoPoint LadderCopy(const RistrettoPoint& p) {
  const RistrettoPoint copy = p + RistrettoPoint::Identity();
  Require(!RistrettoPoint::HasFixedBaseTable(copy), "LadderCopy: the copy still has a table");
  return copy;
}

// Plain double-and-add from the most significant bit: an independent
// reference for the unregistered point, which both other paths skip.
RistrettoPoint DoubleAndAdd(const Scalar& s, const RistrettoPoint& p) {
  const std::array<uint8_t, 32> bytes = s.ToBytes();
  RistrettoPoint acc;
  for (int bit = 255; bit >= 0; --bit) {
    acc = acc.Double();
    if ((bytes[static_cast<size_t>(bit / 8)] >> (bit % 8)) & 1) {
      acc = acc + p;
    }
  }
  return acc;
}

// Bytes 0..30 = `fill`, byte 31 = `top`: every nibble chosen, value < l.
Scalar NibbleScalar(uint8_t fill, uint8_t top) {
  std::array<uint8_t, 32> bytes;
  bytes.fill(fill);
  bytes[31] = top;
  std::optional<Scalar> s = Scalar::FromCanonicalBytes(bytes);
  Require(s.has_value(), "NibbleScalar: not canonical");
  return *s;
}

std::vector<Scalar> EdgeScalars() {
  std::array<uint8_t, 32> pow252{};
  pow252[31] = 0x10;
  return {Scalar::Zero(),
          Scalar::One(),
          Scalar::Zero() - Scalar::One(),  // l - 1
          *Scalar::FromCanonicalBytes(pow252),
          Scalar::FromU64(7),
          Scalar::FromU64(8),
          Scalar::FromU64(15),
          Scalar::FromU64(0x88),
          NibbleScalar(0x77, 0x07),  // 7s: no carries
          NibbleScalar(0x88, 0x08),  // 8s: every digit becomes -8 or -7
          NibbleScalar(0xff, 0x0f),  // 15s: one carry rippling to the top
          NibbleScalar(0x78, 0x07),
          NibbleScalar(0x87, 0x08)};
}

std::vector<Scalar> RandomScalars(size_t n, Rng& rng) {
  std::vector<Scalar> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Scalar::Random(rng));
  }
  return out;
}

TEST(FixedBase, GeneratorTableMatchesLadder) {
  ChaChaRng rng(1201);
  std::vector<Scalar> scalars = EdgeScalars();
  for (const Scalar& s : RandomScalars(4096, rng)) {
    scalars.push_back(s);
  }
  const RistrettoPoint base_copy = RistrettoPoint::Base();
  ASSERT_TRUE(RistrettoPoint::HasFixedBaseTable(base_copy));
  for (const Scalar& s : scalars) {
    const CompressedRistretto ladder = RistrettoPoint::MulBaseSlow(s).Encode();
    ASSERT_EQ(RistrettoPoint::MulBase(s).Encode(), ladder) << HexEncode(s.ToBytes());
    ASSERT_EQ((s * base_copy).Encode(), ladder) << HexEncode(s.ToBytes());
  }
}

TEST(FixedBase, RegisteredKeyTableMatchesLadder) {
  ChaChaRng rng(1202);
  const RistrettoPoint key = RistrettoPoint::MulBase(Scalar::Random(rng));
  RistrettoPoint::RegisterFixedBase(key);
  ASSERT_TRUE(RistrettoPoint::HasFixedBaseTable(key));
  const RistrettoPoint ladder_key = LadderCopy(key);
  std::vector<Scalar> scalars = EdgeScalars();
  for (const Scalar& s : RandomScalars(4096, rng)) {
    scalars.push_back(s);
  }
  for (const Scalar& s : scalars) {
    ASSERT_EQ((s * key).Encode(), (s * ladder_key).Encode()) << HexEncode(s.ToBytes());
  }
}

TEST(FixedBase, UnregisteredPointTakesTheLadder) {
  ChaChaRng rng(1203);
  const RistrettoPoint p = RandomPoint(rng);
  ASSERT_FALSE(RistrettoPoint::HasFixedBaseTable(p));
  for (const Scalar& s : EdgeScalars()) {
    ASSERT_EQ((s * p).Encode(), DoubleAndAdd(s, p).Encode()) << HexEncode(s.ToBytes());
  }
  for (const Scalar& s : RandomScalars(1024, rng)) {
    ASSERT_EQ((s * p).Encode(), DoubleAndAdd(s, p).Encode()) << HexEncode(s.ToBytes());
  }
  // The generator and an equal point in other coordinates are not confused:
  // the match is on representation, and only the generator's copy has one.
  const RistrettoPoint base_ladder = LadderCopy(RistrettoPoint::Base());
  const Scalar s = Scalar::Random(rng);
  EXPECT_EQ((s * base_ladder).Encode(), RistrettoPoint::MulBase(s).Encode());
}

TEST(FixedBase, MulEachMatchesDoubleAndAdd) {
  ChaChaRng rng(1206);
  const RistrettoPoint key = RistrettoPoint::MulBase(Scalar::Random(rng));
  RistrettoPoint::RegisterFixedBase(key);
  ASSERT_TRUE(RistrettoPoint::HasFixedBaseTable(key));
  const RistrettoPoint unregistered = RandomPoint(rng);
  ASSERT_FALSE(RistrettoPoint::HasFixedBaseTable(unregistered));
  const std::vector<std::pair<const char*, RistrettoPoint>> points = {
      {"generator", RistrettoPoint::Base()},
      {"registered key", key},
      {"unregistered point", unregistered},
      {"ladder copy of the key", LadderCopy(key)}};
  std::vector<Scalar> scalars = EdgeScalars();
  for (const Scalar& s : RandomScalars(512, rng)) {
    scalars.push_back(s);
  }
  for (const auto& [name, p] : points) {
    SCOPED_TRACE(name);
    std::vector<CompressedRistretto> expected;
    for (const Scalar& s : scalars) {
      expected.push_back(DoubleAndAdd(s, p).Encode());
    }
    for (size_t per_call : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{9}}) {
      SCOPED_TRACE("scalars per call: " + std::to_string(per_call));
      std::vector<RistrettoPoint> out(per_call);
      for (size_t begin = 0; begin + per_call <= scalars.size(); begin += per_call) {
        const std::span<const Scalar> call(scalars.data() + begin, per_call);
        RistrettoPoint::MulEach(p, call, out);
        for (size_t j = 0; j < per_call; ++j) {
          ASSERT_EQ(out[j].Encode(), expected[begin + j]) << HexEncode(call[j].ToBytes());
        }
        if (per_call == 0) {
          break;
        }
      }
    }
  }
}

TEST(FixedBase, CopiesOfARegisteredKeyUseTheTable) {
  ChaChaRng rng(1204);
  const RistrettoPoint key = RistrettoPoint::MulBase(Scalar::Random(rng));
  EXPECT_FALSE(RistrettoPoint::HasFixedBaseTable(key));
  RistrettoPoint::RegisterFixedBase(key);
  const RistrettoPoint copy = key;
  const std::vector<RistrettoPoint> copies(3, key);
  EXPECT_TRUE(RistrettoPoint::HasFixedBaseTable(copy));
  EXPECT_TRUE(RistrettoPoint::HasFixedBaseTable(copies[2]));
  EXPECT_FALSE(RistrettoPoint::HasFixedBaseTable(key + RistrettoPoint::Base()));

  // The DKG registers the election key it creates, in both modes; copies
  // handed to kiosks, ballots and the mix inherit the table.
  const ElectionAuthority additive = ElectionAuthority::Create(3, rng);
  const ElectionAuthority threshold = ElectionAuthority::CreateThreshold(2, 3, rng);
  const RistrettoPoint additive_pk = additive.public_key();
  const RistrettoPoint threshold_pk = threshold.public_key();
  EXPECT_TRUE(RistrettoPoint::HasFixedBaseTable(additive_pk));
  EXPECT_TRUE(RistrettoPoint::HasFixedBaseTable(threshold_pk));
  const Scalar r = Scalar::Random(rng);
  const RistrettoPoint message = RandomPoint(rng);
  const ElGamalCiphertext ct = ElGamalEncrypt(additive_pk, message, r);
  EXPECT_EQ(ct.c2.Encode(), (r * LadderCopy(additive_pk) + message).Encode());
  EXPECT_EQ(additive.Decrypt(ct).Encode(), message.Encode());
}

TEST(FixedBase, EvictedKeyFallsBackToTheLadder) {
  ChaChaRng rng(1205);
  const RistrettoPoint first = RistrettoPoint::MulBase(Scalar::Random(rng));
  RistrettoPoint::RegisterFixedBase(first);
  ASSERT_TRUE(RistrettoPoint::HasFixedBaseTable(first));
  // Re-registering a present base is a no-op, not a new slot.
  std::vector<RistrettoPoint> later;
  for (size_t i = 0; i + 1 < kFixedBaseSlots; ++i) {
    later.push_back(RistrettoPoint::MulBase(Scalar::Random(rng)));
    RistrettoPoint::RegisterFixedBase(later.back());
    RistrettoPoint::RegisterFixedBase(first);
  }
  EXPECT_TRUE(RistrettoPoint::HasFixedBaseTable(first));
  // One more distinct base overwrites the oldest slot.
  RistrettoPoint::RegisterFixedBase(RistrettoPoint::MulBase(Scalar::Random(rng)));
  EXPECT_FALSE(RistrettoPoint::HasFixedBaseTable(first));
  for (const RistrettoPoint& p : later) {
    EXPECT_TRUE(RistrettoPoint::HasFixedBaseTable(p));
  }
  const RistrettoPoint ladder_first = LadderCopy(first);
  for (const Scalar& s : EdgeScalars()) {
    EXPECT_EQ((s * first).Encode(), (s * ladder_first).Encode());
  }
  // A registration after eviction builds the table again.
  RistrettoPoint::RegisterFixedBase(first);
  EXPECT_TRUE(RistrettoPoint::HasFixedBaseTable(first));
  const Scalar s = Scalar::Random(rng);
  EXPECT_EQ((s * first).Encode(), (s * ladder_first).Encode());
}

TEST(FixedBase, RegistrationWhileFourThreadsMultiply) {
  ChaChaRng rng(1206);
  // Bases the workers multiply: the generator, keys that get registered and
  // evicted while they run, and unregistered points. Expected encodings come
  // from the ladder before any thread starts.
  constexpr size_t kKeys = 3 * kFixedBaseSlots;
  std::vector<RistrettoPoint> bases = {RistrettoPoint::Base()};
  for (size_t i = 0; i < kKeys; ++i) {
    bases.push_back(RistrettoPoint::MulBase(Scalar::Random(rng)));
  }
  for (size_t i = 0; i < 4; ++i) {
    bases.push_back(RandomPoint(rng));
  }
  constexpr size_t kJobs = 96;
  std::vector<size_t> job_base(kJobs);
  std::vector<Scalar> job_scalar = RandomScalars(kJobs, rng);
  std::vector<CompressedRistretto> expected(kJobs);
  for (size_t j = 0; j < kJobs; ++j) {
    job_base[j] = j % bases.size();
    expected[j] = (job_scalar[j] * LadderCopy(bases[job_base[j]])).Encode();
  }

  std::atomic<size_t> mismatches{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (size_t round = 0; !stop.load() || round < 2; ++round) {
        for (size_t j = w; j < kJobs; j += 4) {
          if ((job_scalar[j] * bases[job_base[j]]).Encode() != expected[j]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (size_t i = 0; i < kKeys; ++i) {
    RistrettoPoint::RegisterFixedBase(bases[1 + i]);
  }
  stop.store(true);
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  // The most recent registrations hold the slots.
  EXPECT_TRUE(RistrettoPoint::HasFixedBaseTable(bases[kKeys]));
  EXPECT_FALSE(RistrettoPoint::HasFixedBaseTable(bases[1]));
}

}  // namespace
}  // namespace votegral
