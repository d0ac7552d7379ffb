// Micro-benchmarks (google-benchmark) for the primitives backing every
// figure: ristretto255 point arithmetic, Schnorr, ElGamal, Chaum–Pedersen,
// the 2048-bit Schnorr-group exponentiation (Civitas substrate), hashing,
// and the protocol hot paths (credential issuance, activation, PET).
#include <benchmark/benchmark.h>

#include <optional>

#include "src/crypto/batch.h"
#include "src/crypto/dkg.h"
#include "src/crypto/dleq.h"
#include "src/crypto/drbg.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/fe25519.h"
#include "src/crypto/modp.h"
#include "src/crypto/ristretto_internal.h"
#include "src/crypto/msm.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_internal.h"
#include "src/crypto/sha512.h"
#include "src/ledger/store.h"
#include "src/trip/registrar.h"
#include "src/votegral/tagging.h"

namespace votegral {
namespace {

// SHA-256 through the kernel this CPU selects: a Merkle-node-sized input,
// a ledger-entry-sized one and a long one.
void BM_Sha256(benchmark::State& state) {
  ChaChaRng rng(1);
  Bytes data = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(400)->Arg(4096);

// The portable block kernel alone, for comparison on hosts that select
// SHA-NI.
void BM_Sha256PortableKernel(benchmark::State& state) {
  ChaChaRng rng(1);
  Bytes data = rng.RandomBytes(4096);
  uint32_t chaining[8] = {};
  for (auto _ : state) {
    sha256_internal::CompressPortable(chaining, data.data(), data.size() / 64);
    benchmark::DoNotOptimize(chaining);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Sha256PortableKernel);

// One ledger entry hash at the size the catchup workload appends: a
// 330-byte ballot payload.
void BM_HashLedgerEntry(benchmark::State& state) {
  ChaChaRng rng(3);
  const Bytes payload = rng.RandomBytes(330);
  LedgerHash prev{};
  uint64_t index = 0;
  for (auto _ : state) {
    prev = HashLedgerEntry(index++, "ballot", payload, prev);
    benchmark::DoNotOptimize(prev);
  }
}
BENCHMARK(BM_HashLedgerEntry);

void BM_Sha512_1k(benchmark::State& state) {
  ChaChaRng rng(2);
  Bytes data = rng.RandomBytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::Hash(data));
  }
}
BENCHMARK(BM_Sha512_1k);

void BM_RistrettoMulBase(benchmark::State& state) {
  ChaChaRng rng(3);
  Scalar s = Scalar::Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RistrettoPoint::MulBase(s));
  }
}
BENCHMARK(BM_RistrettoMulBase);

// Sets a batched row's label to the kernel this CPU selects and its
// `per_point` counter to the time per point of an n-point call.
void LabelBatch(benchmark::State& state, size_t n) {
  state.SetLabel(ristretto_internal::KernelName());
  state.counters["per_point"] = benchmark::Counter(
      static_cast<double>(n),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

// The generator's table for n scalars in one FixedBaseTable::MulEach call
// (the mix's r*B, the provers' y*B), to set per point against
// BM_RistrettoMulBase.
void BM_FixedBaseMulEach(benchmark::State& state) {
  ChaChaRng rng(33);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Scalar> scalars;
  for (size_t i = 0; i < n; ++i) {
    scalars.push_back(Scalar::Random(rng));
  }
  std::vector<RistrettoPoint> out(n);
  for (auto _ : state) {
    RistrettoPoint::MulEach(RistrettoPoint::Base(), scalars, out);
    benchmark::DoNotOptimize(out);
  }
  LabelBatch(state, n);
}
BENCHMARK(BM_FixedBaseMulEach)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_RistrettoMulBaseSlow(benchmark::State& state) {
  ChaChaRng rng(4);
  Scalar s = Scalar::Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RistrettoPoint::MulBaseSlow(s));
  }
}
BENCHMARK(BM_RistrettoMulBaseSlow);

void BM_RistrettoVarMul(benchmark::State& state) {
  ChaChaRng rng(5);
  RistrettoPoint p = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  Scalar s = Scalar::Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s * p);
  }
}
BENCHMARK(BM_RistrettoVarMul);

// RistrettoPoint::MulEach on one unregistered point: with 1 scalar it is
// the ladder; with 2 both products share one doubling chain (the rows
// 16^i * p) and fold their digits in buckets, against two ladders.
void BM_RistrettoMulEach(benchmark::State& state) {
  ChaChaRng rng(30);
  const RistrettoPoint p = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Scalar> scalars;
  for (size_t i = 0; i < n; ++i) {
    scalars.push_back(Scalar::Random(rng));
  }
  std::vector<RistrettoPoint> out(n);
  for (auto _ : state) {
    RistrettoPoint::MulEach(p, scalars, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RistrettoMulEach)->Arg(1)->Arg(2);

// The batched MulEach on n unregistered points with two scalars each (the
// provers' shape: a nonce and the witness per ciphertext point), through
// the kernel this CPU selects, named in the row's label. `per_point` is the
// time per point, to set against BM_RistrettoMulEach/2.
void BM_RistrettoMulEachBatch(benchmark::State& state) {
  ChaChaRng rng(32);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<RistrettoPoint> points;
  std::vector<Scalar> scalars;
  for (size_t j = 0; j < n; ++j) {
    points.push_back(RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)));
    scalars.push_back(Scalar::Random(rng));
    scalars.push_back(Scalar::Random(rng));
  }
  std::vector<RistrettoPoint> out(2 * n);
  for (auto _ : state) {
    RistrettoPoint::MulEach(points, 2, scalars, out);
    benchmark::DoNotOptimize(out);
  }
  LabelBatch(state, n);
}
BENCHMARK(BM_RistrettoMulEachBatch)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

// One point addition through operator+ (the right operand's conversion to a
// CachedPoint, then the 8-multiplication addition) and one doubling, each
// timed as a dependent chain.
void BM_RistrettoAdd(benchmark::State& state) {
  ChaChaRng rng(28);
  RistrettoPoint acc = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  const RistrettoPoint q = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    acc = acc + q;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RistrettoAdd);

void BM_RistrettoDouble(benchmark::State& state) {
  ChaChaRng rng(29);
  RistrettoPoint acc = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    acc = acc.Double();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RistrettoDouble);

void BM_RistrettoEncodeDecode(benchmark::State& state) {
  ChaChaRng rng(6);
  RistrettoPoint p = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    auto enc = p.Encode();
    benchmark::DoNotOptimize(RistrettoPoint::Decode(enc));
  }
}
BENCHMARK(BM_RistrettoEncodeDecode);

void BM_SchnorrSign(benchmark::State& state) {
  ChaChaRng rng(7);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.Sign(msg, rng));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  ChaChaRng rng(8);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("benchmark message");
  auto sig = kp.Sign(msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchnorrVerify(kp.public_bytes(), msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

// An unregistered key: r*pk runs the variable-base ladder.
void BM_ElGamalEncrypt(benchmark::State& state) {
  ChaChaRng rng(9);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalEncrypt(pk, msg, rng));
  }
}
BENCHMARK(BM_ElGamalEncrypt);

// The same under a registered key, as for the election key: both
// multiplications read precomputed tables.
void BM_ElGamalEncryptRegisteredKey(benchmark::State& state) {
  ChaChaRng rng(9);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint::RegisterFixedBase(pk);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalEncrypt(pk, msg, rng));
  }
}
BENCHMARK(BM_ElGamalEncryptRegisteredKey);

void BM_DleqProveFs(benchmark::State& state) {
  ChaChaRng rng(10);
  Scalar x = Scalar::Random(rng);
  RistrettoPoint g2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  DleqStatement st = DleqStatement::MakePair(RistrettoPoint::Base(),
                                             RistrettoPoint::MulBase(x), g2, x * g2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProveDleqFs("bench", st, x, rng));
  }
}
BENCHMARK(BM_DleqProveFs);

void BM_DleqVerifyFs(benchmark::State& state) {
  ChaChaRng rng(11);
  Scalar x = Scalar::Random(rng);
  RistrettoPoint g2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  DleqStatement st = DleqStatement::MakePair(RistrettoPoint::Base(),
                                             RistrettoPoint::MulBase(x), g2, x * g2);
  auto proof = ProveDleqFs("bench", st, x, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifyDleqFs("bench", st, proof));
  }
}
BENCHMARK(BM_DleqVerifyFs);

// BatchVerifyDleq over n cached proofs in the repository benchmark's shape
// (bench/votegral_bench, crypto.dleq_batch_verify_us): MakePair(B, x*B, P,
// x*P) with a distinct x and P per proof, so B rides the fixed-base
// coefficient and every other point is a term of its own.
void BM_BatchVerifyDleq(benchmark::State& state) {
  ChaChaRng rng(12);
  std::vector<DleqBatchEntry> entries(static_cast<size_t>(state.range(0)));
  for (DleqBatchEntry& entry : entries) {
    const Scalar x = Scalar::Random(rng);
    const RistrettoPoint p = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
    DleqStatement statement =
        DleqStatement::MakePair(RistrettoPoint::Base(), RistrettoPoint::MulBase(x), p, x * p);
    statement.EnsureWire();
    entry.domain = "bench/batch-dleq";
    entry.transcript = ProveDleqFs(entry.domain, statement, x, rng);
    entry.statement = std::move(statement);
  }
  for (auto _ : state) {
    Status s = BatchVerifyDleq(entries, rng);
    Require(s.ok(), "bench: DLEQ batch must pass");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchVerifyDleq)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_ModPExp2048(benchmark::State& state) {
  ChaChaRng rng(12);
  const ModPGroup& group = ModPGroup::Standard();
  QScalar e = group.QRandom(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.ExpG(e));
  }
}
BENCHMARK(BM_ModPExp2048);

void BM_ModPPetSingleTrustee(benchmark::State& state) {
  ChaChaRng rng(13);
  const ModPGroup& group = ModPGroup::Standard();
  QScalar sk = group.QRandom(rng);
  ModPElement pk = group.ExpG(sk);
  ModPElement m = group.ExpG(group.QRandom(rng));
  ModPCiphertext a = ModPEncrypt(group, pk, m, group.QRandom(rng));
  ModPCiphertext b = ModPEncrypt(group, pk, m, group.QRandom(rng));
  QScalar z = group.QRandom(rng);
  ModPElement commitment = group.ExpG(z);
  for (auto _ : state) {
    ModPCiphertext q = ModPQuotient(group, a, b);
    benchmark::DoNotOptimize(PetBlind(group, q, z, commitment, rng));
  }
}
BENCHMARK(BM_ModPPetSingleTrustee);

// ---- Multi-scalar multiplication: MSM engine vs per-term evaluation ----

struct MsmFixture {
  std::vector<Scalar> scalars;
  std::vector<RistrettoPoint> points;

  explicit MsmFixture(size_t n, uint64_t seed) {
    ChaChaRng rng(seed);
    scalars.reserve(n);
    points.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      scalars.push_back(Scalar::Random(rng));
      points.push_back(RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)));
    }
  }
};

void BM_MsmNaive(benchmark::State& state) {
  MsmFixture fx(static_cast<size_t>(state.range(0)), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiScalarMulNaive(fx.scalars, fx.points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MsmNaive)->Arg(16)->Arg(256)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_Msm(benchmark::State& state) {
  MsmFixture fx(static_cast<size_t>(state.range(0)), 20);  // same inputs as naive
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiScalarMul(fx.scalars, fx.points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Msm)->Arg(16)->Arg(256)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_MsmDoubleScalarMulBase(benchmark::State& state) {
  ChaChaRng rng(21);
  Scalar a = Scalar::Random(rng);
  Scalar b = Scalar::Random(rng);
  RistrettoPoint p = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RistrettoPoint::DoubleScalarMulBase(a, p, b));
  }
}
BENCHMARK(BM_MsmDoubleScalarMulBase);

// ---- Batched Schnorr verification: seed accumulation vs MSM ----

std::vector<SchnorrBatchEntry> MakeSchnorrBatch(size_t n, uint64_t seed) {
  ChaChaRng rng(seed);
  std::vector<SchnorrBatchEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto kp = SchnorrKeyPair::Generate(rng);
    SchnorrBatchEntry entry;
    entry.public_key = kp.public_bytes();
    entry.message = rng.RandomBytes(32);
    entry.signature = kp.Sign(entry.message, rng);
    entries.push_back(std::move(entry));
  }
  return entries;
}

// The seed's BatchVerifySchnorr hot path, preserved verbatim for the
// perf-trajectory comparison: the combined equation is evaluated with one
// variable-base `operator*` chain per entry (each rebuilding its own window
// table) instead of one flat MSM.
Status BatchVerifySchnorrSeedPath(std::span<const SchnorrBatchEntry> entries, Rng& rng) {
  Scalar combined_s = Scalar::Zero();
  RistrettoPoint accumulator;  // identity
  for (const SchnorrBatchEntry& entry : entries) {
    auto pk = RistrettoPoint::Decode(entry.public_key);
    auto r = RistrettoPoint::Decode(entry.signature.r_bytes);
    if (!pk.has_value() || !r.has_value()) {
      return Status::Error("batch-schnorr: undecodable point");
    }
    Bytes wide(64, 0);
    rng.Fill(std::span<uint8_t>(wide.data(), 16));
    Scalar weight = Scalar::FromBytesWide(wide);
    Scalar challenge =
        SchnorrChallenge(entry.signature.r_bytes, entry.public_key, entry.message);
    combined_s = combined_s + weight * entry.signature.s;
    accumulator = accumulator + (weight * challenge) * *pk + weight * *r;
  }
  if (!(RistrettoPoint::MulBase(combined_s) == accumulator)) {
    return Status::Error("batch-schnorr: combined verification equation failed");
  }
  return Status::Ok();
}

void BM_BatchVerifySchnorrSeedPath(benchmark::State& state) {
  auto entries = MakeSchnorrBatch(static_cast<size_t>(state.range(0)), 22);
  ChaChaRng rng(23);
  for (auto _ : state) {
    Status s = BatchVerifySchnorrSeedPath(entries, rng);
    Require(s.ok(), "bench: seed-path batch verification must pass");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchVerifySchnorrSeedPath)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_BatchVerifySchnorrMsm(benchmark::State& state) {
  auto entries = MakeSchnorrBatch(static_cast<size_t>(state.range(0)), 22);
  ChaChaRng rng(23);
  for (auto _ : state) {
    Status s = BatchVerifySchnorr(entries, rng);
    Require(s.ok(), "bench: MSM batch verification must pass");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// Arg(36) is one shard of the repository benchmark's `tally` board: 18
// ballots, a kiosk certificate and a credential signature each. Per-item
// time sits next to BM_SchnorrVerify, the single check it replaces.
BENCHMARK(BM_BatchVerifySchnorrMsm)
    ->Arg(16)
    ->Arg(36)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// Accumulation-stage comparison at fixed batch size: identical pre-decoded
// points, weights and challenges; only the evaluation strategy differs.
// This isolates exactly the "per-entry accumulation path vs MSM" question —
// the end-to-end BM_BatchVerifySchnorr* pair above additionally pays the
// (identical on both sides) per-entry decode + hash cost.
struct SchnorrAccumFixture {
  std::vector<RistrettoPoint> pks;
  std::vector<RistrettoPoint> rs;
  std::vector<Scalar> weights;
  std::vector<Scalar> challenges;
  Scalar combined_s = Scalar::Zero();

  explicit SchnorrAccumFixture(size_t n) {
    ChaChaRng rng(25);
    auto entries = MakeSchnorrBatch(n, 22);
    for (const SchnorrBatchEntry& entry : entries) {
      pks.push_back(*RistrettoPoint::Decode(entry.public_key));
      rs.push_back(*RistrettoPoint::Decode(entry.signature.r_bytes));
      Bytes wide(64, 0);
      rng.Fill(std::span<uint8_t>(wide.data(), 16));
      weights.push_back(Scalar::FromBytesWide(wide));
      challenges.push_back(
          SchnorrChallenge(entry.signature.r_bytes, entry.public_key, entry.message));
      combined_s = combined_s + weights.back() * entry.signature.s;
    }
  }
};

void BM_SchnorrAccumSeedPath(benchmark::State& state) {
  SchnorrAccumFixture fx(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    RistrettoPoint accumulator;
    for (size_t i = 0; i < fx.pks.size(); ++i) {
      accumulator = accumulator + (fx.weights[i] * fx.challenges[i]) * fx.pks[i] +
                    fx.weights[i] * fx.rs[i];
    }
    bool ok = RistrettoPoint::MulBase(fx.combined_s) == accumulator;
    Require(ok, "bench: seed accumulation equation must hold");
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchnorrAccumSeedPath)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_SchnorrAccumMsm(benchmark::State& state) {
  SchnorrAccumFixture fx(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<Scalar> scalars;
    std::vector<RistrettoPoint> points;
    scalars.reserve(2 * fx.pks.size());
    points.reserve(2 * fx.pks.size());
    for (size_t i = 0; i < fx.pks.size(); ++i) {
      scalars.push_back(-(fx.weights[i] * fx.challenges[i]));
      points.push_back(fx.pks[i]);
      scalars.push_back(-fx.weights[i]);
      points.push_back(fx.rs[i]);
    }
    bool ok = MultiScalarMulWithBase(fx.combined_s, scalars, points).IsIdentity();
    Require(ok, "bench: MSM accumulation equation must hold");
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchnorrAccumMsm)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_ScalarWideReduction(benchmark::State& state) {
  // Exercises Barrett Reduce512 via the wide-bytes path (one reduction per
  // call, no group operations).
  ChaChaRng rng(24);
  Bytes wide = rng.RandomBytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Scalar::FromBytesWide(wide));
  }
}
BENCHMARK(BM_ScalarWideReduction);

// ---- Field arithmetic (radix-2^51) ----
//
// 32 independent elements per iteration, so the rows measure multiplier
// throughput rather than one dependency chain's latency.
inline constexpr size_t kFeBenchElems = 32;

struct FeFixture {
  Fe25519 a[kFeBenchElems];
  Fe25519 b[kFeBenchElems];

  FeFixture() {
    ChaChaRng rng(26);
    for (size_t k = 0; k < kFeBenchElems; ++k) {
      Bytes bytes = rng.RandomBytes(32);
      bytes[31] &= 0x7f;
      a[k] = FeFromBytes(bytes);
      bytes = rng.RandomBytes(32);
      bytes[31] &= 0x7f;
      b[k] = FeFromBytes(bytes);
    }
  }
};

void BM_FeMul(benchmark::State& state) {
  FeFixture fx;
  for (auto _ : state) {
    for (size_t k = 0; k < kFeBenchElems; ++k) {
      fx.a[k] = FeMul(fx.a[k], fx.b[k]);
    }
    benchmark::DoNotOptimize(fx.a);
  }
  state.SetItemsProcessed(state.iterations() * kFeBenchElems);
}
BENCHMARK(BM_FeMul);

void BM_FeSquare(benchmark::State& state) {
  FeFixture fx;
  for (auto _ : state) {
    for (size_t k = 0; k < kFeBenchElems; ++k) {
      fx.a[k] = FeSquare(fx.a[k]);
    }
    benchmark::DoNotOptimize(fx.a);
  }
  state.SetItemsProcessed(state.iterations() * kFeBenchElems);
}
BENCHMARK(BM_FeSquare);

void BM_FeInvSqrt(benchmark::State& state) {
  FeFixture fx;
  for (auto _ : state) {
    for (size_t k = 0; k < 4; ++k) {
      benchmark::DoNotOptimize(FeInvSqrt(fx.a[k]));
    }
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_FeInvSqrt);

void BM_RistrettoBatchEncode(benchmark::State& state) {
  ChaChaRng rng(27);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<RistrettoPoint> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)));
  }
  std::vector<CompressedRistretto> out(n);
  for (auto _ : state) {
    BatchEncodePoints(points, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_RistrettoBatchEncode)->Arg(256)->Unit(benchmark::kMicrosecond);

// One point's Encode(), and n points through BatchEncodePoints on the
// calling thread (Executor::Serial(), as a tally shard runs it), to set per
// point against it.
void BM_RistrettoEncode(benchmark::State& state) {
  ChaChaRng rng(34);
  const RistrettoPoint p = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Encode());
  }
}
BENCHMARK(BM_RistrettoEncode);

void BM_RistrettoEncodeEach(benchmark::State& state) {
  ChaChaRng rng(35);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<RistrettoPoint> points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back(RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)));
  }
  std::vector<CompressedRistretto> out(n);
  Executor::Scope serial(Executor::Serial());
  for (auto _ : state) {
    BatchEncodePoints(points, out);
    benchmark::DoNotOptimize(out);
  }
  LabelBatch(state, n);
}
BENCHMARK(BM_RistrettoEncodeEach)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

// (2P).Encode() for a batch on the calling thread with one batched
// inversion and no roots: 3 and 5 are a decryption share's and a tagging
// proof's batches, 256 compares with BM_RistrettoBatchEncode.
void BM_BatchDoubleAndEncode(benchmark::State& state) {
  ChaChaRng rng(31);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<RistrettoPoint> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(RistrettoPoint::FromUniformBytes(rng.RandomBytes(64)));
  }
  std::vector<CompressedRistretto> out(n);
  for (auto _ : state) {
    BatchDoubleAndEncode(points, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BatchDoubleAndEncode)->Arg(3)->Arg(5)->Arg(256)->Unit(benchmark::kMicrosecond);

// ---- One signer: 1024 signatures under ONE key ----
//
// BM_SchnorrAccumMsm above is the distinct-key baseline (2n+1 MSM terms).
// With every signature under the same public key BatchVerifySchnorr folds
// the pk column into the key's single decode slot (n+1 terms, so both rows
// run Pippenger); the ratio of the two *SharedKey rows is the fold's win.

std::vector<SchnorrBatchEntry> MakeSchnorrBatchOneKey(size_t n, uint64_t seed) {
  ChaChaRng rng(seed);
  auto kp = SchnorrKeyPair::Generate(rng);
  std::vector<SchnorrBatchEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SchnorrBatchEntry entry;
    entry.public_key = kp.public_bytes();
    entry.message = rng.RandomBytes(32);
    entry.signature = kp.Sign(entry.message, rng);
    entries.push_back(std::move(entry));
  }
  return entries;
}

void BM_BatchVerifySchnorrSharedKeyBaseline(benchmark::State& state) {
  // Same single-signer batch, evaluated WITHOUT folding the repeated key:
  // one pk term per signature, exactly what BatchVerifySchnorr did before
  // repeated keys were folded.
  auto entries = MakeSchnorrBatchOneKey(static_cast<size_t>(state.range(0)), 28);
  ChaChaRng rng(29);
  for (auto _ : state) {
    Status s = BatchVerifySchnorrSeedPath(entries, rng);
    Require(s.ok(), "bench: shared-key baseline must pass");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchVerifySchnorrSharedKeyBaseline)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_BatchVerifySchnorrSharedKey(benchmark::State& state) {
  auto entries = MakeSchnorrBatchOneKey(static_cast<size_t>(state.range(0)), 28);
  ChaChaRng rng(29);
  for (auto _ : state) {
    Status s = BatchVerifySchnorr(entries, rng);
    Require(s.ok(), "bench: shared-key batch must pass");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchVerifySchnorrSharedKey)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_TripFullRegistration(benchmark::State& state) {
  // The TRIP-Core per-voter registration crypto path (kiosk + official +
  // activation; 1 real + 1 fake) — the per-voter unit behind Fig. 5a.
  ChaChaRng rng(14);
  std::vector<std::string> roster;
  for (int i = 0; i < 20000; ++i) {
    roster.push_back("v" + std::to_string(i));
  }
  TripSystemParams params;
  params.roster = roster;
  params.envelopes_per_voter = 3;
  TripSystem system = TripSystem::Create(params, rng);
  Vsd vsd = system.MakeVsd();
  size_t next = 0;
  for (auto _ : state) {
    auto voter = RegisterAndActivate(system, roster.at(next++), 1, vsd, rng);
    benchmark::DoNotOptimize(voter.ok());
  }
}
BENCHMARK(BM_TripFullRegistration)->Unit(benchmark::kMillisecond);

void BM_VsdActivate(benchmark::State& state) {
  // One Vsd::Activate of a credential fresh from the booth, its envelope
  // challenge not yet revealed: arg 0 the voter's real credential, 1 a fake.
  // A new cohort registers, untimed, whenever the last one is used up.
  const bool fake = state.range(0) == 1;
  ChaChaRng rng(15);
  std::vector<std::string> roster;
  for (int i = 0; i < 256; ++i) {
    roster.push_back("v" + std::to_string(i));
  }
  std::optional<TripSystem> system;
  std::optional<Vsd> vsd;
  std::vector<PaperCredential> credentials;
  size_t next = 0;
  for (auto _ : state) {
    if (next == credentials.size()) {
      state.PauseTiming();
      TripSystemParams params;
      params.roster = roster;
      system.emplace(TripSystem::Create(params, rng));
      vsd.emplace(system->MakeVsd());
      credentials.clear();
      RegistrationDesk desk(*system);
      for (const std::string& id : roster) {
        auto outcome = desk.RegisterVoter(id, 1, rng);
        Require(outcome.ok(), "BM_VsdActivate: registration failed");
        credentials.push_back(fake ? outcome->fakes.at(0) : outcome->real);
      }
      next = 0;
      state.ResumeTiming();
    }
    auto activated = vsd->Activate(credentials[next++], system->ledger());
    Require(activated.ok(), "BM_VsdActivate: activation failed");
  }
}
BENCHMARK(BM_VsdActivate)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_VerifyTagChain(benchmark::State& state) {
  // One tagging chain of 4 members over n ciphertexts, verified as the
  // universal verifier does: TaggingService::VerifyChain, one positional
  // DLEQ batch on the global pool.
  const size_t n = static_cast<size_t>(state.range(0));
  ChaChaRng rng(16);
  const TaggingService tagging = TaggingService::Create(4, rng);
  const RistrettoPoint pk = RistrettoPoint::MulBase(Scalar::Random(rng));
  std::vector<ElGamalCiphertext> input;
  input.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    input.push_back(ElGamalEncrypt(pk, RistrettoPoint::MulBase(Scalar::Random(rng)), rng));
  }
  std::vector<TaggingStep> steps;
  tagging.ApplyAll(input, &steps, rng);
  for (auto _ : state) {
    Status verified = TaggingService::VerifyChain(input, steps, tagging.commitments());
    Require(verified.ok(), "BM_VerifyTagChain: chain rejected");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n * steps.size()));
}
BENCHMARK(BM_VerifyTagChain)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace votegral

BENCHMARK_MAIN();
