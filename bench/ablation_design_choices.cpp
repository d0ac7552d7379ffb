// Ablations for the system's main design choices:
//  1. fixed-base precomputation on/off (MulBase vs generic multiplication),
//  2. RPC mix-pair count vs per-item cheat-escape probability and cost,
//  3. envelope-symbol count vs accidental wrong-symbol picks (the §4.4
//     training mechanism's friction),
//  4. λ_E booth stock floor vs the coercer's count-the-envelopes channel
//     (how much statistical cover D_c retains).
#include <cmath>
#include <cstdio>

#include "src/common/clock.h"
#include "src/common/table.h"
#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/trip/setup.h"
#include "src/votegral/mixnet.h"

namespace votegral {
namespace {

void AblateFixedBase() {
  ChaChaRng rng(0xAB1);
  const int iterations = 200;
  std::vector<Scalar> scalars;
  for (int i = 0; i < iterations; ++i) {
    scalars.push_back(Scalar::Random(rng));
  }
  WallTimer timer;
  for (const Scalar& s : scalars) {
    (void)RistrettoPoint::MulBase(s);
  }
  double with_table = timer.Seconds() / iterations;
  timer.Reset();
  for (const Scalar& s : scalars) {
    (void)RistrettoPoint::MulBaseSlow(s);
  }
  double without_table = timer.Seconds() / iterations;

  TextTable table("Ablation 1 — fixed-base precomputation (signed radix-16 table)");
  table.SetHeader({"Variant", "Per base-mult", "Speedup"});
  table.AddRow({"precomputed table", FormatSeconds(with_table), "1.0x"});
  table.AddRow({"variable-base ladder", FormatSeconds(without_table),
                FormatDouble(without_table / with_table, 1) + "x slower"});
  std::printf("%s\n", table.Format().c_str());
}

void AblateMixPairs() {
  ChaChaRng rng(0xAB2);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  const size_t n = 64;
  MixBatch batch;
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(MixItem{{ElGamalEncrypt(pk, RistrettoPoint::Base(), rng)}});
  }
  EnsureWireCache(batch, Executor::Global());  // the verifier checks the items' bytes
  TextTable table("Ablation 2 — RPC mix pairs vs soundness and cost (64 items)");
  table.SetHeader({"Pairs (servers)", "Mix+prove", "Verify",
                   "P[cheat escapes] per item", "for 16 items"});
  for (size_t pairs : {1u, 2u, 4u}) {
    WallTimer timer;
    MixProof proof;
    MixBatch out = RunRpcMixCascade(batch, pk, pairs, rng, &proof);
    double mix_time = timer.Seconds();
    timer.Reset();
    Status ok = VerifyRpcMixCascade(batch, out, proof, pk);
    double verify_time = timer.Seconds();
    Require(ok.ok(), "ablation: mix verify failed");
    double escape = std::pow(0.5, static_cast<double>(pairs));
    table.AddRow({std::to_string(pairs) + " (" + std::to_string(2 * pairs) + ")",
                  FormatSeconds(mix_time), FormatSeconds(verify_time),
                  FormatDouble(escape, 4),
                  FormatDouble(std::pow(escape, 16), 10)});
  }
  std::printf("%s\n", table.Format().c_str());
  std::printf("The paper's configuration (4 shufflers = 2 pairs) catches a 16-item\n");
  std::printf("substitution with probability 1 - 2^-32.\n\n");
}

void AblateSymbols() {
  // More symbols = stronger "wait for the print" training signal, but more
  // envelopes needed per booth for a match to exist. Simulate the stock a
  // booth needs for a 99.9% chance of holding a matching envelope.
  TextTable table("Ablation 3 — envelope symbol count vs booth stock needs");
  table.SetHeader({"Symbols", "P[match] 8 envelopes", "P[match] 16", "Min stock for 99.9%"});
  for (int symbols : {2, 4, 8}) {
    auto p_match = [&](int stock) {
      return 1.0 - std::pow(1.0 - 1.0 / symbols, stock);
    };
    int need = 1;
    while (p_match(need) < 0.999) {
      ++need;
    }
    table.AddRow({std::to_string(symbols), FormatDouble(p_match(8), 4),
                  FormatDouble(p_match(16), 4), std::to_string(need)});
  }
  std::printf("%s\n", table.Format().c_str());
  std::printf("TRIP uses %d symbols; with the default booth floor (lambda_E = 16)\n",
              kNumEnvelopeSymbols);
  std::printf("a matching envelope is present with probability > 0.99.\n\n");
}

void AblateEnvelopeFloor() {
  // Coercion channel (§F.1 change #2): the coercer sees only the aggregate
  // number of revealed challenges. The booth floor λ_E ensures voters cannot
  // be forced to exhaust/count the stock; the residual uncertainty is the
  // honest-voter D_c spread. Report the distinguishing advantage of "target
  // made one extra fake" for increasing honest-voter cover.
  TextTable table("Ablation 4 — honest-voter cover vs coercer's counting channel");
  table.SetHeader({"Honest voters", "Stddev of total fakes", "Advantage bound (~1/(2 stddev))"});
  // D_c from the sec5_1 harness: 0..3 fakes with weights .25/.40/.25/.10.
  double variance_one = 0.25 * 0 + 0.40 * 1 + 0.25 * 4 + 0.10 * 9 -
                        std::pow(0.40 + 0.50 + 0.30, 2);
  for (size_t honest : {10u, 100u, 1000u, 10000u}) {
    double stddev = std::sqrt(variance_one * static_cast<double>(honest));
    table.AddRow({std::to_string(honest), FormatDouble(stddev, 2),
                  FormatDouble(std::min(1.0, 0.5 / stddev), 4)});
  }
  std::printf("%s\n", table.Format().c_str());
}

void AblateBatchVerification() {
  // The universal verifier checks hundreds of signatures/proofs; batching
  // them with random 128-bit weights trades pinpointing for speed.
  ChaChaRng rng(0xAB5);
  const size_t n = 128;
  std::vector<SchnorrBatchEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    auto kp = SchnorrKeyPair::Generate(rng);
    SchnorrBatchEntry entry;
    entry.public_key = kp.public_bytes();
    entry.message = rng.RandomBytes(64);
    entry.signature = kp.Sign(entry.message, rng);
    entries.push_back(std::move(entry));
  }
  WallTimer timer;
  for (const SchnorrBatchEntry& entry : entries) {
    Require(SchnorrVerify(entry.public_key, entry.message, entry.signature).ok(),
            "ablation: signature invalid");
  }
  double individual = timer.Seconds();
  timer.Reset();
  Require(BatchVerifySchnorr(entries, rng).ok(), "ablation: batch invalid");
  double batched = timer.Seconds();

  TextTable table("Ablation 5 — batch signature verification (128 signatures)");
  table.SetHeader({"Variant", "Total", "Per signature", "Speedup"});
  table.AddRow({"individual", FormatSeconds(individual),
                FormatSeconds(individual / n), "1.0x"});
  table.AddRow({"batched (128-bit weights)", FormatSeconds(batched),
                FormatSeconds(batched / n),
                FormatDouble(individual / batched, 1) + "x"});
  std::printf("%s\n", table.Format().c_str());
}

}  // namespace
}  // namespace votegral

int main() {
  std::printf("=== Ablation benches for the main design choices ===\n\n");
  votegral::AblateFixedBase();
  votegral::AblateMixPairs();
  votegral::AblateSymbols();
  votegral::AblateEnvelopeFloor();
  votegral::AblateBatchVerification();
  return 0;
}
