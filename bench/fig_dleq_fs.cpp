// Wire-byte DLEQ Fiat–Shamir bench: the before/after evidence for carrying
// canonical encodings through DleqStatement/DleqTranscript (the ROADMAP's
// "batched canonical encoding in DLEQ Fiat–Shamir hashing" item).
//
// Measures, over tagging-shaped 3-element proofs:
//  * proving with producer-filled statement bytes vs a bare statement (the
//    encode-per-point prover cost),
//  * challenge derivation alone, with statement bytes vs a bare statement
//    (the commits are hashed from the transcript's bytes either way: they
//    are part of every transcript),
//  * BatchVerifyDleq with statement bytes (SHA-only challenges + the
//    decode-free BatchValidateEncodings commit-byte pass), at n = 1024 by
//    default.
// Ristretto Encode/Decode invocation deltas, taken from one pass, are
// reported next to wall-clock numbers: the verify path must show ZERO
// encodes. Each row is timed over 15 runs after one warm-up (median and
// quartiles): single passes of one unchanged binary spread by more than the
// differences this bench exists to show.
//
// --n N (default 1024) sets the batch size. Emits BENCH_dleq_fs.json.
#include <functional>
#include <string>
#include <vector>

#include "bench/figure_bench.h"
#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/crypto/elgamal.h"

namespace votegral {
namespace {

constexpr std::string_view kDomain = "bench/dleq-fs/v1";

// A tagging-shaped statement: DLEQ over (B, C1, C2) with witness z — the
// 3-element proof the tally's tag chain produces once per ciphertext per
// member (src/votegral/tagging.cpp).
struct TagInstance {
  DleqStatement statement;  // wire-backed
  Scalar witness;
};

TagInstance MakeInstance(const RistrettoPoint& pk, const Scalar& z,
                         const CompressedRistretto& commitment_wire,
                         const RistrettoPoint& commitment, Rng& rng) {
  ElGamalCiphertext input = ElGamalEncrypt(pk, RistrettoPoint::Base(), rng);
  ElGamalCiphertext output = input.ExponentiateBy(z);
  TagInstance inst;
  inst.witness = z;
  inst.statement.bases = {RistrettoPoint::Base(), input.c1, input.c2};
  inst.statement.publics = {commitment, output.c1, output.c2};
  ElGamalWire in_wire = input.Wire();
  ElGamalWire out_wire = output.Wire();
  inst.statement.base_wire = {RistrettoPoint::BaseWire(), ElGamalWireHalf(in_wire, 0),
                              ElGamalWireHalf(in_wire, 1)};
  inst.statement.public_wire = {commitment_wire, ElGamalWireHalf(out_wire, 0),
                                ElGamalWireHalf(out_wire, 1)};
  return inst;
}

DleqStatement Stripped(const DleqStatement& statement) {
  DleqStatement bare = statement;
  bare.base_wire.clear();
  bare.public_wire.clear();
  return bare;
}

constexpr size_t kRepetitions = 15;

void Main(int argc, char** argv) {
  figure::Bench bench("dleq_fs", argc, argv);
  const size_t n = bench.Count("--n", 1024);
  bench.RejectUnreadFlags();
  bench.Config("proof_shape", std::string("tagging-3-element"));
  bench.Config("repetitions", uint64_t{kRepetitions});

  std::vector<figure::Row> rows;
  // Encode and decode counts from the warm-up pass, then the timed runs.
  auto measure = [&](const std::string& path, const std::function<void()>& body) {
    const uint64_t enc0 = RistrettoEncodeInvocations();
    const uint64_t dec0 = RistrettoDecodeInvocations();
    bool counted = false;
    uint64_t encodes = 0;
    uint64_t decodes = 0;
    const figure::Spread time = figure::TimeRepeated(kRepetitions, [&] {
      body();
      if (!counted) {
        encodes = RistrettoEncodeInvocations() - enc0;
        decodes = RistrettoDecodeInvocations() - dec0;
        counted = true;
      }
    });
    rows.push_back({{"path", path},
                    {"n", uint64_t{n}},
                    {"median_ms", time.median * 1e3},
                    {"q1_ms", time.q1 * 1e3},
                    {"q3_ms", time.q3 * 1e3},
                    {"per_proof_us", time.median / static_cast<double>(n) * 1e6},
                    {"encodes", encodes},
                    {"decodes", decodes}});
    return encodes;
  };

  ChaChaRng rng(0xD1E9);
  Scalar z = Scalar::Random(rng);
  RistrettoPoint commitment = RistrettoPoint::MulBase(z);
  CompressedRistretto commitment_wire = commitment.Encode();
  RistrettoPoint pk = RistrettoPoint::MulBase(Scalar::Random(rng));

  std::vector<TagInstance> instances;
  instances.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    instances.push_back(MakeInstance(pk, z, commitment_wire, commitment, rng));
  }

  // Prover: wire-backed statements vs the encode-per-point framing.
  std::vector<DleqTranscript> proofs(n);
  measure("prove (wire statements)", [&] {
    ChaChaRng prove_rng(1);
    for (size_t i = 0; i < n; ++i) {
      proofs[i] = ProveDleqFs(kDomain, instances[i].statement, instances[i].witness,
                              prove_rng);
    }
  });
  measure("prove (bare statement)", [&] {
    ChaChaRng prove_rng(1);
    for (size_t i = 0; i < n; ++i) {
      DleqTranscript t = ProveDleqFs(kDomain, Stripped(instances[i].statement),
                                     instances[i].witness, prove_rng);
      Require(t.challenge == proofs[i].challenge, "dleq bench: statement framings diverged");
    }
  });

  // Challenge derivation alone (the per-proof verifier hash).
  measure("challenge (wire)", [&] {
    for (size_t i = 0; i < n; ++i) {
      Scalar c = DeriveFsChallenge(kDomain, instances[i].statement, proofs[i].commits,
                                   proofs[i].commit_wire, {});
      Require(c == proofs[i].challenge, "dleq bench: wire challenge mismatch");
    }
  });
  measure("challenge (bare statement)", [&] {
    for (size_t i = 0; i < n; ++i) {
      Scalar c = DeriveFsChallenge(kDomain, Stripped(instances[i].statement),
                                   proofs[i].commits, proofs[i].commit_wire, {});
      Require(c == proofs[i].challenge, "dleq bench: bare-statement challenge mismatch");
    }
  });

  // Batched verification: the universal verifier's hot shape.
  std::vector<DleqBatchEntry> entries(n);
  for (size_t i = 0; i < n; ++i) {
    entries[i].domain = std::string(kDomain);
    entries[i].statement = instances[i].statement;
    entries[i].transcript = proofs[i];
  }
  const uint64_t wire_encodes = measure("batch verify (wire)", [&] {
    ChaChaRng weights(2);
    Require(BatchVerifyDleq(entries, weights).ok(), "dleq bench: wire batch rejected");
  });
  bench.Table("paths", std::move(rows));
  bench.Check("wire_verify_zero_encodes", wire_encodes == 0,
              "dleq bench: wire-path verification must perform zero encodes");
  bench.Finish();
}

}  // namespace
}  // namespace votegral

int main(int argc, char** argv) {
  votegral::Main(argc, argv);
  return 0;
}
