#include "src/crypto/dleq.h"

#include <array>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/executor.h"
#include "src/common/serde.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

void HashBytes(Sha512& h, std::span<const CompressedRistretto> wire) {
  for (const CompressedRistretto& bytes : wire) {
    h.Update(bytes);
  }
}

// Hashes one statement section: its bytes when they are complete, a fresh
// canonical encoding otherwise. Both paths feed the hash the exact same byte
// stream — the invariant wire[i] == Encode(p[i]) — so proofs do not depend
// on which path ran.
void HashSection(Sha512& h, std::span<const RistrettoPoint> points,
                 std::span<const CompressedRistretto> wire) {
  if (wire.size() == points.size()) {
    HashBytes(h, wire);
    return;
  }
  for (const RistrettoPoint& point : points) {
    h.Update(point.Encode());
  }
}

}  // namespace

DleqStatement DleqStatement::MakePair(const RistrettoPoint& g1, const RistrettoPoint& p1,
                                      const RistrettoPoint& g2, const RistrettoPoint& p2) {
  DleqStatement s;
  s.bases = {g1, g2};
  s.publics = {p1, p2};
  return s;
}

void DleqStatement::EnsureWire() {
  if (base_wire.size() != bases.size()) {
    base_wire.resize(bases.size());
    BatchEncodePoints(bases, base_wire);
  }
  if (public_wire.size() != publics.size()) {
    public_wire.resize(publics.size());
    BatchEncodePoints(publics, public_wire);
  }
}

// The MixItem rule: a byte string may bind challenge bits only for the point
// it encodes. BatchValidateEncodings checks bytes == Encode(point) exactly,
// on the calling thread (a proof has two or three commits), and a commit
// without bytes fails like one with wrong bytes.
Status DleqTranscript::ValidateWire() const {
  if (commit_wire.size() > commits.size()) {
    return Status::Error("dleq: commit wire cache size mismatch");
  }
  std::vector<uint8_t> ok(commits.size(), 0);
  {
    Executor::Scope serial(Executor::Serial());
    BatchValidateEncodings(std::span(commits).first(commit_wire.size()), commit_wire,
                           std::span(ok).first(commit_wire.size()));
  }
  for (size_t i = 0; i < ok.size(); ++i) {
    if (ok[i] == 0) {
      return Status::Error("dleq: commit wire cache does not match point at index " +
                           std::to_string(i));
    }
  }
  return Status::Ok();
}

Bytes DleqTranscript::Serialize() const {
  Require(commit_wire.size() == commits.size(), "dleq: transcript without its commit bytes");
  ByteWriter w;
  w.U32(static_cast<uint32_t>(commits.size()));
  for (const CompressedRistretto& bytes : commit_wire) {
    w.Fixed(bytes);
  }
  w.Fixed(challenge.ToBytes());
  w.Fixed(response.ToBytes());
  return w.Take();
}

Outcome<DleqTranscript> DleqTranscript::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "dleq transcript");
  DleqTranscript t;
  const uint32_t n = r.U32();
  if (r.Check(n <= 1024, "more than 1024 commits")) {
    t.commits.resize(n);
    t.commit_wire.resize(n);
  }
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    // Decode accepts only canonical encodings, so the consumed bytes ARE the
    // commit's unique wire form: retain them as the cache.
    r.Fixed(t.commit_wire[i]);
    auto commit = RistrettoPoint::Decode(t.commit_wire[i]);
    if (r.Check(commit.has_value(), "non-canonical commit")) {
      t.commits[i] = *commit;
    }
  }
  r.Decode(&t.challenge, 32, Scalar::FromCanonicalBytes);
  r.Decode(&t.response, 32, Scalar::FromCanonicalBytes);
  return r.Finish(std::move(t));
}

DleqProver::DleqProver(DleqStatement statement, const Scalar& x, Rng& rng)
    : statement_(std::move(statement)), x_(x), y_(Scalar::Random(rng)) {
  Require(statement_.bases.size() == statement_.publics.size() && !statement_.bases.empty(),
          "DleqProver: malformed statement");
  commits_.reserve(statement_.bases.size());
  commit_wire_.reserve(statement_.bases.size());
  for (const auto& base : statement_.bases) {
    commits_.push_back(y_ * base);
    commit_wire_.push_back(commits_.back().Encode());
  }
}

DleqTranscript DleqProver::Respond(const Scalar& challenge) const {
  DleqTranscript t;
  t.commits = commits_;
  t.commit_wire = commit_wire_;
  t.challenge = challenge;
  t.response = y_ - challenge * x_;
  return t;
}

DleqTranscript SimulateDleq(const DleqStatement& statement, const Scalar& challenge, Rng& rng) {
  Require(statement.bases.size() == statement.publics.size() && !statement.bases.empty(),
          "SimulateDleq: malformed statement");
  DleqTranscript t;
  t.challenge = challenge;
  t.response = Scalar::Random(rng);
  t.commits.reserve(statement.bases.size());
  t.commit_wire.reserve(statement.bases.size());
  for (size_t i = 0; i < statement.bases.size(); ++i) {
    // Y_i = r*G_i + e*P_i makes the verification equation hold by
    // construction — without any witness.
    t.commits.push_back(t.response * statement.bases[i] + challenge * statement.publics[i]);
    t.commit_wire.push_back(t.commits.back().Encode());
  }
  return t;
}

Status VerifyDleqTranscript(const DleqStatement& statement, const DleqTranscript& transcript) {
  if (statement.bases.size() != statement.publics.size() || statement.bases.empty()) {
    return Status::Error("dleq: malformed statement");
  }
  if (transcript.commits.size() != statement.bases.size()) {
    return Status::Error("dleq: commit count mismatch");
  }
  for (size_t i = 0; i < statement.bases.size(); ++i) {
    RistrettoPoint expected =
        transcript.response * statement.bases[i] + transcript.challenge * statement.publics[i];
    if (!(expected == transcript.commits[i])) {
      return Status::Error("dleq: verification equation failed");
    }
  }
  return Status::Ok();
}

Scalar DeriveFsChallenge(std::string_view domain, const DleqStatement& statement,
                         std::span<const RistrettoPoint> commits,
                         std::span<const CompressedRistretto> commit_wire,
                         std::span<const uint8_t> extra) {
  Require(commit_wire.size() == commits.size(), "dleq: one commit encoding per commit");
  Sha512 h;
  h.Update(AsBytes(domain));
  uint8_t sep = 0;
  h.Update({&sep, 1});
  HashSection(h, statement.bases, statement.base_wire);
  HashSection(h, statement.publics, statement.public_wire);
  HashBytes(h, commit_wire);
  h.Update(extra);
  return Scalar::FromBytesWide(h.Finalize());
}

DleqTranscript ProveDleqFs(std::string_view domain, const DleqStatement& statement,
                           const Scalar& x, Rng& rng, std::span<const uint8_t> extra) {
  Require(statement.publics.size() == statement.bases.size(),
          "ProveDleqFs: malformed statement");
  DleqStatement copy = statement;
  return ProveDleqFsDeriving(domain, copy, x, rng, extra);
}

DleqTranscript ProveDleqFsDeriving(std::string_view domain, DleqStatement& statement,
                                   const Scalar& x, Rng& rng, std::span<const uint8_t> extra) {
  const Scalar y = Scalar::Random(rng);
  DleqTranscript t;
  ProveDleqFsDeriving(domain, std::span(&statement, 1), x, std::span(&y, 1), std::span(&t, 1),
                      extra);
  return t;
}

void ProveDleqFsDeriving(std::string_view domain, std::span<DleqStatement> statements,
                         const Scalar& x, std::span<const Scalar> nonces,
                         std::span<DleqTranscript> out, std::span<const uint8_t> extra) {
  Require(nonces.size() == statements.size() && out.size() == statements.size(),
          "ProveDleqFs: one nonce and one transcript per statement");
  static const Scalar kHalf = Scalar::FromU64(2).Invert();
  const Scalar x_half = x * kHalf;
  // A base whose public is given needs its commit's half, y/2 * G; a base
  // whose public is derived needs that and x/2 * G. Each kind goes to one
  // batched MulEach, so a base's two multiples share its doubling chain.
  std::vector<RistrettoPoint> commit_only;
  std::vector<Scalar> commit_only_scalars;
  std::vector<RistrettoPoint> with_public;
  std::vector<Scalar> with_public_scalars;
  for (size_t j = 0; j < statements.size(); ++j) {
    const DleqStatement& statement = statements[j];
    const size_t n = statement.bases.size();
    const size_t given = statement.publics.size();
    Require(n != 0 && given <= n && (given == n || statement.public_wire.size() == given),
            "ProveDleqFs: malformed statement");
    const Scalar y_half = nonces[j] * kHalf;
    for (size_t i = 0; i < n; ++i) {
      if (i < given) {
        commit_only.push_back(statement.bases[i]);
        commit_only_scalars.push_back(y_half);
      } else {
        with_public.push_back(statement.bases[i]);
        with_public_scalars.push_back(y_half);
        with_public_scalars.push_back(x_half);
      }
    }
  }
  std::vector<RistrettoPoint> commit_only_half(commit_only_scalars.size());
  std::vector<RistrettoPoint> with_public_half(with_public_scalars.size());
  RistrettoPoint::MulEach(commit_only, 1, commit_only_scalars, commit_only_half);
  RistrettoPoint::MulEach(with_public, 2, with_public_scalars, with_public_half);

  // Every fresh point of the batch as 2*Q, in proof order (per statement,
  // per base: the commit, then a derived public), through one batched
  // double-and-encode.
  std::vector<RistrettoPoint> half;
  half.reserve(commit_only_half.size() + with_public_half.size());
  for (size_t j = 0, a = 0, b = 0; j < statements.size(); ++j) {
    for (size_t i = 0; i < statements[j].bases.size(); ++i) {
      if (i < statements[j].publics.size()) {
        half.push_back(commit_only_half[a++]);
      } else {
        half.push_back(with_public_half[b++]);
        half.push_back(with_public_half[b++]);
      }
    }
  }
  std::vector<CompressedRistretto> wire(half.size());
  BatchDoubleAndEncode(half, wire);

  for (size_t j = 0, k = 0; j < statements.size(); ++j) {
    DleqStatement& statement = statements[j];
    const size_t n = statement.bases.size();
    const size_t given = statement.publics.size();
    DleqTranscript& t = out[j];
    t.commits.clear();
    t.commit_wire.clear();
    t.commits.reserve(n);
    t.commit_wire.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      t.commits.push_back(half[k].Double());
      t.commit_wire.push_back(wire[k++]);
      if (i >= given) {
        statement.publics.push_back(half[k].Double());
        statement.public_wire.push_back(wire[k++]);
      }
    }
    t.challenge = DeriveFsChallenge(domain, statement, t.commits, t.commit_wire, extra);
    t.response = nonces[j] - t.challenge * x;
  }
}

Status VerifyDleqFs(std::string_view domain, const DleqStatement& statement,
                    const DleqTranscript& transcript, std::span<const uint8_t> extra) {
  // Commit bytes may bind challenge bits only after they are checked to
  // encode the claimed commit points.
  if (Status s = transcript.ValidateWire(); !s.ok()) {
    return s;
  }
  Scalar expected = DeriveFsChallenge(domain, statement, transcript.commits,
                                      transcript.commit_wire, extra);
  if (expected != transcript.challenge) {
    return Status::Error("dleq-fs: challenge mismatch");
  }
  return VerifyDleqTranscript(statement, transcript);
}

}  // namespace votegral
