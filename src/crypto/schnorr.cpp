#include "src/crypto/schnorr.h"

#include "src/common/bytes.h"
#include "src/common/serde.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

constexpr std::string_view kNonceDomain = "votegral/schnorr/nonce/v1";
constexpr std::string_view kChallengeDomain = "votegral/schnorr/challenge/v1";

}  // namespace

Scalar SchnorrChallenge(const CompressedRistretto& r_bytes, const CompressedRistretto& pk_bytes,
                        std::span<const uint8_t> message) {
  auto digest = Sha512::HashParts({AsBytes(kChallengeDomain), r_bytes, pk_bytes, message});
  return Scalar::FromBytesWide(digest);
}

Bytes SchnorrSignature::Serialize() const {
  Bytes out(r_bytes.begin(), r_bytes.end());
  auto s_bytes = s.ToBytes();
  out.insert(out.end(), s_bytes.begin(), s_bytes.end());
  return out;
}

Outcome<SchnorrSignature> SchnorrSignature::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "schnorr signature");
  SchnorrSignature sig;
  r.Fixed(sig.r_bytes);
  r.Decode(&sig.s, 32, Scalar::FromCanonicalBytes);
  return r.Finish(std::move(sig));
}

SchnorrKeyPair SchnorrKeyPair::Generate(Rng& rng) {
  Scalar sk = Scalar::Random(rng);
  return SchnorrKeyPair(sk, RistrettoPoint::MulBase(sk));
}

SchnorrKeyPair SchnorrKeyPair::FromSecret(const Scalar& sk) {
  return SchnorrKeyPair(sk, RistrettoPoint::MulBase(sk));
}

SchnorrSignature SchnorrKeyPair::Sign(std::span<const uint8_t> message, Rng& rng) const {
  Bytes hedge = rng.RandomBytes(32);
  auto sk_bytes = sk_.ToBytes();
  auto nonce_digest = Sha512::HashParts({AsBytes(kNonceDomain), sk_bytes, hedge, message});
  Scalar k = Scalar::FromBytesWide(nonce_digest);

  SchnorrSignature sig;
  sig.r_bytes = RistrettoPoint::MulBase(k).Encode();
  Scalar c = SchnorrChallenge(sig.r_bytes, pk_bytes_, message);
  sig.s = k + c * sk_;
  return sig;
}

Status SchnorrVerify(const CompressedRistretto& pk_bytes, std::span<const uint8_t> message,
                     const SchnorrSignature& sig) {
  auto pk = RistrettoPoint::Decode(pk_bytes);
  if (!pk.has_value()) {
    return Status::Error("schnorr: invalid public key encoding");
  }
  Scalar c = SchnorrChallenge(sig.r_bytes, pk_bytes, message);
  // Check s*B == R + c*P  <=>  R == s*B - c*P.
  RistrettoPoint r = RistrettoPoint::DoubleScalarMulBase(-c, *pk, sig.s);
  if (!ConstantTimeEqual(r.Encode(), sig.r_bytes)) {
    return Status::Error("schnorr: signature verification failed");
  }
  return Status::Ok();
}

}  // namespace votegral
