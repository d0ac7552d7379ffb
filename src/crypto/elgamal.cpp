#include "src/crypto/elgamal.h"

#include <algorithm>

#include "src/common/serde.h"

namespace votegral {

ElGamalCiphertext ElGamalCiphertext::operator+(const ElGamalCiphertext& other) const {
  return {c1 + other.c1, c2 + other.c2};
}

ElGamalCiphertext ElGamalCiphertext::ReRandomize(const RistrettoPoint& pk,
                                                 const Scalar& r) const {
  return {c1 + RistrettoPoint::MulBase(r), c2 + r * pk};
}

ElGamalCiphertext ElGamalCiphertext::ExponentiateBy(const Scalar& z) const {
  return {z * c1, z * c2};
}

bool ElGamalCiphertext::operator==(const ElGamalCiphertext& other) const {
  return c1 == other.c1 && c2 == other.c2;
}

Bytes ElGamalCiphertext::Serialize() const {
  auto a = c1.Encode();
  auto b = c2.Encode();
  return Concat({a, b});
}

std::array<uint8_t, 64> ElGamalCiphertext::Wire() const {
  std::array<uint8_t, 64> wire;
  auto a = c1.Encode();
  auto b = c2.Encode();
  std::copy(a.begin(), a.end(), wire.begin());
  std::copy(b.begin(), b.end(), wire.begin() + 32);
  return wire;
}

std::array<uint8_t, 32> ElGamalWireHalf(const ElGamalWire& wire, size_t half) {
  std::array<uint8_t, 32> out;
  std::copy(wire.begin() + static_cast<ptrdiff_t>(32 * half),
            wire.begin() + static_cast<ptrdiff_t>(32 * (half + 1)), out.begin());
  return out;
}

Outcome<ElGamalCiphertext> ElGamalCiphertext::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes, "elgamal ciphertext");
  ElGamalCiphertext ct;
  r.Decode(&ct.c1, 32, RistrettoPoint::Decode);
  r.Decode(&ct.c2, 32, RistrettoPoint::Decode);
  return r.Finish(std::move(ct));
}

ElGamalCiphertext ElGamalEncrypt(const RistrettoPoint& pk, const RistrettoPoint& message,
                                 const Scalar& r) {
  return {RistrettoPoint::MulBase(r), r * pk + message};
}

ElGamalCiphertext ElGamalEncrypt(const RistrettoPoint& pk, const RistrettoPoint& message,
                                 Rng& rng, Scalar* randomness_out) {
  Scalar r = Scalar::Random(rng);
  if (randomness_out != nullptr) {
    *randomness_out = r;
  }
  return ElGamalEncrypt(pk, message, r);
}

ElGamalCiphertext ElGamalTrivialEncrypt(const RistrettoPoint& message) {
  return {RistrettoPoint::Identity(), message};
}

RistrettoPoint ElGamalDecrypt(const Scalar& sk, const ElGamalCiphertext& ct) {
  return ct.c2 - sk * ct.c1;
}

}  // namespace votegral
