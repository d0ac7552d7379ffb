// Tests for Schnorr signatures and ElGamal over ristretto255.
#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/schnorr.h"

namespace votegral {
namespace {

TEST(Schnorr, SignVerifyRoundTrip) {
  ChaChaRng rng(50);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("ballot for election 2026-06");
  auto sig = kp.Sign(msg, rng);
  EXPECT_TRUE(SchnorrVerify(kp.public_bytes(), msg, sig).ok());
}

TEST(Schnorr, RejectsTamperedMessage) {
  ChaChaRng rng(51);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto sig = kp.Sign(AsBytes("message A"), rng);
  EXPECT_FALSE(SchnorrVerify(kp.public_bytes(), AsBytes("message B"), sig).ok());
}

TEST(Schnorr, RejectsTamperedSignature) {
  ChaChaRng rng(52);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("message");
  auto sig = kp.Sign(msg, rng);
  SchnorrSignature bad_r = sig;
  bad_r.r_bytes[0] ^= 1;
  EXPECT_FALSE(SchnorrVerify(kp.public_bytes(), msg, bad_r).ok());
  SchnorrSignature bad_s = sig;
  bad_s.s = bad_s.s + Scalar::One();
  EXPECT_FALSE(SchnorrVerify(kp.public_bytes(), msg, bad_s).ok());
}

TEST(Schnorr, RejectsWrongKey) {
  ChaChaRng rng(53);
  auto kp1 = SchnorrKeyPair::Generate(rng);
  auto kp2 = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("message");
  auto sig = kp1.Sign(msg, rng);
  EXPECT_FALSE(SchnorrVerify(kp2.public_bytes(), msg, sig).ok());
}

TEST(Schnorr, RejectsInvalidPublicKeyEncoding) {
  ChaChaRng rng(54);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("message");
  auto sig = kp.Sign(msg, rng);
  CompressedRistretto bad_pk = kp.public_bytes();
  bad_pk[0] ^= 1;  // negative s -> not a valid encoding
  EXPECT_FALSE(SchnorrVerify(bad_pk, msg, sig).ok());
}

TEST(Schnorr, SerializationRoundTrip) {
  ChaChaRng rng(55);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("serialize me");
  auto sig = kp.Sign(msg, rng);
  Bytes wire = sig.Serialize();
  ASSERT_EQ(wire.size(), 64u);
  auto parsed = SchnorrSignature::Parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(SchnorrVerify(kp.public_bytes(), msg, *parsed).ok());
  // Truncated or oversized inputs are rejected.
  EXPECT_FALSE(SchnorrSignature::Parse({wire.data(), 63}).ok());
  wire.push_back(0);
  EXPECT_FALSE(SchnorrSignature::Parse(wire).ok());
}

TEST(Schnorr, ParseRejectsNonCanonicalScalar) {
  // s >= ℓ must be rejected (malleability guard).
  Bytes wire(64, 0xff);
  EXPECT_FALSE(SchnorrSignature::Parse(wire).ok());
}

TEST(Schnorr, FromSecretReconstructsSamePublicKey) {
  ChaChaRng rng(56);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto restored = SchnorrKeyPair::FromSecret(kp.secret());
  EXPECT_EQ(restored.public_bytes(), kp.public_bytes());
}

TEST(ElGamal, EncryptDecryptRoundTrip) {
  ChaChaRng rng(60);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  for (int iter = 0; iter < 10; ++iter) {
    RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
    auto ct = ElGamalEncrypt(pk, msg, rng);
    EXPECT_TRUE(ElGamalDecrypt(sk, ct) == msg);
  }
}

TEST(ElGamal, EncryptionIsRandomized) {
  ChaChaRng rng(61);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint msg = RistrettoPoint::Base();
  auto ct1 = ElGamalEncrypt(pk, msg, rng);
  auto ct2 = ElGamalEncrypt(pk, msg, rng);
  EXPECT_NE(ct1, ct2);
  EXPECT_TRUE(ElGamalDecrypt(sk, ct1) == ElGamalDecrypt(sk, ct2));
}

TEST(ElGamal, ReRandomizePreservesPlaintext) {
  ChaChaRng rng(62);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto ct = ElGamalEncrypt(pk, msg, rng);
  auto ct2 = ct.ReRandomize(pk, Scalar::Random(rng));
  EXPECT_NE(ct, ct2);
  EXPECT_TRUE(ElGamalDecrypt(sk, ct2) == msg);
}

TEST(ElGamal, HomomorphicAddition) {
  ChaChaRng rng(63);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint m1 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  RistrettoPoint m2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto ct = ElGamalEncrypt(pk, m1, rng) + ElGamalEncrypt(pk, m2, rng);
  EXPECT_TRUE(ElGamalDecrypt(sk, ct) == m1 + m2);
}

TEST(ElGamal, ExponentiateByBlindsConsistently) {
  // The deterministic-tagging core: Enc(M)^z decrypts to z*M, and two
  // encryptions of the same plaintext map to the same blinded value.
  ChaChaRng rng(64);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  Scalar z = Scalar::Random(rng);
  auto ct_a = ElGamalEncrypt(pk, msg, rng).ExponentiateBy(z);
  auto ct_b = ElGamalEncrypt(pk, msg, rng).ExponentiateBy(z);
  EXPECT_TRUE(ElGamalDecrypt(sk, ct_a) == z * msg);
  EXPECT_TRUE(ElGamalDecrypt(sk, ct_a) == ElGamalDecrypt(sk, ct_b));
  // A different plaintext yields a different tag.
  RistrettoPoint other = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto ct_c = ElGamalEncrypt(pk, other, rng).ExponentiateBy(z);
  EXPECT_FALSE(ElGamalDecrypt(sk, ct_c) == z * msg);
}

TEST(ElGamal, TrivialEncryptThenReRandomize) {
  ChaChaRng rng(65);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto trivial = ElGamalTrivialEncrypt(msg);
  EXPECT_TRUE(trivial.c1.IsIdentity());
  EXPECT_TRUE(ElGamalDecrypt(sk, trivial) == msg);
  auto randomized = trivial.ReRandomize(pk, Scalar::Random(rng));
  EXPECT_FALSE(randomized.c1.IsIdentity());
  EXPECT_TRUE(ElGamalDecrypt(sk, randomized) == msg);
}

TEST(ElGamal, SerializationRoundTrip) {
  ChaChaRng rng(66);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  auto ct = ElGamalEncrypt(pk, RistrettoPoint::Base(), rng);
  Bytes wire = ct.Serialize();
  ASSERT_EQ(wire.size(), 64u);
  auto parsed = ElGamalCiphertext::Parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, ct);
  wire[0] ^= 1;
  // Either decodes to a different ciphertext or fails; never the same value.
  auto tampered = ElGamalCiphertext::Parse(wire);
  if (tampered.ok()) {
    EXPECT_NE(*tampered, ct);
  }
}

}  // namespace
}  // namespace votegral
