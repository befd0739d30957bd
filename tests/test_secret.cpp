// The secret-hygiene layer: zeroize-on-destruction really clears the
// backing bytes, ct_eq is correct, and reveal() round-trips.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <new>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/chacha.hpp"
#include "dmw/polycommit.hpp"
#include "numeric/group.hpp"
#include "poly/polynomial.hpp"
#include "support/secret.hpp"

namespace dmw {
namespace {

using num::Group64;

TEST(SecureWipe, ClearsEveryByte) {
  std::array<std::uint8_t, 64> buffer;
  buffer.fill(0xAB);
  secure_wipe(buffer.data(), buffer.size());
  for (auto b : buffer) EXPECT_EQ(b, 0);
}

TEST(Zeroize, TriviallyCopyableValue) {
  std::uint64_t value = 0xDEADBEEFCAFEF00Dull;
  zeroize(value);
  EXPECT_EQ(value, 0u);
}

TEST(Zeroize, VectorWipesElementsAndEmpties) {
  std::vector<std::uint64_t> values = {1, 2, 3};
  zeroize(values);
  EXPECT_TRUE(values.empty());
}

TEST(Zeroize, ArrayWipesInPlace) {
  std::array<std::uint32_t, 4> values = {9, 9, 9, 9};
  zeroize(values);
  for (auto v : values) EXPECT_EQ(v, 0u);
}

// The core claim of the hygiene layer: after a Secret<T> is destroyed, the
// storage it occupied holds zeros. Placement-new gives us a stable address
// to inspect after the destructor runs.
TEST(Secret, DestructionClearsBackingBytes) {
  using Payload = std::array<std::uint64_t, 4>;
  alignas(Secret<Payload>) unsigned char storage[sizeof(Secret<Payload>)];
  std::memset(storage, 0x5A, sizeof(storage));

  auto* secret = new (storage)
      Secret<Payload>(Payload{0x1111, 0x2222, 0x3333, 0x4444});
  ASSERT_EQ(secret->reveal()[0], 0x1111u);
  secret->~Secret<Payload>();

  for (unsigned char byte : storage) EXPECT_EQ(byte, 0);
}

TEST(Secret, MoveWipesTheSource) {
  using Payload = std::array<std::uint64_t, 2>;
  Secret<Payload> source(Payload{7, 8});
  Secret<Payload> sink(std::move(source));
  EXPECT_EQ(sink.reveal()[0], 7u);
  EXPECT_EQ(source.reveal()[0], 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.reveal()[1], 0u);
}

TEST(Secret, RevealRoundTrip) {
  Secret<std::uint64_t> secret(42);
  EXPECT_EQ(secret.reveal(), 42u);
  secret.reveal_mut() = 43;
  EXPECT_EQ(secret.reveal(), 43u);
}

TEST(Secret, PolynomialWipeSecretClearsCoefficients) {
  poly::Polynomial<Group64> f({1, 2, 3});
  zeroize(f);
  EXPECT_TRUE(f.coeffs().empty());
}

TEST(Secret, BidPolynomialsWipeClearsEverything) {
  const auto params =
      proto::PublicParams<Group64>::make(Group64::test_group(), 8, 1, 2, 7);
  auto rng = crypto::ChaChaRng::from_seed(7);
  auto bundle = proto::BidPolynomials<Group64>::sample(params, 2, rng);
  EXPECT_FALSE(bundle.g.coeffs().empty());
  zeroize(bundle);
  EXPECT_TRUE(bundle.e.coeffs().empty());
  EXPECT_TRUE(bundle.f.coeffs().empty());
  EXPECT_TRUE(bundle.g.coeffs().empty());
  EXPECT_TRUE(bundle.h.coeffs().empty());
  EXPECT_EQ(bundle.bid, 0u);
  EXPECT_EQ(bundle.tau, 0u);
}

TEST(CtEq, SpanSemantics) {
  const std::vector<std::uint8_t> a = {1, 2, 3, 4};
  const std::vector<std::uint8_t> b = {1, 2, 3, 4};
  const std::vector<std::uint8_t> c = {1, 2, 3, 5};
  const std::vector<std::uint8_t> d = {1, 2, 3};
  EXPECT_TRUE(ct_eq(std::span<const std::uint8_t>(a),
                    std::span<const std::uint8_t>(b)));
  EXPECT_FALSE(ct_eq(std::span<const std::uint8_t>(a),
                     std::span<const std::uint8_t>(c)));
  EXPECT_FALSE(ct_eq(std::span<const std::uint8_t>(a),
                     std::span<const std::uint8_t>(d)));
  EXPECT_TRUE(ct_eq(std::span<const std::uint8_t>(d.data(), 0),
                    std::span<const std::uint8_t>(a.data(), 0)));
}

TEST(CtEq, DiffersInEveryBytePosition) {
  std::array<std::uint8_t, 16> a{}, b{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    b = a;
    b[i] ^= 0x01;
    EXPECT_FALSE(ct_eq(a, b)) << i;
  }
  EXPECT_TRUE(ct_eq(a, a));
}

TEST(CtEq, TriviallyCopyableOverload) {
  const std::uint64_t a = 0x0123456789ABCDEFull;
  const std::uint64_t b = 0x0123456789ABCDEFull;
  const std::uint64_t c = a ^ 1;
  EXPECT_TRUE(ct_eq(a, b));
  EXPECT_FALSE(ct_eq(a, c));
}

TEST(CtEq, SecretOverload) {
  using Key = std::array<std::uint8_t, 32>;
  Key raw;
  raw.fill(0x11);
  const Secret<Key> a{raw};
  const Secret<Key> b{raw};
  raw[31] = 0x12;
  const Secret<Key> c{raw};
  EXPECT_TRUE(ct_eq(a, b));
  EXPECT_FALSE(ct_eq(a, c));
}

TEST(AeadKey, MakeFromBytesAndCompare) {
  std::vector<std::uint8_t> bytes(crypto::kAeadKeyBytes, 0x42);
  const auto key = crypto::make_aead_key(bytes);
  EXPECT_EQ(key.reveal()[0], 0x42);
  std::vector<std::uint8_t> other(crypto::kAeadKeyBytes, 0x42);
  EXPECT_TRUE(ct_eq(key, crypto::make_aead_key(other)));
  other[0] = 0x43;
  EXPECT_FALSE(ct_eq(key, crypto::make_aead_key(other)));
}

// The per-channel AEAD state (ChaCha20 subkey + HMAC midstates) is
// key-equivalent: destruction and move must leave no byte of it behind.
TEST(AeadChannel, DestructionAndMoveClearTheState) {
  std::vector<std::uint8_t> bytes(crypto::kAeadKeyBytes, 0x42);
  const auto key = crypto::make_aead_key(bytes);
  const auto is_zero = [](const crypto::AeadChannel& channel) {
    const auto* p = reinterpret_cast<const unsigned char*>(&channel);
    for (std::size_t i = 0; i < sizeof(channel); ++i)
      if (p[i] != 0) return false;
    return true;
  };

  alignas(crypto::AeadChannel) unsigned char
      storage[sizeof(crypto::AeadChannel)];
  std::memset(storage, 0x5A, sizeof(storage));
  auto* channel = new (storage) crypto::AeadChannel(key);
  EXPECT_FALSE(is_zero(*channel));
  crypto::AeadChannel moved(std::move(*channel));
  EXPECT_TRUE(is_zero(*channel));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(is_zero(moved));
  *channel = std::move(moved);
  EXPECT_TRUE(is_zero(moved));  // NOLINT(bugprone-use-after-move)
  channel->~AeadChannel();
  for (unsigned char byte : storage) EXPECT_EQ(byte, 0);
}

}  // namespace
}  // namespace dmw
