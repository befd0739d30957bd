// The private-channel substrate: AEAD, Diffie-Hellman key agreement, and
// the sealed Phase II share traffic (paper II.2 "securely transmits").
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "crypto/aead.hpp"
#include "crypto/dh.hpp"
#include "dmw/protocol.hpp"
#include "mech/minwork.hpp"
#include "net/serialize.hpp"
#include "support/hex.hpp"
#include "support/rng.hpp"

namespace dmw {
namespace {

using crypto::aead_open;
using crypto::aead_seal;
using num::Group64;

crypto::AeadKey key_of(std::uint8_t fill) {
  std::array<std::uint8_t, crypto::kAeadKeyBytes> raw;
  raw.fill(fill);
  return crypto::AeadKey(raw);
}

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Aead, SealOpenRoundTrip) {
  const auto key = key_of(7);
  const auto plaintext = bytes_of("the quick brown fox");
  const auto aad = bytes_of("header");
  const auto sealed = aead_seal(key, 42, plaintext, aad);
  EXPECT_EQ(sealed.size(), plaintext.size() + crypto::kAeadTagBytes);
  const auto opened = aead_open(key, 42, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(Aead, EmptyPlaintextAndAad) {
  const auto key = key_of(9);
  const auto sealed = aead_seal(key, 0, {}, {});
  EXPECT_EQ(sealed.size(), crypto::kAeadTagBytes);
  const auto opened = aead_open(key, 0, sealed, {});
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(Aead, CiphertextHidesPlaintext) {
  const auto key = key_of(3);
  const auto plaintext = bytes_of("secret bid value 12345");
  const auto sealed = aead_seal(key, 1, plaintext, {});
  // No window of the ciphertext equals the plaintext.
  const std::string hay(sealed.begin(), sealed.end());
  const std::string needle(plaintext.begin(), plaintext.end());
  EXPECT_EQ(hay.find(needle), std::string::npos);
}

TEST(Aead, EveryTamperIsDetected) {
  const auto key = key_of(5);
  const auto plaintext = bytes_of("tamper me");
  const auto aad = bytes_of("aad");
  const auto sealed = aead_seal(key, 9, plaintext, aad);
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    auto corrupted = sealed;
    corrupted[i] ^= 0x40;
    EXPECT_FALSE(aead_open(key, 9, corrupted, aad).has_value()) << i;
  }
}

TEST(Aead, WrongKeyNonceOrAadRejected) {
  const auto key = key_of(5);
  const auto plaintext = bytes_of("payload");
  const auto aad = bytes_of("aad");
  const auto sealed = aead_seal(key, 9, plaintext, aad);
  EXPECT_FALSE(aead_open(key_of(6), 9, sealed, aad).has_value());
  EXPECT_FALSE(aead_open(key, 10, sealed, aad).has_value());
  EXPECT_FALSE(aead_open(key, 9, sealed, bytes_of("other")).has_value());
  EXPECT_FALSE(aead_open(key, 9, bytes_of("short"), aad).has_value());
}

// Known answers pinned from the per-message implementation that re-derived
// both subkeys on every seal: the per-channel state must reproduce them
// byte for byte (the wire format depends on it).
TEST(Aead, KnownAnswerShareSizedMessage) {
  std::array<std::uint8_t, crypto::kAeadKeyBytes> raw;
  for (std::size_t i = 0; i < raw.size(); ++i)
    raw[i] = static_cast<std::uint8_t>(i);
  const crypto::AeadKey key(raw);
  // channel_aad(0, 1): u32le sender, u32le receiver, u32le kind (kShares).
  const std::vector<std::uint8_t> aad = {0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0};
  std::vector<std::uint8_t> plaintext(45);
  for (std::size_t i = 0; i < plaintext.size(); ++i)
    plaintext[i] = static_cast<std::uint8_t>(0x40 + i);
  const auto sealed = aead_seal(key, 3, plaintext, aad);
  EXPECT_EQ(to_hex(sealed),
            "022f8ca85b75eaaa31a35185118c124d715916ab261ea8939d3c9a7811027963"
            "3597321d772a023b391164b51d"
            "f352c1d37e8ca7e5739a32b3cbcfb19c");
  const auto opened = aead_open(key, 3, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);

  const crypto::AeadChannel channel(key);
  std::vector<std::uint8_t> appended;
  channel.seal(3, plaintext, aad, appended);
  EXPECT_EQ(appended, sealed);
  const auto reopened = channel.open(3, sealed, aad);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(*reopened, plaintext);
}

TEST(Aead, KnownAnswerEmptyMessage) {
  std::array<std::uint8_t, crypto::kAeadKeyBytes> raw;
  for (std::size_t i = 0; i < raw.size(); ++i)
    raw[i] = static_cast<std::uint8_t>(i);
  const crypto::AeadKey key(raw);
  EXPECT_EQ(to_hex(aead_seal(key, 0, {}, {})),
            "803723a40896f763e9330ebb7fe9da42");
  std::vector<std::uint8_t> appended;
  crypto::AeadChannel(key).seal(0, {}, {}, appended);
  EXPECT_EQ(to_hex(appended), "803723a40896f763e9330ebb7fe9da42");
}

// The encrypt-then-MAC construction spelled out with one-shot primitives:
// HKDF subkeys, ChaCha20, and one HMAC over the contiguous framing
// len(aad) || aad || nonce || ciphertext.
std::vector<std::uint8_t> reference_seal(const crypto::AeadKey& key,
                                         std::uint64_t nonce,
                                         std::span<const std::uint8_t> plain,
                                         std::span<const std::uint8_t> aad) {
  const auto enc = crypto::hkdf_sha256(key.reveal(), {}, "dmw-aead-enc", 32);
  const auto mac = crypto::hkdf_sha256(key.reveal(), {}, "dmw-aead-mac", 32);
  std::vector<std::uint8_t> out(plain.begin(), plain.end());
  crypto::chacha20_xor(enc, nonce, out);
  net::Writer input;
  input.u64(aad.size());
  input.raw(aad);
  input.u64(nonce);
  input.raw(out);
  const auto tag = crypto::hmac_sha256(mac, input.bytes());
  out.insert(out.end(), tag.begin(), tag.begin() + crypto::kAeadTagBytes);
  return out;
}

// One channel object seals many messages of every length class; each must
// equal the spelled-out construction, appended after a wire prefix, and
// open straight from the span after it.
TEST(Aead, ChannelSealMatchesSpelledOutConstruction) {
  Xoshiro256ss rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::array<std::uint8_t, crypto::kAeadKeyBytes> raw;
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next());
    const crypto::AeadKey key(raw);
    const crypto::AeadChannel channel(key);
    for (int msg = 0; msg < 3; ++msg) {
      const std::uint64_t nonce = rng.next();
      std::vector<std::uint8_t> plaintext(rng.next() % 200);
      std::vector<std::uint8_t> aad(rng.next() % 80);
      for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.next());
      for (auto& b : aad) b = static_cast<std::uint8_t>(rng.next());
      const auto expected = reference_seal(key, nonce, plaintext, aad);
      std::vector<std::uint8_t> wire = {0xAA, 0xBB, 0xCC, 0xDD};
      channel.seal(nonce, plaintext, aad, wire);
      const auto sealed = std::span(wire).subspan(4);
      EXPECT_TRUE(std::ranges::equal(sealed, expected));
      const auto opened = channel.open(nonce, sealed, aad);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(*opened, plaintext);
      wire.back() ^= 1;
      EXPECT_FALSE(channel.open(nonce, sealed, aad));
    }
  }
}

TEST(Aead, XorIsAnInvolution) {
  const auto key = key_of(1);
  auto data = bytes_of("some stream data, longer than one block? no - "
                       "make it longer than sixty four bytes to be sure!");
  const auto original = data;
  crypto::chacha20_xor(key.reveal(), 77, data);
  EXPECT_NE(data, original);
  crypto::chacha20_xor(key.reveal(), 77, data);
  EXPECT_EQ(data, original);
}

TEST(Dh, SharedSecretIsSymmetric) {
  const Group64& g = Group64::test_group();
  auto rng_a = crypto::ChaChaRng::from_seed(1);
  auto rng_b = crypto::ChaChaRng::from_seed(2);
  const auto alice = crypto::DhKeyPair<Group64>::generate(g, rng_a);
  const auto bob = crypto::DhKeyPair<Group64>::generate(g, rng_b);
  EXPECT_EQ(
      crypto::dh_shared_element(g, alice.secret, bob.public_key).reveal(),
      crypto::dh_shared_element(g, bob.secret, alice.public_key).reveal());
  EXPECT_NE(alice.public_key, bob.public_key);
}

TEST(Dh, DirectionalKeysDifferButAgree) {
  const Group64& g = Group64::test_group();
  auto rng_a = crypto::ChaChaRng::from_seed(3);
  auto rng_b = crypto::ChaChaRng::from_seed(4);
  const auto alice = crypto::DhKeyPair<Group64>::generate(g, rng_a);
  const auto bob = crypto::DhKeyPair<Group64>::generate(g, rng_b);
  const auto shared_a =
      crypto::dh_shared_element(g, alice.secret, bob.public_key);
  const auto shared_b =
      crypto::dh_shared_element(g, bob.secret, alice.public_key);
  // Alice's outbound (0 -> 1) equals Bob's inbound (0 -> 1); comparison is
  // via the hygiene layer's constant-time equality.
  EXPECT_TRUE(ct_eq(crypto::derive_channel_key(g, shared_a, 0, 1),
                    crypto::derive_channel_key(g, shared_b, 0, 1)));
  // The reverse direction uses a different key.
  EXPECT_FALSE(ct_eq(crypto::derive_channel_key(g, shared_a, 0, 1),
                     crypto::derive_channel_key(g, shared_a, 1, 0)));
}

TEST(SecureChannel, ProtocolRunsEncryptedByDefault) {
  const auto params = proto::PublicParams<Group64>::make(
      Group64::test_group(), 5, 2, 1, 200);
  Xoshiro256ss rng(201);
  const auto instance =
      mech::make_uniform_instance(5, 2, params.bid_set(), rng);
  const auto outcome = proto::run_honest_dmw(params, instance);
  ASSERT_FALSE(outcome.aborted);
  EXPECT_EQ(outcome.schedule, mech::run_minwork(instance).schedule);
}

TEST(SecureChannel, PlaintextModeMatchesEncryptedOutcome) {
  const auto params = proto::PublicParams<Group64>::make(
      Group64::test_group(), 5, 2, 1, 202);
  Xoshiro256ss rng(203);
  const auto instance =
      mech::make_uniform_instance(5, 2, params.bid_set(), rng);
  proto::RunConfig plain;
  plain.encrypt_channels = false;
  const auto encrypted = proto::run_honest_dmw(params, instance);
  const auto plaintext = proto::run_honest_dmw(params, instance, plain);
  ASSERT_FALSE(encrypted.aborted);
  ASSERT_FALSE(plaintext.aborted);
  EXPECT_EQ(encrypted.schedule, plaintext.schedule);
  EXPECT_EQ(encrypted.payments, plaintext.payments);
  // Encryption costs bytes (tags + key postings) but not correctness.
  EXPECT_GT(encrypted.traffic.p2p_equivalent_bytes,
            plaintext.traffic.p2p_equivalent_bytes);
}

TEST(SecureChannel, EavesdropperSeesNoShareMaterial) {
  // Capture every unicast payload via the fault injector and check the
  // plaintext share encodings never appear on the wire.
  const auto params = proto::PublicParams<Group64>::make(
      Group64::test_group(), 4, 1, 1, 204);
  Xoshiro256ss rng(205);
  const auto instance =
      mech::make_uniform_instance(4, 1, params.bid_set(), rng);
  proto::HonestStrategy<Group64> honest;
  std::vector<proto::Strategy<Group64>*> strategies(4, &honest);
  proto::ProtocolRunner<Group64> runner(params, instance, strategies);
  auto captured = std::make_shared<std::vector<std::vector<std::uint8_t>>>();
  runner.network().set_fault_injector([captured](const net::Envelope& env) {
    captured->push_back(env.payload);
    return net::FaultAction{};
  });
  const auto outcome = runner.run();
  ASSERT_FALSE(outcome.aborted);
  // Every wire payload must carry an AEAD tag's worth of expansion over the
  // 36-byte plaintext SharesMsg (4 + 4*8), plus the 4-byte nonce prefix.
  for (const auto& payload : *captured) {
    EXPECT_EQ(payload.size(), 4u + 36u + crypto::kAeadTagBytes);
  }
  EXPECT_FALSE(captured->empty());
}

TEST(SecureChannel, TamperedCiphertextAborts) {
  const auto params = proto::PublicParams<Group64>::make(
      Group64::test_group(), 4, 1, 1, 206);
  Xoshiro256ss rng(207);
  const auto instance =
      mech::make_uniform_instance(4, 1, params.bid_set(), rng);
  proto::HonestStrategy<Group64> honest;
  std::vector<proto::Strategy<Group64>*> strategies(4, &honest);
  proto::ProtocolRunner<Group64> runner(params, instance, strategies);
  runner.network().set_fault_injector([](const net::Envelope& env) {
    net::FaultAction action;
    if (env.to == 2) {
      auto corrupted = env.payload;
      if (corrupted.size() > 8) corrupted[8] ^= 1;
      action.replace_payload = std::move(corrupted);
    }
    return action;
  });
  const auto outcome = runner.run();
  ASSERT_TRUE(outcome.aborted);
  EXPECT_EQ(outcome.abort_record->reason,
            proto::AbortReason::kMalformedMessage);
  EXPECT_EQ(outcome.aborting_agent, 2u);
}

TEST(SecureChannel, WithheldKeyExchangeIsDetected) {
  // A deviant that participates but never publishes its DH key: peers
  // cannot seal shares to it, so the run aborts (strict mode).
  class WithholdKey : public proto::Strategy<Group64> {
   public:
    bool edit_key_exchange(Group64::Elem&) override { return false; }
  };
  const auto params = proto::PublicParams<Group64>::make(
      Group64::test_group(), 4, 1, 1, 208);
  Xoshiro256ss rng(209);
  const auto instance =
      mech::make_uniform_instance(4, 1, params.bid_set(), rng);
  proto::HonestStrategy<Group64> honest;
  WithholdKey deviant;
  std::vector<proto::Strategy<Group64>*> strategies(4, &honest);
  strategies[1] = &deviant;
  proto::ProtocolRunner<Group64> runner(params, instance, strategies);
  const auto outcome = runner.run();
  EXPECT_TRUE(outcome.aborted);
}

}  // namespace
}  // namespace dmw
