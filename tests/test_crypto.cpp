// SHA-256 / HMAC / HKDF / ChaCha20 against published test vectors, plus the
// deterministic CSPRNG and the protocol transcript.
#include <gtest/gtest.h>

#include <string>

#include "crypto/chacha.hpp"
#include "crypto/sha256.hpp"
#include "crypto/transcript.hpp"
#include "numeric/simd.hpp"
#include "support/hex.hpp"
#include "support/rng.hpp"

namespace dmw::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Sha256, Fips180EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, Fips180MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string message = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= message.size(); split += 7) {
    Sha256 h;
    h.update(message.substr(0, split));
    h.update(message.substr(split));
    EXPECT_EQ(digest_hex(h.finish()), digest_hex(Sha256::hash(message)));
  }
}

TEST(Sha256, ExactBlockBoundaryPadding) {
  // 55, 56 and 64 byte messages exercise all padding branches.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string message(len, 'x');
    Sha256 a;
    a.update(message);
    Sha256 b;
    for (char c : message) b.update(std::string_view(&c, 1));
    EXPECT_EQ(digest_hex(a.finish()), digest_hex(b.finish())) << len;
  }
}

TEST(Sha256, ReuseAfterFinishRequiresReset) {
  Sha256 h;
  h.update("abc");
  (void)h.finish();
  EXPECT_THROW(h.update("more"), dmw::CheckError);
  h.reset();
  h.update("abc");
  EXPECT_EQ(digest_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---- compression kernels: SHA-NI against the portable reference ----------

using State = std::array<std::uint32_t, 8>;
using Compress = void (*)(State&, const std::uint8_t*);

void compress_shani(State& state, const std::uint8_t* block) {
#if defined(DMW_SIMD_X86)
  num::simd::sha256_compress_shani(state.data(), block,
                                   kSha256RoundConstants.data());
#else
  (void)state;
  (void)block;
#endif
}

/// FIPS 180-4 padding and chaining around one chosen compression kernel.
std::string digest_with(Compress compress, std::string_view message) {
  State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::vector<std::uint8_t> padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{message.size()} * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  for (std::size_t offset = 0; offset < padded.size(); offset += 64)
    compress(state, padded.data() + offset);
  Digest256 digest;
  for (std::size_t i = 0; i < 32; ++i)
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return digest_hex(digest);
}

void expect_fips180_vectors(Compress compress) {
  EXPECT_EQ(digest_with(compress, ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_with(compress, "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const std::string two_blocks =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(digest_with(compress, two_blocks),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest_with(compress, std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Kernels, Fips180VectorsOnPortableCompression) {
  expect_fips180_vectors(&sha256_compress_portable);
}

TEST(Sha256Kernels, Fips180VectorsOnShaNi) {
  if (!num::simd::sha_ni_active()) GTEST_SKIP() << "CPU lacks SHA-NI";
  expect_fips180_vectors(&compress_shani);
}

TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
  if (!num::simd::sha_ni_active()) GTEST_SKIP() << "CPU lacks SHA-NI";
  Xoshiro256ss rng(180);
  for (int trial = 0; trial < 2000; ++trial) {
    State state;
    for (auto& word : state) word = static_cast<std::uint32_t>(rng.next());
    std::array<std::uint8_t, 64> block;
    for (auto& byte : block) byte = static_cast<std::uint8_t>(rng.next());
    State portable = state;
    State shani = state;
    sha256_compress_portable(portable, block.data());
    compress_shani(shani, block.data());
    ASSERT_EQ(shani, portable) << trial;
  }
}

TEST(Sha256Kernels, DispatchIsLatchedAndGatedByTheBuild) {
  const bool active = num::simd::sha_ni_active();
  EXPECT_EQ(active, num::simd::sha_ni_active());
  if (!num::simd::compiled_in()) {
    EXPECT_FALSE(active);
  }
}

// Each RFC 4231 case also runs through a keyed HmacSha256: reused across
// tags (the midstates are not consumed) and fed the message in every
// two-piece split, it must reproduce the pinned one-shot tag.
void expect_midstates_agree(std::span<const std::uint8_t> key,
                            std::span<const std::uint8_t> message,
                            const Digest256& expected) {
  const HmacSha256 mac(key);
  EXPECT_EQ(mac.mac(message), expected);
  EXPECT_EQ(mac.mac(message), expected);
  for (std::size_t split = 0; split <= message.size(); ++split) {
    Sha256 inner = mac.begin();
    inner.update(message.first(split));
    inner.update(message.subspan(split));
    EXPECT_EQ(mac.finish(inner), expected) << split;
  }
}

TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto mac = hmac_sha256(key, bytes_of("Hi There"));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  expect_midstates_agree(key, bytes_of("Hi There"), mac);
}

TEST(Hmac, Rfc4231Case2) {
  const auto mac =
      hmac_sha256(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  expect_midstates_agree(bytes_of("Jefe"),
                         bytes_of("what do ya want for nothing?"), mac);
}

TEST(Hmac, Rfc4231Case3LongKeyData) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  expect_midstates_agree(key, data, hmac_sha256(key, data));
}

TEST(Hmac, Rfc4231Case6KeyLargerThanBlock) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto message =
      bytes_of("Test Using Larger Than Block-Size Key - Hash Key First");
  const auto mac = hmac_sha256(key, message);
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  expect_midstates_agree(key, message, mac);
}

TEST(Hkdf, Rfc5869Case1) {
  const std::vector<std::uint8_t> ikm(22, 0x0b);
  const auto salt = dmw::from_hex("000102030405060708090a0b0c");
  std::string info;
  for (int i = 0xf0; i <= 0xf9; ++i) info.push_back(static_cast<char>(i));
  const auto okm = hkdf_sha256(ikm, salt, info, 42);
  EXPECT_EQ(dmw::to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, LengthControl) {
  const std::vector<std::uint8_t> ikm(16, 1);
  const std::vector<std::uint8_t> salt;
  EXPECT_EQ(hkdf_sha256(ikm, salt, "x", 0).size(), 0u);
  EXPECT_EQ(hkdf_sha256(ikm, salt, "x", 33).size(), 33u);
  EXPECT_EQ(hkdf_sha256(ikm, salt, "x", 100).size(), 100u);
  // Prefix property: shorter output is a prefix of longer output.
  const auto a = hkdf_sha256(ikm, salt, "x", 40);
  const auto b = hkdf_sha256(ikm, salt, "x", 80);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  std::array<std::uint32_t, 8> key;
  for (int i = 0; i < 8; ++i)
    key[i] = static_cast<std::uint32_t>(4 * i) |
             (static_cast<std::uint32_t>(4 * i + 1) << 8) |
             (static_cast<std::uint32_t>(4 * i + 2) << 16) |
             (static_cast<std::uint32_t>(4 * i + 3) << 24);
  const std::array<std::uint32_t, 3> nonce = {0x09000000, 0x4a000000,
                                              0x00000000};
  std::array<std::uint8_t, 64> block;
  chacha20_block(key, 1, nonce, block);
  EXPECT_EQ(dmw::to_hex(block),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaChaRng, DeterministicAcrossInstances) {
  auto a = ChaChaRng::from_seed(7);
  auto b = ChaChaRng::from_seed(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(ChaChaRng, StreamsAreIndependent) {
  auto a = ChaChaRng::from_seed(7, 0);
  auto b = ChaChaRng::from_seed(7, 1);
  bool all_equal = true;
  for (int i = 0; i < 50; ++i)
    if (a.next() != b.next()) all_equal = false;
  EXPECT_FALSE(all_equal);
}

TEST(ChaChaRng, BelowIsInRange) {
  auto rng = ChaChaRng::from_seed(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(ChaChaRng, FillProducesKeystreamBytes) {
  auto a = ChaChaRng::from_seed(11);
  auto b = ChaChaRng::from_seed(11);
  std::vector<std::uint8_t> buf1(100), buf2(100);
  a.fill(buf1);
  b.fill(buf2);
  EXPECT_EQ(buf1, buf2);
  EXPECT_NE(buf1, std::vector<std::uint8_t>(100, 0));
}

TEST(Transcript, DeterministicAndOrderSensitive) {
  Transcript a("t"), b("t"), c("t");
  a.append_u64("x", 1);
  a.append_u64("y", 2);
  b.append_u64("x", 1);
  b.append_u64("y", 2);
  c.append_u64("y", 2);
  c.append_u64("x", 1);
  EXPECT_EQ(a.digest_hex(), b.digest_hex());
  EXPECT_NE(a.digest_hex(), c.digest_hex());
}

TEST(Transcript, DomainSeparated) {
  Transcript a("alpha"), b("beta");
  a.append_u64("x", 1);
  b.append_u64("x", 1);
  EXPECT_NE(a.digest_hex(), b.digest_hex());
}

TEST(Transcript, LengthFramingPreventsAmbiguity) {
  // ("ab", "c") must not collide with ("a", "bc").
  Transcript a("t"), b("t");
  a.append_label("ab");
  a.append_label("c");
  b.append_label("a");
  b.append_label("bc");
  EXPECT_NE(a.digest_hex(), b.digest_hex());
}

TEST(Transcript, DigestIsNonDestructive) {
  Transcript t("t");
  t.append_u64("x", 1);
  const auto d1 = t.digest_hex();
  const auto d2 = t.digest_hex();
  EXPECT_EQ(d1, d2);
  t.append_u64("y", 2);
  EXPECT_NE(t.digest_hex(), d1);
}

}  // namespace
}  // namespace dmw::crypto
