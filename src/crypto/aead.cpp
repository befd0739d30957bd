#include "crypto/aead.hpp"

#include <cstring>
#include <string_view>

#include "crypto/chacha.hpp"
#include "crypto/sha256.hpp"
#include "support/check.hpp"
#include "support/secret.hpp"

namespace dmw::crypto {

namespace {

// Domain-separated subkeys: one for the cipher, one for the MAC.
AeadKey derive_subkey(const AeadKey& key, std::string_view info) {
  auto bytes = hkdf_sha256(key.reveal(), {}, info, kAeadKeyBytes);
  AeadKey subkey = make_aead_key(bytes);
  zeroize(bytes);
  return subkey;
}

void put_le64(std::array<std::uint8_t, 8>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

}  // namespace

AeadKey make_aead_key(std::span<const std::uint8_t> bytes) {
  DMW_REQUIRE(bytes.size() == kAeadKeyBytes);
  std::array<std::uint8_t, kAeadKeyBytes> raw{};
  std::memcpy(raw.data(), bytes.data(), kAeadKeyBytes);
  AeadKey key{raw};
  zeroize(raw);
  return key;
}

void chacha20_xor(std::span<const std::uint8_t> key32, std::uint64_t nonce,
                  std::span<std::uint8_t> data) {
  DMW_REQUIRE(key32.size() == kAeadKeyBytes);
  std::array<std::uint32_t, 8> key;
  for (int i = 0; i < 8; ++i) {
    key[i] = std::uint32_t{key32[4 * i]} |
             (std::uint32_t{key32[4 * i + 1]} << 8) |
             (std::uint32_t{key32[4 * i + 2]} << 16) |
             (std::uint32_t{key32[4 * i + 3]} << 24);
  }
  const std::array<std::uint32_t, 3> nonce_words = {
      static_cast<std::uint32_t>(nonce),
      static_cast<std::uint32_t>(nonce >> 32), 0x64616561};  // "aead"
  std::array<std::uint8_t, 64> block;
  std::uint32_t counter = 0;
  for (std::size_t offset = 0; offset < data.size(); offset += 64) {
    chacha20_block(key, counter++, nonce_words, block);
    const std::size_t chunk = std::min<std::size_t>(64, data.size() - offset);
    for (std::size_t i = 0; i < chunk; ++i) data[offset + i] ^= block[i];
  }
  zeroize(key);
  zeroize(block);
}

AeadChannel::AeadChannel(const AeadKey& key)
    : enc_(derive_subkey(key, "dmw-aead-enc")),
      mac_(derive_subkey(key, "dmw-aead-mac").reveal()) {}

Digest256 AeadChannel::tag(std::uint64_t nonce,
                           std::span<const std::uint8_t> ciphertext,
                           std::span<const std::uint8_t> aad) const {
  // MAC input: len(aad) || aad || nonce || ciphertext (length framing
  // prevents boundary ambiguity), streamed into the primed inner hash.
  std::array<std::uint8_t, 8> word;
  Sha256 inner = mac_.begin();
  put_le64(word, aad.size());
  inner.update(word);
  inner.update(aad);
  put_le64(word, nonce);
  inner.update(word);
  inner.update(ciphertext);
  return mac_.finish(inner);
}

void AeadChannel::seal(std::uint64_t nonce,
                       std::span<const std::uint8_t> plaintext,
                       std::span<const std::uint8_t> aad,
                       std::vector<std::uint8_t>& out) const {
  const std::size_t start = out.size();
  out.reserve(start + plaintext.size() + kAeadTagBytes);
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  const auto ciphertext = std::span<std::uint8_t>(out).subspan(start);
  chacha20_xor(enc_.reveal(), nonce, ciphertext);
  const Digest256 t = tag(nonce, ciphertext, aad);
  out.insert(out.end(), t.begin(), t.begin() + kAeadTagBytes);
}

std::optional<std::vector<std::uint8_t>> AeadChannel::open(
    std::uint64_t nonce, std::span<const std::uint8_t> sealed,
    std::span<const std::uint8_t> aad) const {
  if (sealed.size() < kAeadTagBytes) return std::nullopt;
  const auto ciphertext = sealed.first(sealed.size() - kAeadTagBytes);
  const Digest256 expected = tag(nonce, ciphertext, aad);
  if (!ct_eq(sealed.last(kAeadTagBytes),
             std::span<const std::uint8_t>(expected.data(), kAeadTagBytes)))
    return std::nullopt;
  std::vector<std::uint8_t> out(ciphertext.begin(), ciphertext.end());
  chacha20_xor(enc_.reveal(), nonce, out);
  return out;
}

std::vector<std::uint8_t> aead_seal(const AeadKey& key, std::uint64_t nonce,
                                    std::span<const std::uint8_t> plaintext,
                                    std::span<const std::uint8_t> aad) {
  std::vector<std::uint8_t> out;
  AeadChannel(key).seal(nonce, plaintext, aad, out);
  return out;
}

std::optional<std::vector<std::uint8_t>> aead_open(
    const AeadKey& key, std::uint64_t nonce,
    std::span<const std::uint8_t> sealed, std::span<const std::uint8_t> aad) {
  return AeadChannel(key).open(nonce, sealed, aad);
}

}  // namespace dmw::crypto
