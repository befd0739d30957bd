// Authenticated encryption (ChaCha20 + HMAC-SHA256, encrypt-then-MAC).
//
// Realizes the paper's "private channels among the agents" assumption:
// Phase II share bundles travel sealed under pairwise session keys (see
// crypto/dh.hpp). Not a misuse-resistant AEAD — nonces are deterministic
// per-message counters managed by the channel layer and must never repeat
// under one key.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"
#include "support/secret.hpp"

namespace dmw::crypto {

inline constexpr std::size_t kAeadKeyBytes = 32;
inline constexpr std::size_t kAeadTagBytes = 16;

/// AEAD key material is always handled through the secret-hygiene layer:
/// zeroized on destruction, auditable reveal() for the primitive calls.
using AeadKey = Secret<std::array<std::uint8_t, kAeadKeyBytes>>;

/// Build an AeadKey from raw bytes, wiping nothing (the caller owns the
/// source buffer and should zeroize it after handing the bytes over).
AeadKey make_aead_key(std::span<const std::uint8_t> bytes);

/// XOR `data` in place with the ChaCha20 keystream for (key, nonce).
void chacha20_xor(std::span<const std::uint8_t> key32, std::uint64_t nonce,
                  std::span<std::uint8_t> data);

/// One directed channel's sealing state, derived once from its AeadKey: the
/// ChaCha20 subkey and the HMAC-SHA256 midstates of the MAC subkey, all
/// key-equivalent and Secret-wrapped. Sealing with it is byte for byte
/// aead_seal under the same key, minus the two HKDFs and the two pad
/// compressions that a one-shot call pays per message. Immutable after
/// construction, so concurrent seal/open calls on one object are safe.
class AeadChannel {
 public:
  explicit AeadChannel(const AeadKey& key);

  /// Append ciphertext || tag to `out` (which may already hold a wire
  /// prefix). `aad` is authenticated but not encrypted (the channel layer
  /// binds sender, receiver and message kind).
  void seal(std::uint64_t nonce, std::span<const std::uint8_t> plaintext,
            std::span<const std::uint8_t> aad,
            std::vector<std::uint8_t>& out) const;

  /// Verify the tag (constant-time comparison) and decrypt. Returns nullopt
  /// on any authentication failure.
  std::optional<std::vector<std::uint8_t>> open(
      std::uint64_t nonce, std::span<const std::uint8_t> sealed,
      std::span<const std::uint8_t> aad) const;

 private:
  Digest256 tag(std::uint64_t nonce, std::span<const std::uint8_t> ciphertext,
                std::span<const std::uint8_t> aad) const;

  AeadKey enc_;
  HmacSha256 mac_;
};

/// Seal: returns ciphertext || tag. One-shot: derives the channel state for
/// this single message (callers sealing many messages under one key keep an
/// AeadChannel instead).
std::vector<std::uint8_t> aead_seal(const AeadKey& key, std::uint64_t nonce,
                                    std::span<const std::uint8_t> plaintext,
                                    std::span<const std::uint8_t> aad);

/// Open: the one-shot counterpart of AeadChannel::open.
std::optional<std::vector<std::uint8_t>> aead_open(
    const AeadKey& key, std::uint64_t nonce,
    std::span<const std::uint8_t> sealed, std::span<const std::uint8_t> aad);

}  // namespace dmw::crypto
