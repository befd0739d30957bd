// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for pseudonym derivation, deterministic per-task seed expansion
// (via HMAC/HKDF), the AEAD channel tags and the protocol audit transcript.
// Blocks compress on the x86 SHA extensions where the CPU has them
// (numeric/simd.hpp); the portable compression here is the reference and
// the fallback, and both give the same digests.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/secret.hpp"

namespace dmw::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

/// FIPS 180-4 round constants, shared by both compression kernels.
inline constexpr std::array<std::uint32_t, 64> kSha256RoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view text) {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }
  /// Finalize and return the digest; the object must be reset() before reuse.
  Digest256 finish();

  static Digest256 hash(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
  }
  static Digest256 hash(std::string_view text) {
    Sha256 h;
    h.update(text);
    return h.finish();
  }

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

std::string digest_hex(const Digest256& digest);

/// One FIPS 180-4 compression of the 64-byte `block` into `state` (a..h),
/// in portable C++. Sha256 runs the SHA-NI kernel (numeric/simd.hpp) instead
/// where the CPU has one; this is its reference and the fallback.
void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* block);


/// HMAC-SHA256 keyed once (RFC 2104 §4): the hash states after absorbing
/// key ^ ipad and key ^ opad. A tag then costs only its message blocks plus
/// the two finalizations. Both midstates are key-equivalent, so they live
/// behind Secret<> and are wiped on destruction and move.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);

  /// A hash primed with key ^ ipad: update() it with the message, then
  /// hand it to finish().
  Sha256 begin() const { return inner_.reveal(); }
  /// Finish the inner hash and return the tag (the outer hash of its
  /// digest).
  Digest256 finish(Sha256& inner) const;

  Digest256 mac(std::span<const std::uint8_t> message) const {
    Sha256 inner = begin();
    inner.update(message);
    return finish(inner);
  }

 private:
  Secret<Sha256> inner_, outer_;
};

/// HMAC-SHA256 (RFC 2104), one-shot.
Digest256 hmac_sha256(std::span<const std::uint8_t> key,
                      std::span<const std::uint8_t> message);

/// HKDF-SHA256 expand (RFC 5869); `length` <= 255*32.
std::vector<std::uint8_t> hkdf_sha256(std::span<const std::uint8_t> ikm,
                                      std::span<const std::uint8_t> salt,
                                      std::string_view info,
                                      std::size_t length);

}  // namespace dmw::crypto
