#include "crypto/sha256.hpp"

#include <cstring>

#include "numeric/simd.hpp"
#include "support/check.hpp"
#include "support/hex.hpp"

namespace dmw::crypto {

namespace {

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
  finished_ = false;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  DMW_REQUIRE_MSG(!finished_, "Sha256 used after finish(); call reset()");
  if (data.empty()) return;  // an empty span may carry a null data()
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest256 Sha256::finish() {
  DMW_REQUIRE_MSG(!finished_, "Sha256::finish called twice");
  finished_ = true;
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i)
    len_be[i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  finished_ = false;  // allow the two internal updates
  update(std::span<const std::uint8_t>(pad, pad_len));
  update(std::span<const std::uint8_t>(len_be, 8));
  finished_ = true;
  DMW_CHECK(buffered_ == 0);
  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

// The SHA-NI kernel where the CPU has it (a public, process-wide fact, so
// the branch sits outside the constant-time region), else the portable
// compression below.
void Sha256::process_block(const std::uint8_t* block) {
#if defined(DMW_SIMD_X86)
  if (num::simd::sha_ni_active()) {
    num::simd::sha256_compress_shani(state_.data(), block,
                                     kSha256RoundConstants.data());
    return;
  }
#endif
  sha256_compress_portable(state_, block);
}

// The compression function must not branch on message or state words
// (lengths handled by the callers above are public).
// dmwlint: constant-time
void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  auto [a, b, c, d, e, f, g, h] = state;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kSha256RoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}
// dmwlint: end-constant-time

std::string digest_hex(const Digest256& digest) {
  return dmw::to_hex(std::span<const std::uint8_t>(digest));
}

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > 64) {
    const Digest256 kd = Sha256::hash(key);
    std::memcpy(block.data(), kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(block.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> pad;
  for (int i = 0; i < 64; ++i) pad[i] = block[i] ^ 0x36;
  inner_.reveal_mut().update(std::span<const std::uint8_t>(pad));
  for (int i = 0; i < 64; ++i) pad[i] = block[i] ^ 0x5c;
  outer_.reveal_mut().update(std::span<const std::uint8_t>(pad));
  zeroize(block);
  zeroize(pad);
}

Digest256 HmacSha256::finish(Sha256& inner) const {
  const Digest256 inner_digest = inner.finish();
  Sha256 outer = outer_.reveal();
  outer.update(std::span<const std::uint8_t>(inner_digest));
  return outer.finish();
}

Digest256 hmac_sha256(std::span<const std::uint8_t> key,
                      std::span<const std::uint8_t> message) {
  return HmacSha256(key).mac(message);
}

std::vector<std::uint8_t> hkdf_sha256(std::span<const std::uint8_t> ikm,
                                      std::span<const std::uint8_t> salt,
                                      std::string_view info,
                                      std::size_t length) {
  DMW_REQUIRE(length <= 255 * 32);
  // Extract.
  const Digest256 prk = hmac_sha256(salt, ikm);
  // Expand.
  std::vector<std::uint8_t> out;
  out.reserve(length);
  Digest256 t{};
  std::size_t t_len = 0;
  std::uint8_t counter = 1;
  while (out.size() < length) {
    std::vector<std::uint8_t> input;
    input.insert(input.end(), t.begin(), t.begin() + t_len);
    input.insert(input.end(), info.begin(), info.end());
    input.push_back(counter++);
    t = hmac_sha256(std::span<const std::uint8_t>(prk),
                    std::span<const std::uint8_t>(input));
    t_len = t.size();
    const std::size_t take = std::min(t.size(), length - out.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
  }
  return out;
}

}  // namespace dmw::crypto
