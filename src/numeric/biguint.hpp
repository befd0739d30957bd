// Fixed-width big unsigned integers.
//
// BigUInt<W> is a little-endian array of W 64-bit limbs with value semantics
// and wrapping arithmetic modulo 2^(64*W) (like the built-in unsigned types).
// Widening multiplication and full division (Knuth's Algorithm D) are
// provided for the modular arithmetic layer. The protocol's cryptographic
// backend (Group256) runs on BigUInt<4>.
#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "support/check.hpp"

namespace dmw::num {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

template <std::size_t W>
class BigUInt {
  static_assert(W >= 1);

 public:
  static constexpr std::size_t kLimbs = W;
  static constexpr std::size_t kBits = 64 * W;

  constexpr BigUInt() = default;
  constexpr explicit BigUInt(u64 value) { limbs_[0] = value; }

  static constexpr BigUInt zero() { return BigUInt(); }
  static constexpr BigUInt one() { return BigUInt(1); }

  /// Largest representable value (all bits set).
  static constexpr BigUInt max_value() {
    BigUInt r;
    for (auto& l : r.limbs_) l = ~u64{0};
    return r;
  }

  constexpr u64 limb(std::size_t i) const { return limbs_[i]; }
  constexpr void set_limb(std::size_t i, u64 v) { limbs_[i] = v; }

  constexpr bool is_zero() const {
    for (u64 l : limbs_)
      if (l != 0) return false;
    return true;
  }

  constexpr bool is_odd() const { return (limbs_[0] & 1) != 0; }

  /// True iff the value fits in a single limb.
  constexpr bool fits_u64() const {
    for (std::size_t i = 1; i < W; ++i)
      if (limbs_[i] != 0) return false;
    return true;
  }

  constexpr u64 to_u64() const {
    DMW_REQUIRE_MSG(fits_u64(), "BigUInt value does not fit in u64");
    return limbs_[0];
  }

  friend constexpr bool operator==(const BigUInt& a, const BigUInt& b) {
    return a.limbs_ == b.limbs_;
  }

  friend constexpr std::strong_ordering operator<=>(const BigUInt& a,
                                                    const BigUInt& b) {
    for (std::size_t i = W; i-- > 0;) {
      if (a.limbs_[i] != b.limbs_[i])
        return a.limbs_[i] <=> b.limbs_[i];
    }
    return std::strong_ordering::equal;
  }

  /// Number of significant bits (0 for zero).
  constexpr unsigned bit_length() const {
    for (std::size_t i = W; i-- > 0;) {
      if (limbs_[i] != 0) {
        return static_cast<unsigned>(64 * i) + 64 -
               static_cast<unsigned>(__builtin_clzll(limbs_[i]));
      }
    }
    return 0;
  }

  constexpr bool bit(unsigned i) const {
    DMW_REQUIRE(i < kBits);
    return ((limbs_[i / 64] >> (i % 64)) & 1) != 0;
  }

  constexpr void set_bit(unsigned i, bool v = true) {
    DMW_REQUIRE(i < kBits);
    const u64 mask = u64{1} << (i % 64);
    if (v)
      limbs_[i / 64] |= mask;
    else
      limbs_[i / 64] &= ~mask;
  }

  // ---- addition / subtraction -------------------------------------------

  /// a += b; returns the carry out (0 or 1).
  constexpr u64 add_with_carry(const BigUInt& b) {
    u64 carry = 0;
    for (std::size_t i = 0; i < W; ++i) {
      const u128 sum = static_cast<u128>(limbs_[i]) + b.limbs_[i] + carry;
      limbs_[i] = static_cast<u64>(sum);
      carry = static_cast<u64>(sum >> 64);
    }
    return carry;
  }

  /// a -= b; returns the borrow out (0 or 1).
  constexpr u64 sub_with_borrow(const BigUInt& b) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < W; ++i) {
      const u128 diff =
          static_cast<u128>(limbs_[i]) - b.limbs_[i] - borrow;
      limbs_[i] = static_cast<u64>(diff);
      borrow = static_cast<u64>((diff >> 64) & 1);
    }
    return borrow;
  }

  friend constexpr BigUInt operator+(BigUInt a, const BigUInt& b) {
    a.add_with_carry(b);
    return a;
  }
  friend constexpr BigUInt operator-(BigUInt a, const BigUInt& b) {
    a.sub_with_borrow(b);
    return a;
  }
  BigUInt& operator+=(const BigUInt& b) {
    add_with_carry(b);
    return *this;
  }
  BigUInt& operator-=(const BigUInt& b) {
    sub_with_borrow(b);
    return *this;
  }

  // ---- shifts ------------------------------------------------------------

  friend constexpr BigUInt operator<<(const BigUInt& a, unsigned s) {
    DMW_REQUIRE(s < kBits);
    if (s == 0) return a;
    BigUInt r;
    const std::size_t limb_shift = s / 64;
    const unsigned bit_shift = s % 64;
    for (std::size_t i = W; i-- > limb_shift;) {
      u64 v = a.limbs_[i - limb_shift] << bit_shift;
      if (bit_shift != 0 && i > limb_shift)
        v |= a.limbs_[i - limb_shift - 1] >> (64 - bit_shift);
      r.limbs_[i] = v;
    }
    return r;
  }

  friend constexpr BigUInt operator>>(const BigUInt& a, unsigned s) {
    DMW_REQUIRE(s < kBits);
    if (s == 0) return a;
    BigUInt r;
    const std::size_t limb_shift = s / 64;
    const unsigned bit_shift = s % 64;
    for (std::size_t i = 0; i + limb_shift < W; ++i) {
      u64 v = a.limbs_[i + limb_shift] >> bit_shift;
      if (bit_shift != 0 && i + limb_shift + 1 < W)
        v |= a.limbs_[i + limb_shift + 1] << (64 - bit_shift);
      r.limbs_[i] = v;
    }
    return r;
  }

  // ---- multiplication ----------------------------------------------------

  /// Full-width product (no truncation).
  friend constexpr BigUInt<2 * W> mul_wide(const BigUInt& a, const BigUInt& b) {
    BigUInt<2 * W> r;
    for (std::size_t i = 0; i < W; ++i) {
      u64 carry = 0;
      for (std::size_t j = 0; j < W; ++j) {
        const u128 cur = static_cast<u128>(a.limbs_[i]) * b.limbs_[j] +
                         r.limb(i + j) + carry;
        r.set_limb(i + j, static_cast<u64>(cur));
        carry = static_cast<u64>(cur >> 64);
      }
      r.set_limb(i + W, r.limb(i + W) + carry);
    }
    return r;
  }

  /// Truncating product modulo 2^kBits.
  friend constexpr BigUInt operator*(const BigUInt& a, const BigUInt& b) {
    BigUInt r;
    for (std::size_t i = 0; i < W; ++i) {
      u64 carry = 0;
      for (std::size_t j = 0; i + j < W; ++j) {
        const u128 cur = static_cast<u128>(a.limbs_[i]) * b.limbs_[j] +
                         r.limbs_[i + j] + carry;
        r.limbs_[i + j] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
    }
    return r;
  }

  // ---- conversions -------------------------------------------------------

  /// Zero-extend (or truncate) to a different width.
  template <std::size_t W2>
  constexpr BigUInt<W2> resized() const {
    BigUInt<W2> r;
    for (std::size_t i = 0; i < (W < W2 ? W : W2); ++i)
      r.set_limb(i, limbs_[i]);
    return r;
  }

  static BigUInt from_hex(std::string_view hex) {
    BigUInt r;
    DMW_REQUIRE_MSG(!hex.empty(), "empty hex literal");
    DMW_REQUIRE_MSG(hex.size() <= W * 16, "hex literal wider than BigUInt");
    unsigned bit = 0;
    for (std::size_t i = hex.size(); i-- > 0;) {
      const char c = hex[i];
      int v = -1;
      if (c >= '0' && c <= '9') v = c - '0';
      else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
      DMW_REQUIRE_MSG(v >= 0, "invalid hex digit");
      r.limbs_[bit / 64] |= static_cast<u64>(v) << (bit % 64);
      bit += 4;
    }
    return r;
  }

  std::string to_hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    bool leading = true;
    for (std::size_t i = W; i-- > 0;) {
      for (int nib = 15; nib >= 0; --nib) {
        const unsigned v =
            static_cast<unsigned>((limbs_[i] >> (4 * nib)) & 0xf);
        if (leading && v == 0) continue;
        leading = false;
        out.push_back(kDigits[v]);
      }
    }
    if (out.empty()) out.push_back('0');
    return out;
  }

  std::string to_dec() const;

  friend std::ostream& operator<<(std::ostream& os, const BigUInt& v) {
    return os << "0x" << v.to_hex();
  }

 private:
  std::array<u64, W> limbs_{};
};

// ---- division (Knuth Algorithm D) ----------------------------------------

struct DivLimbsResult {
  bool ok = false;  ///< false iff divisor was zero.
};

/// Divide the little-endian limb array `u` (length un) by `v` (length vn),
/// writing the quotient to `q` (length un - vn + 1 when un >= vn) and the
/// remainder to `r` (length vn). Scratch-free textbook Algorithm D.
/// Preconditions: vn >= 1, v[vn-1] != 0 after trimming, un >= vn.
void divmod_limbs(const u64* u, std::size_t un, const u64* v, std::size_t vn,
                  u64* q, u64* r);

template <std::size_t WU, std::size_t WV>
struct DivModResult {
  BigUInt<WU> quotient;
  BigUInt<WV> remainder;
};

/// Full division: returns quotient and remainder with remainder < divisor.
template <std::size_t WU, std::size_t WV>
DivModResult<WU, WV> divmod(const BigUInt<WU>& dividend,
                            const BigUInt<WV>& divisor) {
  DMW_REQUIRE_MSG(!divisor.is_zero(), "division by zero");
  DivModResult<WU, WV> out;
  // Trim significant limb counts.
  std::size_t un = WU;
  while (un > 0 && dividend.limb(un - 1) == 0) --un;
  std::size_t vn = WV;
  while (vn > 0 && divisor.limb(vn - 1) == 0) --vn;
  if (un < vn || un == 0) {
    out.remainder = dividend.template resized<WV>();
    return out;  // quotient zero
  }
  std::array<u64, WU> u{};
  std::array<u64, WV> v{};
  for (std::size_t i = 0; i < un; ++i) u[i] = dividend.limb(i);
  for (std::size_t i = 0; i < vn; ++i) v[i] = divisor.limb(i);
  std::array<u64, WU> q{};
  std::array<u64, WV> r{};
  divmod_limbs(u.data(), un, v.data(), vn, q.data(), r.data());
  for (std::size_t i = 0; i < WU; ++i) out.quotient.set_limb(i, q[i]);
  for (std::size_t i = 0; i < WV; ++i) out.remainder.set_limb(i, r[i]);
  return out;
}

template <std::size_t WU, std::size_t WV>
BigUInt<WV> mod(const BigUInt<WU>& dividend, const BigUInt<WV>& divisor) {
  return divmod(dividend, divisor).remainder;
}

template <std::size_t W>
std::string BigUInt<W>::to_dec() const {
  if (is_zero()) return "0";
  std::string out;
  BigUInt<W> cur = *this;
  const BigUInt<W> ten(10);
  while (!cur.is_zero()) {
    auto dm = divmod(cur, ten);
    out.push_back(static_cast<char>('0' + dm.remainder.to_u64()));
    cur = dm.quotient;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

using U128 = BigUInt<2>;
using U256 = BigUInt<4>;
using U512 = BigUInt<8>;

}  // namespace dmw::num
