// Vectorized Montgomery lane kernels: the data-parallel floor of the
// numeric tier.
//
// Every hot path above this file (share-verify, RLC batch verification,
// Phase II commitments) eventually batches many *independent* same-modulus
// Montgomery multiplications — exactly the shape a SIMD unit wants. This
// header supplies the 64-bit-tier group kernels: one call processes
// kLanes = 4 independent REDC multiplications. Three backends share one
// contract (bit-identical results, they are the same exact integer
// arithmetic re-bracketed):
//
//   - AVX2: 4x64 lanes. x86 has no packed 64x64->128 multiply below
//     AVX-512, so products are assembled from vpmuludq 32x32->64 half
//     products (the standard carry-free m1/m2 decomposition). Kernels carry
//     __attribute__((target("avx2"))) so the TU needs no -mavx2; the
//     dispatcher only installs them when __builtin_cpu_supports("avx2").
//   - NEON (aarch64): 2x64 lanes via vmull_u32 half products; a 4-lane call
//     runs two pairs.
//   - portable: a plain 4-iteration u128 loop, byte-for-byte the same
//     algorithm as Mont64::redc. Always compiled; the only backend when
//     DMW_SIMD=0 or the CPU lacks the vector ISA.
//
// Dispatch is decided once per process (function-pointer latch on first
// use); SimdMode (off/auto/on) is the *policy* knob carried by the group
// backends deciding whether callers group work into lanes at all — see
// montlane.hpp for the engine and the op-accounting contract.
//
// `lane_ops()` counts vector-kernel invocations per thread. It measures the
// engine (how many 4-lane dispatches ran), not the algorithm, and is
// deliberately NOT part of OpCounts: RunReports must stay bit-identical
// across set_simd(on/off), and the modular-multiplication accounting
// (opcount.hpp) already credits one `mul` per lane-slot either way.
//
// The same header hosts one non-lane kernel: the SHA-256 compression on the
// x86 SHA extensions (sha256_compress_shani), compiled only under
// DMW_SIMD_X86 with a target attribute and selected by sha_ni_active(),
// latched like active_backend(). crypto/sha256.cpp dispatches to it and
// keeps the portable compression as its test reference and the only path
// on CPUs without SHA and under DMW_SIMD=0.
//
// This is the only file in the tree allowed to include vendor intrinsic
// headers; dmwlint's include-hygiene rule enforces the confinement.
#pragma once

#include <cstddef>
#include <cstdint>

#ifndef DMW_SIMD
#define DMW_SIMD 1
#endif

#if DMW_SIMD && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define DMW_SIMD_X86 1
#include <immintrin.h>
#endif

#if DMW_SIMD && defined(__ARM_NEON) && defined(__aarch64__)
#define DMW_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace dmw::num::simd {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// Lane-group width of the engine. Fixed at 4 for every backend so the
/// grouping schedule (and therefore the multiset and order of counted
/// multiplications) never depends on which kernel the host dispatches to:
/// AVX2 retires a group in one vector op, NEON in two 2-lane halves, the
/// portable backend in a 4-iteration loop.
inline constexpr std::size_t kLanes = 4;

/// Lane-grouping policy, carried by the group backends and settable through
/// PublicParams::set_simd / dmw_sim --simd:
///   kOff  — never group; every caller keeps the historical scalar path.
///   kAuto — group when the runtime-detected backend is a real vector ISA;
///           scalar hosts keep the scalar path (grouping without a vector
///           unit only reorders work).
///   kOn   — always group, portable kernels included: forces the lane code
///           paths for tests/ablations on any host.
enum class SimdMode { kOff, kAuto, kOn };

/// Which kernel set the running CPU gets.
enum class LaneBackend { kScalar, kAvx2, kNeon };

/// Vector-kernel invocations on this thread (one per 4-lane group retired).
/// Engine telemetry only — never folded into OpCounts or RunReports.
inline u64& lane_ops() {
  thread_local u64 count = 0;
  return count;
}

// ---- portable kernels ------------------------------------------------------

/// a * b * R^{-1} mod n (R = 2^64): one REDC multiplication, identical
/// arithmetic to Mont64::redc applied to the product. Valid for
/// a * b < n * 2^64 (any pair with one operand < n), result < n. Uncounted —
/// callers own the op accounting (montlane.hpp).
inline u64 mont_mul_scalar(u64 a, u64 b, u64 n, u64 ninv) {
  const u128 t = static_cast<u128>(a) * b;
  const u64 m = static_cast<u64>(t) * ninv;
  const u128 mn = static_cast<u128>(m) * n;
  const u64 r = static_cast<u64>(t >> 64) + static_cast<u64>(mn >> 64) +
                (static_cast<u64>(t) != 0 ? 1 : 0);
  return r >= n ? r - n : r;
}

/// out[l] = a[l] * b[l] * R^{-1} mod n for l < kLanes.
inline void mont_mul_lanes_portable(const u64* a, const u64* b, u64 n,
                                    u64 ninv, u64* out) {
  for (std::size_t l = 0; l < kLanes; ++l)
    out[l] = mont_mul_scalar(a[l], b[l], n, ninv);
}

// ---- AVX2 kernels ----------------------------------------------------------

#if defined(DMW_SIMD_X86)

// When the whole TU is already compiled for AVX2 (-march=native leg) the
// target attribute is redundant and would block inlining between kernels.
#if defined(__AVX2__)
#define DMW_TARGET_AVX2
#else
#define DMW_TARGET_AVX2 __attribute__((target("avx2")))
#endif

/// Low 64 bits of the lanewise 64x64 product, from vpmuludq half products:
/// lo = ll + ((lh + hl) << 32) mod 2^64 (the cross-sum may wrap; only its
/// low 32 bits survive the shift).
DMW_TARGET_AVX2 inline __m256i mullo64_avx2(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

/// High 64 bits of the lanewise 64x64 product: the carry-free m1/m2
/// decomposition (each partial sum stays below 2^64, so no lane overflows).
DMW_TARGET_AVX2 inline __m256i mulhi64_avx2(__m256i a, __m256i b) {
  const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i lh = _mm256_mul_epu32(a, b_hi);
  const __m256i hl = _mm256_mul_epu32(a_hi, b);
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i m1 = _mm256_add_epi64(lh, _mm256_srli_epi64(ll, 32));
  const __m256i m2 = _mm256_add_epi64(hl, _mm256_and_si256(m1, lo32));
  return _mm256_add_epi64(
      hh, _mm256_add_epi64(_mm256_srli_epi64(m1, 32),
                           _mm256_srli_epi64(m2, 32)));
}

/// 4-lane Montgomery REDC multiply, same contract as the portable kernel.
DMW_TARGET_AVX2 inline void mont_mul_lanes_avx2(const u64* pa, const u64* pb,
                                                u64 n, u64 ninv, u64* out) {
  const __m256i a =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb));
  const __m256i vn = _mm256_set1_epi64x(static_cast<long long>(n));
  const __m256i vninv = _mm256_set1_epi64x(static_cast<long long>(ninv));
  const __m256i t_lo = mullo64_avx2(a, b);
  const __m256i t_hi = mulhi64_avx2(a, b);
  const __m256i m = mullo64_avx2(t_lo, vninv);
  const __m256i mn_hi = mulhi64_avx2(m, vn);
  // t + m*n: low halves cancel mod 2^64, carrying exactly when t_lo != 0.
  const __m256i lo_zero = _mm256_cmpeq_epi64(t_lo, _mm256_setzero_si256());
  const __m256i carry =
      _mm256_andnot_si256(lo_zero, _mm256_set1_epi64x(1));
  __m256i r = _mm256_add_epi64(_mm256_add_epi64(t_hi, mn_hi), carry);
  // Conditional subtract via unsigned compare (sign-flip trick: AVX2 only
  // has signed 64-bit compares). r < 2n < 2^64 so one subtract suffices.
  const __m256i flip =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m256i keep = _mm256_cmpgt_epi64(_mm256_xor_si256(vn, flip),
                                          _mm256_xor_si256(r, flip));
  r = _mm256_blendv_epi8(_mm256_sub_epi64(r, vn), r, keep);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), r);
}

#endif  // DMW_SIMD_X86

// ---- NEON kernels ----------------------------------------------------------

#if defined(DMW_SIMD_NEON)

inline uint64x2_t mullo64_neon(uint64x2_t a, uint64x2_t b) {
  const uint32x2_t a_lo = vmovn_u64(a);
  const uint32x2_t a_hi = vshrn_n_u64(a, 32);
  const uint32x2_t b_lo = vmovn_u64(b);
  const uint32x2_t b_hi = vshrn_n_u64(b, 32);
  const uint64x2_t ll = vmull_u32(a_lo, b_lo);
  const uint64x2_t cross = vmlal_u32(vmull_u32(a_lo, b_hi), a_hi, b_lo);
  return vaddq_u64(ll, vshlq_n_u64(cross, 32));
}

inline uint64x2_t mulhi64_neon(uint64x2_t a, uint64x2_t b) {
  const uint32x2_t a_lo = vmovn_u64(a);
  const uint32x2_t a_hi = vshrn_n_u64(a, 32);
  const uint32x2_t b_lo = vmovn_u64(b);
  const uint32x2_t b_hi = vshrn_n_u64(b, 32);
  const uint64x2_t ll = vmull_u32(a_lo, b_lo);
  const uint64x2_t lh = vmull_u32(a_lo, b_hi);
  const uint64x2_t hl = vmull_u32(a_hi, b_lo);
  const uint64x2_t hh = vmull_u32(a_hi, b_hi);
  const uint64x2_t m1 = vaddq_u64(lh, vshrq_n_u64(ll, 32));
  const uint64x2_t m2 =
      vaddq_u64(hl, vandq_u64(m1, vdupq_n_u64(0xffffffffULL)));
  return vaddq_u64(hh, vaddq_u64(vshrq_n_u64(m1, 32), vshrq_n_u64(m2, 32)));
}

/// 2-lane REDC multiply; the 4-lane entry below runs two of these.
inline uint64x2_t mont_mul_pair_neon(uint64x2_t a, uint64x2_t b, uint64x2_t vn,
                                     uint64x2_t vninv) {
  const uint64x2_t t_lo = mullo64_neon(a, b);
  const uint64x2_t t_hi = mulhi64_neon(a, b);
  const uint64x2_t m = mullo64_neon(t_lo, vninv);
  const uint64x2_t mn_hi = mulhi64_neon(m, vn);
  const uint64x2_t carry =
      vbicq_u64(vdupq_n_u64(1), vceqq_u64(t_lo, vdupq_n_u64(0)));
  const uint64x2_t r = vaddq_u64(vaddq_u64(t_hi, mn_hi), carry);
  return vsubq_u64(r, vandq_u64(vcgeq_u64(r, vn), vn));
}

inline void mont_mul_lanes_neon(const u64* a, const u64* b, u64 n, u64 ninv,
                                u64* out) {
  const uint64x2_t vn = vdupq_n_u64(n);
  const uint64x2_t vninv = vdupq_n_u64(ninv);
  vst1q_u64(out, mont_mul_pair_neon(vld1q_u64(a), vld1q_u64(b), vn, vninv));
  vst1q_u64(out + 2, mont_mul_pair_neon(vld1q_u64(a + 2), vld1q_u64(b + 2),
                                        vn, vninv));
}

#endif  // DMW_SIMD_NEON

// ---- SHA-256 compression (SHA extensions) ----------------------------------

#if defined(DMW_SIMD_X86)

#if defined(__SHA__) && defined(__SSE4_1__)
#define DMW_TARGET_SHA
#else
#define DMW_TARGET_SHA __attribute__((target("sha,sse4.1")))
#endif

/// Four SHA-256 rounds: add round constants k[4i..4i+3] to the schedule
/// words `w` and run two sha256rnds2 (each retires two rounds on the
/// ABEF/CDGH state halves).
DMW_TARGET_SHA inline void sha256_rounds4_shani(__m128i& abef, __m128i& cdgh,
                                                __m128i w,
                                                const std::uint32_t* k) {
  const __m128i wk =
      _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// The next four schedule words W[t..t+3] from W[t-16..t-1], held as
/// w0 = W[t-16..t-13], w1, w2, w3 = W[t-4..t-1]:
/// W[t] = sigma1(W[t-2]) + W[t-7] + sigma0(W[t-15]) + W[t-16].
DMW_TARGET_SHA inline __m128i sha256_schedule4_shani(__m128i w0, __m128i w1,
                                                     __m128i w2, __m128i w3) {
  const __m128i partial =
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(partial, w3);
}

/// One FIPS 180-4 compression of a 64-byte block into state[0..7] (a..h),
/// on the SHA extensions; `k` is the 64-entry round-constant table. Same
/// contract as the portable compression in crypto/sha256.cpp, which is its
/// test reference. Straight-line: no branch on state or message words.
DMW_TARGET_SHA inline void sha256_compress_shani(std::uint32_t* state,
                                                 const std::uint8_t* block,
                                                 const std::uint32_t* k) {
  // Big-endian message words: byte-swap each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // a..h -> the ABEF / CDGH lane layout sha256rnds2 works on.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  const auto* words = reinterpret_cast<const __m128i*>(block);
  __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(words + 0), bswap);
  __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(words + 1), bswap);
  __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(words + 2), bswap);
  __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(words + 3), bswap);
  sha256_rounds4_shani(abef, cdgh, w0, k + 0);
  sha256_rounds4_shani(abef, cdgh, w1, k + 4);
  sha256_rounds4_shani(abef, cdgh, w2, k + 8);
  sha256_rounds4_shani(abef, cdgh, w3, k + 12);
  w0 = sha256_schedule4_shani(w0, w1, w2, w3);
  sha256_rounds4_shani(abef, cdgh, w0, k + 16);
  w1 = sha256_schedule4_shani(w1, w2, w3, w0);
  sha256_rounds4_shani(abef, cdgh, w1, k + 20);
  w2 = sha256_schedule4_shani(w2, w3, w0, w1);
  sha256_rounds4_shani(abef, cdgh, w2, k + 24);
  w3 = sha256_schedule4_shani(w3, w0, w1, w2);
  sha256_rounds4_shani(abef, cdgh, w3, k + 28);
  w0 = sha256_schedule4_shani(w0, w1, w2, w3);
  sha256_rounds4_shani(abef, cdgh, w0, k + 32);
  w1 = sha256_schedule4_shani(w1, w2, w3, w0);
  sha256_rounds4_shani(abef, cdgh, w1, k + 36);
  w2 = sha256_schedule4_shani(w2, w3, w0, w1);
  sha256_rounds4_shani(abef, cdgh, w2, k + 40);
  w3 = sha256_schedule4_shani(w3, w0, w1, w2);
  sha256_rounds4_shani(abef, cdgh, w3, k + 44);
  w0 = sha256_schedule4_shani(w0, w1, w2, w3);
  sha256_rounds4_shani(abef, cdgh, w0, k + 48);
  w1 = sha256_schedule4_shani(w1, w2, w3, w0);
  sha256_rounds4_shani(abef, cdgh, w1, k + 52);
  w2 = sha256_schedule4_shani(w2, w3, w0, w1);
  sha256_rounds4_shani(abef, cdgh, w2, k + 56);
  w3 = sha256_schedule4_shani(w3, w0, w1, w2);
  sha256_rounds4_shani(abef, cdgh, w3, k + 60);

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  // ABEF / CDGH -> a..h.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // DMW_SIMD_X86

/// True when this process compresses SHA-256 blocks with
/// sha256_compress_shani (latched on first call, like active_backend(); a
/// function-local static, so static-init order cannot bite). Independent
/// of SimdMode: both compressions give the same bytes, so there is no
/// policy to choose.
inline bool sha_ni_active() {
#if defined(DMW_SIMD_X86)
  static const bool active =
      __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  return active;
#else
  return false;
#endif
}

// ---- runtime dispatch ------------------------------------------------------

inline LaneBackend detect_backend() {
#if defined(DMW_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return LaneBackend::kAvx2;
#endif
#if defined(DMW_SIMD_NEON)
  return LaneBackend::kNeon;
#endif
  return LaneBackend::kScalar;
}

/// The backend this process dispatches to (latched on first call).
inline LaneBackend active_backend() {
  static const LaneBackend backend = detect_backend();
  return backend;
}

inline const char* backend_name(LaneBackend b) {
  switch (b) {
    case LaneBackend::kAvx2: return "avx2";
    case LaneBackend::kNeon: return "neon";
    case LaneBackend::kScalar: return "scalar";
  }
  return "scalar";
}

/// True when the lane kernels were compiled in at all (DMW_SIMD=1).
inline constexpr bool compiled_in() { return DMW_SIMD != 0; }

using MontMulLanesFn = void (*)(const u64*, const u64*, u64, u64, u64*);

inline MontMulLanesFn resolve_mont_mul_lanes() {
#if defined(DMW_SIMD_X86)
  if (active_backend() == LaneBackend::kAvx2) return &mont_mul_lanes_avx2;
#endif
#if defined(DMW_SIMD_NEON)
  if (active_backend() == LaneBackend::kNeon) return &mont_mul_lanes_neon;
#endif
  return &mont_mul_lanes_portable;
}

/// Dispatching 4-lane REDC multiply: out[l] = a[l]*b[l]*R^{-1} mod n.
/// All kLanes input slots must hold values with a[l]*b[l] < n * 2^64
/// (callers pad ragged tails with in-range values and ignore the outputs).
inline void mont_mul_lanes(const u64* a, const u64* b, u64 n, u64 ninv,
                           u64* out) {
  static const MontMulLanesFn fn = resolve_mont_mul_lanes();
  ++lane_ops();
  fn(a, b, n, ninv, out);
}

/// Resolve a policy against the runtime backend: should callers group work
/// into lanes? (kAuto engages only when a real vector ISA is present.)
inline bool mode_groups_lanes(SimdMode mode) {
  switch (mode) {
    case SimdMode::kOff: return false;
    case SimdMode::kOn: return true;
    case SimdMode::kAuto: return active_backend() != LaneBackend::kScalar;
  }
  return false;
}

}  // namespace dmw::num::simd
