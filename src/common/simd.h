// Vectorized key-byte search kernel shared by every engine's descent loop.
//
// Child lookup in the 16- and 32-way ART nodes is a byte-equality search
// over a small fixed-size array — exactly the shape SSE2/AVX2 handle in one
// compare-and-movemask.  This header provides:
//
//   FindByteScalar   portable reference loop (always compiled; the property
//                    test pins the vector paths against it)
//   FindKeyByte16    16-lane search (SSE2, the x86-64 baseline ISA)
//   FindKeyByte32    32-lane search (AVX2 when the CPU has it, otherwise
//                    two SSE2 halves)
//
// Selection is two-level: the DCART_SIMD CMake option gates compilation
// (plus hard gates for non-x86 targets and TSan — see below), and a
// runtime CPUID check picks AVX2 vs SSE2 once, cached in a relaxed atomic.
//
// Contract: the vector paths load the node's FULL fixed-size key array
// (16 or 32 bytes) regardless of `count` and mask the result, so they must
// only be pointed at complete Node16/Node32-style arrays — never at a
// `count`-sized buffer.  Lanes at or beyond `count` never influence the
// result.
//
// TSan: the concurrent trees (OLC, ROWEX) publish key bytes through
// atomic stores that a vector load reads as plain memory.  That is
// byte-wise benign under each tree's validation protocol but is a formal
// data race, so the vector paths compile out under ThreadSanitizer.  The
// node ladder states the resulting rule once (AtomicAccess::kVectorReads
// in art/node.h): concurrent readers then take an atomic scalar loop.
#pragma once

#include <atomic>
#include <cstdint>

#if defined(__has_feature)
#define DCART_SIMD_HAS_FEATURE(x) __has_feature(x)
#else
#define DCART_SIMD_HAS_FEATURE(x) 0
#endif

// DCART_SIMD_X86 == 1 iff the vector paths are compiled in.
#if defined(DCART_SIMD_ENABLED) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__) && !DCART_SIMD_HAS_FEATURE(thread_sanitizer)
#define DCART_SIMD_X86 1
#include <immintrin.h>
#else
#define DCART_SIMD_X86 0
#endif

namespace dcart::simd {

/// Portable reference: index of the first `b` in `keys[0..count)`, or -1.
inline int FindByteScalar(const std::uint8_t* keys, int count,
                          std::uint8_t b) {
  for (int i = 0; i < count; ++i) {
    if (keys[i] == b) return i;
  }
  return -1;
}

#if DCART_SIMD_X86

/// CPU tiers for the runtime dispatch.  SSE2 is the x86-64 baseline, so
/// "unknown" only exists until the first ActiveTier() call fills the cache.
enum CpuTier : std::uint8_t { kTierUnknown = 0, kTierSse2 = 1, kTierAvx2 = 2 };

// Detection is idempotent, so a racing first call is benign: both threads
// store the same value.  Registered in tools/dcart_lint/atomics_manifest.txt.
inline std::atomic<std::uint8_t>& TierCache() {
  static std::atomic<std::uint8_t> tier{kTierUnknown};
  return tier;
}

inline std::uint8_t ActiveTier() {
  std::uint8_t t = TierCache().load(std::memory_order_relaxed);
  if (t == kTierUnknown) {
    __builtin_cpu_init();
    t = __builtin_cpu_supports("avx2") ? kTierAvx2 : kTierSse2;
    TierCache().store(t, std::memory_order_relaxed);
  }
  return t;
}

inline bool HasAvx2() { return ActiveTier() >= kTierAvx2; }

/// SSE2 16-lane equality search over a full 16-byte key array.
inline int FindKeyByte16(const std::uint8_t* keys, int count, std::uint8_t b) {
  const __m128i needle = _mm_set1_epi8(static_cast<char>(b));
  const __m128i lanes =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
  unsigned mask =
      static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(lanes, needle)));
  mask &= (count >= 16) ? 0xffffu : ((1u << count) - 1u);
  return mask != 0 ? __builtin_ctz(mask) : -1;
}

__attribute__((target("avx2"))) inline int FindKeyByte32Avx2(
    const std::uint8_t* keys, int count, std::uint8_t b) {
  const __m256i needle = _mm256_set1_epi8(static_cast<char>(b));
  const __m256i lanes =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
  unsigned mask = static_cast<unsigned>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(lanes, needle)));
  mask &= (count >= 32) ? 0xffffffffu : ((1u << count) - 1u);
  return mask != 0 ? __builtin_ctz(mask) : -1;
}

/// 32-lane equality search over a full 32-byte key array: one AVX2 compare
/// on capable CPUs, two SSE2 halves otherwise.
inline int FindKeyByte32(const std::uint8_t* keys, int count, std::uint8_t b) {
  if (HasAvx2()) return FindKeyByte32Avx2(keys, count, b);
  const int lo = FindKeyByte16(keys, count < 16 ? count : 16, b);
  if (lo >= 0 || count <= 16) return lo;
  const int hi = FindKeyByte16(keys + 16, count - 16, b);
  return hi >= 0 ? hi + 16 : -1;
}

#else  // !DCART_SIMD_X86

inline bool HasAvx2() { return false; }

inline int FindKeyByte16(const std::uint8_t* keys, int count, std::uint8_t b) {
  return FindByteScalar(keys, count < 16 ? count : 16, b);
}

inline int FindKeyByte32(const std::uint8_t* keys, int count, std::uint8_t b) {
  return FindByteScalar(keys, count < 32 ? count : 32, b);
}

#endif  // DCART_SIMD_X86

}  // namespace dcart::simd
