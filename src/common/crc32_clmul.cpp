// CRC-32 folding kernel on carry-less multiply (PCLMULQDQ). This translation
// unit is the only one in wifisense_common compiled with -mpclmul -msse4.1
// (see src/common/CMakeLists.txt); crc32_update() calls it only after CPUID
// reported PCLMULQDQ and SSE4.2, so the library stays runnable on any x86-64
// host.
//
// Algorithm and constants: Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the bit-reflected
// domain of the IEEE polynomial 0xEDB88320 — the same constants zlib and
// Linux crc32-pclmul use. Four 128-bit lanes fold over each 64-byte block
// (k1, k2: x^(4*128+32) and x^(4*128-32) mod P, reflected), the lanes fold
// into one (k3, k4: x^(128+32) and x^(128-32) mod P), the rest folds in 16
// bytes at a time, and 128 -> 64 -> 32 bits finish with k5 and a Barrett
// reduction by P' = 0x1DB710641 with mu = 0x1F7011641. The result is
// bit-identical to the byte table; the caller finishes any tail shorter
// than 16 bytes with it.
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace wifisense::common::detail {

// wifisense-lint: noalloc-begin

std::uint32_t crc32_fold_clmul(std::uint32_t state, const unsigned char* p,
                               std::size_t n) {
    const auto load = [](const unsigned char* q) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
    };
    // x * k folded onto the next 16 bytes: the low 64 bits of x times the
    // low constant, the high 64 bits times the high constant, xor'ed with
    // the data they land on (the second product issues a cycle after the
    // first, so it goes last in the xor chain).
    const auto fold = [](__m128i x, __m128i k, __m128i next) {
        const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
        const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
        return _mm_xor_si128(hi, _mm_xor_si128(lo, next));
    };

    __m128i x1 =
        _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
    __m128i x2 = load(p + 16);
    __m128i x3 = load(p + 32);
    __m128i x4 = load(p + 48);
    p += 64;
    n -= 64;

    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    for (; n >= 64; p += 64, n -= 64) {
        x1 = fold(x1, k1k2, load(p));
        x2 = fold(x2, k1k2, load(p + 16));
        x3 = fold(x3, k1k2, load(p + 32));
        x4 = fold(x4, k1k2, load(p + 48));
    }

    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; n >= 16; p += 16, n -= 16)
        x1 = fold(x1, k3k4, load(p));

    // 128 -> 64 bits: the low half times k4 onto the high half.
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    // 64 -> 32 (+32 zero) bits: the low word times k5 onto the rest.
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0));

    // Barrett reduction (bit-reflected): t1 = low32(x) * mu,
    // t2 = low32(t1) * P', and the CRC is dword 1 of x ^ t2.
    const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly_mu, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
    const __m128i crc = _mm_xor_si128(x1, t);
    return static_cast<std::uint32_t>(_mm_extract_epi32(crc, 1));
}

// wifisense-lint: noalloc-end

}  // namespace wifisense::common::detail

#endif
