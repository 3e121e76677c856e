// AVX2+FMA backend. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/nn/CMakeLists.txt); nothing here runs unless the
// dispatcher checked CPUID first, so the binary stays runnable on any
// x86-64 host.
//
// Divergence contract (DESIGN.md §16): only the float GEMM kernels use FMA
// and therefore round differently from the scalar reference — they answer
// to tolerance goldens. Every epilogue (bias/activation, quantize,
// dequantize) and the whole int8 GEMM use elementwise IEEE add/mul/max or
// exact integer arithmetic in the same per-element order as the scalar
// backend, so those stay bitwise identical across backends; the sigmoid
// epilogue simply delegates to libm like the scalar code does.
#include "nn/kernels/backend.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace wifisense::nn::kernels {

namespace {

/// Horizontal sum of an 8-float accumulator.
float hsum_ps(__m256 v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

/// Horizontal sum of an 8-int32 accumulator.
std::int32_t hsum_epi32(__m256i v) {
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i s = _mm_add_epi32(lo, hi);
    s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 1));
    return _mm_cvtsi128_si32(s);
}

// wifisense-lint: noalloc-begin

/// k-chunk shared by both float GEMM paths. 256 k-steps x 16 columns packs
/// into a 16 KiB stack B panel — L1-resident next to the four A rows and the
/// C tile streaming against it; the single-row kernel compacts the same
/// 256-step chunk of A into a nonzero list.
constexpr std::size_t kPanelK = 256;

/// Single-row kernel: crow[j0:n) += arow * B[:, j0:n), where the k entries
/// of arow sit `astride` floats apart. The forward GEMM passes a row of A
/// (stride 1); the weight-gradient GEMM C += A^T * B passes a column of A
/// (stride m), since row i of that C is the same chain over column i of A.
/// Serves the batch-1 shape, the forward rows outside 4-row blocks, the
/// packed path's column tail and every weight-gradient row with n >= 8.
/// Per k-chunk the nonzero inputs are compacted once, branch-free (post-ReLU
/// activations are 56-67% exact zeros in no fixed pattern, so a per-element
/// `av == 0` branch mispredicts), then each 64-column tile walks that list
/// with eight ymm accumulators held in registers; an 8-column and a scalar
/// tail finish the row. Every element still sees the ascending-k,
/// zero-skipping FMA chain, and a chunk boundary spills the exact partial
/// sum to C, so the blocking changes no bits.
void matmul_row(const float* arow, std::size_t astride, const float* b,
                float* crow, std::size_t k, std::size_t n, std::size_t j0) {
    std::size_t off[kPanelK];  // B row offset of each nonzero input
    float val[kPanelK];
    for (std::size_t k0 = 0; k0 < k; k0 += kPanelK) {
        const std::size_t kc = std::min(kPanelK, k - k0);
        std::size_t nnz = 0;
        for (std::size_t kk = 0; kk < kc; ++kk) {
            const float av = arow[(k0 + kk) * astride];
            off[nnz] = (k0 + kk) * n;
            val[nnz] = av;
            nnz += av != 0.0f;  // -0.0f == 0.0f: negative zeros skip too
        }
        std::size_t j = j0;
        for (; j + 64 <= n; j += 64) {
            float* cj = crow + j;
            __m256 acc0 = _mm256_loadu_ps(cj);
            __m256 acc1 = _mm256_loadu_ps(cj + 8);
            __m256 acc2 = _mm256_loadu_ps(cj + 16);
            __m256 acc3 = _mm256_loadu_ps(cj + 24);
            __m256 acc4 = _mm256_loadu_ps(cj + 32);
            __m256 acc5 = _mm256_loadu_ps(cj + 40);
            __m256 acc6 = _mm256_loadu_ps(cj + 48);
            __m256 acc7 = _mm256_loadu_ps(cj + 56);
            for (std::size_t p = 0; p < nnz; ++p) {
                const __m256 av = _mm256_set1_ps(val[p]);
                const float* bp = b + off[p] + j;
                acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc0);
                acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 8), acc1);
                acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 16), acc2);
                acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 24), acc3);
                acc4 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 32), acc4);
                acc5 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 40), acc5);
                acc6 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 48), acc6);
                acc7 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 56), acc7);
            }
            _mm256_storeu_ps(cj, acc0);
            _mm256_storeu_ps(cj + 8, acc1);
            _mm256_storeu_ps(cj + 16, acc2);
            _mm256_storeu_ps(cj + 24, acc3);
            _mm256_storeu_ps(cj + 32, acc4);
            _mm256_storeu_ps(cj + 40, acc5);
            _mm256_storeu_ps(cj + 48, acc6);
            _mm256_storeu_ps(cj + 56, acc7);
        }
        for (; j + 8 <= n; j += 8) {
            __m256 acc = _mm256_loadu_ps(crow + j);
            for (std::size_t p = 0; p < nnz; ++p)
                acc = _mm256_fmadd_ps(_mm256_set1_ps(val[p]),
                                      _mm256_loadu_ps(b + off[p] + j), acc);
            _mm256_storeu_ps(crow + j, acc);
        }
        for (; j < n; ++j) {
            float acc = crow[j];
            for (std::size_t p = 0; p < nnz; ++p)
                acc = std::fmaf(val[p], b[off[p] + j], acc);
            crow[j] = acc;
        }
    }
}

/// Rows per narrow-output panel: four 8-lane chains, enough independent
/// FMA -> blend chains to cover their latency.
constexpr std::size_t kColRows = 32;

/// Narrow-output kernel (n < 8, the 128 -> 1 logit layer): C rows [0, rows)
/// += A * B for up to kColRows rows, where A(r, kk) sits at
/// a[r * rstride + kk * kstride] — (k, 1) for the forward GEMM, (1, m) for
/// the weight-gradient GEMM. A is packed with rows in lanes, and each lane
/// of the four accumulators is one C element running the same
/// ascending-k chain as matmul_row; a zero input is skipped by blending the
/// old partial back in on `av != 0`, never by multiplying by zero, so a
/// non-finite B entry or a -0.0 partial sum comes out exactly as the
/// compaction leaves it. Padded lanes see zero inputs and are never stored.
void matmul_cols(const float* a, std::size_t rstride, std::size_t kstride,
                 const float* b, float* c, std::size_t k, std::size_t n,
                 std::size_t rows) {
    alignas(32) float panel[kPanelK * kColRows];
    alignas(32) float cbuf[kColRows];
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t k0 = 0; k0 < k; k0 += kPanelK) {
        const std::size_t kc = std::min(kPanelK, k - k0);
        for (std::size_t kk = 0; kk < kc; ++kk) {
            const float* src = a + (k0 + kk) * kstride;
            float* dst = panel + kk * kColRows;
            std::size_t r = 0;
            for (; r < rows; ++r) dst[r] = src[r * rstride];
            for (; r < kColRows; ++r) dst[r] = 0.0f;
        }
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t r = 0; r < kColRows; ++r)
                cbuf[r] = r < rows ? c[r * n + j] : 0.0f;
            __m256 acc0 = _mm256_load_ps(cbuf);
            __m256 acc1 = _mm256_load_ps(cbuf + 8);
            __m256 acc2 = _mm256_load_ps(cbuf + 16);
            __m256 acc3 = _mm256_load_ps(cbuf + 24);
            const float* bj = b + k0 * n + j;
            for (std::size_t kk = 0; kk < kc; ++kk) {
                const __m256 bv = _mm256_broadcast_ss(bj + kk * n);
                const float* ap = panel + kk * kColRows;
                const auto step = [&](__m256 acc, const float* p) {
                    const __m256 av = _mm256_load_ps(p);
                    return _mm256_blendv_ps(
                        acc, _mm256_fmadd_ps(av, bv, acc),
                        _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ));
                };
                acc0 = step(acc0, ap);
                acc1 = step(acc1, ap + 8);
                acc2 = step(acc2, ap + 16);
                acc3 = step(acc3, ap + 24);
            }
            _mm256_store_ps(cbuf, acc0);
            _mm256_store_ps(cbuf + 8, acc1);
            _mm256_store_ps(cbuf + 16, acc2);
            _mm256_store_ps(cbuf + 24, acc3);
            for (std::size_t r = 0; r < rows; ++r) c[r * n + j] = cbuf[r];
        }
    }
}

/// Packed register-blocked GEMM. B's natural layout is row-major [k x n],
/// so a 16-column tile walk strides by 4n bytes — every load a fresh cache
/// line and a page crossing every few steps, which starves the FMA units
/// (~18 GF/s measured against an ~75 GF/s machine peak). Each 16-column
/// panel is therefore packed once into a contiguous stack buffer and
/// reused across all 4-row blocks; the 4x16 microkernel (eight ymm
/// accumulators, C loaded/stored once per tile per k-chunk) then runs
/// entirely out of L1. Each C element still accumulates its FMA chain in
/// ascending-k order — chunk boundaries only spill the exact partial to C
/// and reload it. The microkernel multiplies zero inputs where the
/// single-row kernel skips them; with finite B that adds an exact zero
/// (0 x Inf would be NaN), so for finite weights the result is bitwise
/// identical to the single-row kernel at any blocking phase, which is what
/// keeps this backend thread-count invariant (row chunks can start at any
/// r0). Rows left over after the 4-row blocks and the n16 < n column tail
/// run on the single-row kernel; n < 8 calls of 8 rows or more run on
/// matmul_cols.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_matmul_rows(const float* a, const float* b, float* c, std::size_t k,
                      std::size_t n, std::size_t r0, std::size_t r1) {
    const std::size_t n16 = n & ~std::size_t{15};
    const std::size_t r4 = n16 > 0 ? r0 + ((r1 - r0) & ~std::size_t{3}) : r0;
    if (r4 > r0) {
        alignas(32) float bpack[kPanelK * 16];
        for (std::size_t j = 0; j < n16; j += 16) {
            for (std::size_t k0 = 0; k0 < k; k0 += kPanelK) {
                const std::size_t kc = std::min(kPanelK, k - k0);
                for (std::size_t kk = 0; kk < kc; ++kk) {
                    const float* src = b + (k0 + kk) * n + j;
                    _mm256_store_ps(bpack + kk * 16, _mm256_loadu_ps(src));
                    _mm256_store_ps(bpack + kk * 16 + 8,
                                    _mm256_loadu_ps(src + 8));
                }
                for (std::size_t i = r0; i < r4; i += 4) {
                    const float* a0 = a + i * k + k0;
                    const float* a1 = a0 + k;
                    const float* a2 = a1 + k;
                    const float* a3 = a2 + k;
                    float* c0 = c + i * n + j;
                    float* c1 = c0 + n;
                    float* c2 = c1 + n;
                    float* c3 = c2 + n;
                    __m256 acc00 = _mm256_loadu_ps(c0);
                    __m256 acc01 = _mm256_loadu_ps(c0 + 8);
                    __m256 acc10 = _mm256_loadu_ps(c1);
                    __m256 acc11 = _mm256_loadu_ps(c1 + 8);
                    __m256 acc20 = _mm256_loadu_ps(c2);
                    __m256 acc21 = _mm256_loadu_ps(c2 + 8);
                    __m256 acc30 = _mm256_loadu_ps(c3);
                    __m256 acc31 = _mm256_loadu_ps(c3 + 8);
                    for (std::size_t kk = 0; kk < kc; ++kk) {
                        const float* bp = bpack + kk * 16;
                        const __m256 b0 = _mm256_load_ps(bp);
                        const __m256 b1 = _mm256_load_ps(bp + 8);
                        __m256 av = _mm256_set1_ps(a0[kk]);
                        acc00 = _mm256_fmadd_ps(av, b0, acc00);
                        acc01 = _mm256_fmadd_ps(av, b1, acc01);
                        av = _mm256_set1_ps(a1[kk]);
                        acc10 = _mm256_fmadd_ps(av, b0, acc10);
                        acc11 = _mm256_fmadd_ps(av, b1, acc11);
                        av = _mm256_set1_ps(a2[kk]);
                        acc20 = _mm256_fmadd_ps(av, b0, acc20);
                        acc21 = _mm256_fmadd_ps(av, b1, acc21);
                        av = _mm256_set1_ps(a3[kk]);
                        acc30 = _mm256_fmadd_ps(av, b0, acc30);
                        acc31 = _mm256_fmadd_ps(av, b1, acc31);
                    }
                    _mm256_storeu_ps(c0, acc00);
                    _mm256_storeu_ps(c0 + 8, acc01);
                    _mm256_storeu_ps(c1, acc10);
                    _mm256_storeu_ps(c1 + 8, acc11);
                    _mm256_storeu_ps(c2, acc20);
                    _mm256_storeu_ps(c2 + 8, acc21);
                    _mm256_storeu_ps(c3, acc30);
                    _mm256_storeu_ps(c3 + 8, acc31);
                }
            }
        }
        if (n16 < n)
            for (std::size_t i = r0; i < r4; ++i)
                matmul_row(a + i * k, 1, b, c + i * n, k, n, n16);
    }
    if (n < 8 && r1 - r0 >= 8) {
        for (std::size_t i = r0; i < r1; i += kColRows)
            matmul_cols(a + i * k, k, 1, b, c + i * n, k, n,
                        std::min(kColRows, r1 - i));
        return;
    }
    for (std::size_t i = r4; i < r1; ++i)
        matmul_row(a + i * k, 1, b, c + i * n, k, n, 0);
}

/// B floats per weight-gradient k-chunk: 16 KiB, L1-resident while every C
/// row of the call walks it.
constexpr std::size_t kTnChunkFloats = 4096;

/// Weight gradient, rows [i0, i1) of C += A^T * B: row i is the forward
/// single-row chain over column i of A, so it runs on matmul_row (n >= 8)
/// or, for the narrow logit layer, on matmul_cols with 32 C rows per panel.
/// Every row reads the same B rows, so for n >= 8 the k range is cut into
/// chunks of kTnChunkFloats that all rows pass over while the chunk sits in
/// L1 (streaming all of B from L2 for every row took ~1.4x as long at the
/// paper shapes). A chunk boundary only spills the exact partial sum to C,
/// so the order holds.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_matmul_tn_rows(const float* a, const float* b, float* c,
                         std::size_t kk_count, std::size_t m, std::size_t n,
                         std::size_t i0, std::size_t i1) {
    if (n < 8) {
        for (std::size_t i = i0; i < i1; i += kColRows)
            matmul_cols(a + i, 1, m, b, c + i * n, kk_count, n,
                        std::min(kColRows, i1 - i));
        return;
    }
    const std::size_t kc_max =
        std::clamp<std::size_t>(kTnChunkFloats / n, 8, kPanelK);
    for (std::size_t k0 = 0; k0 < kk_count; k0 += kc_max) {
        const std::size_t kc = std::min(kc_max, kk_count - k0);
        for (std::size_t i = i0; i < i1; ++i)
            matmul_row(a + k0 * m + i, m, b + k0 * n, c + i * n, kc, n, 0);
    }
}

/// One input-gradient element: an 8-lane FMA chain over k8, the fixed
/// hsum_ps tree, then the ascending scalar tail. The order every nt element
/// keeps, blocked or not.
float nt_dot(const float* arow, const float* brow, std::size_t k,
             std::size_t k8) {
    __m256 vacc = _mm256_setzero_ps();
    std::size_t kk = 0;
    for (; kk < k8; kk += 8)
        vacc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                               _mm256_loadu_ps(brow + kk), vacc);
    float acc = hsum_ps(vacc);
    for (; kk < k; ++kk) acc = std::fmaf(arow[kk], brow[kk], acc);
    return acc;
}

/// nt with k < 8: there is no 8-lane chain, so an element is only nt_dot's
/// ascending scalar tail from +0 (the 128 -> 1 logit layer's input
/// gradient). Vectorised across 8 columns of C against a transposed 8-row
/// block of B; each lane runs exactly that tail.
void nt_short_k(const float* a, const float* b, float* c, std::size_t k,
                std::size_t n, std::size_t r0, std::size_t r1) {
    alignas(32) float bt[7 * 8];
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t j = 0; j < n8; j += 8) {
        for (std::size_t kk = 0; kk < k; ++kk)
            for (std::size_t l = 0; l < 8; ++l) bt[kk * 8 + l] = b[(j + l) * k + kk];
        for (std::size_t i = r0; i < r1; ++i) {
            __m256 acc = _mm256_setzero_ps();
            for (std::size_t kk = 0; kk < k; ++kk)
                acc = _mm256_fmadd_ps(_mm256_set1_ps(a[i * k + kk]),
                                      _mm256_load_ps(bt + kk * 8), acc);
            _mm256_storeu_ps(c + i * n + j, acc);
        }
    }
    for (std::size_t i = r0; i < r1; ++i)
        for (std::size_t j = n8; j < n; ++j)
            c[i * n + j] = nt_dot(a + i * k, b + j * k, k, 0);
}

/// hsum_ps of eight accumulators at once: lane e of the result is
/// ((v0+v4)+(v2+v6)) + ((v1+v5)+(v3+v7)) of ve, with every add taking the
/// same operands in the same order as hsum_ps, so each lane is bitwise its
/// hsum_ps.
__m256 hsum8_ps(__m256 v0, __m256 v1, __m256 v2, __m256 v3, __m256 v4,
                __m256 v5, __m256 v6, __m256 v7) {
    // lo + hi of x in 128-bit half 0, of y in half 1.
    const auto halves = [](__m256 x, __m256 y) {
        return _mm256_add_ps(_mm256_permute2f128_ps(x, y, 0x20),
                             _mm256_permute2f128_ps(x, y, 0x31));
    };
    // s0+s2, s1+s3 of both operands, per 128-bit half.
    const auto pairs = [](__m256 x, __m256 y) {
        return _mm256_add_ps(_mm256_shuffle_ps(x, y, _MM_SHUFFLE(1, 0, 1, 0)),
                             _mm256_shuffle_ps(x, y, _MM_SHUFFLE(3, 2, 3, 2)));
    };
    const __m256 p = pairs(halves(v0, v4), halves(v1, v5));
    const __m256 q = pairs(halves(v2, v6), halves(v3, v7));
    return _mm256_add_ps(_mm256_shuffle_ps(p, q, _MM_SHUFFLE(2, 0, 2, 0)),
                         _mm256_shuffle_ps(p, q, _MM_SHUFFLE(3, 1, 3, 1)));
}

/// Input gradient, C[r0:r1) = A * B^T. 4-row x 2-column tiles keep eight
/// independent 8-lane chains in registers (4 A + 2 B loads feed 8 FMAs) and
/// reduce them with one hsum8_ps; each element keeps nt_dot's lane split,
/// tree and ascending tail, so the tiling changes no bits. Rows outside
/// 4-row blocks and an odd last column run nt_dot directly.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_matmul_nt_rows(const float* a, const float* b, float* c,
                         std::size_t k, std::size_t n, std::size_t r0,
                         std::size_t r1) {
    const std::size_t k8 = k & ~std::size_t{7};
    if (k8 == 0) {
        nt_short_k(a, b, c, k, n, r0, r1);
        return;
    }
    const std::size_t r4 = r0 + ((r1 - r0) & ~std::size_t{3});
    const std::size_t n2 = n & ~std::size_t{1};
    for (std::size_t i = r0; i < r4; i += 4) {
        const float* a0 = a + i * k;
        const float* a1 = a0 + k;
        const float* a2 = a1 + k;
        const float* a3 = a2 + k;
        for (std::size_t j = 0; j < n2; j += 2) {
            const float* b0 = b + j * k;
            const float* b1 = b0 + k;
            __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
            __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
            __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
            __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
            for (std::size_t kk = 0; kk < k8; kk += 8) {
                const __m256 bv0 = _mm256_loadu_ps(b0 + kk);
                const __m256 bv1 = _mm256_loadu_ps(b1 + kk);
                __m256 av = _mm256_loadu_ps(a0 + kk);
                acc00 = _mm256_fmadd_ps(av, bv0, acc00);
                acc01 = _mm256_fmadd_ps(av, bv1, acc01);
                av = _mm256_loadu_ps(a1 + kk);
                acc10 = _mm256_fmadd_ps(av, bv0, acc10);
                acc11 = _mm256_fmadd_ps(av, bv1, acc11);
                av = _mm256_loadu_ps(a2 + kk);
                acc20 = _mm256_fmadd_ps(av, bv0, acc20);
                acc21 = _mm256_fmadd_ps(av, bv1, acc21);
                av = _mm256_loadu_ps(a3 + kk);
                acc30 = _mm256_fmadd_ps(av, bv0, acc30);
                acc31 = _mm256_fmadd_ps(av, bv1, acc31);
            }
            const __m256 sums = hsum8_ps(acc00, acc01, acc10, acc11, acc20,
                                         acc21, acc30, acc31);
            // Row-major 4 x 2 tile: each row's two sums are adjacent in C.
            float* c0 = c + i * n + j;
            const __m128 lo = _mm256_castps256_ps128(sums);
            const __m128 hi = _mm256_extractf128_ps(sums, 1);
            _mm_storel_pi(reinterpret_cast<__m64*>(c0), lo);
            _mm_storeh_pi(reinterpret_cast<__m64*>(c0 + n), lo);
            _mm_storel_pi(reinterpret_cast<__m64*>(c0 + 2 * n), hi);
            _mm_storeh_pi(reinterpret_cast<__m64*>(c0 + 3 * n), hi);
            if (k8 < k)
                for (std::size_t e = 0; e < 8; ++e) {
                    const float* arow = a0 + (e / 2) * k;
                    const float* brow = b0 + (e % 2) * k;
                    float& acc = c0[(e / 2) * n + e % 2];
                    for (std::size_t kk = k8; kk < k; ++kk)
                        acc = std::fmaf(arow[kk], brow[kk], acc);
                }
        }
        for (std::size_t j = n2; j < n; ++j)
            for (std::size_t rr = 0; rr < 4; ++rr)
                c[(i + rr) * n + j] = nt_dot(a0 + rr * k, b + j * k, k, k8);
    }
    for (std::size_t i = r4; i < r1; ++i)
        for (std::size_t j = 0; j < n; ++j)
            c[i * n + j] = nt_dot(a + i * k, b + j * k, k, k8);
}

/// Bitwise identical to scalar: per-column sums accumulate rows in the same
/// sequential order; vectorizing across columns reorders nothing.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_column_sums_rows(const float* a, std::size_t rows, std::size_t cols,
                           float* out) {
    const std::size_t c8 = cols & ~std::size_t{7};
    for (std::size_t r = 0; r < rows; ++r) {
        const float* row = a + r * cols;
        std::size_t c = 0;
        for (; c < c8; c += 8)
            _mm256_storeu_ps(out + c, _mm256_add_ps(_mm256_loadu_ps(out + c),
                                                    _mm256_loadu_ps(row + c)));
        for (; c < cols; ++c) out[c] += row[c];
    }
}

/// kNone/kReLU are plain elementwise add/max — bitwise identical to scalar.
/// kSigmoid needs libm exp per element, so it runs the scalar loop.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_bias_act_rows(float* c, const float* bias, std::size_t n,
                        Activation act, std::size_t r0, std::size_t r1) {
    const std::size_t n8 = n & ~std::size_t{7};
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t i = r0; i < r1; ++i) {
        float* crow = c + i * n;
        switch (act) {
            case Activation::kNone: {
                std::size_t j = 0;
                for (; j < n8; j += 8)
                    _mm256_storeu_ps(crow + j,
                                     _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                                   _mm256_loadu_ps(bias + j)));
                for (; j < n; ++j) crow[j] += bias[j];
                break;
            }
            case Activation::kReLU: {
                std::size_t j = 0;
                for (; j < n8; j += 8) {
                    const __m256 v = _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                                   _mm256_loadu_ps(bias + j));
                    _mm256_storeu_ps(crow + j, _mm256_max_ps(v, zero));
                }
                for (; j < n; ++j) {
                    const float v = crow[j] + bias[j];
                    crow[j] = v > 0.0f ? v : 0.0f;
                }
                break;
            }
            case Activation::kSigmoid:
                for (std::size_t j = 0; j < n; ++j) {
                    const float v = crow[j] + bias[j];
                    crow[j] = 1.0f / (1.0f + std::exp(-v));
                }
                break;
        }
    }
}

/// int8 dot products via sign-extension to int16 + _mm256_madd_epi16
/// pair-sums: 16 multiplies per instruction, exact int32 accumulation —
/// bitwise identical to the scalar backend by construction.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_gemm_s8_rows(const std::int8_t* a, const std::int8_t* w,
                       std::int32_t* c, std::size_t k, std::size_t n,
                       std::size_t r0, std::size_t r1) {
    const std::size_t k16 = k & ~std::size_t{15};
    for (std::size_t i = r0; i < r1; ++i) {
        const std::int8_t* arow = a + i * k;
        std::int32_t* crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const std::int8_t* wrow = w + j * k;
            __m256i vacc = _mm256_setzero_si256();
            std::size_t kk = 0;
            for (; kk < k16; kk += 16) {
                const __m256i va = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(arow + kk)));
                const __m256i vw = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(wrow + kk)));
                vacc = _mm256_add_epi32(vacc, _mm256_madd_epi16(va, vw));
            }
            std::int32_t acc = hsum_epi32(vacc);
            for (; kk < k; ++kk)
                acc += static_cast<std::int32_t>(arow[kk]) *
                       static_cast<std::int32_t>(wrow[kk]);
            crow[j] = acc;
        }
    }
}

/// Clamp-then-convert; _mm256_cvtps_epi32 rounds to nearest-even exactly
/// like the scalar nearbyintf, and inputs are pre-clamped to ±127 so the
/// saturating packs below never alter a value.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_quantize_s8_rows(const float* x, std::int8_t* q, float inv_scale,
                           std::size_t n, std::size_t r0, std::size_t r1) {
    const __m256 vscale = _mm256_set1_ps(inv_scale);
    const __m256 vlo = _mm256_set1_ps(-127.0f);
    const __m256 vhi = _mm256_set1_ps(127.0f);
    const __m256i unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const auto cvt8 = [&](const float* p) {
        const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(p), vscale);
        return _mm256_cvtps_epi32(_mm256_max_ps(vlo, _mm256_min_ps(vhi, t)));
    };
    std::size_t begin = r0 * n;
    const std::size_t end = r1 * n;
    const std::size_t count = end - begin;
    const std::size_t n32 = begin + (count & ~std::size_t{31});
    for (; begin < n32; begin += 32) {
        const __m256i i0 = cvt8(x + begin);
        const __m256i i1 = cvt8(x + begin + 8);
        const __m256i i2 = cvt8(x + begin + 16);
        const __m256i i3 = cvt8(x + begin + 24);
        const __m256i p01 = _mm256_packs_epi32(i0, i1);  // 16 x i16, lane-mixed
        const __m256i p23 = _mm256_packs_epi32(i2, i3);
        const __m256i packed = _mm256_packs_epi16(p01, p23);  // 32 x i8
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(q + begin),
            _mm256_permutevar8x32_epi32(packed, unshuffle));
    }
    for (; begin < end; ++begin) {
        const float r = std::nearbyintf(x[begin] * inv_scale);
        const float clamped = r < -127.0f ? -127.0f : (r > 127.0f ? 127.0f : r);
        q[begin] = static_cast<std::int8_t>(clamped);
    }
}

/// mul + add (no FMA) in the same per-element order as scalar => bitwise
/// identical dequantization; sigmoid delegates to the scalar loop.
// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_dequant_bias_act_rows(const std::int32_t* acc, float scale,
                                const float* bias, float* out, std::size_t n,
                                Activation act, std::size_t r0,
                                std::size_t r1) {
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 zero = _mm256_setzero_ps();
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t i = r0; i < r1; ++i) {
        const std::int32_t* arow = acc + i * n;
        float* orow = out + i * n;
        if (act == Activation::kSigmoid) {
            for (std::size_t j = 0; j < n; ++j) {
                const float v = static_cast<float>(arow[j]) * scale + bias[j];
                orow[j] = 1.0f / (1.0f + std::exp(-v));
            }
            continue;
        }
        std::size_t j = 0;
        for (; j < n8; j += 8) {
            const __m256 vf = _mm256_cvtepi32_ps(_mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(arow + j)));
            __m256 v = _mm256_add_ps(_mm256_mul_ps(vf, vscale),
                                     _mm256_loadu_ps(bias + j));
            if (act == Activation::kReLU) v = _mm256_max_ps(v, zero);
            _mm256_storeu_ps(orow + j, v);
        }
        for (; j < n; ++j) {
            float v = static_cast<float>(arow[j]) * scale + bias[j];
            if (act == Activation::kReLU) v = v > 0.0f ? v : 0.0f;
            orow[j] = v;
        }
    }
}

// wifisense-lint: noalloc-end

}  // namespace

const KernelBackend* avx2_backend() {
    static const KernelBackend backend = {
        "avx2",
        &avx2_matmul_rows,
        &avx2_matmul_tn_rows,
        &avx2_matmul_nt_rows,
        &avx2_column_sums_rows,
        &avx2_bias_act_rows,
        &avx2_gemm_s8_rows,
        &avx2_quantize_s8_rows,
        &avx2_dequant_bias_act_rows,
    };
    return &backend;
}

}  // namespace wifisense::nn::kernels

#else  // non-x86 build: the AVX2 backend does not exist.

namespace wifisense::nn::kernels {
const KernelBackend* avx2_backend() { return nullptr; }
}  // namespace wifisense::nn::kernels

#endif
