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

/// Single-row kernel: crow[j0:n) += arow * B[:, j0:n). The batch-1 serving
/// shape, the rows outside 4-row blocks, and the packed path's column tail.
/// Per k-chunk the nonzero inputs are compacted once, branch-free (post-ReLU
/// activations are 56-67% exact zeros in no fixed pattern, so a per-element
/// `av == 0` branch mispredicts), then each 64-column tile walks that list
/// with eight ymm accumulators held in registers; an 8-column and a scalar
/// tail finish the row. Every element still sees the ascending-k,
/// zero-skipping FMA chain, and a chunk boundary spills the exact partial
/// sum to C, so the blocking changes no bits.
void matmul_row(const float* arow, const float* b, float* crow, std::size_t k,
                std::size_t n, std::size_t j0) {
    std::size_t off[kPanelK];  // B row offset of each nonzero input
    float val[kPanelK];
    for (std::size_t k0 = 0; k0 < k; k0 += kPanelK) {
        const std::size_t kc = std::min(kPanelK, k - k0);
        std::size_t nnz = 0;
        for (std::size_t kk = 0; kk < kc; ++kk) {
            const float av = arow[k0 + kk];
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
/// run on the single-row kernel.
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
                matmul_row(a + i * k, b, c + i * n, k, n, n16);
    }
    for (std::size_t i = r4; i < r1; ++i)
        matmul_row(a + i * k, b, c + i * n, k, n, 0);
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_matmul_tn_rows(const float* a, const float* b, float* c,
                         std::size_t kk_count, std::size_t m, std::size_t n,
                         std::size_t i0, std::size_t i1) {
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t i = i0; i < i1; ++i) {
        float* crow = c + i * n;
        for (std::size_t kk = 0; kk < kk_count; ++kk) {
            const float av = a[kk * m + i];
            if (av == 0.0f) continue;
            const __m256 vav = _mm256_set1_ps(av);
            const float* brow = b + kk * n;
            std::size_t j = 0;
            for (; j < n8; j += 8) {
                const __m256 acc = _mm256_loadu_ps(crow + j);
                _mm256_storeu_ps(crow + j,
                                 _mm256_fmadd_ps(vav, _mm256_loadu_ps(brow + j), acc));
            }
            for (; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
        }
    }
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void avx2_matmul_nt_rows(const float* a, const float* b, float* c,
                         std::size_t k, std::size_t n, std::size_t r0,
                         std::size_t r1) {
    const std::size_t k8 = k & ~std::size_t{7};
    for (std::size_t i = r0; i < r1; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float* brow = b + j * k;
            __m256 vacc = _mm256_setzero_ps();
            std::size_t kk = 0;
            for (; kk < k8; kk += 8)
                vacc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                                       _mm256_loadu_ps(brow + kk), vacc);
            float acc = hsum_ps(vacc);
            for (; kk < k; ++kk) acc = std::fmaf(arow[kk], brow[kk], acc);
            crow[j] = acc;
        }
    }
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
