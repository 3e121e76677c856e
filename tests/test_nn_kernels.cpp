// Microkernel backend dispatch + int8 quantized inference (DESIGN.md §16).
//
// Contract under test:
//   * scalar is the startup default and stays the bitwise reference — the
//     workspace goldens in test_nn_workspace.cpp pin it; here we pin the
//     dispatch seams around it;
//   * the AVX2 backend answers to tolerance goldens on the FMA GEMMs but is
//     bitwise identical on every epilogue / integer kernel, and bitwise
//     thread-count invariant everywhere (shape-only chunk decomposition);
//   * QuantizedMlp outputs are bitwise identical across backends AND thread
//     counts (exact int math + backend-pinned scalar float epilogue), so the
//     accuracy deltas gated in CI are machine-independent;
//   * serialize v3 round-trips quantized models, rejects cross-format loads,
//     and v1/v2 float streams keep loading;
//   * warm forward paths allocate nothing on any backend.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/cpuid.hpp"
#include "common/parallel.hpp"
#include "nn/kernels/backend.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/quant.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"
#include "nn/trainer.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace {

using namespace wifisense;
namespace kn = wifisense::nn::kernels;

std::uint32_t bits32(float f) {
    std::uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

/// Restores the kernel backend on scope exit — every test here must leave
/// the process-wide dispatch slot the way it found it.
class KernelBackendGuard {
public:
    KernelBackendGuard() : saved_(kn::active_backend().name) {}
    ~KernelBackendGuard() { kn::set_kernel_backend(saved_); }

private:
    std::string saved_;
};

/// Restores the pool configuration on scope exit.
class ThreadConfigGuard {
public:
    ThreadConfigGuard() : saved_(common::execution_config()) {}
    ~ThreadConfigGuard() { common::set_execution_config(saved_); }

private:
    common::ExecutionConfig saved_;
};

nn::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed, float scale = 1.0f) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> u(-scale, scale);
    nn::Matrix m(rows, cols);
    for (float& v : m.data()) v = u(rng);
    return m;
}

bool bitwise_equal(const nn::Matrix& a, const nn::Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    return std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

/// Largest |a-b| normalized by the largest magnitude in the reference —
/// element-wise relative error explodes under catastrophic cancellation
/// (a near-zero dot product divides a rounding-sized FMA deviation), while
/// the matrix-scale metric keeps the tolerance meaningful.
double max_scaled_diff(const nn::Matrix& a, const nn::Matrix& b) {
    double worst = 0.0, scale = 1e-6;
    for (const float v : a.data())
        scale = std::max(scale, static_cast<double>(std::abs(v)));
    for (std::size_t i = 0; i < a.data().size(); ++i)
        worst = std::max(worst, std::abs(static_cast<double>(a.data()[i]) -
                                         static_cast<double>(b.data()[i])));
    return worst / scale;
}

/// Deterministic toy problem shared with the workspace goldens: 600 samples,
/// 12 features, y = [x0*x1 > 0].
void make_dataset(nn::Matrix& x, nn::Matrix& y) {
    std::mt19937_64 drng(123);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    x.resize(600, 12);
    y.resize(600, 1);
    for (float& v : x.data()) v = u(drng);
    for (std::size_t i = 0; i < y.rows(); ++i)
        y.at(i, 0) = (x.at(i, 0) * x.at(i, 1) > 0.0f) ? 1.0f : 0.0f;
}

/// A small trained network (3 epochs on the toy problem) — enough structure
/// that quantization error is measurable but accuracy is stable.
nn::Mlp trained_net(nn::Matrix& x, nn::Matrix& y) {
    make_dataset(x, y);
    std::mt19937_64 rng(9);
    nn::Mlp net({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);
    nn::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 128;
    cfg.seed = 77;
    const nn::BceWithLogitsLoss loss;
    (void)nn::train(net, x, y, loss, cfg);
    net.set_training(false);
    return net;
}

// ---------------------------------------------------------------------------
// Backend selection / CPUID
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ScalarIsSelectableAndUnknownNamesAreRejected) {
    KernelBackendGuard guard;
    EXPECT_TRUE(kn::set_kernel_backend("scalar"));
    EXPECT_STREQ(kn::active_backend().name, "scalar");
    // Unknown names leave the active backend untouched.
    EXPECT_FALSE(kn::set_kernel_backend("neon"));
    EXPECT_STREQ(kn::active_backend().name, "scalar");
    EXPECT_FALSE(kn::set_kernel_backend(""));
    EXPECT_STREQ(kn::active_backend().name, "scalar");
}

TEST(KernelDispatch, AutoResolvesToFastestSupported) {
    KernelBackendGuard guard;
    EXPECT_TRUE(kn::set_kernel_backend("auto"));
    if (kn::avx2_supported())
        EXPECT_STREQ(kn::active_backend().name, "avx2");
    else
        EXPECT_STREQ(kn::active_backend().name, "scalar");
}

TEST(KernelDispatch, Avx2EligibilityMatchesCpuid) {
    const common::CpuFeatures feat = common::cpu_features();
    const bool runnable =
        kn::avx2_backend() != nullptr && feat.avx2 && feat.fma;
    EXPECT_EQ(kn::avx2_supported(), runnable);
    // Selecting avx2 must succeed exactly when it is supported.
    KernelBackendGuard guard;
    EXPECT_EQ(kn::set_kernel_backend("avx2"), kn::avx2_supported());
    // The feature string mentions whatever CPUID reported (observability).
    const std::string s = common::cpu_feature_string();
    EXPECT_EQ(s.find("avx2") != std::string::npos, feat.avx2);
}

// ---------------------------------------------------------------------------
// Scalar vs AVX2 parity
// ---------------------------------------------------------------------------

/// Randomized shapes chosen to exercise every tail path: vector-width
/// multiples, ragged tails shorter than one AVX lane, single rows/columns.
struct GemmShape {
    std::size_t m, k, n;
};
constexpr GemmShape kShapes[] = {
    {1, 1, 1},   {3, 5, 7},    {4, 8, 16},  {17, 13, 9},
    {33, 7, 31}, {64, 12, 32}, {5, 100, 3}, {2, 31, 65},
};

TEST(KernelParity, FloatGemmsAgreeWithinTolerance) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    KernelBackendGuard guard;
    std::uint64_t seed = 1000;
    for (const GemmShape& s : kShapes) {
        SCOPED_TRACE("m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                     " n=" + std::to_string(s.n));
        const nn::Matrix a = random_matrix(s.m, s.k, seed++);
        const nn::Matrix b = random_matrix(s.k, s.n, seed++);
        const nn::Matrix bt = random_matrix(s.n, s.k, seed++);
        const nn::Matrix at = random_matrix(s.k, s.m, seed++);

        nn::Matrix ref_mm, ref_nt, ref_tn;
        ASSERT_TRUE(kn::set_kernel_backend("scalar"));
        nn::matmul_into(a, b, ref_mm);
        nn::matmul_nt_into(a, bt, ref_nt);
        nn::matmul_tn_into(at, b, ref_tn);

        nn::Matrix simd_mm, simd_nt, simd_tn;
        ASSERT_TRUE(kn::set_kernel_backend("avx2"));
        nn::matmul_into(a, b, simd_mm);
        nn::matmul_nt_into(a, bt, simd_nt);
        nn::matmul_tn_into(at, b, simd_tn);

        // FMA reassociates rounding — tolerance goldens, not bitwise.
        EXPECT_LT(max_scaled_diff(ref_mm, simd_mm), 1e-5);
        EXPECT_LT(max_scaled_diff(ref_nt, simd_nt), 1e-5);
        EXPECT_LT(max_scaled_diff(ref_tn, simd_tn), 1e-5);
    }
}

TEST(KernelParity, EpiloguesAndIntegerKernelsAreBitwiseIdentical) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    const kn::KernelBackend& sc = kn::scalar_backend();
    const kn::KernelBackend& vx = *kn::avx2_backend();
    std::mt19937_64 rng(42);

    for (const GemmShape& s : kShapes) {
        SCOPED_TRACE("m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                     " n=" + std::to_string(s.n));
        // column_sums: sequential per-column accumulation on both backends.
        const nn::Matrix a = random_matrix(s.m, s.n, rng());
        std::vector<float> sums_sc(s.n, 0.0f), sums_vx(s.n, 0.0f);
        sc.column_sums_rows(a.data().data(), s.m, s.n, sums_sc.data());
        vx.column_sums_rows(a.data().data(), s.m, s.n, sums_vx.data());
        EXPECT_EQ(std::memcmp(sums_sc.data(), sums_vx.data(),
                              s.n * sizeof(float)), 0);

        // bias + activation epilogue, all three activations.
        const nn::Matrix bias_m = random_matrix(1, s.n, rng());
        for (const kn::Activation act :
             {kn::Activation::kNone, kn::Activation::kReLU,
              kn::Activation::kSigmoid}) {
            nn::Matrix c1 = random_matrix(s.m, s.n, 7);
            nn::Matrix c2 = c1;
            sc.bias_act_rows(c1.data().data(), bias_m.data().data(), s.n, act,
                             0, s.m);
            vx.bias_act_rows(c2.data().data(), bias_m.data().data(), s.n, act,
                             0, s.m);
            EXPECT_TRUE(bitwise_equal(c1, c2))
                << "bias_act activation " << static_cast<int>(act);
        }

        // quantize: nearest-even rounding must match _mm256_cvtps_epi32.
        const nn::Matrix x = random_matrix(s.m, s.k, rng(), 3.0f);
        std::vector<std::int8_t> q1(s.m * s.k), q2(s.m * s.k);
        sc.quantize_s8_rows(x.data().data(), q1.data(), 42.333f, s.k, 0, s.m);
        vx.quantize_s8_rows(x.data().data(), q2.data(), 42.333f, s.k, 0, s.m);
        EXPECT_EQ(std::memcmp(q1.data(), q2.data(), q1.size()), 0);

        // int8 GEMM: exact int32 accumulation.
        std::vector<std::int8_t> w(s.n * s.k);
        std::uniform_int_distribution<int> d8(-127, 127);
        for (std::int8_t& v : w) v = static_cast<std::int8_t>(d8(rng));
        std::vector<std::int32_t> acc1(s.m * s.n, 0), acc2(s.m * s.n, 0);
        sc.gemm_s8_rows(q1.data(), w.data(), acc1.data(), s.k, s.n, 0, s.m);
        vx.gemm_s8_rows(q1.data(), w.data(), acc2.data(), s.k, s.n, 0, s.m);
        EXPECT_EQ(std::memcmp(acc1.data(), acc2.data(),
                              acc1.size() * sizeof(std::int32_t)), 0);

        // dequantize + bias + activation epilogue.
        nn::Matrix o1(s.m, s.n), o2(s.m, s.n);
        sc.dequant_bias_act_rows(acc1.data(), 0.0123f, bias_m.data().data(),
                                 o1.data().data(), s.n,
                                 kn::Activation::kSigmoid, 0, s.m);
        vx.dequant_bias_act_rows(acc1.data(), 0.0123f, bias_m.data().data(),
                                 o2.data().data(), s.n,
                                 kn::Activation::kSigmoid, 0, s.m);
        EXPECT_TRUE(bitwise_equal(o1, o2));
    }
}

TEST(KernelParity, Avx2IsBitwiseThreadCountInvariant) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    KernelBackendGuard kguard;
    ThreadConfigGuard tguard;
    ASSERT_TRUE(kn::set_kernel_backend("avx2"));

    const nn::Matrix a = random_matrix(97, 33, 5);
    const nn::Matrix b = random_matrix(33, 41, 6);

    common::set_execution_config({.threads = 1});
    nn::Matrix ref;
    nn::matmul_into(a, b, ref);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        common::set_execution_config({.threads = threads});
        nn::Matrix out;
        nn::matmul_into(a, b, out);
        EXPECT_TRUE(bitwise_equal(ref, out));
    }
}

/// Post-ReLU-like operand: about 55% exact zeros in no fixed pattern, plus
/// one all-zero row and one row with no zeros.
nn::Matrix sparse_activations(std::size_t rows, std::size_t cols,
                              std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix m(rows, cols);
    for (float& v : m.data()) v = u(rng) < 0.1f ? 0.0f : u(rng);
    for (std::size_t j = 0; j < cols; ++j) {
        m.at(2, j) = 0.0f;
        m.at(5, j) = 0.5f + 0.5f * std::abs(u(rng));
    }
    return m;
}

TEST(KernelParity, Avx2SingleRowMatchesBatchedRowsBitwise) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    const kn::KernelBackend& vx = *kn::avx2_backend();
    // m = 10: rows 0-7 run in 4-row packed blocks, rows 8-9 on the row
    // kernel, so every single-row result is checked against both.
    constexpr std::size_t kRows = 10;
    std::uint64_t seed = 3000;
    for (const std::size_t k : {1, 7, 66, 255, 256, 257, 600}) {
        for (const std::size_t n : {1, 7, 8, 63, 64, 65, 136, 256}) {
            SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
            const nn::Matrix a = sparse_activations(kRows, k, seed++);
            const nn::Matrix b = random_matrix(k, n, seed++);
            nn::Matrix batched(kRows, n, 0.0f), single(kRows, n, 0.0f);
            vx.matmul_rows(a.data().data(), b.data().data(),
                           batched.data().data(), k, n, 0, kRows);
            for (std::size_t i = 0; i < kRows; ++i)
                vx.matmul_rows(a.data().data(), b.data().data(),
                               single.data().data(), k, n, i, i + 1);
            EXPECT_TRUE(bitwise_equal(batched, single));
        }
    }
}

TEST(KernelParity, Avx2SingleRowForwardMatchesBatchedForwardBitwise) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    KernelBackendGuard guard;
    ASSERT_TRUE(kn::set_kernel_backend("avx2"));
    std::mt19937_64 rng(11);
    nn::Mlp net = nn::paper_mlp(64, rng);
    net.set_training(false);
    const nn::Matrix x = random_matrix(64, 64, 12);

    const nn::Matrix batched = net.forward_ws(x, /*cache=*/false);
    nn::Matrix one;
    for (std::size_t i = 0; i < x.rows(); ++i) {
        nn::row_block_into(x, i, 1, one);
        const nn::Matrix& out = net.forward_ws(one, /*cache=*/false);
        ASSERT_EQ(out.rows(), 1u);
        EXPECT_EQ(bits32(out.at(0, 0)), bits32(batched.at(i, 0))) << "row " << i;
    }
}

#if defined(__x86_64__) || defined(_M_X64)

// Per-element oracles: the AVX2 float kernels as they stood before register
// blocking (the tn and nt loops verbatim, the forward row loop in its
// one-element-at-a-time form), so the blocked kernels answer to them
// bitwise. They carry the ISA themselves (this TU is built for baseline
// x86-64) and only run after the avx2_supported() check.

/// Rows [r0, r1) of C += A * B, one ascending-k zero-skipping FMA chain per
/// element — the single-row forward kernel's order.
__attribute__((target("avx2,fma"))) void oracle_matmul_rows(
    const float* a, const float* b, float* c, std::size_t k, std::size_t n,
    std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            float acc = c[i * n + j];
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float av = a[i * k + kk];
                if (av != 0.0f) acc = std::fmaf(av, b[kk * n + j], acc);
            }
            c[i * n + j] = acc;
        }
}

__attribute__((target("avx2,fma"))) void oracle_matmul_tn_rows(
    const float* a, const float* b, float* c, std::size_t kk_count,
    std::size_t m, std::size_t n, std::size_t i0, std::size_t i1) {
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

__attribute__((target("avx2,fma"))) float oracle_hsum_ps(__m256 v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

__attribute__((target("avx2,fma"))) void oracle_matmul_nt_rows(
    const float* a, const float* b, float* c, std::size_t k, std::size_t n,
    std::size_t r0, std::size_t r1) {
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
            float acc = oracle_hsum_ps(vacc);
            for (; kk < k; ++kk) acc = std::fmaf(arow[kk], brow[kk], acc);
            crow[j] = acc;
        }
    }
}

/// Operand with the given fraction of exact zeros, half of them -0.0f. With
/// `specials`, a few B-side entries become +-Inf or NaN. The NaN carries the
/// x86 default-NaN bits (what Inf - Inf produces), so every NaN in a result
/// has one bit pattern: which NaN operand an FMA propagates depends on the
/// register form the compiler picks, not on the kernel's summation order.
std::vector<float> oracle_operand(std::size_t count, double zero_frac,
                                  bool specials, std::mt19937_64& rng) {
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    std::uniform_real_distribution<double> p(0.0, 1.0);
    std::vector<float> v(count);
    for (float& x : v) {
        const double draw = p(rng);
        x = draw < zero_frac ? (draw < zero_frac / 2 ? -0.0f : 0.0f) : u(rng);
    }
    if (specials && count > 0) {
        const float nan = -std::numeric_limits<float>::quiet_NaN();
        const float picks[] = {std::numeric_limits<float>::infinity(),
                               -std::numeric_limits<float>::infinity(), nan};
        for (const float s : picks) v[rng() % count] = s;
    }
    return v;
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(KernelParity, Avx2BackwardGemmsMatchPerElementOracle) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    const kn::KernelBackend& vx = *kn::avx2_backend();
    constexpr std::size_t kDims[] = {1,  7,  8,   9,   15,  16,  17,
                                     63, 64, 65, 128, 255, 256, 257};
    constexpr std::size_t kCount = std::size(kDims);
    constexpr double kZeroFrac[] = {0.0, 0.6, 1.0};
    std::mt19937_64 rng(20260);
    for (std::size_t x = 0; x < kCount; ++x) {
        for (std::size_t y = 0; y < kCount; ++y) {
            const std::size_t m = kDims[x], n = kDims[y];
            const std::size_t k = kDims[(5 * x + 3 * y) % kCount];
            const double zf = kZeroFrac[(x + y) % 3];
            const bool specials = (x + 2 * y) % 4 == 0;
            const bool neg_zero_start = (x + y) % 2 == 0;
            SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                         " k=" + std::to_string(k) + " zero_frac=" +
                         std::to_string(zf) + (specials ? " inf/nan" : ""));
            // Arbitrary [r0, r1) of the m output rows.
            const std::size_t r0 = rng() % m;
            const std::size_t r1 = r0 + 1 + rng() % (m - r0);

            // Forward: A [m x k] sparse, B [k x n], C starts at +0 the way
            // the tensor layer zero-fills it.
            {
                const auto a = oracle_operand(m * k, zf, false, rng);
                const auto b = oracle_operand(k * n, 0.0, specials, rng);
                std::vector<float> want(m * n, 0.0f), got(m * n, 0.0f);
                oracle_matmul_rows(a.data(), b.data(), want.data(), k, n, r0, r1);
                vx.matmul_rows(a.data(), b.data(), got.data(), k, n, r0, r1);
                // The 4x16 packed tiles multiply zero inputs, which is exact
                // only against finite weights (DESIGN.md §16).
                if (!specials || n < 16 || r1 - r0 < 4) {
                    EXPECT_TRUE(same_bits(want, got)) << "matmul_rows";
                }
            }
            // Weight gradient: A [k x m] sparse, B [k x n], C accumulates
            // onto -0.0 or onto earlier values.
            {
                const auto a = oracle_operand(k * m, zf, false, rng);
                const auto b = oracle_operand(k * n, 0.0, specials, rng);
                std::vector<float> want =
                    neg_zero_start ? std::vector<float>(m * n, -0.0f)
                                   : oracle_operand(m * n, 0.0, false, rng);
                std::vector<float> got = want;
                oracle_matmul_tn_rows(a.data(), b.data(), want.data(), k, m, n, r0, r1);
                vx.matmul_tn_rows(a.data(), b.data(), got.data(), k, m, n, r0, r1);
                EXPECT_TRUE(same_bits(want, got)) << "matmul_tn_rows";
            }
            // Input gradient: A [m x k] sparse, B [n x k]; C is overwritten,
            // and rows outside [r0, r1) must keep their NaN fill.
            {
                const auto a = oracle_operand(m * k, zf, false, rng);
                const auto b = oracle_operand(n * k, 0.0, specials, rng);
                std::vector<float> want(m * n, std::numeric_limits<float>::quiet_NaN());
                std::vector<float> got = want;
                oracle_matmul_nt_rows(a.data(), b.data(), want.data(), k, n, r0, r1);
                vx.matmul_nt_rows(a.data(), b.data(), got.data(), k, n, r0, r1);
                EXPECT_TRUE(same_bits(want, got)) << "matmul_nt_rows";
            }
        }
    }
}

/// FNV-1a over the bits of every parameter.
std::uint64_t weight_digest(nn::Mlp& net) {
    std::uint64_t h = 1469598103934665603ull;
    for (const nn::ParamView& p : net.parameters())
        for (const float v : p.values) {
            const std::uint32_t u = bits32(v);
            for (int byte = 0; byte < 4; ++byte) {
                h ^= (u >> (8 * byte)) & 0xffu;
                h *= 1099511628211ull;
            }
        }
    return h;
}

TEST(KernelParity, Avx2TrainingIsBitwiseUnchanged) {
    if (!kn::avx2_supported()) GTEST_SKIP() << "no AVX2 on this host";
    KernelBackendGuard kguard;
    ThreadConfigGuard tguard;
    ASSERT_TRUE(kn::set_kernel_backend("avx2"));
    // 1000 rows at batch 256: three full steps and a 232-row tail per epoch.
    const nn::Matrix x = random_matrix(1000, 66, 31);
    nn::Matrix y(1000, 1);
    for (std::size_t i = 0; i < y.rows(); ++i)
        y.at(i, 0) = x.at(i, 0) + x.at(i, 1) > 0.0f ? 1.0f : 0.0f;
    const nn::BceWithLogitsLoss loss;
    nn::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 256;
    cfg.seed = 17;
    // Captured with the AVX2 kernels before register blocking of the
    // backward GEMMs; every fit since must land on the same bits.
    constexpr std::uint64_t kGolden = 0x61c0371ed6f4c2b2ull;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        common::set_execution_config({.threads = threads});
        std::mt19937_64 rng(3);
        nn::Mlp net = nn::paper_mlp(66, rng);
        (void)nn::train(net, x, y, loss, cfg);
        EXPECT_EQ(weight_digest(net), kGolden);
    }
}

#endif  // x86-64

// ---------------------------------------------------------------------------
// Fused inference path
// ---------------------------------------------------------------------------

TEST(FusedInference, MatchesLayerByLayerBitwiseOnScalar) {
    KernelBackendGuard guard;
    ASSERT_TRUE(kn::set_kernel_backend("scalar"));
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);

    // cache=true walks the historical layer-by-layer path; cache=false takes
    // the fused Dense+activation fast path. Same bits on scalar.
    const nn::Matrix cached = net.forward_ws(x, /*cache=*/true);
    const nn::Matrix fused = net.forward_ws(x, /*cache=*/false);
    EXPECT_TRUE(bitwise_equal(cached, fused));

    // The fused pass must leave the caches in the inference state.
    for (const auto& layer : net.layers())
        EXPECT_TRUE(layer->last_output().empty()) << layer->name();
}

// ---------------------------------------------------------------------------
// int8 quantization
// ---------------------------------------------------------------------------

TEST(Quantized, QuantizeRoundTripIsNearestEvenAndSaturating) {
    const kn::KernelBackend& sc = kn::scalar_backend();
    const float vals[] = {0.0f,  0.4999f, 0.5f,  1.5f,  2.5f,
                          -2.5f, 126.6f,  300.0f, -300.0f};
    std::int8_t q[9];
    sc.quantize_s8_rows(vals, q, 1.0f, 9, 0, 1);
    EXPECT_EQ(q[0], 0);
    EXPECT_EQ(q[1], 0);
    EXPECT_EQ(q[2], 0);   // nearest-even: 0.5 -> 0
    EXPECT_EQ(q[3], 2);   // 1.5 -> 2
    EXPECT_EQ(q[4], 2);   // 2.5 -> 2
    EXPECT_EQ(q[5], -2);
    EXPECT_EQ(q[6], 127);
    EXPECT_EQ(q[7], 127);   // saturates at +127
    EXPECT_EQ(q[8], -127);  // symmetric: never -128
}

TEST(Quantized, MlpTracksFloatNetworkAccuracy) {
    KernelBackendGuard guard;
    ASSERT_TRUE(kn::set_kernel_backend("scalar"));
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);

    EXPECT_EQ(qnet.input_size(), 12u);
    EXPECT_EQ(qnet.output_size(), 1u);
    EXPECT_EQ(qnet.layers().size(), 3u);
    // int8 weights + float biases: ~4x smaller than the float checkpoint.
    EXPECT_LT(qnet.weight_bytes() * 3, net.weight_bytes());

    const std::vector<int> fp = nn::predict_binary(net, x);
    const std::vector<int> q8 = nn::predict_binary(qnet, x);
    ASSERT_EQ(fp.size(), q8.size());
    std::size_t agree = 0, fp_correct = 0, q8_correct = 0;
    for (std::size_t i = 0; i < fp.size(); ++i) {
        agree += fp[i] == q8[i];
        fp_correct += fp[i] == static_cast<int>(y.at(i, 0));
        q8_correct += q8[i] == static_cast<int>(y.at(i, 0));
    }
    // Per-tensor symmetric int8 flips only boundary cases.
    EXPECT_GE(agree, fp.size() * 98 / 100);
    const double delta_pp =
        std::abs(static_cast<double>(fp_correct) - static_cast<double>(q8_correct)) *
        100.0 / static_cast<double>(fp.size());
    EXPECT_LE(delta_pp, 0.5) << "quantized accuracy drifted past the gate";
}

TEST(Quantized, OutputsAreBitwiseBackendAndThreadInvariant) {
    KernelBackendGuard kguard;
    ThreadConfigGuard tguard;
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);

    ASSERT_TRUE(kn::set_kernel_backend("scalar"));
    common::set_execution_config({.threads = 1});
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);
    const nn::Matrix ref = nn::predict(qnet, x);

    struct Config {
        const char* backend;
        std::size_t threads;
    };
    std::vector<Config> configs = {{"scalar", 2}, {"scalar", 8}};
    if (kn::avx2_supported()) {
        configs.push_back({"avx2", 1});
        configs.push_back({"avx2", 2});
        configs.push_back({"avx2", 8});
    }
    for (const Config& c : configs) {
        SCOPED_TRACE(std::string(c.backend) + " @ " +
                     std::to_string(c.threads) + "t");
        ASSERT_TRUE(kn::set_kernel_backend(c.backend));
        common::set_execution_config({.threads = c.threads});
        const nn::Matrix out = nn::predict(qnet, x);
        EXPECT_TRUE(bitwise_equal(ref, out));
    }
}

TEST(Quantized, RejectsCalibrationShapeMismatch) {
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    const nn::Matrix bad = random_matrix(8, 5, 1);  // 5 != input_size 12
    EXPECT_THROW((void)nn::quantize_mlp(net, bad), std::invalid_argument);
    const nn::Matrix empty;
    EXPECT_THROW((void)nn::quantize_mlp(net, empty), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Zero-allocation probes
// ---------------------------------------------------------------------------

TEST(KernelAlloc, WarmFloatForwardAllocatesNothingOnEveryBackend) {
    KernelBackendGuard kguard;
    ThreadConfigGuard tguard;
    common::set_execution_config({.threads = 1});
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);

    std::vector<const char*> backends = {"scalar"};
    if (kn::avx2_supported()) backends.push_back("avx2");
    for (const char* backend : backends) {
        SCOPED_TRACE(backend);
        ASSERT_TRUE(kn::set_kernel_backend(backend));
        constexpr std::size_t kBatch = 128;
        net.reserve_workspace(kBatch);
        nn::Matrix& block = net.input_buffer();
        nn::row_block_into(x, 0, kBatch, block);
        (void)net.forward_ws(block, /*cache=*/false);  // warm

        alloc::AllocationProbe probe;
        float sink = 0.0f;
        for (std::size_t b = 0; b + kBatch <= x.rows(); b += kBatch) {
            nn::row_block_into(x, b, kBatch, block);
            sink += net.forward_ws(block, /*cache=*/false).at(0, 0);
        }
        EXPECT_EQ(probe.delta(), 0u) << backend << " warm forward allocated";
        EXPECT_TRUE(std::isfinite(sink));

        // The serving shape: one row per forward.
        nn::row_block_into(x, 0, 1, block);
        (void)net.forward_ws(block, /*cache=*/false);  // warm
        alloc::AllocationProbe one_probe;
        for (std::size_t i = 0; i < 64; ++i) {
            nn::row_block_into(x, i, 1, block);
            sink += net.forward_ws(block, /*cache=*/false).at(0, 0);
        }
        EXPECT_EQ(one_probe.delta(), 0u)
            << backend << " warm 1-row forward allocated";
        EXPECT_TRUE(std::isfinite(sink));
    }
}

TEST(KernelAlloc, WarmQuantizedForwardAllocatesNothingOnEveryBackend) {
    KernelBackendGuard kguard;
    ThreadConfigGuard tguard;
    common::set_execution_config({.threads = 1});
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);

    std::vector<const char*> backends = {"scalar"};
    if (kn::avx2_supported()) backends.push_back("avx2");
    for (const char* backend : backends) {
        SCOPED_TRACE(backend);
        ASSERT_TRUE(kn::set_kernel_backend(backend));
        constexpr std::size_t kBatch = 128;
        qnet.reserve_workspace(kBatch);
        nn::Matrix& block = qnet.input_buffer();
        nn::row_block_into(x, 0, kBatch, block);
        (void)qnet.forward_ws(block);  // warm

        alloc::AllocationProbe probe;
        float sink = 0.0f;
        for (std::size_t b = 0; b + kBatch <= x.rows(); b += kBatch) {
            nn::row_block_into(x, b, kBatch, block);
            sink += qnet.forward_ws(block).at(0, 0);
        }
        EXPECT_EQ(probe.delta(), 0u) << backend
                                     << " warm int8 forward allocated";
        EXPECT_TRUE(std::isfinite(sink));
    }
}

// ---------------------------------------------------------------------------
// Serialize v3
// ---------------------------------------------------------------------------

TEST(SerializeV3, QuantizedRoundTripPreservesBits) {
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);

    std::stringstream buf;
    nn::save_quantized_mlp(qnet, buf);
    nn::QuantizedMlp loaded = nn::load_quantized_mlp(buf);

    ASSERT_EQ(loaded.layers().size(), qnet.layers().size());
    for (std::size_t i = 0; i < qnet.layers().size(); ++i) {
        const nn::QuantizedDenseLayer& a = qnet.layers()[i];
        const nn::QuantizedDenseLayer& b = loaded.layers()[i];
        EXPECT_EQ(a.in, b.in);
        EXPECT_EQ(a.out, b.out);
        EXPECT_EQ(a.act, b.act);
        EXPECT_EQ(bits32(a.in_scale), bits32(b.in_scale));
        EXPECT_EQ(bits32(a.w_scale), bits32(b.w_scale));
        EXPECT_EQ(a.weights, b.weights);
        ASSERT_EQ(a.bias.size(), b.bias.size());
        for (std::size_t j = 0; j < a.bias.size(); ++j)
            EXPECT_EQ(bits32(a.bias[j]), bits32(b.bias[j]));
    }
    // Same bits in, same bits out of inference.
    const nn::Matrix p1 = nn::predict(qnet, x);
    const nn::Matrix p2 = nn::predict(loaded, x);
    EXPECT_TRUE(bitwise_equal(p1, p2));
}

TEST(SerializeV3, CrossFormatLoadsAreRejected) {
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);

    // A float (v2) checkpoint must be refused by the quantized loader...
    std::stringstream float_buf;
    nn::save_mlp(net, float_buf);
    const auto r1 = nn::try_load_quantized_mlp(float_buf);
    EXPECT_EQ(r1.status().code(), common::StatusCode::kFormatMismatch);

    // ...and a quantized (v3) checkpoint by the float loader.
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);
    std::stringstream quant_buf;
    nn::save_quantized_mlp(qnet, quant_buf);
    const auto r2 = nn::try_load_mlp(quant_buf);
    EXPECT_EQ(r2.status().code(), common::StatusCode::kFormatMismatch);
}

TEST(SerializeV3, LegacyFloatStreamsStillLoad) {
    // v2 (current float) round-trip stays intact next to the v3 writer.
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    std::stringstream buf;
    nn::save_mlp(net, buf);
    nn::Mlp loaded = nn::load_mlp(buf);
    loaded.set_training(false);
    const nn::Matrix p1 = nn::predict(net, x);
    const nn::Matrix p2 = nn::predict(loaded, x);
    EXPECT_TRUE(bitwise_equal(p1, p2));

    // v1 stream (no size/CRC framing): quantized loader refuses it with
    // kFormatMismatch, float loader still accepts it
    // (test_nn_serialize.cpp::LegacyV1StreamStillLoads).
    std::stringstream v1;
    v1.write("WSNN", 4);
    const std::uint32_t version = 1;
    v1.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::uint64_t layer_count = 0;
    v1.write(reinterpret_cast<const char*>(&layer_count), sizeof(layer_count));
    const auto r = nn::try_load_quantized_mlp(v1);
    EXPECT_EQ(r.status().code(), common::StatusCode::kFormatMismatch);
}

TEST(SerializeV3, CorruptQuantizedCheckpointIsDetected) {
    nn::Matrix x, y;
    nn::Mlp net = trained_net(x, y);
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);
    std::stringstream buf;
    nn::save_quantized_mlp(qnet, buf);
    std::string bytes = buf.str();
    bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
    std::stringstream corrupted(bytes);
    const auto r = nn::try_load_quantized_mlp(corrupted);
    EXPECT_EQ(r.status().code(), common::StatusCode::kCorruptData);

    std::stringstream cut(buf.str().substr(0, bytes.size() - 8));
    const auto r2 = nn::try_load_quantized_mlp(cut);
    EXPECT_EQ(r2.status().code(), common::StatusCode::kTruncated);
}

}  // namespace
