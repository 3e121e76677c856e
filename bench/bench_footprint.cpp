// Reproduces the Section IV-B model footprint and timing claims: parameter
// count, weight size, single-sample inference latency (paper: 10.781
// ms/sample on their setup), and a float forward batch sweep (batch
// 1/64/256/1024) on every supported kernel backend.
//
// On AVX2 hosts it also times the training step stage by stage: the steady
// trainer step at batch 256 (train_step_us_avx2) and, per paper layer
// shape, the forward / weight-gradient (tn) / input-gradient (nt) GEMMs in
// microseconds and GF/s next to a measured FMA roofline.
//
// Also records the memory behaviour of the hot path (BENCH_footprint.json):
// heap allocation counts for a warm training epoch / steady training step /
// warm predict pass (the workspace refactor pins the steady-state counts at
// zero) and the process peak RSS. Allocation counts come from the
// wifisense_alloc_counter operator-new replacement linked into this binary.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/alloc_counter.hpp"
#include "core/occupancy_detector.hpp"
#include "data/dataset.hpp"
#include "nn/kernels/backend.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/quant.hpp"
#include "nn/trainer.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace {

using namespace wifisense;

nn::Mlp make_net(std::size_t inputs) {
    std::mt19937_64 rng(42);
    return nn::paper_mlp(inputs, rng);
}

nn::Matrix random_batch(std::size_t rows, std::size_t cols) {
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix m(rows, cols);
    for (float& v : m.data()) v = u(rng);
    return m;
}

nn::Matrix random_labels(std::size_t rows) {
    nn::Matrix y(rows, 1);
    for (std::size_t i = 0; i < rows; ++i) y.at(i, 0) = static_cast<float>(i % 2);
    return y;
}

double peak_rss_mib() {
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB -> MiB
}

/// Single-sample latency is averaged over this many warm forwards.
constexpr int kSingleSampleReps = 2000;

/// Timed results land here so the compiler cannot drop the work.
volatile float g_sink = 0.0f;

void sink(const nn::Matrix& m) { g_sink = m.data()[0]; }

/// Mean wall time of one warm call of `fn`, in microseconds: one untimed
/// call first, so workspace growth stays out of the number.
template <class Fn>
double warm_call_us(int reps, Fn&& fn) {
    fn();
    const std::uint64_t t0 = common::trace_now_ns();
    for (int i = 0; i < reps; ++i) fn();
    return 1e6 * common::trace_seconds_since(t0) / reps;
}

/// Allocation + wall-clock profile of nn::train on a synthetic problem:
/// one warm-up epoch (workspace + optimizer-state growth), then a measured
/// epoch whose per-step loop should not touch the heap at all.
void record_training_profile(wifisense::bench::BenchReport& report) {
    constexpr std::size_t kRows = 10'000, kBatch = 256;
    nn::Mlp net = make_net(64);
    const nn::Matrix x = random_batch(kRows, 64);
    const nn::Matrix y = random_labels(kRows);
    const nn::BceWithLogitsLoss loss;

    nn::TrainConfig cfg;
    cfg.epochs = 1;
    cfg.batch_size = kBatch;
    cfg.seed = 5;
    nn::train(net, x, y, loss, cfg);  // warm-up epoch

    alloc::AllocationProbe epoch_probe;
    const std::uint64_t t0 = common::trace_now_ns();
    nn::train(net, x, y, loss, cfg);
    const double epoch_s = common::trace_seconds_since(t0);
    // Per-call scaffolding (shuffle order, parameter views, history) is the
    // only remaining heap traffic; the per-step loop contributes zero.
    const double epoch_allocs = static_cast<double>(epoch_probe.delta());
    report.metric("train_epoch_wall_s", epoch_s);
    report.metric("train_epoch_allocs", epoch_allocs);
    report.metric("train_epoch_steps",
                  std::ceil(static_cast<double>(kRows) / kBatch));

    // Steady-state step: trainer-equivalent loop bracketed by the probe.
    nn::AdamW opt;
    std::vector<nn::ParamView> params = net.parameters();
    net.set_training(true);
    net.reserve_workspace(kBatch);
    std::vector<std::size_t> idx(kBatch);
    nn::Matrix by;
    by.reserve(kBatch, 1);
    const auto step = [&](std::size_t s) {
        for (std::size_t i = 0; i < kBatch; ++i) idx[i] = (s * kBatch + i) % kRows;
        nn::Matrix& bx = net.input_buffer();
        nn::gather_rows_into(x, idx, bx);
        nn::gather_rows_into(y, idx, by);
        net.zero_grad();
        const nn::Matrix& out = net.forward_ws(bx, /*cache=*/true);
        loss.compute_into(out, by, net.output_grad_buffer());
        net.backward_ws();
        opt.step(params);
    };
    step(0);
    step(1);
    alloc::AllocationProbe step_probe;
    step(2);
    const double step_allocs = static_cast<double>(step_probe.delta());
    report.metric("steady_step_allocs", step_allocs);

    // Steady step wall time on AVX2: the same loop, warm, at batch 256.
    if (nn::kernels::avx2_supported()) {
        const std::string startup = nn::kernels::active_backend().name;
        nn::kernels::set_kernel_backend("avx2");
        std::size_t s = 3;
        const double step_us = warm_call_us(40, [&] { step(s++); });
        report.metric("train_step_us_avx2", step_us);
        std::printf("steady train step (avx2, batch %zu): %.0f us\n", kBatch,
                    step_us);
        nn::kernels::set_kernel_backend(startup);
    }

    // Warm predict pass: the output matrix is the only expected allocation.
    (void)nn::predict(net, x, 4096);
    alloc::AllocationProbe predict_probe;
    (void)nn::predict(net, x, 4096);
    const double predict_allocs = static_cast<double>(predict_probe.delta());
    report.metric("warm_predict_allocs", predict_allocs);

    std::printf(
        "heap profile: warm training epoch %g allocs over %zu steps "
        "(%.3f s), steady step %g allocs, warm predict pass %g allocs\n\n",
        epoch_allocs, (kRows + kBatch - 1) / kBatch, epoch_s, step_allocs,
        predict_allocs);
}

/// Warm batched-predict throughput (samples/sec) on the active backend.
double predict_throughput(nn::Mlp& net, const nn::Matrix& x) {
    net.set_training(false);
    const double us =
        warm_call_us(50, [&] { sink(net.forward_ws(x, /*cache=*/false)); });
    return 1e6 * static_cast<double>(x.rows()) / us;
}

/// Single-sample warm inference latency (microseconds) on the active backend.
double inference_us(nn::Mlp& net, const nn::Matrix& one) {
    net.set_training(false);
    return warm_call_us(kSingleSampleReps,
                        [&] { sink(net.forward_ws(one, /*cache=*/false)); });
}

/// Float forward batch sweep on the active backend: samples/sec at batch
/// 1/64/256/1024. Every call forwards fresh rows from a 16k-row pool, as
/// serving does; one repeated row is kinder to branch predictors than real
/// traffic.
void record_batch_sweep(wifisense::bench::BenchReport& report, nn::Mlp& net,
                        const char* backend) {
    constexpr std::size_t kPoolRows = 16384;
    const nn::Matrix pool = random_batch(kPoolRows, net.input_size());
    nn::Matrix block;
    net.set_training(false);
    std::printf("  %s batch sweep:", backend);
    for (const std::size_t batch : {1, 64, 256, 1024}) {
        std::size_t next = 0;
        const double us =
            warm_call_us(static_cast<int>(kPoolRows / batch), [&] {
                nn::row_block_into(pool, next, batch, block);
                next = (next + batch) % kPoolRows;
                sink(net.forward_ws(block, /*cache=*/false));
            });
        const double sps = 1e6 * static_cast<double>(batch) / us;
        report.metric("forward_samples_per_sec_b" + std::to_string(batch) +
                          "_" + backend,
                      sps);
        std::printf(" b%zu %.3g/s", batch, sps);
    }
    std::printf("\n");
}

/// Per-backend kernel profile: float throughput/latency on every supported
/// backend plus the int8 quantized path, each with a warm-forward
/// zero-allocation probe. The startup backend is restored afterwards.
void record_kernel_backends(wifisense::bench::BenchReport& report) {
    constexpr std::size_t kRows = 4096;
    nn::Mlp net = make_net(64);
    net.set_training(false);
    const nn::Matrix x = random_batch(kRows, 64);
    const nn::Matrix one = random_batch(1, 64);
    const std::string startup = nn::kernels::active_backend().name;

    nn::kernels::set_kernel_backend("scalar");
    const double scalar_sps = predict_throughput(net, x);
    report.metric("predict_samples_per_sec_scalar", scalar_sps);
    std::printf("kernel backends (cpu: %s):\n  scalar: %.3g samples/s\n",
                common::cpu_feature_string().c_str(), scalar_sps);
    record_batch_sweep(report, net, "scalar");

    if (nn::kernels::avx2_supported()) {
        nn::kernels::set_kernel_backend("avx2");
        const double avx2_sps = predict_throughput(net, x);
        report.metric("predict_samples_per_sec_avx2", avx2_sps);
        report.metric("inference_us_per_sample_avx2", inference_us(net, one));
        (void)net.forward_ws(x, /*cache=*/false);
        alloc::AllocationProbe probe;
        (void)net.forward_ws(x, /*cache=*/false);
        report.metric("warm_forward_allocs_avx2",
                      static_cast<double>(probe.delta()));
        std::printf("  avx2:   %.3g samples/s (%.1fx scalar)\n", avx2_sps,
                    avx2_sps / scalar_sps);
        record_batch_sweep(report, net, "avx2");
    } else {
        std::printf("  avx2:   unsupported on this CPU\n");
    }
    // int8 quantized inference, measured on the fastest supported backend —
    // outputs are bitwise backend-independent (nn/quant.hpp), so "auto" only
    // changes the wall clock, never the recorded accuracy story. Calibrate
    // on the bench batch itself: for a footprint timing run the scales only
    // need to be representative.
    nn::kernels::set_kernel_backend("auto");
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);
    report.metric("quant_weight_kib",
                  static_cast<double>(qnet.weight_bytes()) / 1024.0);
    qnet.reserve_workspace(kRows);
    (void)qnet.forward_ws(x);  // warm
    {
        alloc::AllocationProbe probe;
        (void)qnet.forward_ws(x);
        report.metric("warm_forward_allocs_int8",
                      static_cast<double>(probe.delta()));
    }
    const double int8_sps =
        1e6 * static_cast<double>(kRows) /
        warm_call_us(50, [&] { sink(qnet.forward_ws(x)); });
    report.metric("predict_samples_per_sec_int8", int8_sps);
    report.metric("inference_us_per_sample_int8",
                  warm_call_us(kSingleSampleReps,
                               [&] { sink(qnet.forward_ws(one)); }));
    std::printf(
        "  int8:   %.3g samples/s (%.1fx scalar float, %s backend), "
        "weights %.2f KiB\n\n",
        int8_sps, int8_sps / scalar_sps, nn::kernels::active_backend().name,
        static_cast<double>(qnet.weight_bytes()) / 1024.0);
    nn::kernels::set_kernel_backend(startup);
}

#if defined(__x86_64__) || defined(_M_X64)
/// Measured FMA roofline of one core in GF/s: twelve independent 8-lane FMA
/// chains, enough to keep both FMA ports busy through the FMA latency. The
/// best of five runs, so a scheduler hiccup does not lower the peak.
__attribute__((target("avx2,fma"))) double fma_peak_gflops() {
    constexpr int kIters = 1'000'000;
    const __m256 x = _mm256_set1_ps(0.999f), y = _mm256_set1_ps(1e-3f);
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        __m256 a0 = _mm256_set1_ps(0.1f), a1 = _mm256_set1_ps(0.2f);
        __m256 a2 = _mm256_set1_ps(0.3f), a3 = _mm256_set1_ps(0.4f);
        __m256 a4 = _mm256_set1_ps(0.5f), a5 = _mm256_set1_ps(0.6f);
        __m256 a6 = _mm256_set1_ps(0.7f), a7 = _mm256_set1_ps(0.8f);
        __m256 a8 = _mm256_set1_ps(0.9f), a9 = _mm256_set1_ps(1.0f);
        __m256 a10 = _mm256_set1_ps(1.1f), a11 = _mm256_set1_ps(1.2f);
        const std::uint64_t t0 = common::trace_now_ns();
        for (int i = 0; i < kIters; ++i) {
            a0 = _mm256_fmadd_ps(a0, x, y);
            a1 = _mm256_fmadd_ps(a1, x, y);
            a2 = _mm256_fmadd_ps(a2, x, y);
            a3 = _mm256_fmadd_ps(a3, x, y);
            a4 = _mm256_fmadd_ps(a4, x, y);
            a5 = _mm256_fmadd_ps(a5, x, y);
            a6 = _mm256_fmadd_ps(a6, x, y);
            a7 = _mm256_fmadd_ps(a7, x, y);
            a8 = _mm256_fmadd_ps(a8, x, y);
            a9 = _mm256_fmadd_ps(a9, x, y);
            a10 = _mm256_fmadd_ps(a10, x, y);
            a11 = _mm256_fmadd_ps(a11, x, y);
        }
        const double s = common::trace_seconds_since(t0);
        const __m256 sum = _mm256_add_ps(
            _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)),
            _mm256_add_ps(
                _mm256_add_ps(_mm256_add_ps(a4, a5), _mm256_add_ps(a6, a7)),
                _mm256_add_ps(_mm256_add_ps(a8, a9), _mm256_add_ps(a10, a11))));
        g_sink = _mm256_cvtss_f32(sum);
        best = std::max(best, 12.0 * 8 * 2 * kIters / s / 1e9);
    }
    return best;
}

/// One training step's float GEMMs, stage by stage, on AVX2 at batch 256:
/// per paper layer shape the forward, weight-gradient (tn) and
/// input-gradient (nt) kernels, as the trainer calls them through the
/// tensor layer. Operands are the paper network's own: each layer's input
/// is the previous layer's post-ReLU output, and its output gradient is
/// zero wherever its own ReLU output is (the logit gradient is dense). GF/s counts
/// 2*m*k*n; the forward and tn kernels skip zero inputs, so on post-ReLU
/// layers they can exceed the dense roofline.
void record_gemm_stages(wifisense::bench::BenchReport& report) {
    if (!nn::kernels::avx2_supported()) return;
    constexpr std::size_t kBatch = 256;
    constexpr std::size_t kDims[] = {64, 128, 256, 128, 1};
    const std::string startup = nn::kernels::active_backend().name;
    nn::kernels::set_kernel_backend("avx2");
    const double peak = fma_peak_gflops();
    report.metric("fma_peak_gflops_avx2", peak);
    std::printf("float GEMM stages (avx2, batch %zu, FMA roofline %.1f GF/s):\n",
                kBatch, peak);

    nn::Mlp net = make_net(kDims[0]);
    const std::vector<nn::ParamView> params = net.parameters();
    nn::Matrix act = random_batch(kBatch, kDims[0]);
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix w, next, grad, fwd, gw, gin;
    for (std::size_t l = 0; l + 1 < std::size(kDims); ++l) {
        const std::size_t in = kDims[l], out = kDims[l + 1];
        const bool logit = l + 2 == std::size(kDims);
        w.resize(in, out);
        std::copy(params[2 * l].values.begin(), params[2 * l].values.end(),
                  w.data().begin());
        nn::dense_forward_into(act, w, params[2 * l + 1].values,
                               logit ? nn::kernels::Activation::kNone
                                     : nn::kernels::Activation::kReLU,
                               next);
        grad.resize(kBatch, out);
        for (std::size_t i = 0; i < grad.size(); ++i)
            grad.data()[i] = logit || next.data()[i] > 0.0f ? u(rng) : 0.0f;

        const double flop = 2.0 * kBatch * in * out;
        const double us[3] = {
            warm_call_us(50, [&] { nn::matmul_into(act, w, fwd); }),
            warm_call_us(50, [&] { nn::matmul_tn_into(act, grad, gw); }),
            warm_call_us(50, [&] { nn::matmul_nt_into(grad, w, gin); }),
        };
        const char* stage[3] = {"fwd", "tn", "nt"};
        const std::string shape = std::to_string(in) + "x" + std::to_string(out);
        std::printf("  %-8s", shape.c_str());
        for (int s = 0; s < 3; ++s) {
            const double gflops = flop / us[s] / 1e3;
            report.metric(std::string("gemm_gflops_") + stage[s] + "_" + shape +
                              "_avx2",
                          gflops);
            std::printf("  %s %7.1f us %5.1f GF/s (%3.0f%%)", stage[s], us[s],
                        gflops, 100.0 * gflops / peak);
        }
        std::printf("\n");
        act = next;
    }
    std::printf("\n");
    nn::kernels::set_kernel_backend(startup);
}
#else
void record_gemm_stages(wifisense::bench::BenchReport&) {}
#endif

}  // namespace

int main(int argc, char** argv) {
    wifisense::bench::configure_observability(argc, argv);
    wifisense::bench::BenchReport report("footprint");
    {
        nn::Mlp net = make_net(64);
        std::printf(
            "model footprint (Section IV-B): %zu trainable parameters, "
            "%.2f KiB float32 weights\n"
            "paper: per-layer counts 8320/33024/32896/129 => 74369 params; "
            "stated size 15.18 KiB implies int8 quantization (not replicated); "
            "stated inference 10.781 ms/sample.\n\n",
            net.parameter_count(),
            static_cast<double>(net.weight_bytes()) / 1024.0);
        report.metric("params", static_cast<double>(net.parameter_count()));
        report.metric("weight_kib",
                      static_cast<double>(net.weight_bytes()) / 1024.0);

        // Single-sample latency and batched throughput on the startup
        // backend — the headline numbers the perf gates in CI track.
        const nn::Matrix x = random_batch(1, net.input_size());
        report.metric("inference_us_per_sample", inference_us(net, x));
        report.set_rows(kSingleSampleReps);
        const nn::Matrix batch = random_batch(4096, net.input_size());
        report.metric("predict_samples_per_sec", predict_throughput(net, batch));
    }
    record_kernel_backends(report);
    record_gemm_stages(report);
    record_training_profile(report);
    report.metric("peak_rss_mib", peak_rss_mib());
    std::printf("peak RSS: %.1f MiB\n", peak_rss_mib());
    report.write();
    return 0;
}
