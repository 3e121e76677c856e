// Reproduces the Section IV-B model footprint and timing claims: parameter
// count, weight size, single-sample inference latency (paper: 10.781
// ms/sample on their setup), and a float forward batch sweep (batch
// 1/64/256/1024) on every supported kernel backend.
//
// On AVX2 hosts it also times the training step stage by stage: the steady
// trainer step at batch 256 on the detector's recipe (train_step_us_avx2),
// then each of its stages alone (step_us_<stage>_avx2: gather, input noise,
// zero_grad, per layer GEMM / bias / ReLU forward, loss, per layer ReLU
// backward / tn / column sums / nt, AdamW), with the GEMMs also in GF/s
// next to a measured FMA roofline.
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
#include "common/rng.hpp"
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

/// The trainer's steady step as nn::train runs it for the detector (batch
/// 256, input noise 0.3, parameters-only backward, AdamW; no clipping), over
/// a fixed 10k-row problem. The allocation probe and the AVX2 step timing
/// and stage breakdown all drive this one replica.
struct StepReplica {
    static constexpr std::size_t kRows = 10'000, kBatch = 256;
    static constexpr float kInputNoise = 0.3f;  // core::DetectorConfig's

    nn::Mlp net = make_net(64);
    const nn::Matrix x = random_batch(kRows, 64);
    const nn::Matrix y = random_labels(kRows);
    const nn::BceWithLogitsLoss loss;
    nn::AdamW opt;
    std::vector<nn::ParamView> params = net.parameters();
    std::vector<std::size_t> idx = std::vector<std::size_t>(kBatch);
    nn::Matrix by;
    common::BulkMt19937_64 rng{5};
    std::size_t next = 0;

    StepReplica() {
        net.set_training(true);
        net.reserve_workspace(kBatch);
        by.reserve(kBatch, 1);
    }

    void gather_batch() {
        nn::gather_rows_into(x, idx, net.input_buffer());
        nn::gather_rows_into(y, idx, by);
    }

    void step_once() {
        for (std::size_t i = 0; i < kBatch; ++i) idx[i] = (next * kBatch + i) % kRows;
        ++next;
        gather_batch();
        common::add_normal_noise(net.input_buffer().data(), kInputNoise, rng);
        net.zero_grad();
        const nn::Matrix& out = net.forward_ws(net.input_buffer(), /*cache=*/true);
        loss.compute_into(out, by, net.output_grad_buffer());
        net.backward_params_ws();
        opt.step(params);
    }
};

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

    // Steady-state step: the trainer-equivalent step bracketed by the probe.
    StepReplica replica;
    replica.step_once();
    replica.step_once();
    alloc::AllocationProbe step_probe;
    replica.step_once();
    const double step_allocs = static_cast<double>(step_probe.delta());
    report.metric("steady_step_allocs", step_allocs);

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

/// The steady AVX2 training step at batch 256, whole (train_step_us_avx2)
/// and stage by stage: gather, input noise, zero_grad, per Dense layer the
/// forward GEMM, bias and ReLU, the loss, per Dense layer (top down) the
/// ReLU backward, weight-gradient (tn) GEMM, bias column sums and input-
/// gradient (nt) GEMM (none for the first layer: the trainer's backward is
/// parameters-only), and AdamW. Each stage is timed warm and alone on the
/// operands of a real step: the replica's own activations and gradients.
/// The GEMM stages also report GF/s (2*m*k*n) next to a measured FMA
/// roofline; the forward and tn kernels skip zero inputs, so on post-ReLU
/// layers they can exceed the dense roofline.
void record_step_stages(wifisense::bench::BenchReport& report) {
    if (!nn::kernels::avx2_supported()) return;
    constexpr int kReps = 50;
    const std::string startup = nn::kernels::active_backend().name;
    nn::kernels::set_kernel_backend("avx2");
    const double peak = fma_peak_gflops();
    report.metric("fma_peak_gflops_avx2", peak);

    StepReplica r;
    const double step_us = warm_call_us(40, [&] { r.step_once(); });
    report.metric("train_step_us_avx2", step_us);
    std::printf("steady train step (avx2, batch %zu, FMA roofline %.1f GF/s): "
                "%.0f us\n",
                StepReplica::kBatch, peak, step_us);

    double sum_us = 0.0;
    const auto stage = [&](const std::string& key, double flop, auto&& fn) {
        const double us = warm_call_us(kReps, fn);
        sum_us += us;
        report.metric("step_us_" + key + "_avx2", us);
        std::printf("  %-22s %8.1f us", key.c_str(), us);
        if (flop > 0.0) std::printf("  %5.1f GF/s (%3.0f%%)", flop / us / 1e3,
                                    100.0 * flop / us / 1e3 / peak);
        std::printf("\n");
        return us;
    };
    const auto gflops = [&](const char* kind, const std::string& shape,
                            double flop, double us) {
        report.metric(std::string("gemm_gflops_") + kind + "_" + shape + "_avx2",
                      flop / us / 1e3);
    };

    // The operands of one real step: after it, every layer's cached views
    // hold its forward output and backward output gradient.
    r.step_once();
    const auto& layers = r.net.layers();
    const std::size_t dense_count = (layers.size() + 1) / 2;
    const nn::Matrix bx = r.net.input_buffer();  // layer 0's input
    nn::Matrix noisy = bx;
    stage("gather", 0.0, [&] { r.gather_batch(); });
    stage("noise", 0.0, [&] {
        common::add_normal_noise(noisy.data(), StepReplica::kInputNoise, r.rng);
    });
    stage("zero_grad", 0.0, [&] { r.net.zero_grad(); });

    nn::Matrix pre, post, gw, gin;
    std::vector<float> gb;
    for (std::size_t l = 0; l < dense_count; ++l) {
        const auto& dense = static_cast<const nn::Dense&>(*layers[2 * l]);
        const nn::Matrix& in = l == 0 ? bx : layers[2 * l - 1]->last_output();
        const std::string shape = std::to_string(dense.input_size()) + "x" +
                                  std::to_string(dense.output_size());
        const double flop = 2.0 * StepReplica::kBatch * dense.input_size() *
                            dense.output_size();
        gflops("fwd", shape, flop, stage("fwd_gemm_" + shape, flop, [&] {
                   nn::matmul_into(in, dense.weights(), pre);
               }));
        stage("fwd_bias_" + shape, 0.0,
              [&] { nn::add_row_vector_inplace(pre, dense.bias()); });
        nn::matmul_into(in, dense.weights(), pre);  // the real pre-activation
        nn::add_row_vector_inplace(pre, dense.bias());
        if (2 * l + 1 < layers.size()) {
            nn::ReLU relu(dense.output_size());
            stage("relu_fwd_" + shape, 0.0,
                  [&] { relu.forward_into(pre, post, /*cache=*/true); });
        }
    }
    stage("loss", 0.0, [&] {
        r.loss.compute_into(layers.back()->last_output(), r.by, gin);
    });

    for (std::size_t l = dense_count; l-- > 0;) {
        const auto& dense = static_cast<const nn::Dense&>(*layers[2 * l]);
        const std::size_t out = dense.output_size();
        const std::string shape = std::to_string(dense.input_size()) + "x" +
                                  std::to_string(out);
        const double flop = 2.0 * StepReplica::kBatch * dense.input_size() * out;
        if (2 * l + 1 < layers.size()) {
            const nn::Layer& act = *layers[2 * l + 1];
            // ReLU is idempotent: forwarding the real activations caches
            // them as this ReLU's output, which its backward reads.
            nn::ReLU relu(out);
            relu.forward_into(act.last_output(), post, /*cache=*/true);
            stage("relu_bwd_" + shape, 0.0, [&] {
                relu.backward_into(act.last_output_grad(), gin);
            });
        }
        const nn::Matrix& in = l == 0 ? bx : layers[2 * l - 1]->last_output();
        const nn::Matrix& gout = layers[2 * l]->last_output_grad();
        gw.resize(dense.input_size(), out);
        gb.assign(out, 0.0f);
        gflops("tn", shape, flop, stage("bwd_tn_" + shape, flop, [&] {
                   nn::matmul_tn_into(in, gout, gw, /*accumulate=*/true);
               }));
        stage("bwd_colsum_" + shape, 0.0,
              [&] { nn::column_sums_into(gout, gb, /*accumulate=*/true); });
        if (l > 0)
            gflops("nt", shape, flop, stage("bwd_nt_" + shape, flop, [&] {
                       nn::matmul_nt_into(gout, dense.weights(), gin);
                   }));
    }
    stage("adamw", 0.0, [&] { r.opt.step(r.params); });
    report.metric("step_us_stage_sum_avx2", sum_us);
    std::printf("  %-22s %8.1f us (whole step %.0f us)\n\n", "sum of stages",
                sum_us, step_us);
    nn::kernels::set_kernel_backend(startup);
}
#else
void record_step_stages(wifisense::bench::BenchReport&) {}
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
    record_step_stages(report);
    record_training_profile(report);
    report.metric("peak_rss_mib", peak_rss_mib());
    std::printf("peak RSS: %.1f MiB\n", peak_rss_mib());
    report.write();
    return 0;
}
