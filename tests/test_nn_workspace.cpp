// Zero-allocation hot path + bitwise determinism of the workspace refactor.
//
// Golden values: the hex constants below were captured from the
// pre-workspace implementation (value-returning forward/backward, allocating
// kernels) running this exact scenario at 1, 2 and 8 threads — all three
// configurations produced identical bits. The workspace implementation must
// keep reproducing them: any change in accumulation order, RNG draw order or
// batch decomposition shows up here as a bit mismatch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/parallel.hpp"
#include "nn/kernels/backend.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace wifisense;

std::uint32_t bits32(float f) {
    std::uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

std::uint64_t bits64(double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, 8);
    return u;
}

/// Deterministic toy problem: 600 samples, 12 features, y = [x0*x1 > 0].
void make_dataset(nn::Matrix& x, nn::Matrix& y) {
    std::mt19937_64 drng(123);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    x.resize(600, 12);
    y.resize(600, 1);
    for (float& v : x.data()) v = u(drng);
    for (std::size_t i = 0; i < y.rows(); ++i)
        y.at(i, 0) = (x.at(i, 0) * x.at(i, 1) > 0.0f) ? 1.0f : 0.0f;
}

nn::TrainConfig golden_config() {
    nn::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 128;
    cfg.input_noise = 0.25;
    cfg.grad_clip = 5.0;
    cfg.seed = 77;
    return cfg;
}

/// Restores the pool configuration on scope exit.
class ThreadConfigGuard {
public:
    ThreadConfigGuard() : saved_(common::execution_config()) {}
    ~ThreadConfigGuard() { common::set_execution_config(saved_); }

private:
    common::ExecutionConfig saved_;
};

// Captured from the pre-workspace implementation (see file comment).
constexpr std::uint64_t kGoldenEpochLoss[3] = {
    0x3fe9e43d896f7a38ull, 0x3fe7c58bbe84f9b1ull, 0x3fe6e10ee323b57eull};
constexpr std::uint32_t kGoldenLogits[7] = {
    0x3d71124au, 0x3e1e905eu, 0xbc6bdc0du, 0xbe8b1205u,
    0xba936700u, 0x3c37b53cu, 0xbf6e713eu};
constexpr std::uint32_t kGoldenWeightsXor = 0x3c1afaa0u;

/// Restores the kernel backend on scope exit.
class KernelBackendGuard {
public:
    KernelBackendGuard() : saved_(nn::kernels::active_backend().name) {}
    ~KernelBackendGuard() { nn::kernels::set_kernel_backend(saved_); }

private:
    std::string saved_;
};

/// Everything the golden scenario produces, as bits.
struct GoldenRun {
    std::vector<std::uint64_t> epoch_loss;
    std::vector<std::uint32_t> logits;   // every row of the predict pass
    std::vector<std::uint32_t> weights;  // every parameter, in order
};

GoldenRun run_golden_scenario(std::size_t threads) {
    common::set_execution_config({.threads = threads});
    nn::Matrix x, y;
    make_dataset(x, y);
    const nn::BceWithLogitsLoss loss;
    std::mt19937_64 rng(9);
    nn::Mlp net({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);
    const nn::TrainHistory h = nn::train(net, x, y, loss, golden_config());

    GoldenRun run;
    for (const double l : h.epoch_loss) run.epoch_loss.push_back(bits64(l));
    const nn::Matrix logits = nn::predict(net, x, 256);
    for (const float v : logits.data()) run.logits.push_back(bits32(v));
    for (nn::ParamView& p : net.parameters())
        for (const float v : p.values) run.weights.push_back(bits32(v));
    return run;
}

// The goldens are scalar-reference bits, so the backend is pinned here
// whatever WIFISENSE_KERNELS selected.
TEST(WorkspaceGolden, TrainingBitwiseIdenticalAcrossThreadCounts) {
    ThreadConfigGuard guard;
    KernelBackendGuard kguard;
    ASSERT_TRUE(nn::kernels::set_kernel_backend("scalar"));

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const GoldenRun run = run_golden_scenario(threads);

        ASSERT_EQ(run.epoch_loss.size(), 3u);
        for (std::size_t e = 0; e < 3; ++e)
            EXPECT_EQ(run.epoch_loss[e], kGoldenEpochLoss[e]) << "epoch " << e;

        for (std::size_t i = 0, g = 0; i < run.logits.size(); i += 97, ++g)
            EXPECT_EQ(run.logits[i], kGoldenLogits[g]) << "row " << i;

        std::uint32_t wx = 0;
        for (const std::uint32_t w : run.weights) wx ^= w;
        EXPECT_EQ(wx, kGoldenWeightsXor);
    }

    // AVX2 rounds differently from the scalar goldens (FMA), but the same
    // scenario must still produce the same bits at every thread count.
    if (!nn::kernels::avx2_supported()) return;
    ASSERT_TRUE(nn::kernels::set_kernel_backend("avx2"));
    const GoldenRun ref = run_golden_scenario(1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("avx2 threads=" + std::to_string(threads));
        const GoldenRun run = run_golden_scenario(threads);
        EXPECT_EQ(run.epoch_loss, ref.epoch_loss);
        EXPECT_EQ(run.logits, ref.logits);
        EXPECT_EQ(run.weights, ref.weights);
    }
}

/// Replica of the trainer's inner loop (gather, jitter, forward, loss,
/// backward, clip, step) so the allocation probe can bracket exactly one
/// steady-state step.
class WorkspaceAllocTest : public ::testing::Test {
protected:
    void SetUp() override {
        common::set_execution_config({.threads = 1});
        make_dataset(x_, y_);
        std::mt19937_64 rng(9);
        net_ = nn::Mlp({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);
        params_ = net_.parameters();
        net_.set_training(true);
        net_.reserve_workspace(kBatch);
        by_.reserve(kBatch, y_.cols());
        order_.resize(x_.rows());
        for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    }

    void TearDown() override { common::set_execution_config(saved_.saved()); }

    void training_step(std::size_t step) {
        const std::size_t begin = (step * kBatch) % (x_.rows() - kBatch);
        const std::span<const std::size_t> idx(&order_[begin], kBatch);
        nn::Matrix& bx = net_.input_buffer();
        nn::gather_rows_into(x_, idx, bx);
        nn::gather_rows_into(y_, idx, by_);
        std::normal_distribution<float> jitter(0.0f, 0.25f);
        for (float& v : bx.data()) v += jitter(rng_);

        net_.zero_grad();
        const nn::Matrix& out = net_.forward_ws(bx, /*cache=*/true);
        loss_.compute_into(out, by_, net_.output_grad_buffer());
        net_.backward_ws();
        clip(5.0);
        opt_.step(params_);
    }

    void clip(double max_norm) {
        double sq = 0.0;
        for (const nn::ParamView& p : params_)
            for (const float g : p.grads) sq += static_cast<double>(g) * g;
        const double norm = std::sqrt(sq);
        if (norm <= max_norm || norm == 0.0) return;
        const auto scale = static_cast<float>(max_norm / norm);
        for (nn::ParamView& p : params_)
            for (float& g : p.grads) g *= scale;
    }

    static constexpr std::size_t kBatch = 128;

    class SavedConfig {
    public:
        SavedConfig() : cfg_(common::execution_config()) {}
        common::ExecutionConfig saved() const { return cfg_; }

    private:
        common::ExecutionConfig cfg_;
    };

    SavedConfig saved_;  // captured before SetUp reconfigures the pool
    nn::Matrix x_, y_, by_;
    nn::Mlp net_;
    std::vector<nn::ParamView> params_;
    nn::BceWithLogitsLoss loss_;
    nn::AdamW opt_;
    std::mt19937_64 rng_{77};
    std::vector<std::size_t> order_;
};

TEST_F(WorkspaceAllocTest, SteadyStateTrainingStepAllocatesNothing) {
    // Step 0 warms the workspace resize paths and the AdamW moment buffers;
    // step 1 confirms warm. Steps 2..4 must be allocation-free.
    training_step(0);
    training_step(1);
    alloc::AllocationProbe probe;
    training_step(2);
    training_step(3);
    training_step(4);
    const std::uint64_t allocs = probe.delta();
    EXPECT_EQ(allocs, 0u) << "steady-state training steps touched the heap";
}

TEST_F(WorkspaceAllocTest, WarmPredictBatchAllocatesNothing) {
    net_.set_training(false);
    // Warm-up: sizes the workspace for the predict batch shape.
    nn::Matrix& block = net_.input_buffer();
    nn::row_block_into(x_, 0, kBatch, block);
    (void)net_.forward_ws(block, /*cache=*/false);

    alloc::AllocationProbe probe;
    float sink = 0.0f;
    for (std::size_t begin = 0; begin + kBatch <= x_.rows(); begin += kBatch) {
        nn::row_block_into(x_, begin, kBatch, block);
        const nn::Matrix& out = net_.forward_ws(block, /*cache=*/false);
        sink += out.at(0, 0);
    }
    const std::uint64_t allocs = probe.delta();
    EXPECT_EQ(allocs, 0u) << "warm inference batches touched the heap";
    EXPECT_TRUE(std::isfinite(sink));
}

TEST_F(WorkspaceAllocTest, WarmPredictCallAllocatesOnlyTheResult) {
    (void)nn::predict(net_, x_, kBatch);  // warm-up sizes the workspace
    alloc::AllocationProbe probe;
    const nn::Matrix out = nn::predict(net_, x_, kBatch);
    const std::uint64_t allocs = probe.delta();
    // The output matrix is the only allocation a warm predict makes.
    EXPECT_EQ(allocs, 1u);
    EXPECT_EQ(out.rows(), x_.rows());
}

TEST(InferenceMode, PredictLeavesActivationCachesEmpty) {
    nn::Matrix x, y;
    make_dataset(x, y);
    std::mt19937_64 rng(9);
    nn::Mlp net({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);

    (void)nn::predict(net, x, 256);
    for (const auto& layer : net.layers()) {
        EXPECT_TRUE(layer->last_output().empty())
            << layer->name() << " cached activations in inference mode";
        EXPECT_TRUE(layer->last_output_grad().empty());
    }

    // A cached (training-style) forward populates the caches again.
    (void)net.forward_ws(x, /*cache=*/true);
    for (const auto& layer : net.layers())
        EXPECT_FALSE(layer->last_output().empty())
            << layer->name() << " did not cache on a cached forward";
}

TEST(InferenceMode, BackwardAfterInferenceForwardThrows) {
    std::mt19937_64 rng(9);
    nn::Mlp net({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);
    nn::Matrix x(4, 12, 0.5f);

    (void)net.forward_ws(x, /*cache=*/false);
    net.output_grad_buffer().fill(1.0f);
    EXPECT_THROW(net.backward_ws(), std::logic_error);

    // Legacy forward follows the training/inference mode: in eval mode it
    // must not cache, and a subsequent backward must refuse.
    net.set_training(false);
    (void)net.forward(x);
    EXPECT_THROW(net.backward(nn::Matrix(4, 1, 1.0f)), std::logic_error);

    // Back in training mode the legacy pair works.
    net.set_training(true);
    (void)net.forward(x);
    EXPECT_NO_THROW(net.backward(nn::Matrix(4, 1, 1.0f)));
}

}  // namespace
