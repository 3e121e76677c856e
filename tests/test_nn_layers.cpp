// Gradient correctness is the backbone of everything downstream (training,
// Grad-CAM): every layer and loss is checked against central finite
// differences here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "nn/init.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"

namespace nn = wifisense::nn;

namespace {

nn::Matrix random_matrix(std::size_t r, std::size_t c, std::mt19937_64& rng) {
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix m(r, c);
    for (float& v : m.data()) v = u(rng);
    return m;
}

// Scalar objective: sum of elementwise products with fixed weights.
double objective(const nn::Matrix& out, const nn::Matrix& w) {
    double acc = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
        acc += static_cast<double>(out.data()[i]) * static_cast<double>(w.data()[i]);
    return acc;
}

}  // namespace

TEST(Layers, DenseForwardMatchesManualComputation) {
    nn::Dense dense(2, 2);
    dense.weights() = nn::Matrix{{1.0f, 2.0f}, {3.0f, 4.0f}};
    dense.bias() = {0.5f, -0.5f};
    const nn::Matrix x{{1.0f, 1.0f}};
    const nn::Matrix y = dense.forward(x);
    EXPECT_FLOAT_EQ(y.at(0, 0), 4.5f);  // 1*1 + 1*3 + 0.5
    EXPECT_FLOAT_EQ(y.at(0, 1), 5.5f);  // 1*2 + 1*4 - 0.5
}

TEST(Layers, DenseInputGradientMatchesFiniteDifference) {
    std::mt19937_64 rng(5);
    nn::Dense dense(4, 3);
    nn::initialize(dense, nn::Init::kXavierUniform, rng);
    nn::Matrix x = random_matrix(2, 4, rng);
    const nn::Matrix w = random_matrix(2, 3, rng);

    (void)dense.forward(x);
    const nn::Matrix gin = dense.backward(w);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < x.size(); ++i) {
        nn::Matrix xp = x, xm = x;
        xp.data()[i] += eps;
        xm.data()[i] -= eps;
        const double num =
            (objective(dense.forward(xp), w) - objective(dense.forward(xm), w)) /
            (2.0 * eps);
        EXPECT_NEAR(gin.data()[i], num, 2e-3) << "input index " << i;
    }
}

TEST(Layers, DenseParameterGradientMatchesFiniteDifference) {
    std::mt19937_64 rng(6);
    nn::Dense dense(3, 2);
    nn::initialize(dense, nn::Init::kXavierUniform, rng);
    const nn::Matrix x = random_matrix(4, 3, rng);
    const nn::Matrix w = random_matrix(4, 2, rng);

    dense.zero_grad();
    (void)dense.forward(x);
    (void)dense.backward(w);
    std::vector<nn::ParamView> params = dense.parameters();

    const float eps = 1e-3f;
    for (nn::ParamView& p : params) {
        for (std::size_t i = 0; i < p.values.size(); ++i) {
            const float orig = p.values[i];
            p.values[i] = orig + eps;
            const double up = objective(dense.forward(x), w);
            p.values[i] = orig - eps;
            const double dn = objective(dense.forward(x), w);
            p.values[i] = orig;
            EXPECT_NEAR(p.grads[i], (up - dn) / (2.0 * eps), 2e-3)
                << p.name << "[" << i << "]";
        }
    }
}

TEST(Layers, DenseBackwardAccumulatesAcrossCalls) {
    std::mt19937_64 rng(7);
    nn::Dense dense(2, 2);
    nn::initialize(dense, nn::Init::kXavierUniform, rng);
    const nn::Matrix x = random_matrix(3, 2, rng);
    const nn::Matrix g = random_matrix(3, 2, rng);

    dense.zero_grad();
    (void)dense.forward(x);
    (void)dense.backward(g);
    const std::vector<float> once(dense.parameters()[0].grads.begin(),
                                  dense.parameters()[0].grads.end());
    (void)dense.forward(x);
    (void)dense.backward(g);
    const auto twice = dense.parameters()[0].grads;
    for (std::size_t i = 0; i < once.size(); ++i)
        EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-5f);
}

TEST(Layers, ReluZeroesNegativesAndPassesPositives) {
    nn::ReLU relu(3);
    const nn::Matrix x{{-1.0f, 0.0f, 2.0f}};
    const nn::Matrix y = relu.forward(x);
    EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 2), 2.0f);
}

TEST(Layers, ReluGradientMask) {
    nn::ReLU relu(3);
    const nn::Matrix x{{-1.0f, 0.5f, 2.0f}};
    (void)relu.forward(x);
    const nn::Matrix g{{1.0f, 1.0f, 1.0f}};
    const nn::Matrix gin = relu.backward(g);
    EXPECT_FLOAT_EQ(gin.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(gin.at(0, 1), 1.0f);
    EXPECT_FLOAT_EQ(gin.at(0, 2), 1.0f);
}

// Edge values through the vectorised ReLU, against the per-element
// definitions forward y = x > 0 ? x : 0 and backward g_in = y <= 0 ? 0 : g,
// compared as bits. A NaN output passes its gradient (NaN <= 0 is false):
// an intrinsic blend on _CMP_GT instead of !(<=) would silently flip that.
TEST(ReluParity, EdgeValuesMatchPerElementReference) {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
    constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
    const float ys[] = {kNaN, -0.0f, 0.0f, kDenorm, -kDenorm, kInf, -kInf, -1.0f, 1.5f};
    const float gs[] = {kNaN, kInf, -kInf, 0.75f, -2.0f};
    constexpr std::size_t kY = std::size(ys), kG = std::size(gs);
    // 5 x 67: every (y, g) pair several times, plus a ragged vector tail.
    constexpr std::size_t kRows = 5, kCols = 67;
    nn::Matrix x(kRows, kCols), g(kRows, kCols);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x.data()[i] = ys[i % kY];
        g.data()[i] = gs[(i / kY) % kG];
    }

    nn::ReLU relu(kCols);
    nn::Matrix y, gin;
    relu.forward_into(x, y, /*cache=*/true);
    std::vector<float> want(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        want[i] = x.data()[i] > 0.0f ? x.data()[i] : 0.0f;
    ASSERT_EQ(y.size(), want.size());
    EXPECT_EQ(std::memcmp(y.data().data(), want.data(), want.size() * sizeof(float)), 0);

    // Backward reads the cached output view, so planting the edge values in
    // the output itself reaches outputs forward never produces (NaN, -0).
    for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] = x.data()[i];
    relu.backward_into(g, gin);
    for (std::size_t i = 0; i < y.size(); ++i)
        want[i] = y.data()[i] <= 0.0f ? 0.0f : g.data()[i];
    ASSERT_EQ(gin.size(), want.size());
    EXPECT_EQ(std::memcmp(gin.data().data(), want.data(), want.size() * sizeof(float)), 0);
    EXPECT_EQ(gin.data()[kY * 3], 0.75f) << "a NaN output must pass its gradient";
    EXPECT_EQ(gin.data()[1 + kY * 3], 0.0f) << "a -0 output must block its gradient";
}

TEST(Layers, SigmoidForwardAndGradient) {
    nn::Sigmoid sig(1);
    const nn::Matrix x{{0.0f}};
    const nn::Matrix y = sig.forward(x);
    EXPECT_FLOAT_EQ(y.at(0, 0), 0.5f);
    const nn::Matrix g{{1.0f}};
    const nn::Matrix gin = sig.backward(g);
    EXPECT_FLOAT_EQ(gin.at(0, 0), 0.25f);  // sigma'(0) = 0.25
}

TEST(Layers, WidthMismatchThrows) {
    nn::ReLU relu(3);
    const nn::Matrix x(1, 2);
    EXPECT_THROW(relu.forward(x), std::invalid_argument);
    nn::Dense dense(3, 2);
    EXPECT_THROW(dense.forward(x), std::invalid_argument);
}

TEST(Layers, ActivationCachesExposedForGradCam) {
    std::mt19937_64 rng(8);
    nn::Dense dense(2, 2);
    nn::initialize(dense, nn::Init::kKaimingUniform, rng);
    const nn::Matrix x = random_matrix(3, 2, rng);
    const nn::Matrix y = dense.forward(x);
    EXPECT_LT(nn::max_abs_diff(dense.last_output(), y), 1e-7f);
    const nn::Matrix g = random_matrix(3, 2, rng);
    (void)dense.backward(g);
    EXPECT_LT(nn::max_abs_diff(dense.last_output_grad(), g), 1e-7f);
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

TEST(Losses, BceMatchesClosedFormAtLogitZero) {
    const nn::BceWithLogitsLoss loss;
    const nn::Matrix out{{0.0f}};
    const nn::Matrix tgt{{1.0f}};
    const nn::LossResult r = loss.compute(out, tgt);
    EXPECT_NEAR(r.value, std::log(2.0), 1e-6);
    EXPECT_NEAR(r.grad.at(0, 0), -0.5, 1e-6);  // sigmoid(0) - 1
}

TEST(Losses, BceIsFiniteForExtremeLogits) {
    const nn::BceWithLogitsLoss loss;
    const nn::Matrix out{{80.0f}, {-80.0f}};
    const nn::Matrix tgt{{0.0f}, {1.0f}};
    const nn::LossResult r = loss.compute(out, tgt);
    EXPECT_TRUE(std::isfinite(r.value));
    EXPECT_NEAR(r.value, 80.0, 0.1);
}

TEST(Losses, BceGradientMatchesFiniteDifference) {
    std::mt19937_64 rng(9);
    const nn::BceWithLogitsLoss loss;
    nn::Matrix out = random_matrix(5, 1, rng);
    nn::Matrix tgt(5, 1);
    for (std::size_t i = 0; i < 5; ++i)
        tgt.at(i, 0) = static_cast<float>(i % 2);

    const nn::LossResult r = loss.compute(out, tgt);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < out.size(); ++i) {
        nn::Matrix up = out, dn = out;
        up.data()[i] += eps;
        dn.data()[i] -= eps;
        const double num =
            (loss.compute(up, tgt).value - loss.compute(dn, tgt).value) / (2.0 * eps);
        EXPECT_NEAR(r.grad.data()[i], num, 1e-4);
    }
}

TEST(Losses, MseGradientMatchesFiniteDifference) {
    std::mt19937_64 rng(10);
    const nn::MseLoss loss;
    nn::Matrix out = random_matrix(4, 2, rng);
    const nn::Matrix tgt = random_matrix(4, 2, rng);

    const nn::LossResult r = loss.compute(out, tgt);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < out.size(); ++i) {
        nn::Matrix up = out, dn = out;
        up.data()[i] += eps;
        dn.data()[i] -= eps;
        const double num =
            (loss.compute(up, tgt).value - loss.compute(dn, tgt).value) / (2.0 * eps);
        EXPECT_NEAR(r.grad.data()[i], num, 1e-4);
    }
}

TEST(Losses, ShapeMismatchThrows) {
    const nn::MseLoss loss;
    EXPECT_THROW(loss.compute(nn::Matrix(2, 1), nn::Matrix(1, 1)),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Whole-network gradient check
// ---------------------------------------------------------------------------

TEST(Mlp, EndToEndGradientMatchesFiniteDifference) {
    std::mt19937_64 rng(11);
    nn::Mlp net({3, 8, 4, 1}, nn::Init::kXavierUniform, rng);
    const nn::Matrix x = random_matrix(6, 3, rng);
    nn::Matrix tgt(6, 1);
    for (std::size_t i = 0; i < 6; ++i) tgt.at(i, 0) = static_cast<float>(i % 2);
    const nn::BceWithLogitsLoss loss;

    net.zero_grad();
    const nn::LossResult r = loss.compute(net.forward(x), tgt);
    (void)net.backward(r.grad);

    const float eps = 2e-3f;
    std::size_t checked = 0;
    for (nn::ParamView& p : net.parameters()) {
        for (std::size_t i = 0; i < p.values.size(); i += 7) {  // sample every 7th
            const float orig = p.values[i];
            p.values[i] = orig + eps;
            const double up = loss.compute(net.forward(x), tgt).value;
            p.values[i] = orig - eps;
            const double dn = loss.compute(net.forward(x), tgt).value;
            p.values[i] = orig;
            EXPECT_NEAR(p.grads[i], (up - dn) / (2.0 * eps), 5e-3)
                << p.name << "[" << i << "]";
            ++checked;
        }
    }
    EXPECT_GT(checked, 10u);
}

TEST(Mlp, PaperArchitectureParameterCount) {
    std::mt19937_64 rng(12);
    // The per-layer counts of Section IV-B resolve to 64->128->256->128->1:
    // 8,320 + 33,024 + 32,896 + 129 = 74,369.
    nn::Mlp net = nn::paper_mlp(64, rng);
    EXPECT_EQ(net.parameter_count(), 74'369u);
    EXPECT_EQ(net.input_size(), 64u);
    EXPECT_EQ(net.output_size(), 1u);
    // Model size in float32: ~290 KiB; the paper's "15.18 KiB" implies int8
    // quantization plus compression, which we do not replicate.
    EXPECT_EQ(net.weight_bytes(), 74'369u * 4u);
}

TEST(Mlp, CloneProducesIdenticalOutputs) {
    std::mt19937_64 rng(13);
    nn::Mlp net({5, 16, 1}, nn::Init::kKaimingUniform, rng);
    nn::Mlp copy = net.clone();
    const nn::Matrix x = random_matrix(4, 5, rng);
    EXPECT_LT(nn::max_abs_diff(net.forward(x), copy.forward(x)), 1e-7f);
}

TEST(Mlp, EmptyNetworkThrows) {
    nn::Mlp net;
    EXPECT_THROW(net.forward(nn::Matrix(1, 1)), std::logic_error);
    std::mt19937_64 rng(1);
    EXPECT_THROW(nn::Mlp({5}, nn::Init::kZero, rng), std::invalid_argument);
}
