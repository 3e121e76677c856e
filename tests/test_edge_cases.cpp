// Edge-case coverage across modules: boundary inputs, degenerate
// configurations, and API misuse that must fail loudly rather than corrupt
// results.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "csi/channel.hpp"
#include "csi/receiver.hpp"
#include "data/dataset.hpp"
#include "data/simtime.hpp"
#include "envsim/occupants.hpp"
#include "envsim/sensor.hpp"
#include "envsim/thermal.hpp"
#include "nn/init.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "stats/correlation.hpp"
#include "stats/metrics.hpp"
#include "stats/ols.hpp"

namespace {
using namespace wifisense;
}

// --- stats -------------------------------------------------------------------

TEST(EdgeStats, AutocorrelationOfWhiteNoiseNearZero) {
    std::mt19937_64 rng(1);
    std::normal_distribution<double> d(0.0, 1.0);
    std::vector<double> xs(100'000);
    for (double& v : xs) v = d(rng);
    EXPECT_NEAR(stats::autocorrelation(std::span<const double>(xs), 3), 0.0, 0.02);
}

TEST(EdgeStats, OlsTStatCalibrationUnderNull) {
    // A feature unrelated to y should have |t| < 4 almost surely at n = 5000.
    std::mt19937_64 rng(2);
    std::normal_distribution<double> d(0.0, 1.0);
    stats::DesignMatrix X;
    X.rows = 5'000;
    X.cols = 2;
    X.values.resize(10'000);
    std::vector<double> y(5'000);
    for (std::size_t i = 0; i < 5'000; ++i) {
        X.at(i, 0) = 1.0;
        X.at(i, 1) = d(rng);  // pure noise feature
        y[i] = 2.0 + d(rng);
    }
    const stats::OlsFit fit = stats::ols(X, y);
    EXPECT_LT(std::abs(fit.t_stat(1)), 4.0);
    EXPECT_NEAR(fit.r2, 0.0, 0.01);
}

TEST(EdgeStats, PrecisionRecallAsymmetry) {
    // All predicted positive: recall 1, precision = base rate.
    const std::vector<int> truth{1, 0, 0, 0};
    const std::vector<int> pred{1, 1, 1, 1};
    const stats::ConfusionMatrix cm = stats::confusion(truth, pred);
    EXPECT_DOUBLE_EQ(cm.recall(), 1.0);
    EXPECT_DOUBLE_EQ(cm.precision(), 0.25);
}

TEST(EdgeStats, MapeFloatOverloadMatchesDouble) {
    const std::vector<float> yf{10.0f, 20.0f};
    const std::vector<float> pf{11.0f, 18.0f};
    const std::vector<double> yd{10.0, 20.0};
    const std::vector<double> pd{11.0, 18.0};
    EXPECT_NEAR(stats::mape(std::span<const float>(yf), std::span<const float>(pf)),
                stats::mape(std::span<const double>(yd), std::span<const double>(pd)),
                1e-6);
}

// --- nn ---------------------------------------------------------------------

TEST(EdgeNn, KaimingInitStaysWithinBound) {
    std::mt19937_64 rng(3);
    nn::Dense dense(100, 50);
    nn::initialize(dense, nn::Init::kKaimingUniform, rng);
    const double limit = std::sqrt(6.0 / 100.0);
    for (const float w : dense.weights().data()) {
        EXPECT_LE(std::abs(w), limit + 1e-6);
    }
    for (const float b : dense.bias()) EXPECT_FLOAT_EQ(b, 0.0f);
}

TEST(EdgeNn, ZeroInitGivesConstantOutput) {
    std::mt19937_64 rng(4);
    nn::Mlp net({4, 8, 1}, nn::Init::kZero, rng);
    nn::Matrix x(3, 4);
    x.fill(1.0f);
    const nn::Matrix y = net.forward(x);
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y.data()[i], 0.0f);
}

TEST(EdgeNn, AdamWFirstStepIsApproximatelyLr) {
    // With bias correction, |delta w| of the first step ~= lr regardless of
    // gradient magnitude.
    for (const float g0 : {0.001f, 1.0f, 1000.0f}) {
        std::vector<float> w{0.0f}, g{g0};
        std::vector<nn::ParamView> params{{"w", w, g}};
        nn::AdamW opt({.lr = 0.01, .weight_decay = 0.0});
        opt.step(params);
        EXPECT_NEAR(std::abs(w[0]), 0.01f, 1e-4f) << "g0=" << g0;
    }
}

TEST(EdgeNn, SingleRowBatchTrainsAndPredicts) {
    std::mt19937_64 rng(5);
    nn::Mlp net({2, 4, 1}, nn::Init::kKaimingUniform, rng);
    nn::Matrix x(1, 2);
    x.at(0, 0) = 1.0f;
    nn::Matrix y(1, 1);
    y.at(0, 0) = 1.0f;
    const nn::BceWithLogitsLoss loss;
    nn::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 16;  // larger than the dataset
    EXPECT_NO_THROW(nn::train(net, x, y, loss, cfg));
    EXPECT_EQ(nn::predict(net, x, 1).rows(), 1u);
}

TEST(EdgeNn, InputNoiseAugmentationChangesTrajectoryNotApi) {
    std::mt19937_64 rng1(6), rng2(6);
    nn::Mlp a({2, 4, 1}, nn::Init::kKaimingUniform, rng1);
    nn::Mlp b({2, 4, 1}, nn::Init::kKaimingUniform, rng2);
    nn::Matrix x(32, 2);
    nn::Matrix y(32, 1);
    std::mt19937_64 drng(7);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    for (std::size_t i = 0; i < 32; ++i) {
        x.at(i, 0) = u(drng);
        x.at(i, 1) = u(drng);
        y.at(i, 0) = static_cast<float>(i % 2);
    }
    const nn::BceWithLogitsLoss loss;
    nn::TrainConfig clean;
    clean.epochs = 2;
    nn::TrainConfig noisy = clean;
    noisy.input_noise = 0.5;
    nn::train(a, x, y, loss, clean);
    nn::train(b, x, y, loss, noisy);
    EXPECT_GT(nn::max_abs_diff(a.forward(x), b.forward(x)), 0.0f);
}

// --- csi ---------------------------------------------------------------------

TEST(EdgeCsi, LosPathDominatesAtShortRange) {
    // With reflections switched off, the response is nearly flat (LoS only).
    csi::ChannelConfig cfg;
    cfg.surfaces = {0.0, 0.0, 0.0};
    cfg.n_furniture = 0;
    const csi::ChannelModel ch(csi::RoomGeometry{}, cfg, 1);
    const auto h = ch.frequency_response(csi::EnvironmentState{}, {});
    double lo = 1e9, hi = 0.0;
    for (const auto& v : h) {
        lo = std::min(lo, std::abs(v));
        hi = std::max(hi, std::abs(v));
    }
    EXPECT_NEAR(hi / lo, 1.0, 1e-6);
    // Friis amplitude at 2 m: lambda / (4 pi d).
    const double lambda = 299792458.0 / cfg.center_freq_hz;
    EXPECT_NEAR(hi, lambda / (4.0 * 3.14159265 * 2.0), 1e-4);
}

TEST(EdgeCsi, BodyBlockingReducesObstructedPath) {
    // A body close to the LoS chord must lower the flat (LoS-only) response.
    csi::ChannelConfig cfg;
    cfg.surfaces = {0.0, 0.0, 0.0};
    cfg.n_furniture = 0;
    csi::RoomGeometry room;
    const csi::ChannelModel ch(room, cfg, 2);
    const auto open = ch.frequency_response(csi::EnvironmentState{}, {});
    // Body directly on the TX-RX segment, but reflectivity zero to isolate
    // the blocking term.
    const std::vector<csi::BodyState> blockers{{{6.0, 0.4, 1.4}, 0.0}};
    const auto blocked = ch.frequency_response(csi::EnvironmentState{}, blockers);
    EXPECT_LT(std::abs(blocked[32]), std::abs(open[32]) * 0.6);
}

TEST(EdgeCsi, SubcarrierFrequenciesMonotone) {
    const csi::ChannelModel ch(csi::RoomGeometry{}, csi::ChannelConfig{}, 3);
    for (std::size_t k = 1; k < 64; ++k)
        EXPECT_GT(ch.subcarrier_frequency(k), ch.subcarrier_frequency(k - 1));
}

TEST(EdgeCsi, PartialAgcCompressionLeavesResidualScale) {
    csi::ReceiverConfig cfg;
    cfg.agc_compression = 0.5;
    cfg.agc_jitter_sigma = 0.0;
    cfg.noise_sigma = 0.0;
    cfg.quant_levels = 0;
    csi::Receiver rx(cfg, 4);
    std::vector<std::complex<double>> h(64, {4.0e-3, 0.0});
    auto h2 = h;
    for (auto& v : h2) v *= 4.0;
    const auto a1 = rx.sample_amplitudes(h);
    const auto a2 = rx.sample_amplitudes(h2);
    // Perfect AGC would make them equal; at 0.5 compression a 4x input is
    // reduced to a 2x output.
    EXPECT_NEAR(a2[0] / a1[0], 2.0, 1e-3);
}

// --- envsim -------------------------------------------------------------------

TEST(EdgeEnvsim, ThermalEquilibriumIsStationary) {
    envsim::ThermalConfig cfg;
    cfg.setpoint_day_jitter_c = 0.0;
    envsim::ThermalModel model(cfg, 5);
    // Saturday (heating off), outdoor == indoor == structure: ~no flux.
    const double saturday_noon = 4.0 * 86'400.0 + 12.0 * 3'600.0;
    envsim::ThermalConfig flat = cfg;
    flat.outdoor_temp_amplitude_c = 0.0;
    flat.outdoor_temp_mean_c = 20.0;
    flat.initial_air_c = 20.0;
    flat.initial_structure_c = 20.0;
    envsim::ThermalModel still(flat, 5);
    for (int i = 0; i < 3'600; ++i) still.step(saturday_noon + i, 1.0, 0, false);
    EXPECT_NEAR(still.indoor_temperature_c(), 20.0, 0.2);
    (void)model;
}

TEST(EdgeEnvsim, HumidityNeverExceedsHundredPercent) {
    envsim::ThermalConfig cfg;
    cfg.initial_vapor_gm3 = 30.0;  // absurdly humid start
    cfg.initial_air_c = 10.0;
    envsim::ThermalModel model(cfg, 6);
    EXPECT_LE(model.relative_humidity_pct(), 100.0);
}

TEST(EdgeEnvsim, OccupantIntervalsAreDisjointAndOrdered) {
    envsim::OccupantModel model(envsim::OccupantConfig{}, csi::RoomGeometry{}, 77);
    for (const auto& subject : model.schedules()) {
        for (std::size_t i = 0; i < subject.size(); ++i) {
            EXPECT_LT(subject[i].enter, subject[i].leave);
            if (i > 0) {
                EXPECT_GE(subject[i].enter, subject[i - 1].leave);
            }
        }
    }
}

TEST(EdgeEnvsim, SensorSurvivesExtremeInputs) {
    envsim::EnvironmentSensor sensor(envsim::SensorConfig{}, 7);
    for (int i = 0; i < 100; ++i) sensor.step(1.0, 80.0, 150.0, true);
    EXPECT_LE(sensor.read_humidity_pct(), 100.0);
    EXPECT_TRUE(std::isfinite(sensor.read_temperature_c()));
}

// --- data ----------------------------------------------------------------------

TEST(EdgeData, EmptyViewFeatureMatrixHasZeroRows) {
    const data::DatasetView view;
    const nn::Matrix m = view.features(data::FeatureSet::kCsi);
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(view.labels().size(), 0u);
}

TEST(EdgeData, MidnightTimestampFormatting) {
    EXPECT_EQ(data::format_timestamp(86'400.0), "05/01 00:00");
    EXPECT_EQ(data::format_timestamp(86'399.0), "04/01 23:59");
}

TEST(EdgeData, NegativeSecondsOfDayWrapsCorrectly) {
    EXPECT_NEAR(data::seconds_of_day(-3'600.0), 82'800.0, 1e-9);
}
