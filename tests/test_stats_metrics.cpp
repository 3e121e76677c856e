#include "stats/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace ws = wifisense::stats;

TEST(Metrics, AccuracyCountsMatches) {
    const std::vector<int> truth{1, 0, 1, 1, 0};
    const std::vector<int> pred{1, 0, 0, 1, 1};
    EXPECT_DOUBLE_EQ(ws::accuracy(truth, pred), 0.6);
}

TEST(Metrics, AccuracyTreatsNonzeroAsPositive) {
    const std::vector<int> truth{2, 0};
    const std::vector<int> pred{1, 0};
    EXPECT_DOUBLE_EQ(ws::accuracy(truth, pred), 1.0);
}

TEST(Metrics, EmptyInputThrows) {
    const std::vector<int> none;
    EXPECT_THROW(ws::accuracy(none, none), std::invalid_argument);
}

TEST(Metrics, ConfusionMatrixCells) {
    const std::vector<int> truth{1, 1, 0, 0, 1, 0};
    const std::vector<int> pred{1, 0, 0, 1, 1, 0};
    const ws::ConfusionMatrix cm = ws::confusion(truth, pred);
    EXPECT_EQ(cm.tp, 2u);
    EXPECT_EQ(cm.fn, 1u);
    EXPECT_EQ(cm.fp, 1u);
    EXPECT_EQ(cm.tn, 2u);
    EXPECT_EQ(cm.total(), 6u);
    EXPECT_NEAR(cm.accuracy(), 4.0 / 6.0, 1e-12);
    EXPECT_NEAR(cm.precision(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(cm.recall(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(cm.f1(), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, DegenerateConfusionDoesNotDivideByZero) {
    const std::vector<int> truth{0, 0};
    const std::vector<int> pred{0, 0};
    const ws::ConfusionMatrix cm = ws::confusion(truth, pred);
    EXPECT_DOUBLE_EQ(cm.precision(), 0.0);
    EXPECT_DOUBLE_EQ(cm.recall(), 0.0);
    EXPECT_DOUBLE_EQ(cm.f1(), 0.0);
    EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
}

TEST(Metrics, MaeMatchesEq2) {
    const std::vector<double> y{1.0, 2.0, 3.0};
    const std::vector<double> p{2.0, 2.0, 1.0};
    EXPECT_DOUBLE_EQ(ws::mae(std::span<const double>(y), std::span<const double>(p)),
                     1.0);
}

TEST(Metrics, MapeMatchesEq3InPercent) {
    const std::vector<double> y{10.0, 20.0};
    const std::vector<double> p{9.0, 22.0};
    // (0.1 + 0.1)/2 = 10%.
    EXPECT_NEAR(ws::mape(std::span<const double>(y), std::span<const double>(p)), 10.0,
                1e-12);
}

TEST(Metrics, MapeEpsGuardsZeroTargets) {
    const std::vector<double> y{0.0};
    const std::vector<double> p{1.0};
    const double m =
        ws::mape(std::span<const double>(y), std::span<const double>(p), 0.5);
    EXPECT_NEAR(m, 200.0, 1e-9);  // |0-1| / max(0.5, 0) = 2 => 200%
}

TEST(Metrics, RmseIsSqrtOfMse) {
    const std::vector<double> y{0.0, 0.0};
    const std::vector<double> p{3.0, 4.0};
    EXPECT_DOUBLE_EQ(ws::mse(std::span<const double>(y), std::span<const double>(p)),
                     12.5);
    EXPECT_DOUBLE_EQ(ws::rmse(std::span<const double>(y), std::span<const double>(p)),
                     std::sqrt(12.5));
}

TEST(Metrics, BceOfPerfectPredictionIsNearZero) {
    const std::vector<float> y{1.0f, 0.0f};
    const std::vector<float> p{1.0f, 0.0f};
    EXPECT_LT(ws::binary_cross_entropy(y, p), 1e-5);
}

TEST(Metrics, BceOfConfidentWrongPredictionIsLargeButFinite) {
    const std::vector<float> y{1.0f};
    const std::vector<float> p{0.0f};
    const double loss = ws::binary_cross_entropy(y, p);
    EXPECT_GT(loss, 10.0);
    EXPECT_TRUE(std::isfinite(loss));
}

TEST(Metrics, BceOfHalfIsLog2) {
    const std::vector<float> y{1.0f, 0.0f};
    const std::vector<float> p{0.5f, 0.5f};
    EXPECT_NEAR(ws::binary_cross_entropy(y, p), std::log(2.0), 1e-6);
}
