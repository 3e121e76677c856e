#include "stats/correlation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

namespace ws = wifisense::stats;

namespace {
std::span<const double> sp(const std::vector<double>& v) { return v; }
}  // namespace

TEST(Correlation, PerfectPositiveCorrelation) {
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
    EXPECT_NEAR(ws::pearson(sp(xs), sp(ys)), 1.0, 1e-12);
}

TEST(Correlation, PerfectNegativeCorrelation) {
    const std::vector<double> xs{1.0, 2.0, 3.0};
    const std::vector<double> ys{3.0, 2.0, 1.0};
    EXPECT_NEAR(ws::pearson(sp(xs), sp(ys)), -1.0, 1e-12);
}

TEST(Correlation, ConstantSeriesGivesZero) {
    const std::vector<double> xs{5.0, 5.0, 5.0};
    const std::vector<double> ys{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(ws::pearson(sp(xs), sp(ys)), 0.0);
}

TEST(Correlation, IndependentSeriesNearZero) {
    std::mt19937_64 rng(3);
    std::normal_distribution<double> dist(0.0, 1.0);
    std::vector<double> xs(50'000), ys(50'000);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[i] = dist(rng);
        ys[i] = dist(rng);
    }
    EXPECT_NEAR(ws::pearson(sp(xs), sp(ys)), 0.0, 0.02);
}

TEST(Correlation, InvariantToAffineTransform) {
    std::mt19937_64 rng(5);
    std::normal_distribution<double> dist(0.0, 1.0);
    std::vector<double> xs(1'000), ys(1'000), ys2(1'000);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[i] = dist(rng);
        ys[i] = 0.7 * xs[i] + 0.3 * dist(rng);
        ys2[i] = 5.0 * ys[i] - 17.0;
    }
    EXPECT_NEAR(ws::pearson(sp(xs), sp(ys)), ws::pearson(sp(xs), sp(ys2)), 1e-12);
}

TEST(Correlation, CovarianceMatchesDefinition) {
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    const std::vector<double> ys{1.0, 3.0, 2.0, 6.0};
    // Hand-computed sample covariance.
    const double mx = 2.5, my = 3.0;
    double acc = 0.0;
    for (std::size_t i = 0; i < 4; ++i) acc += (xs[i] - mx) * (ys[i] - my);
    EXPECT_NEAR(ws::covariance(sp(xs), sp(ys)), acc / 3.0, 1e-12);
}

TEST(Correlation, LengthMismatchThrows) {
    const std::vector<double> xs{1.0, 2.0};
    const std::vector<double> ys{1.0, 2.0, 3.0};
    EXPECT_THROW(ws::pearson(sp(xs), sp(ys)), std::invalid_argument);
}

TEST(Correlation, TooShortThrows) {
    const std::vector<double> xs{1.0};
    EXPECT_THROW(ws::pearson(sp(xs), sp(xs)), std::invalid_argument);
}

TEST(Correlation, AutocorrelationLagZeroIsOne) {
    const std::vector<double> xs{1.0, 5.0, 2.0, 8.0, 3.0};
    EXPECT_DOUBLE_EQ(ws::autocorrelation(sp(xs), 0), 1.0);
}

TEST(Correlation, Ar1AutocorrelationDecaysGeometrically) {
    std::mt19937_64 rng(17);
    std::normal_distribution<double> dist(0.0, 1.0);
    const double phi = 0.8;
    std::vector<double> xs(200'000);
    xs[0] = 0.0;
    for (std::size_t i = 1; i < xs.size(); ++i) xs[i] = phi * xs[i - 1] + dist(rng);
    EXPECT_NEAR(ws::autocorrelation(sp(xs), 1), phi, 0.02);
    EXPECT_NEAR(ws::autocorrelation(sp(xs), 2), phi * phi, 0.02);
    EXPECT_NEAR(ws::autocorrelation(sp(xs), 4), std::pow(phi, 4), 0.03);
}

// Property: |rho| <= 1 for arbitrary random pairs.
class CorrelationBound : public ::testing::TestWithParam<unsigned> {};

TEST_P(CorrelationBound, RhoIsBounded) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> dist(-100.0, 100.0);
    std::vector<double> xs(97), ys(97);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[i] = dist(rng);
        ys[i] = dist(rng) + (GetParam() % 3 == 0 ? xs[i] : 0.0);
    }
    const double rho = ws::pearson(sp(xs), sp(ys));
    EXPECT_LE(std::abs(rho), 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorrelationBound, ::testing::Range(1u, 13u));
