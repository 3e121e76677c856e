#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ml/decision_tree.hpp"
#include "ml/linear_regression.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/random_forest.hpp"

namespace ml = wifisense::ml;
namespace nn = wifisense::nn;

namespace {

// Linearly separable blobs.
void make_blobs(nn::Matrix& x, std::vector<int>& y, std::size_t n, std::uint64_t seed,
                double gap = 2.0) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> noise(0.0f, 1.0f);
    x = nn::Matrix(n, 2);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int label = static_cast<int>(i % 2);
        x.at(i, 0) = noise(rng) + static_cast<float>(label ? gap : -gap);
        x.at(i, 1) = noise(rng);
        y[i] = label;
    }
}

// XOR data: linearly inseparable.
void make_xor(nn::Matrix& x, std::vector<int>& y, std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    x = nn::Matrix(n, 2);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const float a = u(rng), b = u(rng);
        x.at(i, 0) = a;
        x.at(i, 1) = b;
        y[i] = (a * b > 0.0f) ? 1 : 0;
    }
}

double acc(const std::vector<int>& truth, const std::vector<int>& pred) {
    std::size_t hit = 0;
    for (std::size_t i = 0; i < truth.size(); ++i) hit += truth[i] == pred[i] ? 1u : 0u;
    return static_cast<double>(hit) / static_cast<double>(truth.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// Logistic regression
// ---------------------------------------------------------------------------

TEST(Logistic, SeparatesLinearBlobs) {
    nn::Matrix x;
    std::vector<int> y;
    make_blobs(x, y, 2'000, 31);
    ml::LogisticRegression lr;
    lr.fit(x, y);
    EXPECT_GT(acc(y, lr.predict(x)), 0.97);
}

TEST(Logistic, FailsOnXor) {
    nn::Matrix x;
    std::vector<int> y;
    make_xor(x, y, 2'000, 32);
    ml::LogisticRegression lr;
    lr.fit(x, y);
    EXPECT_LT(acc(y, lr.predict(x)), 0.65);  // barely above chance
}

TEST(Logistic, ProbabilitiesAreCalibratedOnEasyData) {
    nn::Matrix x;
    std::vector<int> y;
    make_blobs(x, y, 3'000, 33, 4.0);
    ml::LogisticRegression lr;
    lr.fit(x, y);
    const std::vector<double> p = lr.predict_proba(x);
    for (std::size_t i = 0; i < 50; ++i) {
        EXPECT_GE(p[i], 0.0);
        EXPECT_LE(p[i], 1.0);
        if (y[i] == 1) EXPECT_GT(p[i], 0.5);
        else EXPECT_LT(p[i], 0.5);
    }
}

TEST(Logistic, UnfittedAndMismatchedThrow) {
    ml::LogisticRegression lr;
    EXPECT_THROW(lr.predict(nn::Matrix(1, 2)), std::logic_error);
    nn::Matrix x;
    std::vector<int> y;
    make_blobs(x, y, 100, 34);
    lr.fit(x, y);
    EXPECT_THROW(lr.predict(nn::Matrix(1, 3)), std::invalid_argument);
    std::vector<int> bad(99, 0);
    EXPECT_THROW(lr.fit(x, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Decision tree
// ---------------------------------------------------------------------------

TEST(DecisionTree, SolvesXor) {
    nn::Matrix x;
    std::vector<int> y;
    make_xor(x, y, 3'000, 41);
    std::mt19937_64 rng(1);
    ml::DecisionTree tree({.max_depth = 8});
    tree.fit(x, y, rng);
    EXPECT_GT(acc(y, tree.predict(x)), 0.95);
}

TEST(DecisionTree, PureNodeBecomesLeafImmediately) {
    nn::Matrix x(10, 1);
    std::vector<int> y(10, 1);  // all positive
    std::mt19937_64 rng(2);
    ml::DecisionTree tree;
    tree.fit(x, y, rng);
    EXPECT_EQ(tree.node_count(), 1u);
    EXPECT_DOUBLE_EQ(tree.predict_proba(x)[0], 1.0);
}

TEST(DecisionTree, MaxDepthIsRespected) {
    nn::Matrix x;
    std::vector<int> y;
    make_xor(x, y, 2'000, 42);
    std::mt19937_64 rng(3);
    ml::DecisionTree tree({.max_depth = 3});
    tree.fit(x, y, rng);
    EXPECT_LE(tree.depth(), 3u);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
    nn::Matrix x;
    std::vector<int> y;
    make_blobs(x, y, 200, 43);
    std::mt19937_64 rng(4);
    ml::DecisionTree tree({.max_depth = 20, .min_samples_leaf = 50});
    tree.fit(x, y, rng);
    // With leaves >= 50 of 200 samples the tree cannot have more than 7 nodes.
    EXPECT_LE(tree.node_count(), 7u);
}

TEST(DecisionTree, FeatureImportancesSumToOneAndFindSignal) {
    std::mt19937_64 data_rng(44);
    std::normal_distribution<float> noise(0.0f, 1.0f);
    nn::Matrix x(2'000, 5);
    std::vector<int> y(2'000);
    for (std::size_t i = 0; i < 2'000; ++i) {
        for (std::size_t c = 0; c < 5; ++c) x.at(i, c) = noise(data_rng);
        y[i] = x.at(i, 3) > 0.0f ? 1 : 0;  // only feature 3 matters
    }
    std::mt19937_64 rng(5);
    ml::DecisionTree tree({.max_depth = 6});
    tree.fit(x, y, rng);
    const std::vector<double> imp = tree.feature_importances(5);
    double sum = 0.0;
    for (const double v : imp) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(imp[3], 0.9);
}

TEST(DecisionTree, UnfittedThrows) {
    ml::DecisionTree tree;
    EXPECT_THROW(tree.predict(nn::Matrix(1, 2)), std::logic_error);
}

TEST(DecisionTree, SplitsHeavilyQuantizedFeatures) {
    // Regression test: threshold candidates must be value-run boundaries.
    // With integer-quantized features (like the %RH column) a position-based
    // stride lands inside runs of equal values and finds no cut at all,
    // leaving the tree a stump.
    std::mt19937_64 data_rng(71);
    std::uniform_int_distribution<int> hum(20, 45);
    nn::Matrix x(4'000, 1);
    std::vector<int> y(4'000);
    for (std::size_t i = 0; i < 4'000; ++i) {
        const int h = hum(data_rng);
        x.at(i, 0) = static_cast<float>(h);
        y[i] = h >= 28 ? 1 : 0;  // perfectly separable on the quantized grid
    }
    std::mt19937_64 rng(6);
    ml::DecisionTree tree({.max_depth = 4, .max_thresholds = 16});
    tree.fit(x, y, rng);
    EXPECT_GT(tree.node_count(), 1u);
    EXPECT_GT(acc(y, tree.predict(x)), 0.99);
}

TEST(DecisionTree, QuantizedTwoFeatureInteraction) {
    // Same data regime as the paper's Env feature set: quantized T and H.
    std::mt19937_64 data_rng(72);
    std::uniform_int_distribution<int> hum(15, 50);
    std::uniform_int_distribution<int> temp_centi(1800, 2800);
    nn::Matrix x(6'000, 2);
    std::vector<int> y(6'000);
    for (std::size_t i = 0; i < 6'000; ++i) {
        const double t = temp_centi(data_rng) / 100.0;
        const int h = hum(data_rng);
        x.at(i, 0) = static_cast<float>(t);
        x.at(i, 1) = static_cast<float>(h);
        y[i] = (t > 22.0 && h >= 27) ? 1 : 0;
    }
    std::mt19937_64 rng(7);
    ml::DecisionTree tree({.max_depth = 6, .max_thresholds = 32});
    tree.fit(x, y, rng);
    EXPECT_GT(acc(y, tree.predict(x)), 0.98);
}

// ---------------------------------------------------------------------------
// Random forest
// ---------------------------------------------------------------------------

TEST(RandomForest, SolvesXorRobustly) {
    nn::Matrix x;
    std::vector<int> y;
    make_xor(x, y, 3'000, 51);
    ml::RandomForest forest({.n_trees = 25, .seed = 7});
    forest.fit(x, y);
    EXPECT_GT(acc(y, forest.predict(x)), 0.95);
}

TEST(RandomForest, ProbabilityAveragingIsBounded) {
    nn::Matrix x;
    std::vector<int> y;
    make_blobs(x, y, 500, 52);
    ml::RandomForest forest({.n_trees = 10, .seed = 8});
    forest.fit(x, y);
    for (const double p : forest.predict_proba(x)) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
}

TEST(RandomForest, MoreTreesReduceVarianceOnNoisyData) {
    std::mt19937_64 data_rng(53);
    std::normal_distribution<float> noise(0.0f, 1.0f);
    nn::Matrix x(2'000, 3);
    std::vector<int> y(2'000);
    for (std::size_t i = 0; i < 2'000; ++i) {
        for (std::size_t c = 0; c < 3; ++c) x.at(i, c) = noise(data_rng);
        // Noisy labels (20% flipped).
        const bool base = x.at(i, 0) + 0.5f * x.at(i, 1) > 0.0f;
        y[i] = (i % 5 == 0) ? !base : base;
    }
    nn::Matrix xt(500, 3);
    std::vector<int> yt(500);
    for (std::size_t i = 0; i < 500; ++i) {
        for (std::size_t c = 0; c < 3; ++c) xt.at(i, c) = noise(data_rng);
        yt[i] = xt.at(i, 0) + 0.5f * xt.at(i, 1) > 0.0f ? 1 : 0;
    }

    ml::RandomForest small({.n_trees = 1, .seed = 9});
    small.fit(x, y);
    ml::RandomForest big({.n_trees = 30, .seed = 9});
    big.fit(x, y);
    EXPECT_GE(acc(yt, big.predict(xt)) + 0.02, acc(yt, small.predict(xt)));
}

TEST(RandomForest, ImportancesNormalized) {
    nn::Matrix x;
    std::vector<int> y;
    make_xor(x, y, 1'000, 54);
    ml::RandomForest forest({.n_trees = 10, .seed = 10});
    forest.fit(x, y);
    const std::vector<double> imp = forest.feature_importances();
    double sum = 0.0;
    for (const double v : imp) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RandomForest, ConfigValidation) {
    EXPECT_THROW(ml::RandomForest({.n_trees = 0}), std::invalid_argument);
    EXPECT_THROW(ml::RandomForest({.n_trees = 5, .bootstrap_fraction = 0.0}),
                 std::invalid_argument);
    ml::RandomForest forest;
    EXPECT_THROW(forest.predict(nn::Matrix(1, 2)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Linear regression
// ---------------------------------------------------------------------------

TEST(LinearRegression, RecoversMultiOutputCoefficients) {
    std::mt19937_64 rng(61);
    std::normal_distribution<float> noise(0.0f, 0.1f);
    std::uniform_real_distribution<float> u(-2.0f, 2.0f);
    nn::Matrix x(5'000, 2), y(5'000, 2);
    for (std::size_t i = 0; i < x.rows(); ++i) {
        const float a = u(rng), b = u(rng);
        x.at(i, 0) = a;
        x.at(i, 1) = b;
        y.at(i, 0) = 2.0f + 3.0f * a - 1.0f * b + noise(rng);
        y.at(i, 1) = -1.0f + 0.5f * a + 2.0f * b + noise(rng);
    }
    ml::LinearRegression ols;
    ols.fit(x, y);
    ASSERT_EQ(ols.n_targets(), 2u);
    EXPECT_NEAR(ols.intercept(0), 2.0, 0.02);
    EXPECT_NEAR(ols.coefficients(0)[0], 3.0, 0.02);
    EXPECT_NEAR(ols.coefficients(0)[1], -1.0, 0.02);
    EXPECT_NEAR(ols.intercept(1), -1.0, 0.02);
    EXPECT_NEAR(ols.coefficients(1)[1], 2.0, 0.02);

    const nn::Matrix pred = ols.predict(x);
    double mae = 0.0;
    for (std::size_t i = 0; i < pred.size(); ++i)
        mae += std::abs(pred.data()[i] - y.data()[i]);
    EXPECT_LT(mae / static_cast<double>(pred.size()), 0.12);
}

TEST(LinearRegression, Validation) {
    ml::LinearRegression ols;
    EXPECT_THROW(ols.predict(nn::Matrix(1, 2)), std::logic_error);
    EXPECT_THROW(ols.fit(nn::Matrix(3, 2), nn::Matrix(3, 1)), std::invalid_argument);
}
