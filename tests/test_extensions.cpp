// Tests for the post-paper extensions: rolling statistics, the
// softmax/dropout/scheduler machinery, the kNN baseline, and the joint
// activity-recognition / occupant-counting heads.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "core/experiments.hpp"
#include "core/extensions.hpp"
#include "data/folds.hpp"
#include "ml/knn.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "stats/correlation.hpp"
#include "stats/rolling.hpp"

namespace {
using namespace wifisense;
}

// --- rolling statistics -------------------------------------------------------

TEST(Rolling, MeanMatchesBruteForce) {
    const std::vector<double> xs{1, 2, 3, 4, 5, 6};
    const std::vector<double> m = stats::rolling_mean(xs, 3);
    EXPECT_DOUBLE_EQ(m[0], 1.0);
    EXPECT_DOUBLE_EQ(m[1], 1.5);
    EXPECT_DOUBLE_EQ(m[2], 2.0);
    EXPECT_DOUBLE_EQ(m[3], 3.0);
    EXPECT_DOUBLE_EQ(m[5], 5.0);
}

TEST(Rolling, StdOfConstantIsZero) {
    const std::vector<double> xs(50, 7.0);
    for (const double s : stats::rolling_std(xs, 8)) EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST(Rolling, StdDetectsVarianceBursts) {
    std::vector<double> xs(100, 1.0);
    for (std::size_t i = 40; i < 60; ++i) xs[i] = (i % 2 == 0) ? 2.0 : 0.0;
    const std::vector<double> s = stats::rolling_std(xs, 10);
    EXPECT_GT(s[55], 0.5);
    EXPECT_NEAR(s[30], 0.0, 1e-12);
    EXPECT_NEAR(s[90], 0.0, 1e-12);
}

TEST(Rolling, StreamingWindowMatchesBatch) {
    std::mt19937_64 rng(3);
    std::normal_distribution<double> d(0.0, 2.0);
    std::vector<double> xs(500);
    for (double& v : xs) v = d(rng);
    const std::vector<double> batch_mean = stats::rolling_mean(xs, 16);
    const std::vector<double> batch_std = stats::rolling_std(xs, 16);
    stats::RollingWindow w(16);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        w.push(xs[i]);
        ASSERT_NEAR(w.mean(), batch_mean[i], 1e-9);
        ASSERT_NEAR(w.stddev(), batch_std[i], 1e-9);
    }
    EXPECT_TRUE(w.full());
}

TEST(Rolling, ZeroWindowThrows) {
    const std::vector<double> xs{1.0};
    EXPECT_THROW(stats::rolling_mean(xs, 0), std::invalid_argument);
    EXPECT_THROW(stats::RollingWindow(0), std::invalid_argument);
}

// --- softmax / one-hot / argmax ---------------------------------------------------

TEST(Softmax, RowsSumToOne) {
    nn::Matrix z{{1.0f, 2.0f, 3.0f}, {-5.0f, 0.0f, 5.0f}};
    const nn::Matrix p = nn::softmax(z);
    for (std::size_t r = 0; r < p.rows(); ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < p.cols(); ++c) {
            EXPECT_GT(p.at(r, c), 0.0f);
            sum += p.at(r, c);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-6f);
    }
    EXPECT_GT(p.at(0, 2), p.at(0, 0));
}

TEST(Softmax, StableAtExtremeLogits) {
    nn::Matrix z{{1000.0f, 0.0f, -1000.0f}};
    const nn::Matrix p = nn::softmax(z);
    EXPECT_NEAR(p.at(0, 0), 1.0f, 1e-6f);
    EXPECT_TRUE(std::isfinite(p.at(0, 2)));
}

TEST(Softmax, ArgmaxAndOneHot) {
    const nn::Matrix scores{{0.1f, 0.9f}, {0.8f, 0.2f}};
    const std::vector<int> am = nn::argmax_rows(scores);
    EXPECT_EQ(am[0], 1);
    EXPECT_EQ(am[1], 0);
    const nn::Matrix oh = nn::one_hot({2, 0}, 3);
    EXPECT_FLOAT_EQ(oh.at(0, 2), 1.0f);
    EXPECT_FLOAT_EQ(oh.at(1, 0), 1.0f);
    EXPECT_FLOAT_EQ(oh.at(0, 0), 0.0f);
    EXPECT_THROW(nn::one_hot({3}, 3), std::invalid_argument);
}

TEST(SoftmaxCrossEntropy, MatchesClosedForm) {
    const nn::SoftmaxCrossEntropyLoss loss;
    nn::Matrix z{{0.0f, 0.0f, 0.0f}};
    const nn::Matrix y = nn::one_hot({1}, 3);
    const nn::LossResult r = loss.compute(z, y);
    EXPECT_NEAR(r.value, std::log(3.0), 1e-6);
    EXPECT_NEAR(r.grad.at(0, 1), (1.0 / 3.0 - 1.0), 1e-6);
    EXPECT_NEAR(r.grad.at(0, 0), 1.0 / 3.0, 1e-6);
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference) {
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix z(4, 3);
    for (float& v : z.data()) v = u(rng);
    const nn::Matrix y = nn::one_hot({0, 1, 2, 1}, 3);
    const nn::SoftmaxCrossEntropyLoss loss;
    const nn::LossResult r = loss.compute(z, y);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < z.size(); ++i) {
        nn::Matrix up = z, dn = z;
        up.data()[i] += eps;
        dn.data()[i] -= eps;
        const double num =
            (loss.compute(up, y).value - loss.compute(dn, y).value) / (2.0 * eps);
        EXPECT_NEAR(r.grad.data()[i], num, 1e-4);
    }
}

TEST(SoftmaxCrossEntropy, MlpLearnsThreeClasses) {
    // Three well-separated 2-D blobs.
    std::mt19937_64 data_rng(9);
    std::normal_distribution<float> noise(0.0f, 0.4f);
    nn::Matrix x(1'500, 2);
    std::vector<int> labels(1'500);
    const float cx[3] = {-2.0f, 0.0f, 2.0f};
    for (std::size_t i = 0; i < 1'500; ++i) {
        const int c = static_cast<int>(i % 3);
        x.at(i, 0) = cx[c] + noise(data_rng);
        x.at(i, 1) = (c == 1 ? 2.0f : 0.0f) + noise(data_rng);
        labels[i] = c;
    }
    const nn::Matrix y = nn::one_hot(labels, 3);
    std::mt19937_64 rng(1);
    nn::Mlp net({2, 16, 3}, nn::Init::kKaimingUniform, rng);
    const nn::SoftmaxCrossEntropyLoss loss;
    nn::TrainConfig cfg;
    cfg.epochs = 30;
    nn::train(net, x, y, loss, cfg);
    const std::vector<int> pred = nn::argmax_rows(nn::predict(net, x));
    std::size_t hit = 0;
    for (std::size_t i = 0; i < pred.size(); ++i) hit += pred[i] == labels[i] ? 1u : 0u;
    EXPECT_GT(static_cast<double>(hit) / 1'500.0, 0.97);
}

// --- dropout ---------------------------------------------------------------------

TEST(Dropout, IdentityAtInference) {
    nn::Dropout drop(4, 0.5, 1);
    drop.set_training(false);
    nn::Matrix x{{1.0f, 2.0f, 3.0f, 4.0f}};
    EXPECT_LT(nn::max_abs_diff(drop.forward(x), x), 1e-9f);
}

TEST(Dropout, TrainingZeroesAboutPAndRescales) {
    nn::Dropout drop(1, 0.4, 2);
    drop.set_training(true);
    nn::Matrix x(10'000, 1, 1.0f);
    const nn::Matrix y = drop.forward(x);
    std::size_t zeros = 0;
    double sum = 0.0;
    for (const float v : y.data()) {
        if (v == 0.0f) ++zeros;
        else EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);
        sum += v;
    }
    EXPECT_NEAR(static_cast<double>(zeros) / 10'000.0, 0.4, 0.03);
    EXPECT_NEAR(sum / 10'000.0, 1.0, 0.05);  // inverted dropout keeps the mean
}

TEST(Dropout, BackwardUsesSameMask) {
    nn::Dropout drop(8, 0.5, 3);
    drop.set_training(true);
    nn::Matrix x(4, 8, 1.0f);
    const nn::Matrix y = drop.forward(x);
    nn::Matrix g(4, 8, 1.0f);
    const nn::Matrix gin = drop.backward(g);
    for (std::size_t i = 0; i < y.size(); ++i) {
        if (y.data()[i] == 0.0f) EXPECT_FLOAT_EQ(gin.data()[i], 0.0f);
        else EXPECT_GT(gin.data()[i], 1.0f);
    }
}

TEST(Dropout, InvalidRateThrows) {
    EXPECT_THROW(nn::Dropout(4, 1.0), std::invalid_argument);
    EXPECT_THROW(nn::Dropout(4, -0.1), std::invalid_argument);
}

TEST(Dropout, SerializesAndLoadsInInferenceMode) {
    nn::Mlp net;
    net.layers().push_back(std::make_unique<nn::Dense>(3, 4));
    net.layers().push_back(std::make_unique<nn::Dropout>(4, 0.5));
    net.layers().push_back(std::make_unique<nn::Dense>(4, 1));
    net.set_training(false);
    std::stringstream buf;
    nn::save_mlp(net, buf);
    nn::Mlp loaded = nn::load_mlp(buf);
    nn::Matrix x(2, 3, 1.0f);
    EXPECT_LT(nn::max_abs_diff(net.forward(x), loaded.forward(x)), 1e-7f);
}

// --- LR schedules -------------------------------------------------------------------

TEST(LrSchedule, SchedulesChangeTrainingTrajectory) {
    std::mt19937_64 data_rng(11);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix x(256, 2), y(256, 1);
    for (std::size_t i = 0; i < 256; ++i) {
        x.at(i, 0) = u(data_rng);
        x.at(i, 1) = u(data_rng);
        y.at(i, 0) = x.at(i, 0) > 0.0f ? 1.0f : 0.0f;
    }
    const nn::BceWithLogitsLoss loss;
    const auto run = [&](nn::LrSchedule schedule) {
        std::mt19937_64 rng(4);
        nn::Mlp net({2, 8, 1}, nn::Init::kKaimingUniform, rng);
        nn::TrainConfig cfg;
        cfg.epochs = 8;
        cfg.schedule = schedule;
        return nn::train(net, x, y, loss, cfg).final_loss();
    };
    const double constant = run(nn::LrSchedule::kConstant);
    const double cosine = run(nn::LrSchedule::kCosine);
    const double step = run(nn::LrSchedule::kStepDecay);
    EXPECT_TRUE(std::isfinite(constant));
    EXPECT_TRUE(std::isfinite(cosine));
    EXPECT_TRUE(std::isfinite(step));
    EXPECT_NE(constant, cosine);
    EXPECT_NE(constant, step);
}

// --- kNN -----------------------------------------------------------------------------

TEST(Knn, SolvesXor) {
    std::mt19937_64 rng(21);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix x(1'000, 2);
    std::vector<int> y(1'000);
    for (std::size_t i = 0; i < 1'000; ++i) {
        x.at(i, 0) = u(rng);
        x.at(i, 1) = u(rng);
        y[i] = x.at(i, 0) * x.at(i, 1) > 0.0f ? 1 : 0;
    }
    ml::KnnClassifier knn({.k = 5});
    knn.fit(x, y);
    const std::vector<int> pred = knn.predict(x);
    std::size_t hit = 0;
    for (std::size_t i = 0; i < pred.size(); ++i) hit += pred[i] == y[i] ? 1u : 0u;
    EXPECT_GT(static_cast<double>(hit) / 1'000.0, 0.95);
}

TEST(Knn, MultiClassVoting) {
    nn::Matrix x{{0.0f}, {0.1f}, {1.0f}, {1.1f}, {2.0f}, {2.1f}};
    const std::vector<int> y{0, 0, 1, 1, 2, 2};
    ml::KnnClassifier knn({.k = 2});
    knn.fit(x, y);
    nn::Matrix q{{0.05f}, {1.05f}, {2.05f}};
    const std::vector<int> pred = knn.predict(q);
    EXPECT_EQ(pred[0], 0);
    EXPECT_EQ(pred[1], 1);
    EXPECT_EQ(pred[2], 2);
}

TEST(Knn, SubsamplingCapsReferences) {
    nn::Matrix x(5'000, 1);
    std::vector<int> y(5'000, 0);
    for (std::size_t i = 0; i < 5'000; ++i) x.at(i, 0) = static_cast<float>(i);
    ml::KnnClassifier knn({.k = 1, .max_reference_rows = 500});
    knn.fit(x, y);
    EXPECT_LE(knn.reference_rows(), 500u + 1u);
}

TEST(Knn, Validation) {
    EXPECT_THROW(ml::KnnClassifier({.k = 0}), std::invalid_argument);
    ml::KnnClassifier knn;
    EXPECT_THROW(knn.predict(nn::Matrix(1, 1)), std::logic_error);
    nn::Matrix x(2, 1);
    EXPECT_THROW(knn.fit(x, {0, -1}), std::invalid_argument);
}

// --- windowed features + extension heads ----------------------------------------------

TEST(Extensions, WindowedFeaturesShapeAndContent) {
    data::Dataset ds;
    for (int i = 0; i < 30; ++i) {
        data::SampleRecord r;
        r.timestamp = i;
        for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
            r.csi[k] = (i % 2 == 0) ? 1.0f : 2.0f;  // alternating => known std
        ds.push_back(r);
    }
    const nn::Matrix f = core::make_windowed_features(ds.view(), 4);
    EXPECT_EQ(f.rows(), 30u);
    EXPECT_EQ(f.cols(), core::kWindowedFeatureCount);
    // Current amplitude copied through.
    EXPECT_FLOAT_EQ(f.at(10, 5), 1.0f);
    // Window {1,2,1,2}: population std = 0.5.
    EXPECT_NEAR(f.at(10, 64 + 5), 0.5f, 1e-5f);
    EXPECT_THROW(core::make_windowed_features(ds.view(), 0), std::invalid_argument);
}

TEST(Extensions, MulticlassConfusionBookkeeping) {
    const std::vector<int> truth{0, 0, 1, 2, 2, 2};
    const std::vector<int> pred{0, 1, 1, 2, 2, 0};
    const core::MultiClassResult r = core::evaluate_multiclass(truth, pred, 3);
    EXPECT_EQ(r.at(0, 0), 1u);
    EXPECT_EQ(r.at(0, 1), 1u);
    EXPECT_EQ(r.at(2, 2), 2u);
    EXPECT_EQ(r.at(2, 0), 1u);
    EXPECT_NEAR(r.accuracy, 4.0 / 6.0, 1e-12);
    EXPECT_NEAR(r.per_class_recall[2], 2.0 / 3.0, 1e-12);
    const std::string out = r.render({"a", "b", "c"});
    EXPECT_NE(out.find("recall"), std::string::npos);
    EXPECT_THROW(core::evaluate_multiclass({0}, {5}, 3), std::invalid_argument);
}

TEST(Extensions, ActivityRecognizerEndToEnd) {
    // Short, fast run: the recognizer must nail empty-vs-present and keep
    // occupancy accuracy (the "simultaneous" future-work requirement) high.
    const data::Dataset ds = core::generate_paper_dataset(0.2);
    const data::FoldSplit split = data::split_paper_folds(ds);
    core::ExtensionConfig cfg;
    cfg.train_stride = 2;
    cfg.window = 10;
    core::ActivityRecognizer rec(cfg);
    const auto history = rec.fit(split.train);
    EXPECT_FALSE(history.epoch_loss.empty());

    // Empty night fold: everything must be class 0.
    const core::MultiClassResult night = rec.evaluate(split.test[1]);
    EXPECT_GT(night.per_class_recall[0], 0.95);
    // Occupied afternoon: occupancy derived from the activity head.
    EXPECT_GT(rec.occupancy_accuracy(split.test[4]), 0.9);
    EXPECT_THROW(core::ActivityRecognizer().predict(split.test[0]), std::logic_error);
}

TEST(Extensions, OccupantCounterEndToEnd) {
    const data::Dataset ds = core::generate_paper_dataset(0.2);
    const data::FoldSplit split = data::split_paper_folds(ds);
    core::ExtensionConfig cfg;
    cfg.train_stride = 2;
    cfg.window = 10;
    core::OccupantCounter counter(cfg);
    counter.fit(split.train);

    // Counting zero people on an empty night is the easy case.
    const core::MultiClassResult night = counter.evaluate(split.test[2]);
    EXPECT_GT(night.per_class_recall[0], 0.9);
    // Counting error on the occupied folds stays below one person on average.
    EXPECT_LT(counter.mean_count_error(split.test[4]), 2.0);  // trivial all-zero guess scores ~3.5 here
    EXPECT_THROW(core::OccupantCounter().predict(split.test[0]), std::logic_error);
}

TEST(Extensions, ActivityLabelsConsistentWithOccupancy) {
    const data::Dataset ds = core::generate_paper_dataset(0.2);
    for (std::size_t i = 0; i < ds.size(); i += 41) {
        const data::SampleRecord& r = ds[i];
        if (r.occupancy == 0)
            ASSERT_EQ(r.activity, static_cast<std::uint8_t>(data::ActivityLabel::kEmpty));
        else
            ASSERT_NE(r.activity, static_cast<std::uint8_t>(data::ActivityLabel::kEmpty));
    }
}
