#include "core/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "common/parallel.hpp"
#include "core/occupancy_detector.hpp"
#include "data/scaler.hpp"
#include "data/simtime.hpp"
#include "ml/linear_regression.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/random_forest.hpp"
#include "nn/loss.hpp"
#include "nn/quant.hpp"
#include "nn/trainer.hpp"
#include "stats/adf.hpp"
#include "stats/correlation.hpp"
#include "stats/metrics.hpp"
#include "xai/gradcam.hpp"

namespace wifisense::core {

data::Dataset generate_paper_dataset(double sample_rate_hz, std::uint64_t seed) {
    envsim::OfficeSimulator sim(envsim::paper_config(sample_rate_hz, seed));
    return sim.run();
}

std::string to_string(Model m) {
    switch (m) {
        case Model::kLogistic: return "Logistic Regressor";
        case Model::kRandomForest: return "Random Forest";
        case Model::kMlp: return "MLP";
    }
    throw std::invalid_argument("to_string: unknown model");
}

namespace {

/// Stride-subsampled owning copy of a fold (bounded training cost).
std::vector<data::SampleRecord> strided_records(const data::DatasetView& view,
                                                std::size_t stride) {
    std::vector<data::SampleRecord> out;
    out.reserve(view.size() / stride + 1);
    for (std::size_t i = 0; i < view.size(); i += stride) out.push_back(view[i]);
    return out;
}

std::vector<int> labels_of(std::span<const data::SampleRecord> rows) {
    std::vector<int> y(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) y[i] = rows[i].occupancy;
    return y;
}

/// Resolve a train_stride of 0 to "about `target` rows".
std::size_t resolve_stride(std::size_t configured, std::size_t n,
                           std::size_t target = 25'000) {
    if (configured > 0) return configured;
    return std::max<std::size_t>(1, n / target);
}

/// Preprocessed data for one Table IV feature view, shared read-only by the
/// three model cells of that view.
struct FeatureBundle {
    std::vector<data::SampleRecord> train_rows;
    std::vector<int> train_y;
    data::StandardScaler scaler;
    nn::Matrix train_x;
    std::array<nn::Matrix, data::kNumTestFolds> test_x;
    std::array<std::vector<int>, data::kNumTestFolds> test_y;
    // Extra-strided view for the random forest (CART cost grows
    // superlinearly in rows); it keeps its own scaler.
    std::vector<int> rf_y;
    data::StandardScaler rf_scaler;
    nn::Matrix rf_x;
};

}  // namespace

// ---------------------------------------------------------------------------
// Table IV
// ---------------------------------------------------------------------------

Table4Result run_table4(const data::FoldSplit& split, const Table4Config& cfg) {
    Table4Result res;
    const std::size_t stride = resolve_stride(cfg.train_stride, split.train.size());

    // Phase 1: per-feature-view preprocessing, one independent task each.
    std::array<FeatureBundle, kTable4Features.size()> bundles;
    common::parallel_for(kTable4Features.size(), [&](std::size_t fi) {
        const data::FeatureSet features = kTable4Features[fi];
        FeatureBundle& b = bundles[fi];
        b.train_rows = strided_records(split.train, stride);
        b.train_y = labels_of(b.train_rows);
        b.train_x = b.scaler.fit_transform(data::make_features(b.train_rows, features));
        for (std::size_t f = 0; f < data::kNumTestFolds; ++f) {
            b.test_x[f] = b.scaler.transform(split.test[f].features(features));
            b.test_y[f] = split.test[f].labels();
        }
        const std::vector<data::SampleRecord> rf_rows =
            strided_records(split.train, stride * cfg.forest_extra_stride);
        b.rf_y = labels_of(rf_rows);
        b.rf_x = b.rf_scaler.fit_transform(data::make_features(rf_rows, features));
    });

    // Phase 2: every (model x feature-view) cell is an independent task that
    // trains from its own seed and writes a disjoint slice of `res`, so the
    // table is bitwise identical at any thread count. Nested parallelism
    // (matmul row blocks, forest trees) runs inline on the cell's worker.
    std::vector<std::function<void()>> cells;
    for (std::size_t fi = 0; fi < kTable4Features.size(); ++fi) {
        const data::FeatureSet features = kTable4Features[fi];

        cells.push_back([&, fi] {  // --- Logistic regression ---
            const FeatureBundle& b = bundles[fi];
            ml::LogisticRegression lr({.epochs = 12,
                                       .batch_size = 512,
                                       .learning_rate = 0.1,
                                       .l2 = 1e-4,
                                       .seed = cfg.seed});
            lr.fit(b.train_x, b.train_y);
            for (std::size_t f = 0; f < data::kNumTestFolds; ++f)
                res.accuracy[static_cast<std::size_t>(Model::kLogistic)][fi][f] =
                    100.0 * stats::accuracy(b.test_y[f], lr.predict(b.test_x[f]));
        });

        cells.push_back([&, fi, features] {  // --- Random forest ---
            const FeatureBundle& b = bundles[fi];
            ml::RandomForest forest({.n_trees = 40, .seed = cfg.seed});
            forest.fit(b.rf_x, b.rf_y);
            for (std::size_t f = 0; f < data::kNumTestFolds; ++f) {
                const nn::Matrix tx =
                    b.rf_scaler.transform(split.test[f].features(features));
                res.accuracy[static_cast<std::size_t>(Model::kRandomForest)][fi][f] =
                    100.0 * stats::accuracy(b.test_y[f], forest.predict(tx));
            }
        });

        cells.push_back([&, fi, features] {  // --- MLP ---
            const FeatureBundle& b = bundles[fi];
            nn::Matrix train_labels(b.train_rows.size(), 1);
            for (std::size_t i = 0; i < b.train_rows.size(); ++i)
                train_labels.at(i, 0) = static_cast<float>(b.train_rows[i].occupancy);
            std::mt19937_64 rng(cfg.seed);
            nn::Mlp net = nn::paper_mlp(data::feature_count(features), rng);
            const nn::BceWithLogitsLoss loss;
            nn::TrainConfig tc;
            tc.seed = cfg.seed;
            tc.input_noise = 0.3;  // density surrogate, see TrainConfig docs
            nn::train(net, b.train_x, train_labels, loss, tc);
            for (std::size_t f = 0; f < data::kNumTestFolds; ++f)
                res.accuracy[static_cast<std::size_t>(Model::kMlp)][fi][f] =
                    100.0 * stats::accuracy(b.test_y[f],
                                            nn::predict_binary(net, b.test_x[f]));
            if (cfg.eval_int8) {
                // Calibrate activation scales on a strided slice of the
                // (scaled) training features — held out from the test folds.
                const std::size_t calib_stride =
                    std::max<std::size_t>(1, b.train_x.rows() / 2048);
                const std::size_t calib_rows =
                    (b.train_x.rows() + calib_stride - 1) / calib_stride;
                nn::Matrix calib(calib_rows, b.train_x.cols());
                for (std::size_t r = 0; r < calib_rows; ++r)
                    std::copy_n(b.train_x.row(r * calib_stride).data(),
                                b.train_x.cols(), calib.row(r).data());
                nn::QuantizedMlp qnet = nn::quantize_mlp(net, calib);
                for (std::size_t f = 0; f < data::kNumTestFolds; ++f)
                    res.int8_accuracy[fi][f] =
                        100.0 * stats::accuracy(
                                    b.test_y[f],
                                    nn::predict_binary(qnet, b.test_x[f]));
            }
        });
    }
    common::parallel_invoke(cells);

    for (std::size_t m = 0; m < 3; ++m)
        for (std::size_t fi = 0; fi < 3; ++fi) {
            double acc = 0.0;
            for (std::size_t f = 0; f < data::kNumTestFolds; ++f)
                acc += res.accuracy[m][fi][f];
            res.average[m][fi] = acc / static_cast<double>(data::kNumTestFolds);
        }
    if (cfg.eval_int8) {
        res.has_int8 = true;
        for (std::size_t fi = 0; fi < 3; ++fi) {
            double acc = 0.0;
            for (std::size_t f = 0; f < data::kNumTestFolds; ++f)
                acc += res.int8_accuracy[fi][f];
            res.int8_average[fi] = acc / static_cast<double>(data::kNumTestFolds);
        }
    }

    // Time-only baseline (the paper's 89.3% figure): the same MLP trained on
    // the single seconds-of-day feature.
    {
        const std::vector<data::SampleRecord> train_rows =
            strided_records(split.train, stride);
        data::StandardScaler scaler;
        const nn::Matrix train_x = scaler.fit_transform(
            data::make_features(train_rows, data::FeatureSet::kTime));
        nn::Matrix train_labels(train_rows.size(), 1);
        for (std::size_t i = 0; i < train_rows.size(); ++i)
            train_labels.at(i, 0) = static_cast<float>(train_rows[i].occupancy);
        std::mt19937_64 rng(cfg.seed);
        nn::Mlp net = nn::paper_mlp(1, rng);
        const nn::BceWithLogitsLoss loss;
        nn::TrainConfig tc;
        tc.seed = cfg.seed;
        nn::train(net, train_x, train_labels, loss, tc);

        std::uint64_t hit = 0, total = 0;
        for (const data::DatasetView& fold : split.test) {
            const nn::Matrix tx =
                scaler.transform(fold.features(data::FeatureSet::kTime));
            const std::vector<int> pred = nn::predict_binary(net, tx);
            const std::vector<int> truth = fold.labels();
            for (std::size_t i = 0; i < pred.size(); ++i)
                hit += pred[i] == truth[i] ? 1u : 0u;
            total += pred.size();
        }
        res.time_baseline_pct =
            100.0 * static_cast<double>(hit) / static_cast<double>(total);
    }

    return res;
}

double Table4Result::int8_delta_pp_max() const {
    double worst = 0.0;
    const std::size_t mlp = static_cast<std::size_t>(Model::kMlp);
    for (std::size_t fi = 0; fi < 3; ++fi)
        worst = std::max(worst, std::abs(average[mlp][fi] - int8_average[fi]));
    return worst;
}

std::string Table4Result::render() const {
    std::ostringstream os;
    os << "Occupancy detection accuracy (%) over the 5 testing folds\n";
    os << "      | Logistic Regressor | Random Forest      | MLP\n";
    os << "Fold  | CSI   Env   C+E    | CSI   Env   C+E    | CSI   Env   C+E\n";
    const auto row = [&](const char* name, std::size_t f, bool avg) {
        os << name << " |";
        for (std::size_t m = 0; m < 3; ++m) {
            for (std::size_t fi = 0; fi < 3; ++fi) {
                const double v = avg ? average[m][fi] : accuracy[m][fi][f];
                char buf[16];
                std::snprintf(buf, sizeof(buf), " %5.1f", v);
                os << buf;
            }
            os << "  |";
        }
        os << "\n";
    };
    for (std::size_t f = 0; f < data::kNumTestFolds; ++f) {
        char name[8];
        std::snprintf(name, sizeof(name), "%-5zu", f + 1);
        row(name, f, false);
    }
    row("Avg. ", 0, true);
    if (has_int8) {
        os << "int8  |                    |                    |";
        for (std::size_t fi = 0; fi < 3; ++fi) {
            char buf[16];
            std::snprintf(buf, sizeof(buf), " %5.1f", int8_average[fi]);
            os << buf;
        }
        char delta[48];
        std::snprintf(delta, sizeof(delta), "  | (max delta %.2f pp)\n",
                      int8_delta_pp_max());
        os << delta;
    }
    char tail[64];
    std::snprintf(tail, sizeof(tail), "Time-only baseline: %.1f%%\n",
                  time_baseline_pct);
    os << tail;
    return os.str();
}

// ---------------------------------------------------------------------------
// Table V
// ---------------------------------------------------------------------------

Table5Result run_table5(const data::FoldSplit& split, const Table5Config& cfg) {
    Table5Result res;

    const std::vector<data::SampleRecord> train_rows = strided_records(
        split.train, resolve_stride(cfg.train_stride, split.train.size()));

    data::StandardScaler scaler;
    const nn::Matrix train_x = scaler.fit_transform(
        data::make_features(train_rows, data::FeatureSet::kCsi));

    nn::Matrix train_env(train_rows.size(), 2);
    for (std::size_t i = 0; i < train_rows.size(); ++i) {
        train_env.at(i, 0) = train_rows[i].temperature_c;
        train_env.at(i, 1) = train_rows[i].humidity_pct;
    }

    // Targets are standardized for the NN (regression heads train poorly on
    // raw 20-40 ranges with this lr); predictions are mapped back before
    // computing MAE/MAPE. The linear model works on raw targets.
    data::StandardScaler target_scaler;
    const nn::Matrix train_env_std = target_scaler.fit_transform(train_env);

    ml::LinearRegression linear;
    linear.fit(train_x, train_env);

    std::mt19937_64 rng(cfg.seed);
    nn::Mlp net = nn::paper_regression_mlp(data::kNumSubcarriers, 2, rng);
    {
        const nn::MseLoss loss;
        nn::TrainConfig tc;
        tc.epochs = cfg.nn_epochs;
        tc.seed = cfg.seed;
        tc.input_noise = 0.1;  // density surrogate, see TrainConfig docs
        nn::train(net, train_x, train_env_std, loss, tc);
    }

    // Independent fold cells: each fold evaluates both models against its own
    // slice of `res`. The network is cloned per fold because the workspace
    // (batch staging and activation buffers) is per-instance and cannot be
    // shared across concurrent forwards.
    std::vector<std::function<void()>> fold_cells;
    for (std::size_t f = 0; f < data::kNumTestFolds; ++f) {
        fold_cells.push_back([&, f] {
            const data::DatasetView& fold = split.test[f];
            const nn::Matrix tx =
                scaler.transform(fold.features(data::FeatureSet::kCsi));

            std::vector<double> truth_t(fold.size()), truth_h(fold.size());
            for (std::size_t i = 0; i < fold.size(); ++i) {
                truth_t[i] = static_cast<double>(fold[i].temperature_c);
                truth_h[i] = static_cast<double>(fold[i].humidity_pct);
            }

            const auto eval = [&](const nn::Matrix& pred, std::size_t model) {
                std::vector<double> pt(fold.size()), ph(fold.size());
                for (std::size_t i = 0; i < fold.size(); ++i) {
                    pt[i] = static_cast<double>(pred.at(i, 0));
                    ph[i] = static_cast<double>(pred.at(i, 1));
                }
                res.mae_t[model][f] = stats::mae(std::span<const double>(truth_t), pt);
                res.mae_h[model][f] = stats::mae(std::span<const double>(truth_h), ph);
                res.mape_t[model][f] = stats::mape(std::span<const double>(truth_t), pt);
                res.mape_h[model][f] = stats::mape(std::span<const double>(truth_h), ph);
            };

            eval(linear.predict(tx), 0);

            nn::Mlp fold_net = net.clone();
            nn::Matrix nn_pred = nn::predict(fold_net, tx);
            // Undo target standardization.
            for (std::size_t i = 0; i < nn_pred.rows(); ++i)
                for (std::size_t c = 0; c < 2; ++c)
                    nn_pred.at(i, c) = static_cast<float>(
                        static_cast<double>(nn_pred.at(i, c)) *
                            target_scaler.scale()[c] +
                        target_scaler.mean()[c]);
            eval(nn_pred, 1);
        });
    }
    common::parallel_invoke(fold_cells);

    for (std::size_t m = 0; m < 2; ++m) {
        for (std::size_t f = 0; f < data::kNumTestFolds; ++f) {
            res.avg_mae_t[m] += res.mae_t[m][f];
            res.avg_mae_h[m] += res.mae_h[m][f];
            res.avg_mape_t[m] += res.mape_t[m][f];
            res.avg_mape_h[m] += res.mape_h[m][f];
        }
        const double inv = 1.0 / static_cast<double>(data::kNumTestFolds);
        res.avg_mae_t[m] *= inv;
        res.avg_mae_h[m] *= inv;
        res.avg_mape_t[m] *= inv;
        res.avg_mape_h[m] *= inv;
    }
    return res;
}

std::string Table5Result::render() const {
    std::ostringstream os;
    os << "MAE/MAPE of linear vs neural-network regression on humidity (H) and "
          "temperature (T)\n";
    os << "      | Linear Regressor          | Neural Network\n";
    os << "Fold  | MAE (T/H)    MAPE (T/H)   | MAE (T/H)    MAPE (T/H)\n";
    const auto row = [&](const char* name, auto get_t, auto get_h, auto get_mt,
                         auto get_mh) {
        os << name << " |";
        for (std::size_t m = 0; m < 2; ++m) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), " %5.2f/%-5.2f  %5.2f/%-6.2f |",
                          get_t(m), get_h(m), get_mt(m), get_mh(m));
            os << buf;
        }
        os << "\n";
    };
    for (std::size_t f = 0; f < data::kNumTestFolds; ++f) {
        char name[8];
        std::snprintf(name, sizeof(name), "%-5zu", f + 1);
        row(name, [&](std::size_t m) { return mae_t[m][f]; },
            [&](std::size_t m) { return mae_h[m][f]; },
            [&](std::size_t m) { return mape_t[m][f]; },
            [&](std::size_t m) { return mape_h[m][f]; });
    }
    row("Avg. ", [&](std::size_t m) { return avg_mae_t[m]; },
        [&](std::size_t m) { return avg_mae_h[m]; },
        [&](std::size_t m) { return avg_mape_t[m]; },
        [&](std::size_t m) { return avg_mape_h[m]; });
    return os.str();
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

Figure3Result run_figure3(const data::FoldSplit& split, const Figure3Config& cfg) {
    // Train the paper's C+E classifier.
    DetectorConfig dc;
    dc.features = data::FeatureSet::kCsiEnv;
    dc.train_stride = resolve_stride(cfg.train_stride, split.train.size());
    dc.seed = cfg.seed;
    OccupancyDetector det(dc);
    det.fit(split.train);

    // Evaluation batch: strided sweep over all test folds.
    std::size_t total = 0;
    for (const data::DatasetView& f : split.test) total += f.size();
    const std::size_t stride = std::max<std::size_t>(1, total / cfg.max_eval_samples);
    std::vector<data::SampleRecord> rows;
    for (const data::DatasetView& f : split.test)
        for (std::size_t i = 0; i < f.size(); i += stride) rows.push_back(f[i]);

    const nn::Matrix x =
        det.scaler().transform(data::make_features(rows, data::FeatureSet::kCsiEnv));

    xai::GradCam cam(det.network());
    const xai::GradCamResult g = cam.explain(x, {.target_class = 1});

    Figure3Result res;
    res.importance = g.input_importance;
    return res;
}

std::vector<double> Figure3Result::normalized() const {
    double peak = 0.0;
    for (const double v : importance) peak = std::max(peak, std::abs(v));
    std::vector<double> out = importance;
    if (peak > 0.0)
        for (double& v : out) v /= peak;
    return out;
}

double Figure3Result::csi_mass() const {
    double m = 0.0;
    for (std::size_t i = 0; i < std::min<std::size_t>(64, importance.size()); ++i)
        m += std::abs(importance[i]);
    return m;
}

double Figure3Result::env_mass() const {
    double m = 0.0;
    for (std::size_t i = 64; i < importance.size(); ++i) m += std::abs(importance[i]);
    return m;
}

std::string Figure3Result::render(std::size_t width) const {
    std::ostringstream os;
    const std::vector<double> norm = normalized();
    os << "Grad-CAM feature importance (signed, normalized to max |.| = 1)\n";
    for (std::size_t i = 0; i < norm.size(); ++i) {
        // Fixed buffer instead of `"a" + std::to_string(i)`: gcc 12 emits a
        // spurious -Wrestrict through the inlined std::string concatenation
        // (PR105651) which -Werror would promote.
        char label[16];
        if (i < 64)
            std::snprintf(label, sizeof(label), "a%zu", i);
        else
            std::snprintf(label, sizeof(label), "%s",
                          i == 64 ? "e (temp)" : "h (hum)");
        const auto bars = static_cast<std::size_t>(
            std::abs(norm[i]) * static_cast<double>(width));
        char head[32];
        std::snprintf(head, sizeof(head), "%-9s %+7.3f ", label, norm[i]);
        os << head << std::string(bars, norm[i] >= 0.0 ? '#' : '-') << "\n";
    }
    char tail[96];
    std::snprintf(tail, sizeof(tail),
                  "|importance| mass: CSI %.4g vs Env %.4g (ratio %.1fx)\n",
                  csi_mass(), env_mass(),
                  env_mass() > 0 ? csi_mass() / env_mass() : 0.0);
    os << tail;
    return os.str();
}

// ---------------------------------------------------------------------------
// Section V-A profiling
// ---------------------------------------------------------------------------

ProfilingResult run_profiling(const data::DatasetView& view, std::size_t stride) {
    if (view.size() < 2) throw std::invalid_argument("run_profiling: too few samples");
    if (stride == 0) {
        const double dt = (view.end_time() - view.start_time()) /
                          static_cast<double>(view.size() - 1);
        stride = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(4.0 / dt)));
    }
    // Strided series keep ADF/correlation costs bounded on 20 Hz datasets.
    std::vector<double> temp, hum, occ, tod;
    std::vector<std::vector<double>> sub(data::kNumSubcarriers);
    for (std::size_t i = 0; i < view.size(); i += stride) {
        const data::SampleRecord& r = view[i];
        temp.push_back(static_cast<double>(r.temperature_c));
        hum.push_back(static_cast<double>(r.humidity_pct));
        occ.push_back(static_cast<double>(r.occupancy));
        tod.push_back(data::seconds_of_day(r.timestamp));
        for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
            sub[k].push_back(static_cast<double>(r.csi[k]));
    }
    if (temp.size() < 64) throw std::invalid_argument("run_profiling: too few samples");

    ProfilingResult res;
    const auto sp = [](const std::vector<double>& v) {
        return std::span<const double>(v);
    };
    res.rho_temp_humidity = stats::pearson(sp(temp), sp(hum));
    res.rho_temp_occupancy = stats::pearson(sp(temp), sp(occ));
    res.rho_hum_occupancy = stats::pearson(sp(hum), sp(occ));
    res.rho_time_env = stats::pearson(sp(tod), sp(temp));

    for (std::size_t k = 15; k <= 28; ++k)
        res.rho_subcarrier_env_max =
            std::max({res.rho_subcarrier_env_max,
                      std::abs(stats::pearson(sp(sub[k]), sp(temp))),
                      std::abs(stats::pearson(sp(sub[k]), sp(hum)))});
    for (std::size_t k = 48; k < 64; ++k)
        res.rho_subcarrier_env_max =
            std::max({res.rho_subcarrier_env_max,
                      std::abs(stats::pearson(sp(sub[k]), sp(temp))),
                      std::abs(stats::pearson(sp(sub[k]), sp(hum)))});

    // Fixed moderate lag order: the Schwert rule picks ~55 lags at this
    // length, which drains the test's power on slowly-mean-reverting series.
    const std::size_t lags = std::min<std::size_t>(16, temp.size() / 12);
    const stats::AdfResult at = stats::adf_test(sp(temp), lags);
    const stats::AdfResult ah = stats::adf_test(sp(hum), lags);
    const stats::AdfResult as = stats::adf_test(sp(sub[0]), lags);
    res.adf_temperature = at.statistic;
    res.adf_humidity = ah.statistic;
    res.adf_subcarrier0 = as.statistic;
    res.adf_crit_5pct = at.crit_5pct;
    res.all_stationary =
        at.stationary_5pct && ah.stationary_5pct && as.stationary_5pct;
    return res;
}

std::string ProfilingResult::render() const {
    std::ostringstream os;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "Pearson correlations (paper values in parentheses)\n"
                  "  temperature-humidity : %+.2f  (0.45)\n"
                  "  temperature-occupancy: %+.2f  (0.44)\n"
                  "  humidity-occupancy   : %+.2f  (0.35)\n"
                  "  time-of-day-temp     : %+.2f  (0.77)\n"
                  "  max |subcarrier-env| : %+.2f  (~0.20-0.30)\n"
                  "ADF unit-root t statistics (crit 5%% = %.2f)\n"
                  "  temperature: %.2f  humidity: %.2f  subcarrier a0: %.2f\n"
                  "  all stationary @5%%: %s\n",
                  rho_temp_humidity, rho_temp_occupancy, rho_hum_occupancy,
                  rho_time_env, rho_subcarrier_env_max, adf_crit_5pct,
                  adf_temperature, adf_humidity, adf_subcarrier0,
                  all_stationary ? "yes" : "no");
    os << buf;
    return os.str();
}

}  // namespace wifisense::core
