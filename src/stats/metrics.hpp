// Evaluation metrics used throughout the paper:
//   - classification: accuracy (Table IV), confusion matrix, precision,
//     recall, F1;
//   - regression: MAE / MAPE per Eq. (2)-(3) (Table V), plus MSE/RMSE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace wifisense::stats {

/// Binary confusion matrix; positives are label 1 ("occupied").
struct ConfusionMatrix {
    std::uint64_t tp = 0;
    std::uint64_t tn = 0;
    std::uint64_t fp = 0;
    std::uint64_t fn = 0;

    std::uint64_t total() const { return tp + tn + fp + fn; }
    double accuracy() const;
    double precision() const;  ///< tp / (tp + fp); 0 when undefined
    double recall() const;     ///< tp / (tp + fn); 0 when undefined
    double f1() const;         ///< harmonic mean of precision/recall
    std::string to_string() const;
};

/// Build a confusion matrix from {0,1} label vectors of equal length.
ConfusionMatrix confusion(std::span<const int> truth, std::span<const int> pred);

/// Fraction of matching labels; both spans must be equal, non-empty length.
double accuracy(std::span<const int> truth, std::span<const int> pred);

/// Mean absolute error, Eq. (2). Spans must be equal, non-empty length.
double mae(std::span<const double> truth, std::span<const double> pred);
double mae(std::span<const float> truth, std::span<const float> pred);

/// Mean absolute percentage error, Eq. (3), reported in percent
/// (i.e. 12.65 means 12.65%). eps guards division by |y| near zero.
double mape(std::span<const double> truth, std::span<const double> pred, double eps = 1e-9);
double mape(std::span<const float> truth, std::span<const float> pred, double eps = 1e-9);

double mse(std::span<const double> truth, std::span<const double> pred);

/// Mean binary cross-entropy, Eq. (4); probabilities are clamped to
/// [eps, 1-eps] so a confident wrong prediction stays finite.
double binary_cross_entropy(std::span<const float> targets,
                            std::span<const float> probabilities, double eps = 1e-7);

}  // namespace wifisense::stats
