// Covariance and Pearson correlation, used by the data-profiling experiment
// of Section V-A (T-H rho = 0.45, T-occupancy rho = 0.44, ...).
#pragma once

#include <cstddef>
#include <span>

namespace wifisense::stats {

/// Sample covariance (n-1 normalization). Ranges must have equal length >= 2.
double covariance(std::span<const double> xs, std::span<const double> ys);

/// Pearson correlation coefficient rho in [-1, 1].
/// Returns 0 when either series has zero variance.
double pearson(std::span<const double> xs, std::span<const double> ys);
double pearson(std::span<const float> xs, std::span<const float> ys);

/// Autocorrelation of a series at the given lag (0 => 1.0).
double autocorrelation(std::span<const double> xs, std::size_t lag);

}  // namespace wifisense::stats
