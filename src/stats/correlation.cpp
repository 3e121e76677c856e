#include "stats/correlation.hpp"

#include <cmath>
#include <stdexcept>

namespace wifisense::stats {

namespace {

struct Moments {
    double mean_x = 0.0, mean_y = 0.0;
    double sxx = 0.0, syy = 0.0, sxy = 0.0;  // centered sums of squares/products
};

template <class T>
Moments moments(std::span<const T> xs, std::span<const T> ys) {
    if (xs.size() != ys.size())
        throw std::invalid_argument("correlation: length mismatch");
    if (xs.size() < 2)
        throw std::invalid_argument("correlation: need at least 2 samples");
    Moments m;
    const auto n = static_cast<double>(xs.size());
    double sx = 0.0, sy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sx += static_cast<double>(xs[i]);
        sy += static_cast<double>(ys[i]);
    }
    m.mean_x = sx / n;
    m.mean_y = sy / n;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = static_cast<double>(xs[i]) - m.mean_x;
        const double dy = static_cast<double>(ys[i]) - m.mean_y;
        m.sxx += dx * dx;
        m.syy += dy * dy;
        m.sxy += dx * dy;
    }
    return m;
}

template <class T>
double pearson_impl(std::span<const T> xs, std::span<const T> ys) {
    const Moments m = moments(xs, ys);
    const double denom = std::sqrt(m.sxx) * std::sqrt(m.syy);
    if (denom == 0.0) return 0.0;
    return m.sxy / denom;
}

}  // namespace

double covariance(std::span<const double> xs, std::span<const double> ys) {
    const Moments m = moments(xs, ys);
    return m.sxy / static_cast<double>(xs.size() - 1);
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
    return pearson_impl(xs, ys);
}

double pearson(std::span<const float> xs, std::span<const float> ys) {
    return pearson_impl(xs, ys);
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
    if (lag == 0) return 1.0;
    if (xs.size() <= lag + 1) throw std::invalid_argument("autocorrelation: series too short");
    const std::span<const double> head = xs.subspan(0, xs.size() - lag);
    const std::span<const double> tail = xs.subspan(lag);
    return pearson(head, tail);
}

}  // namespace wifisense::stats
