#include "stats/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace wifisense::stats {

double ConfusionMatrix::accuracy() const {
    const std::uint64_t t = total();
    if (t == 0) return 0.0;
    return static_cast<double>(tp + tn) / static_cast<double>(t);
}

double ConfusionMatrix::precision() const {
    if (tp + fp == 0) return 0.0;
    return static_cast<double>(tp) / static_cast<double>(tp + fp);
}

double ConfusionMatrix::recall() const {
    if (tp + fn == 0) return 0.0;
    return static_cast<double>(tp) / static_cast<double>(tp + fn);
}

double ConfusionMatrix::f1() const {
    const double p = precision();
    const double r = recall();
    if (p + r == 0.0) return 0.0;
    return 2.0 * p * r / (p + r);
}

std::string ConfusionMatrix::to_string() const {
    std::ostringstream os;
    os << "tp=" << tp << " tn=" << tn << " fp=" << fp << " fn=" << fn
       << " acc=" << accuracy() << " P=" << precision() << " R=" << recall()
       << " F1=" << f1();
    return os.str();
}

namespace {

void check_pair(std::size_t a, std::size_t b, const char* what) {
    if (a != b) throw std::invalid_argument(std::string(what) + ": length mismatch");
    if (a == 0) throw std::invalid_argument(std::string(what) + ": empty input");
}

template <class T>
double mae_impl(std::span<const T> truth, std::span<const T> pred) {
    check_pair(truth.size(), pred.size(), "mae");
    double acc = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i)
        acc += std::abs(static_cast<double>(truth[i]) - static_cast<double>(pred[i]));
    return acc / static_cast<double>(truth.size());
}

template <class T>
double mape_impl(std::span<const T> truth, std::span<const T> pred, double eps) {
    check_pair(truth.size(), pred.size(), "mape");
    double acc = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        const double y = static_cast<double>(truth[i]);
        const double e = std::abs(y - static_cast<double>(pred[i]));
        acc += e / std::max(eps, std::abs(y));
    }
    return 100.0 * acc / static_cast<double>(truth.size());
}

}  // namespace

ConfusionMatrix confusion(std::span<const int> truth, std::span<const int> pred) {
    check_pair(truth.size(), pred.size(), "confusion");
    ConfusionMatrix cm;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        const bool t = truth[i] != 0;
        const bool p = pred[i] != 0;
        if (t && p) ++cm.tp;
        else if (!t && !p) ++cm.tn;
        else if (!t && p) ++cm.fp;
        else ++cm.fn;
    }
    return cm;
}

double accuracy(std::span<const int> truth, std::span<const int> pred) {
    check_pair(truth.size(), pred.size(), "accuracy");
    std::size_t hit = 0;
    for (std::size_t i = 0; i < truth.size(); ++i)
        if ((truth[i] != 0) == (pred[i] != 0)) ++hit;
    return static_cast<double>(hit) / static_cast<double>(truth.size());
}

double mae(std::span<const double> truth, std::span<const double> pred) {
    return mae_impl(truth, pred);
}
double mae(std::span<const float> truth, std::span<const float> pred) {
    return mae_impl(truth, pred);
}

double mape(std::span<const double> truth, std::span<const double> pred, double eps) {
    return mape_impl(truth, pred, eps);
}
double mape(std::span<const float> truth, std::span<const float> pred, double eps) {
    return mape_impl(truth, pred, eps);
}

double mse(std::span<const double> truth, std::span<const double> pred) {
    check_pair(truth.size(), pred.size(), "mse");
    double acc = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        const double d = truth[i] - pred[i];
        acc += d * d;
    }
    return acc / static_cast<double>(truth.size());
}

double binary_cross_entropy(std::span<const float> targets,
                            std::span<const float> probabilities, double eps) {
    check_pair(targets.size(), probabilities.size(), "binary_cross_entropy");
    double acc = 0.0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
        const double y = static_cast<double>(targets[i]);
        const double p =
            std::clamp(static_cast<double>(probabilities[i]), eps, 1.0 - eps);
        acc += y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
    }
    return -acc / static_cast<double>(targets.size());
}

}  // namespace wifisense::stats
