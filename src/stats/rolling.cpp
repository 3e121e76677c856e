#include "stats/rolling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wifisense::stats {

namespace {

void check_window(std::size_t window) {
    if (window == 0) throw std::invalid_argument("rolling: zero window");
}

}  // namespace

std::vector<double> rolling_mean(std::span<const double> xs, std::size_t window) {
    check_window(window);
    std::vector<double> out(xs.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sum += xs[i];
        if (i >= window) sum -= xs[i - window];
        const std::size_t n = std::min(i + 1, window);
        out[i] = sum / static_cast<double>(n);
    }
    return out;
}

std::vector<double> rolling_std(std::span<const double> xs, std::size_t window) {
    check_window(window);
    std::vector<double> out(xs.size());
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sum += xs[i];
        sum_sq += xs[i] * xs[i];
        if (i >= window) {
            sum -= xs[i - window];
            sum_sq -= xs[i - window] * xs[i - window];
        }
        const auto n = static_cast<double>(std::min(i + 1, window));
        const double mean = sum / n;
        const double var = std::max(0.0, sum_sq / n - mean * mean);
        out[i] = std::sqrt(var);
    }
    return out;
}

RollingWindow::RollingWindow(std::size_t window) : window_(window) {
    check_window(window);
    buffer_.reserve(window);
}

void RollingWindow::push(double value) {
    if (buffer_.size() < window_) {
        buffer_.push_back(value);
        sum_ += value;
        sum_sq_ += value * value;
        return;
    }
    const double old = buffer_[head_];
    sum_ += value - old;
    sum_sq_ += value * value - old * old;
    buffer_[head_] = value;
    head_ = (head_ + 1) % window_;
}

double RollingWindow::mean() const {
    if (buffer_.empty()) return 0.0;
    return sum_ / static_cast<double>(buffer_.size());
}

double RollingWindow::stddev() const {
    if (buffer_.empty()) return 0.0;
    const double n = static_cast<double>(buffer_.size());
    const double m = sum_ / n;
    return std::sqrt(std::max(0.0, sum_sq_ / n - m * m));
}

}  // namespace wifisense::stats
