// Rolling-window statistics over time series. Used by the activity
// recognition extension (temporal CSI variance is what separates a moving
// person from a sitting one) and handy for general profiling.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wifisense::stats {

/// Rolling mean over a trailing window of `window` samples. Output has the
/// same length as the input; the first window-1 entries use the truncated
/// prefix window.
std::vector<double> rolling_mean(std::span<const double> xs, std::size_t window);

/// Rolling (population) standard deviation over a trailing window, truncated
/// prefix semantics as rolling_mean. Single-element windows give 0.
std::vector<double> rolling_std(std::span<const double> xs, std::size_t window);

/// Streaming helper: O(1) update of trailing-window mean/std.
class RollingWindow {
public:
    explicit RollingWindow(std::size_t window);

    void push(double value);
    bool full() const { return buffer_.size() == window_; }
    double mean() const;
    double stddev() const;  ///< population sd over the current contents

private:
    std::size_t window_;
    std::vector<double> buffer_;  // ring buffer
    std::size_t head_ = 0;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
};

}  // namespace wifisense::stats
