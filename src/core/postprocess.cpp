#include "core/postprocess.hpp"

#include <stdexcept>

namespace wifisense::core {

DebounceFilter::DebounceFilter(std::size_t hold) : hold_(hold) {
    if (hold == 0) throw std::invalid_argument("DebounceFilter: zero hold");
}

int DebounceFilter::update(int decision) {
    if (state_ == -1) {
        state_ = decision;
        return state_;
    }
    if (decision == state_) {
        streak_ = 0;
        return state_;
    }
    if (++streak_ >= hold_) {
        state_ = decision;
        streak_ = 0;
    }
    return state_;
}

void DebounceFilter::reset() {
    state_ = -1;
    streak_ = 0;
}

MajorityFilter::MajorityFilter(std::size_t window) : window_(window) {
    if (window == 0) throw std::invalid_argument("MajorityFilter: zero window");
}

int MajorityFilter::update(int decision) {
    buffer_.push_back(decision);
    if (buffer_.size() > window_) buffer_.pop_front();
    std::size_t ones = 0;
    for (const int d : buffer_) ones += d != 0 ? 1u : 0u;
    const std::size_t zeros = buffer_.size() - ones;
    if (ones > zeros) last_ = 1;
    else if (zeros > ones) last_ = 0;
    // tie: keep previous output
    return last_;
}

void MajorityFilter::reset() {
    buffer_.clear();
    last_ = 0;
}

}  // namespace wifisense::core
