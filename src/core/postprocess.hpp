// Decision post-processing for deployed detectors. Raw per-sample decisions
// flicker on borderline packets; real controllers (lighting, HVAC — the
// paper's motivating applications) want debounced, hysteretic state.
#pragma once

#include <cstddef>
#include <deque>

namespace wifisense::core {

/// Debounce a binary decision stream: the output state flips only after
/// `hold` consecutive samples disagree with it. The first sample initializes
/// the state directly.
class DebounceFilter {
public:
    explicit DebounceFilter(std::size_t hold);

    int update(int decision);
    int state() const { return state_; }
    void reset();

private:
    std::size_t hold_;
    int state_ = -1;  // -1 = uninitialized
    std::size_t streak_ = 0;
};

/// Sliding majority vote over the last `window` decisions (odd windows avoid
/// ties; even windows break ties toward the previous output).
class MajorityFilter {
public:
    explicit MajorityFilter(std::size_t window);

    int update(int decision);
    void reset();

private:
    std::size_t window_;
    std::deque<int> buffer_;
    int last_ = 0;
};

}  // namespace wifisense::core
