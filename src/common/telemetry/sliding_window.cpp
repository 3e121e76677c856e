#include "common/telemetry/sliding_window.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace wifisense::common {

namespace {

/// Stream time -> epoch index (floor; negative times land in negative
/// epochs, which the ring handles via the wrapped modulo below).
std::int64_t epoch_of(double stream_t) {
    return static_cast<std::int64_t>(std::floor(stream_t / kWindowEpochSeconds));
}

/// Ring length covering `window_s` seconds: at least one epoch.
std::size_t ring_epochs(double window_s) {
    return window_s > kWindowEpochSeconds
               ? static_cast<std::size_t>(window_s / kWindowEpochSeconds + 0.5)
               : 1;
}

/// Non-negative slot index for a (possibly negative) epoch.
std::size_t slot_of(std::int64_t epoch, std::size_t n) {
    const std::int64_t m = static_cast<std::int64_t>(n);
    return static_cast<std::size_t>(((epoch % m) + m) % m);
}

/// Trailing-seconds query span in epochs, clamped to the ring.
std::size_t span_epochs(double seconds, std::size_t epochs) {
    const double k = std::ceil(seconds / kWindowEpochSeconds);
    if (!(k > 0.0)) return 1;
    if (k >= static_cast<double>(epochs)) return epochs;
    return static_cast<std::size_t>(k);
}

}  // namespace

WindowedCounter::WindowedCounter(std::string name, double window_s)
    : name_(std::move(name)), epochs_(ring_epochs(window_s)) {
    counts_.assign(epochs_, 0);
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
bool WindowedCounter::advance(std::int64_t epoch) {
    if (!has_epoch_) {
        has_epoch_ = true;
        newest_epoch_ = epoch;
        return true;
    }
    if (epoch > newest_epoch_) {
        const std::int64_t jump = epoch - newest_epoch_;
        if (jump >= static_cast<std::int64_t>(epochs_)) {
            std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
        } else {
            for (std::int64_t e = newest_epoch_ + 1; e <= epoch; ++e)
                counts_[slot_of(e, epochs_)] = 0;
        }
        newest_epoch_ = epoch;
        return true;
    }
    return newest_epoch_ - epoch < static_cast<std::int64_t>(epochs_);
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void WindowedCounter::add(double stream_t, std::uint64_t n) {
    if (!metrics_enabled()) return;
    if (!(stream_t == stream_t)) return;  // NaN time has no epoch
    const std::int64_t e = epoch_of(stream_t);
    lock_spin();
    if (advance(e))
        counts_[slot_of(e, epochs_)] += n;
    else
        late_dropped_.fetch_add(1, std::memory_order_relaxed);
    unlock_spin();
}

[[nodiscard]] std::uint64_t WindowedCounter::sum_last(double seconds) const {
    lock_spin();
    std::uint64_t total = 0;
    if (has_epoch_) {
        const std::size_t k = span_epochs(seconds, epochs_);
        for (std::size_t i = 0; i < k; ++i)
            total += counts_[slot_of(newest_epoch_ - static_cast<std::int64_t>(i),
                                     epochs_)];
    }
    unlock_spin();
    return total;
}

[[nodiscard]] double WindowedCounter::rate_per_s(double seconds) const {
    const double span = static_cast<double>(span_epochs(seconds, epochs_)) *
                        kWindowEpochSeconds;
    return span > 0.0 ? static_cast<double>(sum_last(seconds)) / span : 0.0;
}

[[nodiscard]] std::uint64_t WindowedCounter::total() const {
    return sum_last(window_seconds());
}

void WindowedCounter::reset() {
    lock_spin();
    std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
    has_epoch_ = false;
    newest_epoch_ = 0;
    late_dropped_.store(0, std::memory_order_relaxed);
    unlock_spin();
}

WindowedQuantile::WindowedQuantile(std::string name, double window_s)
    : name_(std::move(name)), epochs_(ring_epochs(window_s)) {
    ring_.assign(epochs_, Epoch{});
    samples_.assign(epochs_ * kWindowReservoir, 0.0);
    scratch_.reserve(epochs_ * kWindowReservoir);
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
bool WindowedQuantile::advance(std::int64_t epoch) {
    if (!has_epoch_) {
        has_epoch_ = true;
        newest_epoch_ = epoch;
        return true;
    }
    if (epoch > newest_epoch_) {
        const std::int64_t jump = epoch - newest_epoch_;
        if (jump >= static_cast<std::int64_t>(epochs_)) {
            for (Epoch& e : ring_) e.seen = 0;
        } else {
            for (std::int64_t e = newest_epoch_ + 1; e <= epoch; ++e)
                ring_[slot_of(e, epochs_)].seen = 0;
        }
        newest_epoch_ = epoch;
        return true;
    }
    return newest_epoch_ - epoch < static_cast<std::int64_t>(epochs_);
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void WindowedQuantile::observe(double stream_t, double v) {
    if (!metrics_enabled()) return;
    if (!(v == v) || !(stream_t == stream_t)) return;
    const std::int64_t e = epoch_of(stream_t);
    lock_spin();
    if (!advance(e)) {
        late_dropped_.fetch_add(1, std::memory_order_relaxed);
        unlock_spin();
        return;
    }
    const std::size_t slot = slot_of(e, epochs_);
    Epoch& ep = ring_[slot];
    double* reservoir = samples_.data() + slot * kWindowReservoir;
    if (ep.seen < kWindowReservoir) {
        reservoir[ep.seen] = v;
    } else {
        // Algorithm R with a deterministic substream draw: the candidate's
        // fate is a pure function of (seed, epoch, arrival index).
        const std::uint64_t draw =
            splitmix64(substream_seed(kWindowSeed, static_cast<std::uint64_t>(e)) +
                       ep.seen);
        const std::uint64_t j = draw % (ep.seen + 1);
        if (j < kWindowReservoir) reservoir[j] = v;
    }
    ep.seen++;
    unlock_spin();
}

[[nodiscard]] double WindowedQuantile::quantile_last(double seconds,
                                                     double q) const {
    lock_spin();
    scratch_.clear();
    double total = 0.0;  // samples offered: the weights' sum
    if (has_epoch_) {
        const std::size_t k = span_epochs(seconds, epochs_);
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t slot = slot_of(
                newest_epoch_ - static_cast<std::int64_t>(i), epochs_);
            const Epoch& ep = ring_[slot];
            const std::size_t kept =
                ep.seen < kWindowReservoir ? static_cast<std::size_t>(ep.seen)
                                           : kWindowReservoir;
            if (kept == 0) continue;
            const double weight =
                static_cast<double>(ep.seen) / static_cast<double>(kept);
            const double* reservoir = samples_.data() + slot * kWindowReservoir;
            for (std::size_t s = 0; s < kept; ++s)
                scratch_.push_back({reservoir[s], weight});
            total += static_cast<double>(ep.seen);
        }
    }
    double out = 0.0;
    if (!scratch_.empty()) {
        std::sort(scratch_.begin(), scratch_.end(),
                  [](const Weighted& a, const Weighted& b) {
                      return a.value < b.value;
                  });
        // Weighted nearest rank: the first sample whose cumulative weight
        // passes q * total. With unit weights this is index floor(q * n).
        const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
        const double target = clamped * total;
        double cum = 0.0;
        out = scratch_.back().value;
        for (const Weighted& w : scratch_) {
            cum += w.weight;
            if (cum > target) {
                out = w.value;
                break;
            }
        }
    }
    unlock_spin();
    return out;
}

[[nodiscard]] std::uint64_t WindowedQuantile::count_last(double seconds) const {
    lock_spin();
    std::uint64_t total = 0;
    if (has_epoch_) {
        const std::size_t k = span_epochs(seconds, epochs_);
        for (std::size_t i = 0; i < k; ++i)
            total += ring_[slot_of(newest_epoch_ - static_cast<std::int64_t>(i),
                                   epochs_)]
                         .seen;
    }
    unlock_spin();
    return total;
}

void WindowedQuantile::reset() {
    lock_spin();
    for (Epoch& e : ring_) e.seen = 0;
    has_epoch_ = false;
    newest_epoch_ = 0;
    late_dropped_.store(0, std::memory_order_relaxed);
    unlock_spin();
}

}  // namespace wifisense::common
