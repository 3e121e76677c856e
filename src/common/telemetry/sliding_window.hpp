// Ring-of-epochs sliding-window aggregation (DESIGN.md §19): the
// library's only latency distribution.
//
// Cumulative counters answer "how many ever"; a serving loop needs "how
// many in the last N seconds". Both windowed instruments here share one
// model: stream time (the sample timestamps already threaded through the
// detectors — never a wall clock) is bucketed into kWindowEpochSeconds-wide
// epochs, and a fixed ring of the most recent epochs covering the window is
// retained. Advancing past the newest epoch zeroes the buckets in between;
// observations older than the whole window are dropped and counted
// (`late_dropped`), so out-of-order arrivals within the window still land
// in their bucket.
//
//   - WindowedCounter: one uint64 per epoch; queries sum the trailing K
//     seconds and derive rates.
//   - WindowedQuantile: one kWindowReservoir-slot reservoir per epoch,
//     filled by Algorithm R with a *deterministic* substream draw — the
//     j-th candidate of epoch e keeps/replaces based on
//     splitmix64(substream_seed(kWindowSeed, e) + j), so the retained sample
//     set is a pure function of the per-epoch arrival order, never of a
//     random_device. Queries merge the live epochs' samples into a
//     pre-reserved scratch buffer, weight each by its epoch's seen / kept,
//     and read the weighted nearest-rank quantile — an epoch that overflowed
//     its reservoir counts for every sample it was offered.
//
// Recording (add / observe) is runtime-gated on metrics_enabled(), never
// allocates after construction, never throws, never reads a clock, and
// draws only the substream hash above — provable inside the
// `requires(noalloc, noexcept, noclock, det)` lint contracts. Queries are
// export-time conveniences; they take the same spinlock and allocate
// nothing either.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"  // metrics_enabled() gate

namespace wifisense::common {

/// Width of one epoch bucket in stream-time seconds.
inline constexpr double kWindowEpochSeconds = 1.0;
/// Samples retained per epoch by the windowed quantile reservoir.
inline constexpr std::size_t kWindowReservoir = 128;
/// Substream seed for the deterministic reservoir draws.
inline constexpr std::uint64_t kWindowSeed = 0x77F15EED5EEDull;
/// Window length of a registry instrument unless its caller sizes it.
inline constexpr double kDefaultWindowSeconds = 60.0;
/// The quantile set every windowed quantile exports, with its JSON keys.
inline constexpr double kWindowQuantiles[] = {0.5, 0.9, 0.99, 0.999};
inline constexpr const char* kWindowQuantileKeys[] = {"p50", "p90", "p99",
                                                      "p999"};

/// Windowed event counter: ring of per-epoch counts over stream time.
class WindowedCounter {
public:
    /// A ring of epochs covering `window_s` seconds of stream time (at
    /// least one epoch).
    WindowedCounter(std::string name, double window_s);

    /// Count `n` events at stream time `stream_t` (seconds). Proven
    /// `noalloc, noexcept, noclock, det` — see the lint contract.
    void add(double stream_t, std::uint64_t n = 1);

    /// Sum over the trailing `seconds` of the window (clamped to the window
    /// span), ending at the newest epoch seen.
    [[nodiscard]] std::uint64_t sum_last(double seconds) const;
    /// Events per second over the trailing `seconds`.
    [[nodiscard]] double rate_per_s(double seconds) const;
    /// Sum over the whole window.
    [[nodiscard]] std::uint64_t total() const;
    /// Observations dropped because they predate the whole window.
    [[nodiscard]] std::uint64_t late_dropped() const {
        return late_dropped_.load(std::memory_order_relaxed);
    }
    /// Stream-time seconds the ring covers.
    [[nodiscard]] double window_seconds() const {
        return static_cast<double>(epochs_) * kWindowEpochSeconds;
    }
    [[nodiscard]] const std::string& name() const { return name_; }
    void reset();

private:
    void lock_spin() const {
        while (lock_.exchange(1, std::memory_order_acquire) != 0) {
        }
    }
    void unlock_spin() const { lock_.store(0, std::memory_order_release); }
    /// Rotate the ring forward so `epoch` is representable; true if `epoch`
    /// is inside the window afterwards. Caller holds the lock.
    bool advance(std::int64_t epoch);

    std::string name_;
    std::size_t epochs_;  ///< ring length
    mutable std::atomic<std::uint32_t> lock_{0};
    std::vector<std::uint64_t> counts_;  ///< epochs_ slots, fixed
    std::int64_t newest_epoch_ = 0;
    bool has_epoch_ = false;
    std::atomic<std::uint64_t> late_dropped_{0};
};

/// Windowed quantile estimator: ring of per-epoch deterministic reservoirs.
class WindowedQuantile {
public:
    WindowedQuantile(std::string name, double window_s);

    /// Record one sample at stream time `stream_t`. NaN samples are
    /// dropped. Proven `noalloc, noexcept, noclock, det`.
    void observe(double stream_t, double v);

    /// Weighted nearest-rank quantile over the samples retained in the
    /// trailing `seconds` of the window (0 when empty): each retained
    /// sample stands for seen / kept samples of its epoch. Not a hot-path
    /// call: merges into pre-reserved scratch and sorts.
    [[nodiscard]] double quantile_last(double seconds, double q) const;
    /// Samples *offered* to the trailing `seconds` (retained + displaced).
    [[nodiscard]] std::uint64_t count_last(double seconds) const;
    [[nodiscard]] std::uint64_t late_dropped() const {
        return late_dropped_.load(std::memory_order_relaxed);
    }
    /// Stream-time seconds the ring covers.
    [[nodiscard]] double window_seconds() const {
        return static_cast<double>(epochs_) * kWindowEpochSeconds;
    }
    [[nodiscard]] const std::string& name() const { return name_; }
    void reset();

private:
    struct Epoch {
        std::uint64_t seen = 0;  ///< samples offered to this epoch
    };
    struct Weighted {
        double value;
        double weight;  ///< seen / kept of the sample's epoch
    };

    void lock_spin() const {
        while (lock_.exchange(1, std::memory_order_acquire) != 0) {
        }
    }
    void unlock_spin() const { lock_.store(0, std::memory_order_release); }
    bool advance(std::int64_t epoch);

    std::string name_;
    std::size_t epochs_;  ///< ring length
    mutable std::atomic<std::uint32_t> lock_{0};
    std::vector<Epoch> ring_;                ///< epochs_ slots
    std::vector<double> samples_;            ///< epochs_ * kWindowReservoir
    mutable std::vector<Weighted> scratch_;  ///< merge buffer for queries
    std::int64_t newest_epoch_ = 0;
    bool has_epoch_ = false;
    std::atomic<std::uint64_t> late_dropped_{0};
};

/// Registry lookup-or-create alongside the other instruments (defined in
/// common/metrics.cpp). The window length is applied on first
/// registration; later lookups of the same name keep the original window.
WindowedCounter& obs_windowed_counter(
    std::string_view name, double window_s = kDefaultWindowSeconds);
WindowedQuantile& obs_windowed_quantile(
    std::string_view name, double window_s = kDefaultWindowSeconds);

/// Compact JSON of every registered windowed instrument, consumed by the
/// telemetry snapshot: {"counters":{...},"quantiles":{...}} — names sorted.
std::string windows_to_json();

}  // namespace wifisense::common
