// Runtime-gated metric registry: counters, gauges, and fixed-bucket
// histograms for the observability layer (DESIGN.md §14).
//
// Design constraints, shared with common/trace.hpp:
//
//   - Disabled cost is one relaxed atomic load and a branch per recording
//     call — no allocation, no locking — so instrumented hot paths stay
//     inside their noalloc lint regions.
//   - Instrument *creation* (obs_counter / obs_gauge / obs_histogram) takes
//     a registry lock and may allocate; call sites hoist the returned
//     reference out of their hot loops (typically a function-local static
//     or a one-time lookup at function entry). Handles are stable for the
//     process lifetime.
//   - Recording is an atomic add / store: deterministic totals at any
//     thread count (counters are sums; histograms are per-bucket sums),
//     never an influence on computed outputs.
//   - Histograms have fixed bucket edges set at creation; counts are
//     pre-sized, so observe() never allocates.
//
// Export is a compact JSON object (counters / gauges / histograms, sorted
// by name): the "metrics" section of the telemetry snapshot
// (common/telemetry/snapshot.hpp), the registry's only export.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.hpp"  // WIFISENSE_TRACE_COMPILED gate

namespace wifisense::common {

namespace obsdetail {
#if WIFISENSE_TRACE_COMPILED
extern std::atomic<bool> g_metrics_enabled;
#endif
}  // namespace obsdetail

#if WIFISENSE_TRACE_COMPILED
/// True while metric recording is live (the relaxed load is the entire
/// disabled-path cost of add/set/observe).
inline bool metrics_enabled() {
    return obsdetail::g_metrics_enabled.load(std::memory_order_relaxed);
}
#else
inline bool metrics_enabled() { return false; }
#endif

void metrics_enable();
void metrics_disable();
/// Zero every registered instrument (registrations and handles survive).
void metrics_reset();

/// Monotonic event count.
class Counter {
public:
    explicit Counter(std::string name) : name_(std::move(name)) {}
    void add(std::uint64_t n = 1) {
        if (metrics_enabled()) value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }
    const std::string& name() const { return name_; }

private:
    std::string name_;
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (epoch loss, stream health, ...). Writers race only
/// when instrumented code itself races, which the determinism contract
/// already forbids for anything output-bearing.
class Gauge {
public:
    explicit Gauge(std::string name) : name_(std::move(name)) {}
    void set(double v) {
        if (metrics_enabled())
            bits_.store(bit_cast_u64(v), std::memory_order_relaxed);
    }
    double value() const {
        return bit_cast_double(bits_.load(std::memory_order_relaxed));
    }
    void reset() { bits_.store(0, std::memory_order_relaxed); }
    const std::string& name() const { return name_; }

private:
    static std::uint64_t bit_cast_u64(double d) {
        std::uint64_t u;
        __builtin_memcpy(&u, &d, sizeof u);
        return u;
    }
    static double bit_cast_double(std::uint64_t u) {
        double d;
        __builtin_memcpy(&d, &u, sizeof d);
        return d;
    }

    std::string name_;
    std::atomic<std::uint64_t> bits_{0};  ///< IEEE-754 bits; 0 == 0.0
};

/// Fixed-bucket histogram: `edges` are the ascending upper bounds of the
/// first N buckets; one overflow bucket catches everything above the last
/// edge. observe(v) lands v in the first bucket whose edge is >= v.
/// Out-of-range observations are additionally tallied explicitly:
/// underflow counts v below the first edge (they land in bucket 0, which
/// otherwise hides them among legitimately small values), overflow counts
/// v above the last edge (the catch-all bucket, named in the export so a
/// saturated edge table is visible instead of silent).
class Histogram {
public:
    Histogram(std::string name, std::span<const double> edges);

    void observe(double v) {
        if (!metrics_enabled()) return;
        if (!edges_.empty()) {
            // NaN fails both comparisons and is counted in neither.
            if (v < edges_.front())
                underflow_.fetch_add(1, std::memory_order_relaxed);
            else if (v > edges_.back())
                overflow_.fetch_add(1, std::memory_order_relaxed);
        }
        std::size_t lo = 0, hi = edges_.size();
        while (lo < hi) {  // first edge >= v (upper_bound on <)
            const std::size_t mid = (lo + hi) / 2;
            if (edges_[mid] < v)
                lo = mid + 1;
            else
                hi = mid;
        }
        counts_[lo].fetch_add(1, std::memory_order_relaxed);
        // Compare-and-swap accumulation: std::atomic<double>::fetch_add is
        // C++20 but the CAS loop is portable and the slow path is rare.
        std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
        for (;;) {
            double cur;
            __builtin_memcpy(&cur, &expected, sizeof cur);
            const double next = cur + v;
            std::uint64_t next_bits;
            __builtin_memcpy(&next_bits, &next, sizeof next_bits);
            if (sum_bits_.compare_exchange_weak(expected, next_bits,
                                                std::memory_order_relaxed))
                break;
        }
    }

    const std::vector<double>& edges() const { return edges_; }
    /// Per-bucket counts; index edges().size() is the overflow bucket.
    std::uint64_t bucket_count(std::size_t i) const {
        return counts_[i].load(std::memory_order_relaxed);
    }
    std::uint64_t total_count() const;
    /// Observations below the first edge (clamped into bucket 0).
    std::uint64_t underflow_count() const {
        return underflow_.load(std::memory_order_relaxed);
    }
    /// Observations above the last edge (in the catch-all bucket).
    std::uint64_t overflow_count() const {
        return overflow_.load(std::memory_order_relaxed);
    }
    double sum() const {
        const std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
        double d;
        __builtin_memcpy(&d, &bits, sizeof d);
        return d;
    }
    void reset();
    const std::string& name() const { return name_; }

private:
    std::string name_;
    std::vector<double> edges_;
    std::vector<std::atomic<std::uint64_t>> counts_;  ///< edges.size() + 1
    std::atomic<std::uint64_t> sum_bits_{0};
    std::atomic<std::uint64_t> underflow_{0};
    std::atomic<std::uint64_t> overflow_{0};
};

/// Microsecond latency bucket edges shared by the predict/step histograms.
inline constexpr double kLatencyBucketsUs[] = {
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
    5000.0, 10000.0, 25000.0, 50000.0, 100000.0, 250000.0};

/// Registry lookup-or-create (process-wide, mutex-guarded, may allocate on
/// first use — hoist the reference out of hot loops). Names are unique per
/// instrument kind; re-registering a histogram name keeps the first edges.
Counter& obs_counter(std::string_view name);
Gauge& obs_gauge(std::string_view name);
Histogram& obs_histogram(std::string_view name, std::span<const double> edges);

/// Compact single-line JSON of every registered instrument:
/// {"counters":{...},"gauges":{...},"histograms":{"h":{"edges":[...],
/// "counts":[...],"count":N,"sum":S}}} — names sorted, deterministic.
std::string metrics_to_json();

}  // namespace wifisense::common
