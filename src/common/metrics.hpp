// Runtime-gated metric registry: counters and gauges for the observability
// layer (DESIGN.md §14). Latency distributions are windowed quantiles
// (common/telemetry/sliding_window.hpp), registered in the same registry.
//
// Design constraints, shared with common/trace.hpp:
//
//   - Disabled cost is one relaxed atomic load and a branch per recording
//     call — no allocation, no locking — so instrumented hot paths stay
//     inside their noalloc lint regions.
//   - Instrument *creation* (obs_counter / obs_gauge) takes a registry lock
//     and may allocate; call sites hoist the returned reference out of
//     their hot loops (typically a function-local static or a one-time
//     lookup at function entry). Handles are stable for the process
//     lifetime.
//   - Recording is an atomic add / store: deterministic totals at any
//     thread count (counters are sums), never an influence on computed
//     outputs.
//
// Export is a compact JSON object (counters / gauges, sorted by name): the
// "metrics" section of the telemetry snapshot
// (common/telemetry/snapshot.hpp), the registry's only export.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

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

/// Registry lookup-or-create (process-wide, mutex-guarded, may allocate on
/// first use — hoist the reference out of hot loops). Names are unique per
/// instrument kind.
Counter& obs_counter(std::string_view name);
Gauge& obs_gauge(std::string_view name);

/// Compact single-line JSON of every registered counter and gauge:
/// {"counters":{...},"gauges":{...}} — names sorted, deterministic.
std::string metrics_to_json();

}  // namespace wifisense::common
