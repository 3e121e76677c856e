#include "common/metrics.hpp"

#include <iterator>
#include <map>
#include <memory>
#include <mutex>

#include "common/json_io.hpp"
#include "common/telemetry/sliding_window.hpp"

namespace wifisense::common {

#if WIFISENSE_TRACE_COMPILED
namespace obsdetail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace obsdetail
#endif

namespace {

template <typename T>
using InstrumentMap = std::map<std::string, std::unique_ptr<T>, std::less<>>;

/// The process-wide instrument registry. std::map keeps export order
/// deterministic (sorted by name); unique_ptr keeps handles stable across
/// later registrations.
struct Registry {
    std::mutex mu;
    InstrumentMap<Counter> counters;
    InstrumentMap<Gauge> gauges;
    // Windowed instruments (common/telemetry/), registered alongside the
    // counters and gauges so one registry owns every handle's lifetime and
    // one reset touches everything.
    InstrumentMap<WindowedCounter> windowed_counters;
    InstrumentMap<WindowedQuantile> windowed_quantiles;
};

Registry& registry() {
    static Registry r;
    return r;
}

/// Lookup-or-create under the registry lock; `args` reach the constructor
/// on first registration only.
template <typename T, typename... Args>
T& lookup_or_create(InstrumentMap<T>& map, std::string_view name,
                    Args... args) {
    std::lock_guard lock(registry().mu);
    auto it = map.find(name);
    if (it == map.end())
        it = map.emplace(std::string(name),
                         std::make_unique<T>(std::string(name), args...))
                 .first;
    return *it->second;
}

}  // namespace

void metrics_enable() {
#if WIFISENSE_TRACE_COMPILED
    obsdetail::g_metrics_enabled.store(true, std::memory_order_release);
#endif
}

void metrics_disable() {
#if WIFISENSE_TRACE_COMPILED
    obsdetail::g_metrics_enabled.store(false, std::memory_order_relaxed);
#endif
}

void metrics_reset() {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    for (auto& [name, c] : r.counters) c->reset();
    for (auto& [name, g] : r.gauges) g->reset();
    for (auto& [name, w] : r.windowed_counters) w->reset();
    for (auto& [name, w] : r.windowed_quantiles) w->reset();
}

Counter& obs_counter(std::string_view name) {
    return lookup_or_create(registry().counters, name);
}

Gauge& obs_gauge(std::string_view name) {
    return lookup_or_create(registry().gauges, name);
}

WindowedCounter& obs_windowed_counter(std::string_view name, double window_s) {
    return lookup_or_create(registry().windowed_counters, name, window_s);
}

WindowedQuantile& obs_windowed_quantile(std::string_view name,
                                        double window_s) {
    return lookup_or_create(registry().windowed_quantiles, name, window_s);
}

std::string windows_to_json() {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, w] : r.windowed_counters) {
        if (!first) out += ',';
        first = false;
        const double span = w->window_seconds();
        out += '"';
        out += name;
        out += "\":{\"window_s\":";
        append_double(out, span);
        out += ",\"total\":";
        out += std::to_string(w->total());
        out += ",\"rate_per_s\":";
        append_double(out, w->rate_per_s(span));
        out += ",\"late_dropped\":";
        out += std::to_string(w->late_dropped());
        out += '}';
    }
    out += "},\"quantiles\":{";
    first = true;
    for (const auto& [name, w] : r.windowed_quantiles) {
        if (!first) out += ',';
        first = false;
        const double span = w->window_seconds();
        out += '"';
        out += name;
        out += "\":{\"window_s\":";
        append_double(out, span);
        out += ",\"count\":";
        out += std::to_string(w->count_last(span));
        out += ",\"late_dropped\":";
        out += std::to_string(w->late_dropped());
        for (std::size_t i = 0; i < std::size(kWindowQuantiles); ++i) {
            out += ",\"";
            out += kWindowQuantileKeys[i];
            out += "\":";
            append_double(out, w->quantile_last(span, kWindowQuantiles[i]));
        }
        out += '}';
    }
    out += "}}";
    return out;
}

std::string metrics_to_json() {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : r.counters) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":";
        out += std::to_string(c->value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : r.gauges) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":";
        append_double(out, g->value());
    }
    out += "}}";
    return out;
}

}  // namespace wifisense::common
