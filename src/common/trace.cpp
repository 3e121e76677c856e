#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/event_ring.hpp"
#include "common/json_io.hpp"
#include "common/metrics.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "common/telemetry/snapshot.hpp"

namespace wifisense::common {

std::uint64_t trace_now_ns() {
    // The tree's single sanctioned monotonic clock read (this file is exempt
    // from det.clock / obs.raw-clock — see tools/lint/wifisense_lint.cpp).
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double trace_seconds_since(std::uint64_t start_ns) {
    const std::uint64_t now = trace_now_ns();
    return now >= start_ns ? static_cast<double>(now - start_ns) * 1e-9 : 0.0;
}

#if WIFISENSE_TRACE_COMPILED

namespace obsdetail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace obsdetail

namespace {

/// Per-lane 1-in-N sampling counters (policy, not loss).
struct Sampling {
    std::uint64_t seen = 0;     ///< events offered
    std::uint64_t skipped = 0;  ///< events sampled out
};

constinit EventRing<TraceEvent, Sampling> g_ring{obsdetail::g_trace_enabled};
std::size_t g_sample_every = 1;  ///< record every N-th event per thread

void record_event(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                  bool instant) {
    if (!obsdetail::g_trace_enabled.load(std::memory_order_relaxed)) return;
    auto* lane = g_ring.lane();
    if (lane == nullptr) return;
    // Each thread keeps the first of every `g_sample_every` events it
    // offers (per-lane counter, no cross-thread coordination).
    if (g_sample_every > 1 && (lane->state.seen++ % g_sample_every) != 0) {
        ++lane->state.skipped;
        return;
    }
    TraceEvent& e = g_ring.next(*lane);
    e.name = name;
    e.start_ns = start_ns;
    e.end_ns = end_ns;
    e.instant = instant;
}

}  // namespace

namespace obsdetail {

void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) {
    record_event(name, start_ns, end_ns, /*instant=*/false);
}

void record_instant(const char* name, std::uint64_t t_ns) {
    record_event(name, t_ns, t_ns, /*instant=*/true);
}

}  // namespace obsdetail

void trace_enable(const TraceConfig& cfg) {
    g_sample_every = std::max<std::size_t>(cfg.sample_every, 1);
    g_ring.enable(std::max<std::size_t>(cfg.events_per_thread, 64), cfg.max_threads);
}

void trace_disable() { g_ring.disable(); }

void trace_reset() { g_ring.reset(); }

std::vector<TraceEvent> trace_snapshot() { return g_ring.snapshot(); }

std::uint64_t trace_dropped_events() { return g_ring.dropped(); }

std::uint64_t trace_sampled_out() {
    std::uint64_t skipped = 0;
    for (const auto& lane : g_ring.lanes()) skipped += lane.state.skipped;
    return skipped;
}

std::string trace_to_chrome_json() {
    std::vector<TraceEvent> events = trace_snapshot();
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                  if (a.tid != b.tid) return a.tid < b.tid;
                  return a.end_ns > b.end_ns;  // parents before children
              });

    std::string out = "{\"traceEvents\":[";
    char buf[160];
    bool first = true;
    std::uint32_t max_tid = 0;
    for (const TraceEvent& e : events) {
        max_tid = std::max(max_tid, e.tid);
        if (!first) out += ',';
        first = false;
        out += "{\"name\":\"";
        append_json_escaped(out, e.name);
        if (e.instant) {
            std::snprintf(buf, sizeof buf,
                          "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%u,"
                          "\"ts\":%.3f}",
                          e.tid, static_cast<double>(e.start_ns) * 1e-3);
        } else {
            std::snprintf(buf, sizeof buf,
                          "\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,"
                          "\"dur\":%.3f}",
                          e.tid, static_cast<double>(e.start_ns) * 1e-3,
                          static_cast<double>(e.end_ns - e.start_ns) * 1e-3);
        }
        out += buf;
    }
    for (std::uint32_t tid = 0; !events.empty() && tid <= max_tid; ++tid) {
        std::snprintf(buf, sizeof buf,
                      ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":%u,\"args\":{\"name\":\"slot-%u\"}}",
                      tid, tid);
        out += buf;
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

#else  // WIFISENSE_TRACE_COMPILED == 0

namespace obsdetail {
void record_span(const char*, std::uint64_t, std::uint64_t) {}
void record_instant(const char*, std::uint64_t) {}
}  // namespace obsdetail

void trace_enable(const TraceConfig&) {}
void trace_disable() {}
void trace_reset() {}
std::vector<TraceEvent> trace_snapshot() { return {}; }
std::uint64_t trace_dropped_events() { return 0; }
std::uint64_t trace_sampled_out() { return 0; }
std::string trace_to_chrome_json() {
    return "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n";
}

#endif  // WIFISENSE_TRACE_COMPILED

[[nodiscard]] Status write_chrome_trace(const std::string& path) {
    return write_text_file(path, trace_to_chrome_json());
}

ObservabilityEnv configure_observability_from_env(int argc, const char* const* argv) {
    ObservabilityEnv env;
    const auto parse = [](const char* value, bool* enabled, std::string* path) {
        if (value == nullptr || value[0] == '\0') return;
        if (std::string_view(value) == "0") return;
        *enabled = true;
        if (std::string_view(value) != "1") *path = value;
    };
    parse(std::getenv("WIFISENSE_TRACE"), &env.trace, &env.trace_path);
    parse(std::getenv("WIFISENSE_SNAPSHOT"), &env.snapshot, &env.snapshot_path);
    if (const char* sample = std::getenv("WIFISENSE_TRACE_SAMPLE")) {
        const long v = std::atol(sample);
        if (v > 1) env.trace_sample_every = static_cast<std::size_t>(v);
    }
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.starts_with("--trace-out=")) {
            env.trace = true;
            env.trace_path = arg.substr(12);
        } else if (arg.starts_with("--snapshot-out=")) {
            env.snapshot = true;
            env.snapshot_path = arg.substr(15);
        }
    }
    if (env.trace) {
        TraceConfig cfg;
        cfg.sample_every = env.trace_sample_every;
        trace_enable(cfg);
    }
    if (env.snapshot) {
        // A snapshot is only useful with live instruments, so arming it arms
        // the metric registry and the flight recorder too.
        metrics_enable();
        flight_enable();
    }
    return env;
}

void write_observability_exports(const ObservabilityEnv& env) {
    const auto write = [](const char* what, const std::string& path, const Status& st) {
        if (st.is_ok())
            std::printf("wrote %s %s\n", what, path.c_str());
        else
            std::fprintf(stderr, "%s export failed: %s\n", what, st.to_string().c_str());
    };
    if (env.trace && !env.trace_path.empty())
        write("trace", env.trace_path, write_chrome_trace(env.trace_path));
    if (env.snapshot && !env.snapshot_path.empty())
        write("snapshot", env.snapshot_path, write_telemetry_snapshot(env.snapshot_path));
}

}  // namespace wifisense::common
