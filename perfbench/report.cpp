#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/cpuid.hpp"
#include "common/trace.hpp"
#include "nn/kernels/backend.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) failed_checks.push_back(what);
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto idx = static_cast<std::size_t>(std::llround(pos));
    return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
        s = s.c_str();
        const auto b = s.find_first_not_of(' ');
        const auto e = s.find_last_not_of(' ');
        return b == std::string::npos ? "" : s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
}

}  // namespace

std::string host_record_json() {
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "{\"cpu_model\": \"%s\", \"nproc\": %u, \"l2_kib\": %ld, "
                  "\"l3_kib\": %ld, \"kernel_backend\": \"%s\", "
                  "\"cpu_features\": \"%s\"}",
                  json_escape(cpu_brand()).c_str(),
                  std::thread::hardware_concurrency(), l2 > 0 ? l2 / 1024 : 0,
                  l3 > 0 ? l3 / 1024 : 0,
                  wifisense::nn::kernels::active_backend().name,
                  json_escape(wifisense::common::cpu_feature_string()).c_str());
    return buf;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SpanTable::absorb_trace() {
    using wifisense::common::TraceEvent;
    dropped_ += wifisense::common::trace_dropped_events();
    std::vector<TraceEvent> events = wifisense::common::trace_snapshot();
    wifisense::common::trace_reset();
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  if (a.tid != b.tid) return a.tid < b.tid;
                  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                  return a.end_ns > b.end_ns;  // parents before children
              });
    // Per thread, a stack of open spans: each span's duration is charged to
    // its own wall time and subtracted from its innermost enclosing span.
    struct Open {
        std::size_t idx;
        double child_ns;
    };
    std::vector<Open> stack;
    std::uint32_t tid = ~0u;
    const auto close = [&](const Open& o) {
        const TraceEvent& e = events[o.idx];
        Row& r = rows_[e.name];
        const double dur = static_cast<double>(e.end_ns - e.start_ns);
        r.count += 1;
        r.total_ns += dur;
        r.self_ns += dur - o.child_ns;
    };
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& e = events[i];
        if (e.instant) continue;
        if (e.tid != tid) {
            while (!stack.empty()) {
                close(stack.back());
                stack.pop_back();
            }
            tid = e.tid;
        }
        while (!stack.empty() && events[stack.back().idx].end_ns <= e.start_ns) {
            close(stack.back());
            stack.pop_back();
        }
        if (!stack.empty())
            stack.back().child_ns += static_cast<double>(e.end_ns - e.start_ns);
        stack.push_back(Open{i, 0.0});
    }
    while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
    }
}

SpanTable::Row SpanTable::get(const std::string& name) const {
    const auto it = rows_.find(name);
    return it == rows_.end() ? Row{} : it->second;
}

namespace {
volatile std::uint64_t g_reference_sink = 0;
}  // namespace

void HostSpeed::sample() {
    constexpr double kNominalMbPerS = 300.0;
    static const std::vector<std::uint8_t> buf = [] {
        std::vector<std::uint8_t> b(std::size_t{8} << 20);
        for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(mix64(i));
        return b;
    }();
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<std::uint32_t>(mix64(i + 7));
        return t;
    }();
    const std::uint64_t t0 = wifisense::common::trace_now_ns();
    std::uint32_t h = 0;
    for (std::uint8_t c : buf) h = table[(h ^ c) & 0xFFu] ^ (h >> 8);
    const double secs = wifisense::common::trace_seconds_since(t0);
    g_reference_sink = h;
    factors_.push_back(static_cast<double>(buf.size()) / secs * 1e-6 / kNominalMbPerS);
}

double HostSpeed::factor() const { return factors_.empty() ? 1.0 : median(factors_); }

void print_spans(const SpanTable& spans, const char* title) {
    std::printf("\n%s: self time per span (wall minus child spans)\n", title);
    std::printf("%-36s %10s %12s %12s %12s\n", "span", "count", "wall ms", "self ms",
                "self ns/call");
    for (const auto& [name, row] : spans.rows())
        std::printf("%-36s %10llu %12.3f %12.3f %12.1f\n", name.c_str(),
                    static_cast<unsigned long long>(row.count), row.total_ns * 1e-6,
                    row.self_ns * 1e-6,
                    row.count > 0 ? row.self_ns / static_cast<double>(row.count) : 0.0);
}

void start_tracing(std::size_t threads) {
    wifisense::common::TraceConfig cfg;
    cfg.events_per_thread = std::size_t{1} << 17;
    cfg.max_threads = threads + 2;
    wifisense::common::trace_enable(cfg);
}

}  // namespace perfbench
