// Shared helpers for the reproduction bench binaries.
//
// Every bench regenerates the simulated 74.5 h collection. The sampling
// rate defaults to 1 Hz (268k rows — same timeline as the paper's 20 Hz
// capture at 1/20 the row count) and can be overridden with the
// WIFISENSE_BENCH_RATE environment variable, e.g.
//   WIFISENSE_BENCH_RATE=20 ./bench_table4   # paper-scale run
//   WIFISENSE_BENCH_RATE=0.25 ./bench_table4 # quick smoke
//
// Thread count comes from WIFISENSE_THREADS (default: all hardware threads):
//   WIFISENSE_THREADS=1 ./bench_table4       # serial reference run
// Results are thread-count invariant by the determinism contract; only the
// wall clock changes.
//
// Observability (DESIGN.md §14) is wired the same way: the WIFISENSE_TRACE /
// WIFISENSE_SNAPSHOT environment variables or the --trace-out=FILE /
// --snapshot-out=FILE flags, all read by the library's
// common::configure_observability_from_env(), turn on the span recorder and
// the telemetry snapshot. Timing flows through the sanctioned
// common/trace.hpp clock, so the bench harness needs no raw-clock lint
// exemptions and its per-phase spans land in the same trace as the
// instrumented library code.
//
// Besides its stdout tables, every bench records machine-readable results in
// BENCH_<name>.json (wall clock, thread count, rows, key metrics, plus
// aggregated per-span timings when tracing) via BenchReport — the input of
// the repo's performance trajectory.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cpuid.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/experiments.hpp"
#include "data/folds.hpp"
#include "nn/kernels/backend.hpp"

namespace wifisense::bench {

inline double bench_rate() {
    if (const char* env = std::getenv("WIFISENSE_BENCH_RATE")) {
        const double rate = std::atof(env);
        if (rate > 0.0) return rate;
    }
    return 1.0;
}

/// The process-wide observability settings. The first call applies the
/// environment and the given --trace-out= / --snapshot-out= flags through
/// common::configure_observability_from_env(); later calls return them.
inline const common::ObservabilityEnv& observability(int argc = 0,
                                                     char** argv = nullptr) {
    static const common::ObservabilityEnv env =
        common::configure_observability_from_env(argc, argv);
    return env;
}

/// Apply the observability environment and flags, then the bench-only
/// --kernels=NAME flag (which wins over WIFISENSE_KERNELS). Call first thing
/// in main(); other arguments are left for the bench's own parsing.
inline void configure_observability(int argc, char** argv) {
    (void)observability(argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--kernels=", 10) == 0) {
            // First touch applies WIFISENSE_KERNELS; the flag then overrides.
            (void)nn::kernels::configure_kernels_from_env();
            if (!nn::kernels::set_kernel_backend(argv[i] + 10)) {
                // Hard error, matching tools/train_detector: silently
                // benchmarking the wrong backend poisons every committed
                // baseline downstream of this run.
                std::fprintf(stderr,
                             "bench: error: --kernels=%s is unknown or "
                             "unsupported on this CPU (%s)\n",
                             argv[i] + 10,
                             common::cpu_feature_string().c_str());
                std::exit(2);
            }
        }
    }
}

inline data::Dataset generate_dataset() {
    const double rate = bench_rate();
    std::printf("generating simulated collection: 74.5 h @ %.2f Hz (%zu threads) ...\n",
                rate, common::thread_count());
    common::TraceScope span("bench.generate_dataset");
    const std::uint64_t t0 = common::trace_now_ns();
    data::Dataset ds = core::generate_paper_dataset(rate);
    std::printf("  %zu samples in %.1f s\n\n", ds.size(),
                common::trace_seconds_since(t0));
    return ds;
}

inline void print_header(const char* what) {
    std::printf("==============================================================\n");
    std::printf("wifisense reproduction: %s\n", what);
    std::printf("==============================================================\n");
}

/// Machine-readable bench record. Construct at bench start (starts the wall
/// clock, applies WIFISENSE_THREADS and the observability environment), add
/// key metrics as they are computed, and call write() last — it emits
/// BENCH_<name>.json in the working directory and then the trace / snapshot
/// files requested via env or flags.
class BenchReport {
public:
    explicit BenchReport(std::string name)
        : name_(std::move(name)),
          threads_(common::configure_threads_from_env()),
          kernel_backend_(nn::kernels::configure_kernels_from_env()),
          cpu_features_(common::cpu_feature_string()) {
        (void)observability();  // apply the observability environment
        start_ = common::trace_now_ns();
    }

    void set_rows(std::uint64_t rows) { rows_ = rows; }

    /// Insertion-ordered; re-setting a key overwrites its value in place.
    void metric(const std::string& key, double value) {
        for (auto& kv : metrics_)
            if (kv.first == key) {
                kv.second = value;
                return;
            }
        metrics_.emplace_back(key, value);
    }

    double elapsed_s() const { return common::trace_seconds_since(start_); }

    /// Write BENCH_<name>.json; returns the path written.
    std::string write() const {
        const std::string path = "BENCH_" + name_ + ".json";
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) throw std::runtime_error("BenchReport: cannot write " + path);
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"name\": \"%s\",\n", name_.c_str());
        std::fprintf(f, "  \"threads\": %zu,\n", threads_);
        std::fprintf(f, "  \"sample_rate_hz\": %.17g,\n", bench_rate());
        std::fprintf(f, "  \"rows\": %llu,\n",
                     static_cast<unsigned long long>(rows_));
        std::fprintf(f, "  \"wall_clock_s\": %.6f,\n", elapsed_s());
        // Observability annotations: which microkernel backend ran this
        // bench, and what the host CPU reports (DESIGN.md §16). Strings, so
        // bench_compare treats them as record metadata, never as metrics.
        std::fprintf(f, "  \"kernel_backend\": \"%s\",\n",
                     kernel_backend_.c_str());
        std::fprintf(f, "  \"cpu_features\": \"%s\",\n", cpu_features_.c_str());
        write_spans(f);
        std::fprintf(f, "  \"metrics\": {");
        for (std::size_t i = 0; i < metrics_.size(); ++i)
            std::fprintf(f, "%s\n    \"%s\": %.17g", i ? "," : "",
                         metrics_[i].first.c_str(), metrics_[i].second);
        std::fprintf(f, "%s}\n}\n", metrics_.empty() ? "" : "\n  ");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
        common::write_observability_exports(observability());
        return path;
    }

private:
    /// "spans": per-name {count, total_s} aggregated from the trace rings —
    /// the cross-commit wall-clock trend input of bench_compare.py --trend.
    void write_spans(std::FILE* f) const {
        if (!common::trace_enabled()) return;
        struct Agg {
            std::uint64_t count = 0;
            std::uint64_t total_ns = 0;
        };
        std::map<std::string, Agg> agg;  // sorted => deterministic output
        for (const common::TraceEvent& e : common::trace_snapshot()) {
            if (e.instant) continue;
            Agg& a = agg[e.name];
            ++a.count;
            a.total_ns += e.end_ns - e.start_ns;
        }
        if (agg.empty()) return;
        std::fprintf(f, "  \"spans\": {");
        bool first = true;
        for (const auto& [span_name, a] : agg) {
            std::fprintf(f, "%s\n    \"%s\": {\"count\": %llu, \"total_s\": %.6f}",
                         first ? "" : ",", span_name.c_str(),
                         static_cast<unsigned long long>(a.count),
                         static_cast<double>(a.total_ns) * 1e-9);
            first = false;
        }
        std::fprintf(f, "\n  },\n");
    }

    std::string name_;
    std::size_t threads_;
    std::string kernel_backend_;  ///< backend active at bench start
    std::string cpu_features_;
    std::uint64_t start_ = 0;
    std::uint64_t rows_ = 0;
    std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace wifisense::bench
