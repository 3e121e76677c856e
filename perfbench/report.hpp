// Result accounting shared by the perfbench workloads: named metrics with
// units, output checks, quantiles, the host record, and self-time
// aggregation over common/trace.hpp spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Host speed, sampled by timing fixed reference work on the calling
/// thread between the timed phases of a run: a table-driven byte hash
/// streamed over an 8 MiB buffer, the access pattern of the wire CRC over
/// the served bytes. The host shares cores, caches and clocks with other
/// tenants, and its speed drifts by tens of percent over minutes, which
/// moves every timing of a run together. Timed end-to-end metrics are
/// therefore reported at the nominal reference speed of 300 MB/s, scaled
/// by the run's median sample. The reference is the benchmark's own code,
/// so no change to the library can move it; each run prints its factor.
class HostSpeed {
public:
    /// Time the reference once (about 30 ms).
    void sample();
    /// Median speed relative to nominal over the run's samples (1.0 before
    /// the first sample). Divide rates by it, multiply durations by it.
    [[nodiscard]] double factor() const;

private:
    std::vector<double> factors_;
};

/// Everything one run reports. `attempted`/`failed` count the workload's
/// units of work (instants offered, records scored); `failed_checks` keeps
/// every failed output check, so all of them are printed, not just the first.
struct Result {
    std::map<std::string, Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failed_checks;

    void set(const std::string& name, double value, const char* unit) {
        metrics[name] = Metric{value, unit};
    }
    /// Record an output check; a false `ok` marks the run incorrect.
    void check(bool ok, const std::string& what);
    [[nodiscard]] bool correct() const { return failed_checks.empty(); }
};

/// Common knobs of one invocation.
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Pool threads for simulation and the pool probe. Timed fits and
    /// scoring run on one thread: on a shared host a fan-out is only as fast
    /// as its slowest core, which made 4-thread fit times swing by half.
    std::size_t threads = 1;
};

/// Quantile q in [0,1] of `v` (nearest rank on a sorted copy).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// splitmix64 step, used for seed derivation and output digests.
std::uint64_t mix64(std::uint64_t x);
inline std::uint64_t digest_add(std::uint64_t h, std::uint64_t v) {
    return mix64(h ^ (v + 0x9E3779B97F4A7C15ull));
}

/// Host facts recorded with every result, since speed-ups are host
/// specific: CPU model, logical CPUs, cache sizes, kernel backend.
std::string host_record_json();

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

/// Per-span totals over a batch of trace events: count, wall time, and
/// self time (wall minus the part covered by child spans on the same
/// thread). Aggregate repeatedly (per room, per fit) so the per-thread
/// rings never wrap.
class SpanTable {
public:
    struct Row {
        std::uint64_t count = 0;
        double total_ns = 0.0;
        double self_ns = 0.0;
    };

    /// Fold in every event recorded since the last call, then clear the
    /// rings. Call only outside parallel regions.
    void absorb_trace();
    /// Events lost to ring wrap across every absorbed batch.
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

    [[nodiscard]] Row get(const std::string& name) const;
    [[nodiscard]] const std::map<std::string, Row>& rows() const { return rows_; }

private:
    std::map<std::string, Row> rows_;
    std::uint64_t dropped_ = 0;
};

/// Print a per-span table: count, wall and self time, self time per call.
void print_spans(const SpanTable& spans, const char* title);

/// Enable span recording with rings sized for one aggregation batch
/// (one served room, one fit) on `threads` pool threads plus the caller.
void start_tracing(std::size_t threads);

}  // namespace perfbench
