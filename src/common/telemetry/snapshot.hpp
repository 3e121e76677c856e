// Unified telemetry snapshot export (DESIGN.md §19).
//
// One JSON document captures the whole observability state of a process at
// a point in time: the metric registry (counters / gauges / histograms),
// every quantile sketch, every windowed instrument, every SLO verdict, and
// the flight-recorder tail. Schema:
//
//   {"schema": "wifisense.telemetry_snapshot/v1",
//    "metrics":   { ... common/metrics.hpp export ... },
//    "sketches":  { "name": {"count":N,"min":..,"max":..,"sum":..,
//                            "p50":..,"p90":..,"p99":..,"p999":..}, ... },
//    "windows":   { "counters":  { "name": {...} },
//                   "quantiles": { "name": {...} } },
//    "slo":       [ {"name":..,"state":"ok"|"warn"|"breach", ...}, ... ],
//    "recorder":  {"dropped":N,"events":[...]} }
//
// tools/check_snapshot.py validates this shape in CI. It is the metric
// registry's only export. WIFISENSE_SNAPSHOT=path or --snapshot-out=path,
// read by configure_observability_from_env() (common/trace.hpp), arms
// metrics + the flight recorder; write_observability_exports() writes the
// snapshot at exit.
#pragma once

#include <cstddef>
#include <string>

#include "common/status.hpp"

namespace wifisense::common {

struct SnapshotOptions {
    /// Most recent recorder events included in the "recorder" section: by
    /// default one whole default-sized ring (FlightConfig), so a
    /// single-threaded run exports everything the recorder still holds.
    std::size_t recorder_tail = 1024;
};

/// Render the snapshot document (single line, deterministic section order).
std::string telemetry_snapshot_json(const SnapshotOptions& opts = {});

/// Write telemetry_snapshot_json() (plus a trailing newline) to `path`.
[[nodiscard]] Status write_telemetry_snapshot(const std::string& path,
                                              const SnapshotOptions& opts = {});

}  // namespace wifisense::common
