#include "common/telemetry/snapshot.hpp"

#include "common/json_io.hpp"
#include "common/metrics.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "common/telemetry/sliding_window.hpp"
#include "common/telemetry/slo.hpp"

namespace wifisense::common {

std::string telemetry_snapshot_json(const SnapshotOptions& opts) {
    std::string out = "{\"schema\":\"wifisense.telemetry_snapshot/v2\"";
    out += ",\"metrics\":";
    out += metrics_to_json();
    out += ",\"windows\":";
    out += windows_to_json();
    out += ",\"slo\":";
    out += slo_verdicts_to_json();
    out += ",\"recorder\":";
    out += flight_to_json(opts.recorder_tail);
    out += "}";
    return out;
}

[[nodiscard]] Status write_telemetry_snapshot(const std::string& path,
                                              const SnapshotOptions& opts) {
    return write_text_file(path, telemetry_snapshot_json(opts) + "\n");
}

}  // namespace wifisense::common
