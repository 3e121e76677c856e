// The shared pieces of every observability export: JSON string escaping,
// round-trippable doubles, and the one file writer behind the Chrome-trace
// and telemetry-snapshot files.
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"

namespace wifisense::common {

/// Append `text` with '"', '\\' and control characters escaped.
void append_json_escaped(std::string& out, const char* text);

/// Append `v` as "%.17g" (round-trips every finite double).
void append_double(std::string& out, double v);

/// Write `text` to `path`, replacing the file. kIoError names the path on
/// an open failure or a short write.
[[nodiscard]] Status write_text_file(const std::string& path, std::string_view text);

}  // namespace wifisense::common
