#include "common/json_io.hpp"

#include <cstdio>

namespace wifisense::common {

void append_json_escaped(std::string& out, const char* text) {
    for (const char* p = text; *p != '\0'; ++p) {
        const char c = *p;
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
}

void append_double(std::string& out, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

[[nodiscard]] Status write_text_file(const std::string& path, std::string_view text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return Status(StatusCode::kIoError, "cannot open " + path);
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (written != text.size())
        return Status(StatusCode::kIoError, "short write to " + path);
    return Status::ok();
}

}  // namespace wifisense::common
