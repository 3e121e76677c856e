#include "nn/serialize.hpp"

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/crc32.hpp"

namespace wifisense::nn {

using common::Result;
using common::Status;
using common::StatusCode;

namespace {

constexpr char kMagic[4] = {'W', 'S', 'N', 'N'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kQuantVersion = 3;
constexpr std::uint8_t kModelKindQuantizedInt8 = 1;
/// Hard ceiling on a plausible payload (the paper MLP is ~0.5 MB); rejects
/// garbage size words before any allocation.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

enum class LayerKind : std::uint8_t { kDense = 0, kReLU = 1, kSigmoid = 2, kDropout = 3 };

template <class T>
void write_pod(std::ostream& os, const T& value) {
    os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
T read_pod(std::istream& is) {
    T value{};
    is.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!is) throw std::runtime_error("load_mlp: truncated stream");
    return value;
}

/// Serializes `u64 layer_count | layers...` (the payload shared by v1/v2).
void write_layers(const Mlp& net, std::ostream& os) {
    write_pod(os, static_cast<std::uint64_t>(net.layers().size()));
    for (const auto& layer : net.layers()) {
        const auto in = static_cast<std::uint64_t>(layer->input_size());
        const auto out = static_cast<std::uint64_t>(layer->output_size());
        if (const auto* dense = dynamic_cast<const Dense*>(layer.get())) {
            write_pod(os, static_cast<std::uint8_t>(LayerKind::kDense));
            write_pod(os, in);
            write_pod(os, out);
            const auto w = dense->weights().data();
            os.write(reinterpret_cast<const char*>(w.data()),
                     static_cast<std::streamsize>(w.size() * sizeof(float)));
            os.write(reinterpret_cast<const char*>(dense->bias().data()),
                     static_cast<std::streamsize>(dense->bias().size() * sizeof(float)));
        } else if (dynamic_cast<const ReLU*>(layer.get()) != nullptr) {
            write_pod(os, static_cast<std::uint8_t>(LayerKind::kReLU));
            write_pod(os, in);
            write_pod(os, out);
        } else if (dynamic_cast<const Sigmoid*>(layer.get()) != nullptr) {
            write_pod(os, static_cast<std::uint8_t>(LayerKind::kSigmoid));
            write_pod(os, in);
            write_pod(os, out);
        } else if (const auto* drop = dynamic_cast<const Dropout*>(layer.get())) {
            write_pod(os, static_cast<std::uint8_t>(LayerKind::kDropout));
            write_pod(os, in);
            write_pod(os, out);
            write_pod(os, drop->rate());
        } else {
            throw std::runtime_error("save_mlp: unknown layer type");
        }
    }
}

/// Parses the layer records (after layer_count). Throws std::runtime_error
/// on malformed content; the caller maps that to kCorruptData.
Mlp read_layers(std::istream& is, std::uint64_t layer_count) {
    Mlp net;
    for (std::uint64_t i = 0; i < layer_count; ++i) {
        const auto kind = static_cast<LayerKind>(read_pod<std::uint8_t>(is));
        const auto in = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
        const auto out = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
        if (in == 0 || out == 0 || in > (1u << 20) || out > (1u << 20))
            throw std::runtime_error("load_mlp: implausible layer shape");
        switch (kind) {
            case LayerKind::kDense: {
                auto dense = std::make_unique<Dense>(in, out);
                auto w = dense->weights().data();
                is.read(reinterpret_cast<char*>(w.data()),
                        static_cast<std::streamsize>(w.size() * sizeof(float)));
                is.read(reinterpret_cast<char*>(dense->bias().data()),
                        static_cast<std::streamsize>(dense->bias().size() * sizeof(float)));
                if (!is) throw std::runtime_error("load_mlp: truncated weights");
                net.layers().push_back(std::move(dense));
                break;
            }
            case LayerKind::kReLU:
                net.layers().push_back(std::make_unique<ReLU>(in));
                break;
            case LayerKind::kSigmoid:
                net.layers().push_back(std::make_unique<Sigmoid>(in));
                break;
            case LayerKind::kDropout: {
                const auto rate = read_pod<double>(is);
                auto drop = std::make_unique<Dropout>(in, rate);
                drop->set_training(false);  // models load in inference mode
                net.layers().push_back(std::move(drop));
                break;
            }
            default:
                throw std::runtime_error("load_mlp: unknown layer kind");
        }
    }
    return net;
}

}  // namespace

void save_mlp(const Mlp& net, std::ostream& os) {
    std::ostringstream payload_os(std::ios::binary);
    write_layers(net, payload_os);
    const std::string payload = payload_os.str();

    os.write(kMagic, sizeof(kMagic));
    write_pod(os, kVersion);
    write_pod(os, static_cast<std::uint64_t>(payload.size()));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    write_pod(os, common::crc32(payload.data(), payload.size()));
    if (!os) throw std::runtime_error("save_mlp: write failure");
}

void save_mlp(const Mlp& net, const std::string& path) {
    std::ofstream os(path, std::ios::binary);
    if (!os) throw std::runtime_error("save_mlp: cannot open " + path);
    save_mlp(net, os);
}

[[nodiscard]] Result<Mlp> try_load_mlp(std::istream& is) {
    char magic[4];
    is.read(magic, sizeof(magic));
    if (!is)
        return Status(StatusCode::kTruncated, "load_mlp: truncated header");
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return Status(StatusCode::kFormatMismatch, "load_mlp: bad magic");
    std::uint32_t version = 0;
    is.read(reinterpret_cast<char*>(&version), sizeof(version));
    if (!is)
        return Status(StatusCode::kTruncated, "load_mlp: truncated header");

    try {
        if (version == 1) {
            // Legacy framing: layer records follow the version word directly,
            // no size or checksum. Still loadable, just unprotected.
            const auto layer_count = read_pod<std::uint64_t>(is);
            if (layer_count > 1024)
                throw std::runtime_error("load_mlp: implausible layer count");
            return read_layers(is, layer_count);
        }
        if (version == kQuantVersion)
            return Status(StatusCode::kFormatMismatch,
                          "load_mlp: quantized (v3) checkpoint — use "
                          "load_quantized_mlp");
        if (version != kVersion)
            return Status(StatusCode::kFormatMismatch,
                          "load_mlp: unsupported version " +
                              std::to_string(version));

        std::uint64_t payload_bytes = 0;
        is.read(reinterpret_cast<char*>(&payload_bytes), sizeof(payload_bytes));
        if (!is)
            return Status(StatusCode::kTruncated, "load_mlp: truncated header");
        if (payload_bytes < sizeof(std::uint64_t) ||
            payload_bytes > kMaxPayloadBytes)
            return Status(StatusCode::kCorruptData,
                          "load_mlp: implausible payload size " +
                              std::to_string(payload_bytes));

        std::string payload(payload_bytes, '\0');
        is.read(payload.data(), static_cast<std::streamsize>(payload_bytes));
        if (!is)
            return Status(StatusCode::kTruncated,
                          "load_mlp: truncated payload (declared " +
                              std::to_string(payload_bytes) + " bytes, got " +
                              std::to_string(is.gcount()) + ")");
        std::uint32_t stored_crc = 0;
        is.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
        if (!is)
            return Status(StatusCode::kTruncated, "load_mlp: missing checksum");
        const std::uint32_t actual_crc =
            common::crc32(payload.data(), payload.size());
        if (actual_crc != stored_crc)
            return Status(StatusCode::kCorruptData,
                          "load_mlp: checkpoint corrupted (crc mismatch)");

        std::istringstream ps(payload, std::ios::binary);
        const auto layer_count = read_pod<std::uint64_t>(ps);
        if (layer_count > 1024)
            throw std::runtime_error("load_mlp: implausible layer count");
        return read_layers(ps, layer_count);
    } catch (const std::runtime_error& e) {
        return Status(StatusCode::kCorruptData, e.what());
    }
}

[[nodiscard]] Result<Mlp> try_load_mlp(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Status(StatusCode::kNotFound, "load_mlp: cannot open " + path);
    return try_load_mlp(is);
}

Mlp load_mlp(std::istream& is) {
    return try_load_mlp(is).value();
}

Mlp load_mlp(const std::string& path) {
    return try_load_mlp(path).value();
}

void save_quantized_mlp(const QuantizedMlp& net, std::ostream& os) {
    std::ostringstream payload_os(std::ios::binary);
    write_pod(payload_os, kModelKindQuantizedInt8);
    write_pod(payload_os, static_cast<std::uint64_t>(net.layers().size()));
    for (const QuantizedDenseLayer& layer : net.layers()) {
        write_pod(payload_os, static_cast<std::uint64_t>(layer.in));
        write_pod(payload_os, static_cast<std::uint64_t>(layer.out));
        write_pod(payload_os, static_cast<std::uint8_t>(layer.act));
        write_pod(payload_os, layer.in_scale);
        write_pod(payload_os, layer.w_scale);
        payload_os.write(reinterpret_cast<const char*>(layer.weights.data()),
                         static_cast<std::streamsize>(layer.weights.size()));
        payload_os.write(
            reinterpret_cast<const char*>(layer.bias.data()),
            static_cast<std::streamsize>(layer.bias.size() * sizeof(float)));
    }
    const std::string payload = payload_os.str();

    os.write(kMagic, sizeof(kMagic));
    write_pod(os, kQuantVersion);
    write_pod(os, static_cast<std::uint64_t>(payload.size()));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    write_pod(os, common::crc32(payload.data(), payload.size()));
    if (!os) throw std::runtime_error("save_quantized_mlp: write failure");
}

void save_quantized_mlp(const QuantizedMlp& net, const std::string& path) {
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw std::runtime_error("save_quantized_mlp: cannot open " + path);
    save_quantized_mlp(net, os);
}

[[nodiscard]] Result<QuantizedMlp> try_load_quantized_mlp(std::istream& is) {
    char magic[4];
    is.read(magic, sizeof(magic));
    if (!is)
        return Status(StatusCode::kTruncated,
                      "load_quantized_mlp: truncated header");
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return Status(StatusCode::kFormatMismatch,
                      "load_quantized_mlp: bad magic");
    std::uint32_t version = 0;
    is.read(reinterpret_cast<char*>(&version), sizeof(version));
    if (!is)
        return Status(StatusCode::kTruncated,
                      "load_quantized_mlp: truncated header");
    if (version == 1 || version == kVersion)
        return Status(StatusCode::kFormatMismatch,
                      "load_quantized_mlp: float (v" + std::to_string(version) +
                          ") checkpoint — use load_mlp");
    if (version != kQuantVersion)
        return Status(StatusCode::kFormatMismatch,
                      "load_quantized_mlp: unsupported version " +
                          std::to_string(version));

    std::uint64_t payload_bytes = 0;
    is.read(reinterpret_cast<char*>(&payload_bytes), sizeof(payload_bytes));
    if (!is)
        return Status(StatusCode::kTruncated,
                      "load_quantized_mlp: truncated header");
    if (payload_bytes < sizeof(std::uint8_t) + sizeof(std::uint64_t) ||
        payload_bytes > kMaxPayloadBytes)
        return Status(StatusCode::kCorruptData,
                      "load_quantized_mlp: implausible payload size " +
                          std::to_string(payload_bytes));

    std::string payload(payload_bytes, '\0');
    is.read(payload.data(), static_cast<std::streamsize>(payload_bytes));
    if (!is)
        return Status(StatusCode::kTruncated,
                      "load_quantized_mlp: truncated payload (declared " +
                          std::to_string(payload_bytes) + " bytes, got " +
                          std::to_string(is.gcount()) + ")");
    std::uint32_t stored_crc = 0;
    is.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
    if (!is)
        return Status(StatusCode::kTruncated,
                      "load_quantized_mlp: missing checksum");
    if (common::crc32(payload.data(), payload.size()) != stored_crc)
        return Status(StatusCode::kCorruptData,
                      "load_quantized_mlp: checkpoint corrupted (crc mismatch)");

    try {
        std::istringstream ps(payload, std::ios::binary);
        const auto model_kind = read_pod<std::uint8_t>(ps);
        if (model_kind != kModelKindQuantizedInt8)
            throw std::runtime_error("load_quantized_mlp: unknown model kind " +
                                     std::to_string(model_kind));
        const auto layer_count = read_pod<std::uint64_t>(ps);
        if (layer_count == 0 || layer_count > 1024)
            throw std::runtime_error(
                "load_quantized_mlp: implausible layer count");
        std::vector<QuantizedDenseLayer> layers;
        layers.reserve(layer_count);
        for (std::uint64_t i = 0; i < layer_count; ++i) {
            QuantizedDenseLayer layer;
            layer.in = static_cast<std::size_t>(read_pod<std::uint64_t>(ps));
            layer.out = static_cast<std::size_t>(read_pod<std::uint64_t>(ps));
            if (layer.in == 0 || layer.out == 0 || layer.in > (1u << 20) ||
                layer.out > (1u << 20))
                throw std::runtime_error(
                    "load_quantized_mlp: implausible layer shape");
            const auto act = read_pod<std::uint8_t>(ps);
            if (act > static_cast<std::uint8_t>(kernels::Activation::kSigmoid))
                throw std::runtime_error(
                    "load_quantized_mlp: unknown activation");
            layer.act = static_cast<kernels::Activation>(act);
            layer.in_scale = read_pod<float>(ps);
            layer.w_scale = read_pod<float>(ps);
            layer.weights.resize(layer.in * layer.out);
            ps.read(reinterpret_cast<char*>(layer.weights.data()),
                    static_cast<std::streamsize>(layer.weights.size()));
            layer.bias.resize(layer.out);
            ps.read(reinterpret_cast<char*>(layer.bias.data()),
                    static_cast<std::streamsize>(layer.bias.size() *
                                                 sizeof(float)));
            if (!ps)
                throw std::runtime_error(
                    "load_quantized_mlp: truncated weights");
            layers.push_back(std::move(layer));
        }
        return QuantizedMlp::from_layers(std::move(layers));
    } catch (const std::exception& e) {
        return Status(StatusCode::kCorruptData, e.what());
    }
}

[[nodiscard]] Result<QuantizedMlp> try_load_quantized_mlp(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Status(StatusCode::kNotFound,
                      "load_quantized_mlp: cannot open " + path);
    return try_load_quantized_mlp(is);
}

QuantizedMlp load_quantized_mlp(std::istream& is) {
    return try_load_quantized_mlp(is).value();
}

QuantizedMlp load_quantized_mlp(const std::string& path) {
    return try_load_quantized_mlp(path).value();
}

}  // namespace wifisense::nn
