// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check shared by every framed binary format in the tree: the nn/serialize
// model containers (v2 float, v3 int8) and the data/telemetry wire frames.
// One implementation keeps the formats bit-compatible with each other and
// with standard tooling (zlib's crc32, Python's binascii).
#pragma once

#include <cstddef>
#include <cstdint>

namespace wifisense::common {

/// CRC-32 of `n` bytes. Allocation-free and safe to call concurrently.
/// Dispatch (crc32_update): on x86-64 hosts whose CPUID reports PCLMULQDQ
/// and SSE4.2, buffers of 64 bytes or more fold 16 bytes at a time with
/// carry-less multiplies (crc32_clmul.cpp); the byte table finishes the
/// tail shorter than 16 bytes and handles every other case. Both paths give
/// bit-identical results. The CPUID verdict and the table are function-local
/// statics, built once at first use.
std::uint32_t crc32(const void* data, std::size_t n);

/// Streaming form: continue a running CRC (start from crc32_init(), finish
/// with crc32_final()). crc32(p, n) == crc32_final(crc32_update(crc32_init(),
/// p, n)).
std::uint32_t crc32_init();
std::uint32_t crc32_update(std::uint32_t state, const void* data, std::size_t n);
std::uint32_t crc32_final(std::uint32_t state);

}  // namespace wifisense::common
