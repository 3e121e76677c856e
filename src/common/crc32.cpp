#include "common/crc32.hpp"

#include <array>

#include "common/cpuid.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define WIFISENSE_CRC32_CLMUL 1
#else
#define WIFISENSE_CRC32_CLMUL 0
#endif

namespace wifisense::common {

#if WIFISENSE_CRC32_CLMUL
namespace detail {
/// PCLMULQDQ folding kernel (crc32_clmul.cpp): advances `state` over `n`
/// bytes, n >= 64 and a multiple of 16. Call only when clmul_usable().
std::uint32_t crc32_fold_clmul(std::uint32_t state, const unsigned char* p,
                               std::size_t n);
}  // namespace detail
#endif

namespace {

const std::array<std::uint32_t, 256>& crc_table() {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

#if WIFISENSE_CRC32_CLMUL
bool clmul_usable() {
    static const bool usable = cpu_features().pclmul && cpu_features().sse42;
    return usable;
}
#endif

}  // namespace

std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state, const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
#if WIFISENSE_CRC32_CLMUL
    if (n >= 64 && clmul_usable()) {
        const std::size_t folded = n & ~std::size_t{15};
        state = detail::crc32_fold_clmul(state, bytes, folded);
        bytes += folded;
        n -= folded;
    }
#endif
    const auto& table = crc_table();
    for (std::size_t i = 0; i < n; ++i)
        state = table[(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
    return state;
}

std::uint32_t crc32_final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32(const void* data, std::size_t n) {
    return crc32_final(crc32_update(crc32_init(), data, n));
}

}  // namespace wifisense::common
