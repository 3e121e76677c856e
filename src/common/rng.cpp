#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace wifisense::common {

namespace {

// std::mt19937_64's parameters (w = 64, n = 312, m = 156, r = 31).
constexpr std::size_t kN = BulkMt19937_64::kStateSize;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLower = ~kUpper;
constexpr std::uint64_t kInitMult = 6364136223846793005ull;

/// One state word of the twist; the matrix term is masked, not branched on.
inline std::uint64_t twist(std::uint64_t cur, std::uint64_t next, std::uint64_t far) {
    const std::uint64_t y = (cur & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrixA);
}

inline std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
}

inline std::uint32_t float_bits(float f) {
    std::uint32_t u = 0;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

/// generate_canonical<float, 24> over one 64-bit word: the word rounded to
/// float (nearest-even), scaled by 2^-64, with 1.0 clamped to the largest
/// float below it. The compiler's unsigned conversion branches on the top
/// bit, which is a coin flip here; both signed conversions are computed and
/// the right one picked by mask. The halved, sticky-bit form is exact for
/// every word >= 2^26, the direct form for every word < 2^63.
inline float canonical_float(std::uint64_t w) {
    const auto direct = static_cast<float>(static_cast<std::int64_t>(w));
    const float halved =
        2.0f * static_cast<float>(static_cast<std::int64_t>((w >> 1) | (w & 1)));
    const std::uint32_t top = 0u - static_cast<std::uint32_t>(w >> 63);
    const std::uint32_t bits = (float_bits(direct) & ~top) | (float_bits(halved) & top);
    float f = 0.0f;
    std::memcpy(&f, &bits, sizeof f);
    return std::min(f * 0x1p-64f, 0x1.fffffep-1f);
}

/// libstdc++'s polar-method coordinate: 2.0f * u - 1.0 is evaluated in
/// double, then narrowed to float.
inline float polar_coord(float u) {
    return static_cast<float>(static_cast<double>(2.0f * u) - 1.0);
}

inline bool polar_accepts(float r2) { return !(r2 > 1.0f || r2 == 0.0f); }

/// Working arrays of one add_normal_noise() call, sized for one twist's
/// candidate pairs and reused block after block.
struct PolarScratch {
    std::array<float, kN> coord{};          ///< x0 y0 x1 y1 ... of the candidates
    std::array<float, kN / 2> r2{};         ///< x*x + y*y per candidate
    std::array<std::uint16_t, kN / 2> source{};  ///< candidate of each accepted pair
    std::array<float, kN / 2> x{}, y{}, accepted_r2{}, log_r2{};  ///< accepted pairs
    std::array<float, kN> noise{};
    std::size_t count = 0;                  ///< accepted pairs held
};

/// Turn the accepted pairs into noise and add it to values[i, i + 2 * count),
/// clipped at values.size(). Per pair: y * mult first, then x * mult, each
/// times stddev plus a 0.0f mean (which turns -0 into +0), exactly as
/// std::normal_distribution<float> hands them out. Returns the new i.
std::size_t emit(PolarScratch& s, float stddev, std::span<float> values, std::size_t i) {
    for (std::size_t t = 0; t < s.count; ++t) s.log_r2[t] = std::log(s.accepted_r2[t]);
    for (std::size_t t = 0; t < s.count; ++t) {
        const float mult = std::sqrt(-2.0f * s.log_r2[t] / s.accepted_r2[t]);
        s.noise[2 * t] = s.y[t] * mult * stddev + 0.0f;
        s.noise[2 * t + 1] = s.x[t] * mult * stddev + 0.0f;
    }
    const std::size_t m = std::min(2 * s.count, values.size() - i);
    float* v = values.data() + i;
    for (std::size_t t = 0; t < m; ++t) v[t] += s.noise[t];
    return i + m;
}

}  // namespace

BulkMt19937_64::BulkMt19937_64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
        std::uint64_t x = state_[i - 1];
        x ^= x >> 62;
        state_[i] = x * kInitMult + i;
    }
}

void BulkMt19937_64::refill() {
    std::uint64_t* x = state_.data();
    for (std::size_t k = 0; k < kN - kM; ++k) x[k] = twist(x[k], x[k + 1], x[k + kM]);
    for (std::size_t k = kN - kM; k < kN - 1; ++k)
        x[k] = twist(x[k], x[k + 1], x[k + kM - kN]);
    x[kN - 1] = twist(x[kN - 1], x[0], x[kM - 1]);
    for (std::size_t k = 0; k < kN; ++k) out_[k] = temper(x[k]);
    for (std::size_t k = 0; k < kN; ++k) canonical_[k] = canonical_float(out_[k]);
    pos_ = 0;
}

void add_normal_noise(std::span<float> values, float stddev, BulkMt19937_64& rng) {
    std::size_t i = 0;
    PolarScratch s;
    while (i < values.size()) {
        if (rng.pos_ == kN) rng.refill();
        if (rng.pos_ == kN - 1) {
            // The candidate straddles a twist: x from this block's last
            // word, y from the next block's first.
            const float x = polar_coord(rng.canonical_[kN - 1]);
            rng.refill();
            const float y = polar_coord(rng.canonical_[0]);
            rng.pos_ = 1;
            const float r2 = x * x + y * y;
            if (!polar_accepts(r2)) continue;
            s.x[0] = x;
            s.y[0] = y;
            s.accepted_r2[0] = r2;
            s.count = 1;
            i = emit(s, stddev, values, i);
            continue;
        }

        // Every candidate pair left in this twist, vectorised.
        const std::size_t pairs = (kN - rng.pos_) / 2;
        const float* u = rng.canonical_.data() + rng.pos_;
        for (std::size_t k = 0; k < 2 * pairs; ++k) s.coord[k] = polar_coord(u[k]);
        for (std::size_t k = 0; k < pairs; ++k)
            s.r2[k] = s.coord[2 * k] * s.coord[2 * k] +
                      s.coord[2 * k + 1] * s.coord[2 * k + 1];

        // Branch-free compaction of the accepted pairs, remembering where
        // each came from so the engine can stop right after the last one
        // this call needs.
        std::size_t n = 0;
        for (std::size_t k = 0; k < pairs; ++k) {
            s.x[n] = s.coord[2 * k];
            s.y[n] = s.coord[2 * k + 1];
            s.accepted_r2[n] = s.r2[k];
            s.source[n] = static_cast<std::uint16_t>(k);
            n += polar_accepts(s.r2[k]) ? 1 : 0;
        }
        const std::size_t wanted = (values.size() - i + 1) / 2;
        std::size_t used = pairs;
        if (n >= wanted) {
            n = wanted;
            used = s.source[n - 1] + std::size_t{1};
        }
        rng.pos_ += 2 * used;
        s.count = n;
        i = emit(s, stddev, values, i);
    }
}

}  // namespace wifisense::common
