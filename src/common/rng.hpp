// Deterministic RNG sub-streams for parallel stages.
//
// A parallel stage that needs randomness must not share one engine across
// chunks (the draw interleaving would depend on scheduling). Instead the
// stage derives one seed per chunk/item up front via splitmix64 — the draw
// sequence inside chunk i is then a pure function of (seed, i), independent
// of thread count and execution order.
//
// BulkMt19937_64 is std::mt19937_64's exact output stream produced a twist
// (312 words) at a time, with tempering and the canonical float conversion
// done once per twist; add_normal_noise() draws from it the exact values a
// fresh std::normal_distribution<float> would, in batches. The trainer's
// per-step input noise runs on the pair.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace wifisense::common {

/// splitmix64 finalizer (Steele et al.): bijective 64-bit mix with good
/// avalanche, the standard way to expand one seed into many.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Seed of sub-stream `stream` of a root `seed`.
constexpr std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t stream) {
    return splitmix64(seed ^ splitmix64(stream));
}

/// Engine seeded for sub-stream `stream` of `seed`.
inline std::mt19937_64 substream(std::uint64_t seed, std::uint64_t stream) {
    return std::mt19937_64(substream_seed(seed, stream));
}

/// The first `n` sub-stream seeds of `seed`, e.g. one per forest tree.
inline std::vector<std::uint64_t> substream_seeds(std::uint64_t seed, std::size_t n) {
    std::vector<std::uint64_t> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = substream_seed(seed, i);
    return out;
}

/// std::mt19937_64, output for output: same seeding, same words, same
/// min()/max(), so std::shuffle and std distributions draw exactly what
/// they would from the standard engine. Each twist runs branch-free over
/// the whole 312-word state and tempers the block at once; the block's
/// canonical floats (generate_canonical<float>) are converted alongside for
/// add_normal_noise().
class BulkMt19937_64 {
public:
    using result_type = std::uint64_t;
    static constexpr std::size_t kStateSize = 312;

    explicit BulkMt19937_64(result_type seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()() {
        if (pos_ == kStateSize) refill();
        return out_[pos_++];
    }

private:
    friend void add_normal_noise(std::span<float>, float, BulkMt19937_64&);

    /// Twist the state, then temper and convert the fresh block.
    void refill();

    std::array<std::uint64_t, kStateSize> state_{};
    std::array<std::uint64_t, kStateSize> out_{};    ///< tempered outputs
    std::array<float, kStateSize> canonical_{};      ///< out_ as [0, 1) floats
    std::size_t pos_ = kStateSize;                   ///< next unread output
};

/// values[i] += N(0, stddev) for every i, bitwise as
///   std::normal_distribution<float> d(0.0f, stddev);
///   for (float& v : values) v += d(rng);
/// with a fresh distribution per call (Marsaglia polar pairs; the spare
/// value of an odd-length call is dropped) and the engine advanced by the
/// same number of words. Candidate pairs and their rejection test run
/// vectorised over a whole twist; only the accepted pairs reach the scalar
/// std::log.
void add_normal_noise(std::span<float> values, float stddev, BulkMt19937_64& rng);

}  // namespace wifisense::common
