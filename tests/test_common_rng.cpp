// Stream identity of the trainer's random source (common/rng.hpp):
// BulkMt19937_64 must hand out std::mt19937_64's words one for one, and
// add_normal_noise() must add exactly what a fresh
// std::normal_distribution<float> adds per call, leaving both engines in
// the same state. Every comparison is on bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace {

using wifisense::common::BulkMt19937_64;

std::vector<std::uint64_t> test_seeds() {
    std::vector<std::uint64_t> seeds = {0, 1, 17, 42, 5489, 0xffffffffffffffffull};
    for (const std::uint64_t s : wifisense::common::substream_seeds(42, 4)) seeds.push_back(s);
    for (const std::uint64_t s : wifisense::common::substream_seeds(7, 2)) seeds.push_back(s);
    return seeds;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(BulkMt64, MatchesStdMt19937_64OverSeveralTwists) {
    static_assert(BulkMt19937_64::min() == std::mt19937_64::min());
    static_assert(BulkMt19937_64::max() == std::mt19937_64::max());
    for (const std::uint64_t seed : test_seeds()) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        std::mt19937_64 ref(seed);
        BulkMt19937_64 bulk(seed);
        for (std::size_t i = 0; i < 3 * BulkMt19937_64::kStateSize + 7; ++i)
            ASSERT_EQ(bulk(), ref()) << "draw " << i;
    }
}

TEST(BulkMt64, ShuffleGivesTheSamePermutations) {
    for (const std::size_t n : {std::size_t{2}, std::size_t{9}, std::size_t{1000},
                                std::size_t{50'000}}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        std::vector<std::size_t> a(n), b(n);
        std::iota(a.begin(), a.end(), std::size_t{0});
        b = a;
        std::mt19937_64 ref(42);
        BulkMt19937_64 bulk(42);
        for (int epoch = 0; epoch < 3; ++epoch) {
            std::shuffle(a.begin(), a.end(), ref);
            std::shuffle(b.begin(), b.end(), bulk);
            ASSERT_EQ(a, b) << "epoch " << epoch;
        }
        EXPECT_EQ(bulk(), ref()) << "engines diverged after shuffling";
    }
}

/// The reference: the trainer's historical per-step noise loop.
void std_noise(std::vector<float>& v, float stddev, std::mt19937_64& rng) {
    std::normal_distribution<float> jitter(0.0f, stddev);
    for (float& x : v) x += jitter(rng);
}

TEST(NormalNoise, MatchesFreshStdNormalDistributionBitwise) {
    const std::size_t lengths[] = {0, 1, 2, 3, 512, 16896, 16897};
    for (const std::size_t n : lengths) {
        for (const std::uint64_t seed : test_seeds()) {
            SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
            std::mt19937_64 ref(seed);
            BulkMt19937_64 bulk(seed);
            // Three consecutive calls, as three training steps make. A fill
            // over zeros is the noise itself (the 0.0f mean makes every
            // value +0 or nonzero, so 0 + noise keeps its bits).
            for (int step = 0; step < 3; ++step) {
                std::vector<float> want(n, 0.0f), got(n, 0.0f);
                std_noise(want, 0.3f, ref);
                wifisense::common::add_normal_noise(got, 0.3f, bulk);
                ASSERT_TRUE(same_bits(want, got)) << "step " << step;
            }
            EXPECT_EQ(bulk(), ref()) << "engines diverged";
        }
    }
}

TEST(NormalNoise, AddsOntoValuesAtAnyEnginePosition) {
    // Odd and near-boundary engine positions put candidate pairs across a
    // twist; a nonzero base checks the add itself.
    for (const std::size_t skip : {std::size_t{1}, std::size_t{2}, std::size_t{155},
                                   std::size_t{310}, std::size_t{311}, std::size_t{313}}) {
        for (const float stddev : {0.3f, 1.0f, 2.5e-3f}) {
            SCOPED_TRACE("skip=" + std::to_string(skip) +
                         " stddev=" + std::to_string(stddev));
            std::mt19937_64 ref(99);
            BulkMt19937_64 bulk(99);
            std::vector<float> want(16897), got;
            std::uniform_real_distribution<float> base(-4.0f, 4.0f);
            std::mt19937_64 brng(skip);
            for (float& v : want) v = base(brng);
            got = want;
            for (int step = 0; step < 3; ++step) {
                for (std::size_t k = 0; k < skip; ++k) ASSERT_EQ(bulk(), ref());
                std_noise(want, stddev, ref);
                wifisense::common::add_normal_noise(got, stddev, bulk);
                ASSERT_TRUE(same_bits(want, got)) << "step " << step;
            }
            EXPECT_EQ(bulk(), ref()) << "engines diverged";
        }
    }
}

}  // namespace
