#include <gtest/gtest.h>

#include <vector>

#include "core/postprocess.hpp"

namespace core = wifisense::core;

TEST(Debounce, SingleBlipsAreSuppressed) {
    const std::vector<int> noisy{0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1};
    core::DebounceFilter f(2);
    std::vector<int> clean;
    for (const int d : noisy) clean.push_back(f.update(d));
    // The lone 1 at index 2 and the lone 0 at index 10 must not flip state.
    EXPECT_EQ(clean[2], 0);
    EXPECT_EQ(clean[7], 1);  // second consecutive 1 flips
    EXPECT_EQ(clean[10], 1);
    EXPECT_EQ(clean[12], 1);
}

TEST(Debounce, FirstSampleInitializesState) {
    core::DebounceFilter f(3);
    EXPECT_EQ(f.update(1), 1);
    EXPECT_EQ(f.state(), 1);
}

TEST(Debounce, HoldBoundaryExact) {
    core::DebounceFilter f(3);
    f.update(0);
    EXPECT_EQ(f.update(1), 0);
    EXPECT_EQ(f.update(1), 0);
    EXPECT_EQ(f.update(1), 1);  // third disagreement flips
}

TEST(Debounce, ResetAndValidation) {
    core::DebounceFilter f(2);
    f.update(1);
    f.reset();
    EXPECT_EQ(f.update(0), 0);
    EXPECT_THROW(core::DebounceFilter(0), std::invalid_argument);
}

TEST(Majority, SmoothsImpulseNoise) {
    const std::vector<int> noisy{1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0};
    core::MajorityFilter f(5);
    std::vector<int> clean;
    for (const int d : noisy) clean.push_back(f.update(d));
    // Middle of the 1-run stays 1 despite isolated zeros.
    EXPECT_EQ(clean[5], 1);
    // Tail of the 0-run becomes 0 despite the isolated 1 at index 11.
    EXPECT_EQ(clean[13], 0);
}

TEST(Majority, TieKeepsPreviousOutput) {
    core::MajorityFilter f(2);
    EXPECT_EQ(f.update(1), 1);
    EXPECT_EQ(f.update(0), 1);  // 1-1 tie: hold previous
    EXPECT_EQ(f.update(0), 0);  // 0-2 now
}

TEST(Majority, Validation) {
    EXPECT_THROW(core::MajorityFilter(0), std::invalid_argument);
}
