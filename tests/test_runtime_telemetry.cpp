// Serving-grade telemetry layer (common/telemetry/, DESIGN.md §19):
//
//   1. the windowed quantile — the library's only latency distribution —
//      stays within a rank-error bound derived from its reservoir's
//      sampling error on seeded adversarial streams (sorted / reversed /
//      constant / bimodal) spread over several overflowing epochs, and
//      1 / 2 / 8-thread feeds of the same streams keep count_last exact —
//      the retained samples move with the interleaving, so the rank bounds
//      are not checked on those;
//   2. warm recording never allocates: windowed counter/quantile recording,
//      a windowed quantile query, flight_record(), and SloMonitor::record()
//      all run under an AllocationProbe expecting delta 0;
//   3. sliding windows honor stream time: epoch rotation zeroes skipped
//      buckets, in-window out-of-order arrivals land, older ones drop and
//      are counted, and the merge weights each epoch by the samples it was
//      offered;
//   4. SLO parsing round-trips and the multi-window burn-rate verdict
//      distinguishes ok / warn / breach;
//   5. the flight recorder ring wraps without allocation and keeps the
//      newest events in sequence order;
//   6. the unified snapshot document carries every section.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "common/telemetry/sliding_window.hpp"
#include "common/telemetry/slo.hpp"
#include "common/telemetry/snapshot.hpp"

namespace {

using namespace wifisense;

class TelemetryGuard {
public:
    TelemetryGuard() : saved_(common::execution_config()) {
        common::metrics_enable();
    }
    ~TelemetryGuard() {
        common::metrics_disable();
        common::flight_disable();
        common::set_execution_config(saved_);
    }
    TelemetryGuard(const TelemetryGuard&) = delete;
    TelemetryGuard& operator=(const TelemetryGuard&) = delete;

private:
    common::ExecutionConfig saved_;
};

// ---------------------------------------------------------------------------
// 1. Windowed-quantile rank-error property tests on adversarial streams.
// ---------------------------------------------------------------------------

enum class StreamShape { kSorted, kReversed, kConstant, kBimodal };

std::vector<double> make_stream(StreamShape shape, std::size_t n,
                                std::uint64_t seed) {
    std::vector<double> v(n);
    switch (shape) {
        case StreamShape::kSorted:
            for (std::size_t i = 0; i < n; ++i)
                v[i] = static_cast<double>(i) * 0.5;
            break;
        case StreamShape::kReversed:
            for (std::size_t i = 0; i < n; ++i)
                v[i] = static_cast<double>(n - i) * 0.5;
            break;
        case StreamShape::kConstant:
            std::fill(v.begin(), v.end(), 42.0);
            break;
        case StreamShape::kBimodal:
            // Two far-apart modes with seeded jitter: 80% near 10, 20% near
            // 10000 — p50 sits inside the low mode, p99 inside the high one.
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t h =
                    common::splitmix64(common::substream_seed(seed, i));
                const double jitter =
                    static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
                v[i] = (h % 10 < 8) ? 10.0 + jitter : 10000.0 + jitter;
            }
            break;
    }
    return v;
}

/// Rank of `estimate` in the stream: the fraction of samples <= estimate.
double rank_of(const std::vector<double>& sorted, double estimate) {
    const auto it =
        std::upper_bound(sorted.begin(), sorted.end(), estimate);
    return static_cast<double>(it - sorted.begin()) /
           static_cast<double>(sorted.size());
}

constexpr std::size_t kStreamEpochs = 10;
constexpr std::size_t kPerEpoch = 2000;  // every epoch overflows 128 slots
constexpr std::size_t kStreamSamples = kStreamEpochs * kPerEpoch;

/// Stream time of sample i: kPerEpoch samples in each one-second epoch.
double stream_time(std::size_t i) {
    return static_cast<double>(i / kPerEpoch) +
           static_cast<double>(i % kPerEpoch) / static_cast<double>(kPerEpoch);
}

/// Rank-error budget of the q-quantile. The estimate is a quantile of the
/// m = kStreamEpochs * kWindowReservoir retained samples, whose rank in the
/// stream has a standard error of sqrt(q(1-q)/m) under uniform sampling
/// (per-epoch stratification only narrows it). Four standard errors plus
/// one retained sample's share of rank bound it; the reservoir draws are a
/// pure function of the arrival order, so a serial feed is reproducible.
double rank_bound(double q) {
    const double m =
        static_cast<double>(kStreamEpochs * common::kWindowReservoir);
    return 4.0 * std::sqrt(q * (1.0 - q) / m) + 1.0 / m;
}

class WindowedQuantileStreams : public ::testing::TestWithParam<StreamShape> {};

TEST_P(WindowedQuantileStreams, RankErrorAndConcurrentCount) {
    const StreamShape shape = GetParam();
    const std::vector<double> stream =
        make_stream(shape, kStreamSamples, 0xabcdef);
    std::vector<double> sorted = stream;
    std::sort(sorted.begin(), sorted.end());
    const double window_s = static_cast<double>(kStreamEpochs);

    // Fed from 1 / 2 / 8 pool threads the retained samples depend on the
    // interleaving, but every sample is counted in its own epoch, and every
    // estimate is still a sample of the stream.
    for (const std::size_t threads : {1u, 2u, 8u}) {
        TelemetryGuard guard;
        common::set_execution_config({.threads = threads});
        common::WindowedQuantile wq("test.wq_stream_mt", window_s);
        common::parallel_for(
            kStreamSamples,
            [&](std::size_t i) { wq.observe(stream_time(i), stream[i]); },
            /*grain=*/256);
        ASSERT_EQ(wq.count_last(window_s), kStreamSamples)
            << "threads=" << threads;
        EXPECT_EQ(wq.late_dropped(), 0u) << "threads=" << threads;
        for (const double q : common::kWindowQuantiles) {
            const double est = wq.quantile_last(window_s, q);
            EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), est))
                << "threads=" << threads << " q=" << q << " estimate=" << est;
        }
    }

    // Fed serially in its fixed order: every estimate's rank in the stream
    // sits within the reservoir's sampling error of its target.
    TelemetryGuard guard;
    common::WindowedQuantile wq("test.wq_stream", window_s);
    for (std::size_t i = 0; i < kStreamSamples; ++i)
        wq.observe(stream_time(i), stream[i]);
    ASSERT_EQ(wq.count_last(window_s), kStreamSamples);
    for (const double q : common::kWindowQuantiles) {
        const double est = wq.quantile_last(window_s, q);
        if (shape == StreamShape::kConstant) {
            EXPECT_EQ(est, 42.0) << "constant stream, q=" << q;
            continue;
        }
        EXPECT_NEAR(rank_of(sorted, est), q, rank_bound(q))
            << "q=" << q << " estimate=" << est;
    }
}

// Printing the shape by name lets ctest's test discovery list each case as
// RankErrorAndConcurrentCount/<Shape> (it renames /<index> to /<value>).
void PrintTo(StreamShape shape, std::ostream* os) {
    constexpr const char* kNames[] = {"Sorted", "Reversed", "Constant",
                                      "Bimodal"};
    *os << kNames[static_cast<int>(shape)];
}

INSTANTIATE_TEST_SUITE_P(SlidingWindow, WindowedQuantileStreams,
                         ::testing::Values(StreamShape::kSorted,
                                           StreamShape::kReversed,
                                           StreamShape::kConstant,
                                           StreamShape::kBimodal));

// ---------------------------------------------------------------------------
// 2. Warm recording is allocation-free.
// ---------------------------------------------------------------------------

TEST(TelemetryAllocation, WarmRecordingPathsNeverAllocate) {
    TelemetryGuard guard;
    common::flight_enable();

    // Registration + first touches (may allocate: registry nodes, rings).
    common::WindowedCounter& wc =
        common::obs_windowed_counter("test.alloc_wc");
    common::WindowedQuantile& wq =
        common::obs_windowed_quantile("test.alloc_wq");
    common::SloSpec spec;
    spec.name = "test.alloc_slo";
    spec.latency_objective_us = 1000.0;
    spec.availability_pct = 99.0;
    common::SloMonitor& mon = common::obs_slo(spec);
    wc.add(0.0, 1);
    wq.observe(0.0, 1.0);
    mon.record(0.0, 10.0, true);
    common::flight_record("test", "warmup", 0.0, 0.0);

    alloc::AllocationProbe probe;
    for (int i = 0; i < 5000; ++i) {
        const double t = static_cast<double>(i) * 0.01;
        wc.add(t, 2);
        wq.observe(t, static_cast<double>(i % 31));
        mon.record(t, 25.0, (i % 50) != 0);
        common::flight_record("test", "steady", t, static_cast<double>(i));
    }
    // Queries merge into the pre-reserved scratch buffer.
    EXPECT_GT(wq.quantile_last(60.0, 0.99), 0.0);
    EXPECT_EQ(probe.delta(), 0u)
        << "warm telemetry recording must never touch the heap";
}

// ---------------------------------------------------------------------------
// 3. Sliding-window semantics over stream time.
// ---------------------------------------------------------------------------

TEST(SlidingWindow, CounterRotatesAndDropsLate) {
    TelemetryGuard guard;
    common::WindowedCounter wc("test.wc_rotate", 4.0);

    wc.add(0.5, 1);
    wc.add(1.5, 2);
    wc.add(3.5, 4);
    EXPECT_EQ(wc.total(), 7u);
    EXPECT_EQ(wc.sum_last(1.0), 4u);   // epoch [3,4) only
    EXPECT_EQ(wc.sum_last(3.0), 6u);   // epochs 1..3
    EXPECT_DOUBLE_EQ(wc.rate_per_s(1.0), 4.0);

    // Out-of-order but still inside the window: lands in its own bucket.
    wc.add(2.5, 8);
    EXPECT_EQ(wc.total(), 15u);
    EXPECT_EQ(wc.late_dropped(), 0u);

    // Jump far ahead: every old bucket is zeroed on rotation.
    wc.add(100.0, 1);
    EXPECT_EQ(wc.total(), 1u);

    // Now 97s in the past — outside the 4-epoch window, dropped + counted.
    wc.add(3.0, 5);
    EXPECT_EQ(wc.total(), 1u);
    EXPECT_EQ(wc.late_dropped(), 1u);
}

TEST(SlidingWindow, QuantileTracksTrailingSeconds) {
    TelemetryGuard guard;
    common::WindowedQuantile wq("test.wq_trailing", 8.0);

    // Epochs 0..3 hold small values, epochs 4..7 big ones; each overflows
    // its reservoir.
    for (int e = 0; e < 8; ++e)
        for (int i = 0; i < 200; ++i)
            wq.observe(static_cast<double>(e) + 0.004 * i,
                       e < 4 ? 1.0 : 1000.0);

    // NaN samples and NaN times are dropped, not counted.
    wq.observe(7.5, std::numeric_limits<double>::quiet_NaN());
    wq.observe(std::numeric_limits<double>::quiet_NaN(), 5.0);
    EXPECT_EQ(wq.count_last(8.0), 8u * 200u);
    EXPECT_EQ(wq.count_last(2.0), 2u * 200u);
    // The trailing 2s contain only big values; the whole window is half/half.
    EXPECT_DOUBLE_EQ(wq.quantile_last(2.0, 0.5), 1000.0);
    EXPECT_DOUBLE_EQ(wq.quantile_last(8.0, 0.25), 1.0);
    EXPECT_DOUBLE_EQ(wq.quantile_last(8.0, 0.9), 1000.0);

    // Empty window (after a far-future rotation) reads 0.
    wq.observe(1000.0, 7.0);
    EXPECT_DOUBLE_EQ(wq.quantile_last(8.0, 0.5), 7.0);
}

TEST(SlidingWindow, ReservoirDrawsAreDeterministic) {
    TelemetryGuard guard;
    // Same arrival order => identical retained samples, well past the
    // reservoir's capacity.
    common::WindowedQuantile a("test.wq_det_a", 2.0);
    common::WindowedQuantile b("test.wq_det_b", 2.0);
    for (int i = 0; i < 500; ++i) {
        a.observe(0.5, static_cast<double>(i));
        b.observe(0.5, static_cast<double>(i));
    }
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile_last(1.0, q), b.quantile_last(1.0, q));
}

TEST(SlidingWindow, MergeWeightsOverflowedEpochs) {
    TelemetryGuard guard;
    common::WindowedQuantile wq("test.wq_weighted", 2.0);
    // Epoch 0 overflows its reservoir with 10000 samples of 100 us; epoch 1
    // keeps all of its 128 samples of 1 us.
    for (int i = 0; i < 10000; ++i) wq.observe(0.5, 100.0);
    for (int i = 0; i < 128; ++i) wq.observe(1.5, 1.0);
    ASSERT_EQ(wq.count_last(2.0), 10128u);

    // 1 us is 128 / 10128 = 1.3% of the window: p1 reads it, p10 must not.
    // Unweighted, the two 128-sample reservoirs would count as half/half.
    EXPECT_DOUBLE_EQ(wq.quantile_last(2.0, 0.01), 1.0);
    EXPECT_DOUBLE_EQ(wq.quantile_last(2.0, 0.1), 100.0);
    EXPECT_DOUBLE_EQ(wq.quantile_last(2.0, 0.5), 100.0);
    // The trailing epoch alone is all 1 us.
    EXPECT_DOUBLE_EQ(wq.quantile_last(1.0, 0.5), 1.0);
}

TEST(SlidingWindow, RecordingGatedOnMetricsEnabled) {
    TelemetryGuard guard;
    common::metrics_disable();
    common::WindowedCounter wc("test.wc_gated", common::kDefaultWindowSeconds);
    wc.add(0.0, 7);
    EXPECT_EQ(wc.total(), 0u);
    common::metrics_enable();
    wc.add(0.0, 7);
    EXPECT_EQ(wc.total(), 7u);
}

// ---------------------------------------------------------------------------
// 4. SLO parsing and multi-window burn-rate verdicts.
// ---------------------------------------------------------------------------

TEST(SloSpecParse, RoundTripAndValidation) {
    const auto parsed = common::parse_slo_spec(
        "name=serve,p99<=800,avail>=99.5,fast=5,slow=60,fast_burn=14,"
        "slow_burn=6");
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
    const common::SloSpec& s = parsed.value();
    EXPECT_EQ(s.name, "serve");
    EXPECT_DOUBLE_EQ(s.latency_quantile, 0.99);
    EXPECT_DOUBLE_EQ(s.latency_objective_us, 800.0);
    EXPECT_DOUBLE_EQ(s.availability_pct, 99.5);
    EXPECT_DOUBLE_EQ(s.fast_window_s, 5.0);
    EXPECT_DOUBLE_EQ(s.slow_window_s, 60.0);

    // Render-and-reparse is the identity.
    const auto reparsed = common::parse_slo_spec(s.to_spec());
    ASSERT_TRUE(reparsed.is_ok());
    EXPECT_EQ(reparsed.value().to_spec(), s.to_spec());

    EXPECT_FALSE(common::parse_slo_spec("name=x").is_ok())
        << "no objective must be rejected";
    EXPECT_FALSE(common::parse_slo_spec("p99<=100,fast=60,slow=5").is_ok())
        << "fast window wider than slow must be rejected";
    EXPECT_FALSE(common::parse_slo_spec("p97<=100").is_ok())
        << "unknown quantile key must be rejected";
}

TEST(SloMonitor, OkWarnBreachLadder) {
    TelemetryGuard guard;
    common::SloSpec spec;
    spec.name = "test.slo_ladder";
    spec.availability_pct = 90.0;  // error budget: 10%
    spec.latency_objective_us = 0.0;
    spec.fast_window_s = 5.0;
    spec.slow_window_s = 60.0;
    spec.fast_burn_max = 2.0;
    // The warn case below leaves ~8 of the 60 in-window requests failed:
    // burn (8/60)/0.1 ~= 1.33, so the slow threshold must sit beneath it.
    spec.slow_burn_max = 1.0;

    // All-ok stream: no burn anywhere.
    {
        common::SloMonitor mon(spec);
        for (int i = 0; i < 120; ++i)
            mon.record(static_cast<double>(i) * 0.5, 10.0, true);
        const common::SloVerdict v = mon.evaluate();
        EXPECT_EQ(v.state, common::SloState::kOk);
        EXPECT_DOUBLE_EQ(v.availability_slow_pct, 100.0);
    }

    // Errors long ago, clean lately: the slow window still burns, the fast
    // one is clean — a warning, not a breach.
    {
        common::SloMonitor mon(spec);
        for (int i = 0; i < 60; ++i)
            mon.record(static_cast<double>(i), 10.0, i >= 20 || (i % 2 == 0));
        for (int i = 60; i < 65; ++i)
            mon.record(static_cast<double>(i), 10.0, true);
        const common::SloVerdict v = mon.evaluate();
        EXPECT_EQ(v.state, common::SloState::kWarn);
        EXPECT_GT(v.slow_burn, spec.slow_burn_max);
        EXPECT_LE(v.fast_burn, spec.fast_burn_max);
    }

    // Sustained total failure: both windows burn => breach, and the breach
    // drops an event into the flight recorder.
    {
        common::flight_enable();
        common::SloMonitor mon(spec);
        for (int i = 0; i < 65; ++i)
            mon.record(static_cast<double>(i), 10.0, false);
        const common::SloVerdict v = mon.evaluate();
        EXPECT_EQ(v.state, common::SloState::kBreach);
        EXPECT_TRUE(v.availability_breach);
        bool saw_breach_event = false;
        for (const common::FlightEvent& e : common::flight_snapshot())
            if (std::string_view(e.category) == "slo") saw_breach_event = true;
        EXPECT_TRUE(saw_breach_event);
    }
}

TEST(SloMonitor, LatencyObjectiveBreaches) {
    TelemetryGuard guard;
    common::SloSpec spec;
    spec.name = "test.slo_latency";
    spec.latency_quantile = 0.5;
    spec.latency_objective_us = 100.0;
    spec.fast_window_s = 5.0;
    spec.slow_window_s = 20.0;

    common::SloMonitor mon(spec);
    for (int i = 0; i < 25; ++i)
        mon.record(static_cast<double>(i), 500.0, true);
    const common::SloVerdict v = mon.evaluate();
    EXPECT_EQ(v.state, common::SloState::kBreach);
    EXPECT_TRUE(v.latency_breach);
    EXPECT_FALSE(v.availability_breach);
    EXPECT_GT(v.latency_fast_us, 100.0);
    EXPECT_GT(v.latency_slow_us, 100.0);
}

// ---------------------------------------------------------------------------
// 5. Flight recorder: ring wrap, ordering, gating.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingWrapsKeepingNewestInOrder) {
    TelemetryGuard guard;
    common::FlightConfig cfg;
    cfg.events_per_thread = 64;  // tiny ring to force wrap
    common::flight_enable(cfg);

    for (int i = 0; i < 1000; ++i)
        common::flight_record("test", "wrap", static_cast<double>(i),
                              static_cast<double>(i));
    const std::vector<common::FlightEvent> events = common::flight_snapshot();
    ASSERT_EQ(events.size(), 64u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LT(events[i - 1].seq, events[i].seq);
    // The newest event survived; the oldest 936 wrapped away.
    EXPECT_DOUBLE_EQ(events.back().value, 999.0);
    EXPECT_DOUBLE_EQ(events.front().value, 1000.0 - 64.0);

    const std::string json = common::flight_to_json(8);
    EXPECT_NE(json.find("\"events\":["), std::string::npos);
    EXPECT_NE(json.find("\"label\":\"wrap\""), std::string::npos);
}

TEST(FlightRecorder, DisabledRecordingIsInert) {
    TelemetryGuard guard;
    common::flight_enable();
    common::flight_reset();
    common::flight_disable();
    common::flight_record("test", "ignored", 0.0, 0.0);
    EXPECT_TRUE(common::flight_snapshot().empty());
}

// ---------------------------------------------------------------------------
// 6. Unified snapshot document.
// ---------------------------------------------------------------------------

TEST(TelemetrySnapshot, CarriesEverySection) {
    TelemetryGuard guard;
    common::flight_enable();
    common::obs_counter("test.snap_counter").add(3);
    common::obs_gauge("test.snap_gauge").set(0.5);
    common::obs_windowed_counter("test.snap_wc").add(1.0, 2);
    common::obs_windowed_quantile("test.snap_wq").observe(1.0, 9.0);
    common::SloSpec spec;
    spec.name = "test.snap_slo";
    spec.availability_pct = 99.0;
    common::obs_slo(spec).record(1.0, 50.0, true);
    common::flight_record("test", "snap", 1.0, 1.0);

    const std::string json = common::telemetry_snapshot_json();
    EXPECT_NE(json.find("\"schema\":\"wifisense.telemetry_snapshot/v2\""),
              std::string::npos);
    for (const char* section :
         {"\"metrics\":{\"counters\":{", "\"gauges\":{", "\"windows\":",
          "\"slo\":", "\"recorder\":"})
        EXPECT_NE(json.find(section), std::string::npos) << section;
    // v2 carries no second or third latency instrument.
    for (const char* gone : {"\"sketches\":", "\"histograms\":"})
        EXPECT_EQ(json.find(gone), std::string::npos) << gone;
    EXPECT_NE(json.find("test.snap_counter"), std::string::npos);
    EXPECT_NE(json.find("test.snap_gauge"), std::string::npos);
    EXPECT_NE(json.find("test.snap_wq"), std::string::npos);
    EXPECT_NE(json.find("test.snap_slo"), std::string::npos);
    EXPECT_NE(json.find("\"label\":\"snap\""), std::string::npos);
}

}  // namespace
