// Serving-grade telemetry layer (common/telemetry/, DESIGN.md §19):
//
//   1. P² quantile sketches stay within rank-error bounds on seeded
//      adversarial streams (sorted / reversed / constant / bimodal) fed in
//      their fixed order, and 1 / 2 / 8-thread feeds of the same streams
//      keep count, min and max exact — the estimates move with the
//      interleaving, so the rank bounds are not checked on those;
//   2. warm recording never allocates: sketch observe(), windowed
//      counter/quantile recording, flight_record(), and SloMonitor::record()
//      all run under an AllocationProbe expecting delta 0;
//   3. sliding windows honor stream time: epoch rotation zeroes skipped
//      buckets, in-window out-of-order arrivals land, older ones drop and
//      are counted;
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
#include <string>
#include <string_view>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "common/telemetry/quantile_sketch.hpp"
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
// 1. P² rank-error property tests on adversarial streams.
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

/// Feeds the stream from `threads` pool threads. P²'s markers depend on the
/// order observations arrive in, so the interleaving may move the estimates;
/// count, min and max do not depend on order and must come out exact, and so
/// must the collapse of a constant stream.
void check_concurrent_feed(StreamShape shape, std::size_t threads) {
    TelemetryGuard guard;
    common::set_execution_config({.threads = threads});

    const std::size_t n = 20000;
    const std::vector<double> stream = make_stream(shape, n, 0xabcdef);
    const auto [lo, hi] = std::minmax_element(stream.begin(), stream.end());

    common::QuantileSketch& sketch = common::obs_sketch("test.p2_rank");
    sketch.reset();
    common::parallel_for(
        n, [&](std::size_t i) { sketch.observe(stream[i]); },
        /*grain=*/256);

    ASSERT_EQ(sketch.count(), n) << "threads=" << threads;
    EXPECT_EQ(sketch.min(), *lo) << "threads=" << threads;
    EXPECT_EQ(sketch.max(), *hi) << "threads=" << threads;
    if (shape == StreamShape::kConstant)
        for (std::size_t i = 0; i < common::kSketchQuantileCount; ++i)
            EXPECT_EQ(sketch.estimate(i), 42.0)
                << "constant stream must collapse every marker";
}

/// Feeds the stream serially in its own fixed order and checks the rank
/// error of every estimate. The order is fixed because P²'s error depends
/// on it: fed serially in 400 seeded shuffled orders, the bimodal stream's
/// median misses its 0.12 bound in 5-7% of them (worst 0.30), so a
/// thread-interleaved feed would make this check flaky without saying
/// anything about the sketch.
void check_rank_error(StreamShape shape) {
    TelemetryGuard guard;

    const std::size_t n = 20000;
    const std::vector<double> stream = make_stream(shape, n, 0xabcdef);
    std::vector<double> sorted = stream;
    std::sort(sorted.begin(), sorted.end());

    common::QuantileSketch& sketch = common::obs_sketch("test.p2_rank");
    sketch.reset();
    for (const double x : stream) sketch.observe(x);
    ASSERT_EQ(sketch.count(), n);

    if (shape == StreamShape::kConstant) {
        for (std::size_t i = 0; i < common::kSketchQuantileCount; ++i)
            EXPECT_EQ(sketch.estimate(i), 42.0)
                << "constant stream must collapse every marker";
        return;
    }
    // Rank-space error bound: the estimate's rank within the actual stream
    // must sit near the target quantile. P² has no worst-case guarantee —
    // on smooth streams the empirical rank error stays well under 5%, while
    // the dense low mode of the bimodal stream stresses the parabolic
    // interpolation to ~8% at the median, hence its looser budget. Tail
    // quantiles are tighter everywhere: the upper markers pin them.
    for (std::size_t i = 0; i < common::kSketchQuantileCount; ++i) {
        const double q = common::kSketchQuantiles[i];
        const double rank = rank_of(sorted, sketch.estimate(i));
        const double bound = q >= 0.99 ? 0.02
                             : shape == StreamShape::kBimodal ? 0.12
                                                              : 0.05;
        EXPECT_NEAR(rank, q, bound)
            << "shape=" << static_cast<int>(shape) << " q=" << q
            << " estimate=" << sketch.estimate(i);
    }
}

void check_sketch(StreamShape shape) {
    for (std::size_t t : {1u, 2u, 8u}) check_concurrent_feed(shape, t);
    check_rank_error(shape);
}

TEST(QuantileSketchP2, RankErrorBoundsSorted) {
    check_sketch(StreamShape::kSorted);
}

TEST(QuantileSketchP2, RankErrorBoundsReversed) {
    check_sketch(StreamShape::kReversed);
}

TEST(QuantileSketchP2, RankErrorBoundsConstant) {
    check_sketch(StreamShape::kConstant);
}

TEST(QuantileSketchP2, RankErrorBoundsBimodal) {
    check_sketch(StreamShape::kBimodal);
}

TEST(QuantileSketchP2, SmallStreamsAreExact) {
    TelemetryGuard guard;
    common::QuantileSketch& s = common::obs_sketch("test.p2_small");
    s.reset();
    s.observe(3.0);
    s.observe(1.0);
    s.observe(2.0);
    // Below five observations the estimate is the interpolated sample
    // quantile of what arrived, order-independent.
    EXPECT_DOUBLE_EQ(s.estimate(0), 2.0);  // p50 of {1,2,3}
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(QuantileSketchP2, NaNObservationsAreDropped) {
    TelemetryGuard guard;
    common::QuantileSketch& s = common::obs_sketch("test.p2_nan");
    s.reset();
    s.observe(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(s.count(), 0u);
    s.observe(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.estimate(0), 5.0);
}

// ---------------------------------------------------------------------------
// 2. Warm recording is allocation-free.
// ---------------------------------------------------------------------------

TEST(TelemetryAllocation, WarmRecordingPathsNeverAllocate) {
    TelemetryGuard guard;
    common::flight_enable();

    // Registration + first touches (may allocate: registry nodes, rings).
    common::QuantileSketch& sketch = common::obs_sketch("test.alloc_sketch");
    common::WindowedCounter& wc =
        common::obs_windowed_counter("test.alloc_wc");
    common::WindowedQuantile& wq =
        common::obs_windowed_quantile("test.alloc_wq");
    common::SloSpec spec;
    spec.name = "test.alloc_slo";
    spec.latency_objective_us = 1000.0;
    spec.availability_pct = 99.0;
    common::SloMonitor& mon = common::obs_slo(spec);
    sketch.reset();
    sketch.observe(1.0);
    wc.add(0.0, 1);
    wq.observe(0.0, 1.0);
    mon.record(0.0, 10.0, true);
    common::flight_record("test", "warmup", 0.0, 0.0);

    alloc::AllocationProbe probe;
    for (int i = 0; i < 5000; ++i) {
        const double t = static_cast<double>(i) * 0.01;
        sketch.observe(static_cast<double>(i % 97));
        wc.add(t, 2);
        wq.observe(t, static_cast<double>(i % 31));
        mon.record(t, 25.0, (i % 50) != 0);
        common::flight_record("test", "steady", t, static_cast<double>(i));
    }
    EXPECT_EQ(probe.delta(), 0u)
        << "warm telemetry recording must never touch the heap";
}

// ---------------------------------------------------------------------------
// 3. Sliding-window semantics over stream time.
// ---------------------------------------------------------------------------

TEST(SlidingWindow, CounterRotatesAndDropsLate) {
    TelemetryGuard guard;
    common::WindowConfig cfg;
    cfg.epoch_seconds = 1.0;
    cfg.epochs = 4;
    common::WindowedCounter wc("test.wc_rotate", cfg);

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
    common::WindowConfig cfg;
    cfg.epoch_seconds = 1.0;
    cfg.epochs = 8;
    cfg.reservoir = 64;
    common::WindowedQuantile wq("test.wq_trailing", cfg);

    // Epochs 0..3 hold small values, epochs 4..7 big ones.
    for (int e = 0; e < 8; ++e)
        for (int i = 0; i < 32; ++i)
            wq.observe(static_cast<double>(e) + 0.01 * i,
                       e < 4 ? 1.0 : 1000.0);

    EXPECT_EQ(wq.count_last(8.0), 8u * 32u);
    EXPECT_EQ(wq.count_last(2.0), 2u * 32u);
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
    common::WindowConfig cfg;
    cfg.epoch_seconds = 1.0;
    cfg.epochs = 2;
    cfg.reservoir = 16;
    // Same seed + same arrival order => identical retained samples.
    common::WindowedQuantile a("test.wq_det_a", cfg);
    common::WindowedQuantile b("test.wq_det_b", cfg);
    for (int i = 0; i < 500; ++i) {
        a.observe(0.5, static_cast<double>(i));
        b.observe(0.5, static_cast<double>(i));
    }
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile_last(1.0, q), b.quantile_last(1.0, q));
}

TEST(SlidingWindow, RecordingGatedOnMetricsEnabled) {
    TelemetryGuard guard;
    common::metrics_disable();
    common::WindowedCounter wc("test.wc_gated", {});
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
    common::obs_sketch("test.snap_sketch").observe(12.0);
    common::obs_windowed_counter("test.snap_wc").add(1.0, 2);
    common::obs_windowed_quantile("test.snap_wq").observe(1.0, 9.0);
    common::SloSpec spec;
    spec.name = "test.snap_slo";
    spec.availability_pct = 99.0;
    common::obs_slo(spec).record(1.0, 50.0, true);
    common::flight_record("test", "snap", 1.0, 1.0);

    const std::string json = common::telemetry_snapshot_json();
    EXPECT_NE(json.find("\"schema\":\"wifisense.telemetry_snapshot/v1\""),
              std::string::npos);
    for (const char* section :
         {"\"metrics\":", "\"sketches\":", "\"windows\":", "\"slo\":",
          "\"recorder\":"})
        EXPECT_NE(json.find(section), std::string::npos) << section;
    EXPECT_NE(json.find("test.snap_sketch"), std::string::npos);
    EXPECT_NE(json.find("test.snap_wq"), std::string::npos);
    EXPECT_NE(json.find("test.snap_slo"), std::string::npos);
    EXPECT_NE(json.find("\"label\":\"snap\""), std::string::npos);
}

}  // namespace
