// Observability layer (common/trace.hpp + common/metrics.hpp) contracts:
//
//   1. never perturbs outputs — the workspace golden training values stay
//      bitwise identical at 1/2/8 threads WITH tracing and metrics enabled;
//   2. zero allocations on the recording path — both disabled (the hot-loop
//      default) and enabled-after-warmup (rings and instruments are
//      pre-reserved, so steady-state recording never touches the heap);
//   3. spans recorded by pool workers nest inside the caller's span, so the
//      Chrome trace renders real stacks;
//   4. counters are deterministic at any thread count (sums of per-chunk
//      events whose decomposition is static).
//
// Combined with test_nn_workspace.cpp (which proves the *uninstrumented*
// steady-state step is allocation-free), probing the instrumentation
// operations themselves proves the instrumented step stays allocation-free:
// the step is exactly workspace ops + instrument ops.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/telemetry/sliding_window.hpp"
#include "common/trace.hpp"
#include "envsim/simulation.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace wifisense;

std::uint32_t bits32(float f) {
    std::uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

std::uint64_t bits64(double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, 8);
    return u;
}

/// Same deterministic toy problem as test_nn_workspace.cpp.
void make_dataset(nn::Matrix& x, nn::Matrix& y) {
    std::mt19937_64 drng(123);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    x.resize(600, 12);
    y.resize(600, 1);
    for (float& v : x.data()) v = u(drng);
    for (std::size_t i = 0; i < y.rows(); ++i)
        y.at(i, 0) = (x.at(i, 0) * x.at(i, 1) > 0.0f) ? 1.0f : 0.0f;
}

nn::TrainConfig golden_config() {
    nn::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 128;
    cfg.input_noise = 0.25;
    cfg.grad_clip = 5.0;
    cfg.seed = 77;
    return cfg;
}

// Same golden bits as test_nn_workspace.cpp: captured with tracing absent,
// reproduced here with tracing live.
constexpr std::uint64_t kGoldenEpochLoss[3] = {
    0x3fe9e43d896f7a38ull, 0x3fe7c58bbe84f9b1ull, 0x3fe6e10ee323b57eull};
constexpr std::uint32_t kGoldenLogits[7] = {
    0x3d71124au, 0x3e1e905eu, 0xbc6bdc0du, 0xbe8b1205u,
    0xba936700u, 0x3c37b53cu, 0xbf6e713eu};
constexpr std::uint32_t kGoldenWeightsXor = 0x3c1afaa0u;

/// Restores pool config and turns all observability off on scope exit, so
/// tests cannot leak enabled-state into each other.
class ObservabilityGuard {
public:
    ObservabilityGuard() : saved_(common::execution_config()) {}
    ~ObservabilityGuard() {
        common::trace_disable();
        common::metrics_disable();
        common::set_execution_config(saved_);
    }
    ObservabilityGuard(const ObservabilityGuard&) = delete;
    ObservabilityGuard& operator=(const ObservabilityGuard&) = delete;

private:
    common::ExecutionConfig saved_;
};

TEST(TraceSpans, PoolWorkerSpansNestInsideCallerSpan) {
    ObservabilityGuard guard;
    common::set_execution_config({.threads = 2});
    common::trace_enable();

    std::vector<double> sink(4096, 0.0);
    {
        common::TraceScope outer("test.outer");
        // 8 chunks on a 2-thread pool: forced through the erased fan-out
        // path, whose per-chunk spans are recorded by whichever thread ran
        // the chunk.
        common::parallel_for_chunks(sink.size(), 512,
                                    [&](std::size_t b, std::size_t e) {
                                        for (std::size_t i = b; i < e; ++i)
                                            sink[i] = static_cast<double>(i);
                                    });
    }
    common::trace_disable();

    const std::vector<common::TraceEvent> events = common::trace_snapshot();
    const common::TraceEvent* outer = nullptr;
    std::size_t chunks = 0;
    for (const common::TraceEvent& e : events)
        if (std::string_view(e.name) == "test.outer") outer = &e;
    ASSERT_NE(outer, nullptr);
    for (const common::TraceEvent& e : events) {
        if (std::string_view(e.name) != "pool.chunk") continue;
        ++chunks;
        EXPECT_GE(e.start_ns, outer->start_ns) << "chunk starts before caller";
        EXPECT_LE(e.end_ns, outer->end_ns) << "chunk outlives caller";
    }
    EXPECT_EQ(chunks, 8u) << "every chunk of the fan-out records one span";
    EXPECT_EQ(common::trace_dropped_events(), 0u);
}

TEST(TraceSpans, RingWrapsWithoutGrowingAndCountsDrops) {
    ObservabilityGuard guard;
    common::set_execution_config({.threads = 1});
    common::TraceConfig cfg;
    cfg.events_per_thread = 64;  // minimum ring
    common::trace_enable(cfg);

    for (int i = 0; i < 200; ++i) common::trace_instant("test.tick");
    common::trace_disable();

    const std::vector<common::TraceEvent> events = common::trace_snapshot();
    EXPECT_LE(events.size(), 64u);
    EXPECT_GT(events.size(), 0u);
    EXPECT_EQ(common::trace_dropped_events(), 200u - events.size());
}

TEST(TraceSpans, SamplingKeepsOneInNAndCountsTheRest) {
    ObservabilityGuard guard;
    common::set_execution_config({.threads = 1});
    common::TraceConfig cfg;
    cfg.sample_every = 4;
    common::trace_enable(cfg);

    for (int i = 0; i < 100; ++i) common::trace_instant("test.sampled");
    common::trace_disable();

    // Per-thread 1-in-N policy: the first of every 4 offered events is kept.
    EXPECT_EQ(common::trace_snapshot().size(), 25u);
    EXPECT_EQ(common::trace_sampled_out(), 75u);
    EXPECT_EQ(common::trace_dropped_events(), 0u)
        << "sampled-out events are policy, not loss";

    // reset() restarts both the rings and the sampling counters.
    common::trace_enable(cfg);
    common::trace_reset();
    common::trace_disable();
    EXPECT_EQ(common::trace_sampled_out(), 0u);
}

TEST(TraceSpans, SimulatorEmitsTickEventAndSampleSpans) {
    ObservabilityGuard guard;
    common::set_execution_config({.threads = 2});
    common::trace_enable();

    envsim::SimulationConfig cfg = envsim::paper_config(2.0, 7);
    cfg.duration_s = 30.0;  // 60 ticks on the 0.5 s dynamics step
    (void)envsim::OfficeSimulator(cfg).run();
    common::trace_disable();

    std::size_t events = 0, ticks = 0, samples = 0;
    for (const common::TraceEvent& e : common::trace_snapshot()) {
        const std::string_view name(e.name);
        events += name == "sim.event" ? 1u : 0u;
        ticks += name == "sim.tick" ? 1u : 0u;
        samples += name == "csi.sample" ? 1u : 0u;
    }
    EXPECT_EQ(ticks, 60u) << "one sim.tick per dynamics step";
    EXPECT_EQ(events, 5u * 60u) << "five LP activations per tick";
    EXPECT_EQ(samples, 60u)
        << "one csi.sample per flushed tick window (2 Hz x 30 s, no drops)";
}

TEST(TraceSpans, ChromeJsonContainsRecordedSpans) {
    ObservabilityGuard guard;
    common::set_execution_config({.threads = 1});
    common::trace_enable();
    { common::TraceScope s("test.json_span"); }
    common::trace_instant("test.json_marker");
    common::trace_disable();

    const std::string json = common::trace_to_chrome_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("test.json_span"), std::string::npos);
    EXPECT_NE(json.find("test.json_marker"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(MetricsRegistry, DisabledRecordingIsInert) {
    ObservabilityGuard guard;
    common::metrics_disable();
    common::Counter& c = common::obs_counter("test.inert_counter");
    common::Gauge& g = common::obs_gauge("test.inert_gauge");
    c.reset();
    g.reset();
    c.add(5);
    g.set(3.5);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricsRegistry, TrainingCountersDeterministicAcrossThreadCounts) {
    ObservabilityGuard guard;
    common::metrics_enable();
    nn::Matrix x, y;
    make_dataset(x, y);
    const nn::BceWithLogitsLoss loss;

    std::uint64_t ref_steps = 0, ref_epochs = 0;
    bool first = true;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        common::set_execution_config({.threads = threads});
        common::metrics_reset();

        std::mt19937_64 rng(9);
        nn::Mlp net({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);
        (void)nn::train(net, x, y, loss, golden_config());

        const std::uint64_t steps = common::obs_counter("train.steps").value();
        const std::uint64_t epochs = common::obs_counter("train.epochs").value();
        EXPECT_GT(steps, 0u);
        EXPECT_EQ(epochs, 3u);
        if (first) {
            ref_steps = steps;
            ref_epochs = epochs;
            first = false;
        } else {
            EXPECT_EQ(steps, ref_steps);
            EXPECT_EQ(epochs, ref_epochs);
        }
    }
}

TEST(ObservabilityAlloc, DisabledInstrumentOpsAllocateNothing) {
    ObservabilityGuard guard;
    common::trace_disable();
    common::metrics_disable();
    // Instrument creation may allocate — hoisted, exactly like the call sites.
    common::Counter& c = common::obs_counter("test.alloc_counter");
    common::Gauge& g = common::obs_gauge("test.alloc_gauge");
    common::WindowedQuantile& q =
        common::obs_windowed_quantile("test.alloc_wq");

    alloc::AllocationProbe probe;
    for (int i = 0; i < 1000; ++i) {
        common::TraceScope span("test.alloc_span");
        c.add(1);
        g.set(static_cast<double>(i));
        q.observe(static_cast<double>(i) * 0.01, static_cast<double>(i));
        common::trace_instant("test.alloc_marker");
    }
    EXPECT_EQ(probe.delta(), 0u) << "disabled instrumentation touched the heap";
}

TEST(ObservabilityAlloc, EnabledRecordingAfterWarmupAllocatesNothing) {
    ObservabilityGuard guard;
    common::set_execution_config({.threads = 1});
    // Enabling pre-reserves every ring; instrument creation allocates now,
    // before the probe — the steady state must not.
    common::trace_enable();
    common::metrics_enable();
    common::Counter& c = common::obs_counter("test.alloc_counter_on");
    common::Gauge& g = common::obs_gauge("test.alloc_gauge_on");
    common::WindowedQuantile& q =
        common::obs_windowed_quantile("test.alloc_wq_on");
    q.reset();
    {  // Warm-up: acquires this thread's ring slot.
        common::TraceScope warm("test.alloc_warm");
        q.observe(0.0, 1.0);
    }

    alloc::AllocationProbe probe;
    for (int i = 0; i < 1000; ++i) {
        common::TraceScope span("test.alloc_span_on");
        c.add(1);
        g.set(static_cast<double>(i));
        q.observe(static_cast<double>(i) * 0.01, static_cast<double>(i));
        common::trace_instant("test.alloc_marker_on");
    }
    EXPECT_EQ(probe.delta(), 0u) << "live recording touched the heap";
    EXPECT_EQ(c.value(), 1000u);
    EXPECT_EQ(q.count_last(60.0), 1001u);
}

TEST(ObservabilityGolden, TrainingBitwiseIdenticalWithTracingLive) {
    ObservabilityGuard guard;
    nn::Matrix x, y;
    make_dataset(x, y);
    const nn::BceWithLogitsLoss loss;

    common::trace_enable();
    common::metrics_enable();

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        common::set_execution_config({.threads = threads});
        common::trace_reset();
        common::metrics_reset();

        std::mt19937_64 rng(9);
        nn::Mlp net({12, 32, 16, 1}, nn::Init::kKaimingUniform, rng);
        const nn::TrainHistory h = nn::train(net, x, y, loss, golden_config());

        ASSERT_EQ(h.epoch_loss.size(), 3u);
        for (std::size_t e = 0; e < 3; ++e)
            EXPECT_EQ(bits64(h.epoch_loss[e]), kGoldenEpochLoss[e])
                << "epoch " << e;

        const nn::Matrix logits = nn::predict(net, x, 256);
        for (std::size_t i = 0, gg = 0; i < logits.rows(); i += 97, ++gg)
            EXPECT_EQ(bits32(logits.at(i, 0)), kGoldenLogits[gg]) << "row " << i;

        std::uint32_t wx = 0;
        for (nn::ParamView& p : net.parameters())
            for (const float v : p.values) wx ^= bits32(v);
        EXPECT_EQ(wx, kGoldenWeightsXor);

        // The run actually recorded: spans exist for every training step.
        std::size_t steps = 0;
        for (const common::TraceEvent& e : common::trace_snapshot())
            if (std::string_view(e.name) == "train.step") ++steps;
        EXPECT_EQ(steps, common::obs_counter("train.steps").value());
        EXPECT_GT(steps, 0u);
    }
}

}  // namespace
