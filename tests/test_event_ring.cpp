// The shared per-thread event ring (common/event_ring.hpp) seen through both
// of its front ends, the span tracer and the flight recorder:
//
//   1. lane exhaustion: with fewer lanes than recording pool threads, the
//      surplus threads' events are counted as dropped, every kept event
//      carries an in-range lane index, and kept + dropped equals offered;
//   2. reset keeps the enabled state, discards events and lane claims, and
//      lets threads claim lanes afresh;
//
// plus the observability front door (configure_observability_from_env with
// argv): --trace-out= honours WIFISENSE_TRACE_SAMPLE, --snapshot-out= arms
// the registry and the recorder, and write_observability_exports() writes
// both files.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "common/trace.hpp"

namespace {

using namespace wifisense;

struct TraceFront {
    /// run_chunks_erased records one pool.chunk span per fanned-out chunk
    /// into the same ring.
    static constexpr std::size_t kEventsPerChunk = 1;
    static void enable(std::size_t max_threads, std::size_t events) {
        common::TraceConfig cfg;
        cfg.max_threads = max_threads;
        cfg.events_per_thread = events;
        common::trace_enable(cfg);
    }
    static void record() { common::trace_instant("test.ring"); }
    static bool enabled() { return common::trace_enabled(); }
    static void reset() { common::trace_reset(); }
    static void disable() { common::trace_disable(); }
    static std::uint64_t dropped() { return common::trace_dropped_events(); }
    static std::vector<std::uint32_t> tids() {
        std::vector<std::uint32_t> out;
        for (const common::TraceEvent& e : common::trace_snapshot()) out.push_back(e.tid);
        return out;
    }
};

struct FlightFront {
    static constexpr std::size_t kEventsPerChunk = 0;
    static void enable(std::size_t max_threads, std::size_t events) {
        common::FlightConfig cfg;
        cfg.max_threads = max_threads;
        cfg.events_per_thread = events;
        common::flight_enable(cfg);
    }
    static void record() { common::flight_record("test", "ring", 0.0, 0.0); }
    static bool enabled() { return common::flight_enabled(); }
    static void reset() { common::flight_reset(); }
    static void disable() { common::flight_disable(); }
    static std::uint64_t dropped() { return common::flight_dropped_events(); }
    static std::vector<std::uint32_t> tids() {
        std::vector<std::uint32_t> out;
        for (const common::FlightEvent& e : common::flight_snapshot()) out.push_back(e.tid);
        return out;
    }
};

template <class Front>
class EventRingFront : public ::testing::Test {
protected:
    EventRingFront() : saved_(common::execution_config()) {}
    ~EventRingFront() override {
        Front::disable();
        common::set_execution_config(saved_);
    }

private:
    common::ExecutionConfig saved_;
};

using Fronts = ::testing::Types<TraceFront, FlightFront>;
TYPED_TEST_SUITE(EventRingFront, Fronts);

TYPED_TEST(EventRingFront, LaneExhaustionCountsSurplusAsDropped) {
    constexpr std::size_t kChunks = 8;
    constexpr std::size_t kPerChunk = 200;
    constexpr std::size_t kLanes = 2;
    constexpr std::size_t kCapacity = 4096;  // no wrap: 2 lanes hold them all
    common::set_execution_config({.threads = kChunks});
    TypeParam::enable(kLanes, kCapacity);

    // Every chunk waits until at least kLanes + 1 chunks run at once, so
    // more distinct pool threads record than there are lanes (the wait
    // gives up after 5 s; the distinct-thread assertion then fails).
    std::atomic<std::size_t> arrived{0};
    std::vector<std::thread::id> who(kChunks);
    const std::uint64_t deadline = common::trace_now_ns() + 5'000'000'000ull;
    common::parallel_for_chunks(kChunks, 1, [&](std::size_t c, std::size_t) {
        who[c] = std::this_thread::get_id();
        arrived.fetch_add(1);
        while (arrived.load() <= kLanes && common::trace_now_ns() < deadline)
            std::this_thread::yield();
        for (std::size_t i = 0; i < kPerChunk; ++i) TypeParam::record();
    });
    TypeParam::disable();

    ASSERT_GT(std::set<std::thread::id>(who.begin(), who.end()).size(), kLanes);
    const std::vector<std::uint32_t> tids = TypeParam::tids();
    for (const std::uint32_t tid : tids) EXPECT_LT(tid, kLanes) << "lane index out of range";
    EXPECT_LE(tids.size(), kLanes * kCapacity);
    EXPECT_GT(TypeParam::dropped(), 0u) << "surplus threads' events must be counted";
    EXPECT_EQ(tids.size() + TypeParam::dropped(),
              kChunks * (kPerChunk + TypeParam::kEventsPerChunk))
        << "every offered event is either kept or counted as dropped";
}

TYPED_TEST(EventRingFront, ResetKeepsEnabledStateAndReleasesLanes) {
    TypeParam::enable(/*max_threads=*/1, /*events=*/64);
    for (int i = 0; i < 3; ++i) TypeParam::record();  // this thread takes lane 0
    ASSERT_EQ(TypeParam::tids().size(), 3u);

    TypeParam::reset();
    EXPECT_TRUE(TypeParam::enabled()) << "reset keeps the enabled state";
    EXPECT_TRUE(TypeParam::tids().empty()) << "reset discards events";
    EXPECT_EQ(TypeParam::dropped(), 0u);

    // The single lane is free again: a fresh thread claims it, and this
    // thread's stale claim from before the reset no longer holds.
    std::thread([] {
        TypeParam::record();
        TypeParam::record();
    }).join();
    TypeParam::record();
    EXPECT_EQ(TypeParam::tids(), (std::vector<std::uint32_t>{0, 0}));
    EXPECT_EQ(TypeParam::dropped(), 1u) << "this thread found no lane left";

    // After another reset this thread claims lane 0 again.
    TypeParam::reset();
    TypeParam::record();
    EXPECT_EQ(TypeParam::tids(), (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(TypeParam::dropped(), 0u);

    TypeParam::disable();
    TypeParam::reset();
    EXPECT_FALSE(TypeParam::enabled()) << "reset keeps the disabled state too";
}

/// Sets or clears the observability environment for one test, and turns
/// everything off afterwards.
class FrontDoorEnv {
public:
    explicit FrontDoorEnv(const char* trace_sample) {
        ::unsetenv("WIFISENSE_TRACE");
        ::unsetenv("WIFISENSE_SNAPSHOT");
        if (trace_sample != nullptr)
            ::setenv("WIFISENSE_TRACE_SAMPLE", trace_sample, 1);
        else
            ::unsetenv("WIFISENSE_TRACE_SAMPLE");
    }
    ~FrontDoorEnv() {
        ::unsetenv("WIFISENSE_TRACE_SAMPLE");
        common::trace_disable();
        common::metrics_disable();
        common::flight_disable();
    }
    FrontDoorEnv(const FrontDoorEnv&) = delete;
    FrontDoorEnv& operator=(const FrontDoorEnv&) = delete;
};

TEST(ObservabilityFrontDoor, TraceOutFlagHonoursTraceSampleEnv) {
    FrontDoorEnv env("4");
    const char* argv[] = {"prog", "--trace-out=front_door_trace.json"};
    const common::ObservabilityEnv obs = common::configure_observability_from_env(2, argv);
    EXPECT_TRUE(obs.trace);
    EXPECT_EQ(obs.trace_path, "front_door_trace.json");
    EXPECT_EQ(obs.trace_sample_every, 4u);
    ASSERT_TRUE(common::trace_enabled());

    for (int i = 0; i < 8; ++i) common::trace_instant("test.front_door");
    common::trace_disable();
    EXPECT_EQ(common::trace_sampled_out(), 6u) << "1-in-4 sampling on the flag path";
    EXPECT_EQ(common::trace_snapshot().size(), 2u);
}

TEST(ObservabilityFrontDoor, SnapshotOutArmsRegistryAndRecorderOnly) {
    FrontDoorEnv env(nullptr);
    common::trace_disable();
    const char* argv[] = {"prog", "0.25", "--snapshot-out=front_door_snap.json",
                          "--fault-plan=drop=0.1"};
    const common::ObservabilityEnv obs = common::configure_observability_from_env(4, argv);
    EXPECT_FALSE(obs.trace);
    EXPECT_TRUE(obs.snapshot);
    EXPECT_EQ(obs.snapshot_path, "front_door_snap.json");
    EXPECT_TRUE(common::metrics_enabled());
    EXPECT_TRUE(common::flight_enabled());
    EXPECT_FALSE(common::trace_enabled());
}

TEST(ObservabilityFrontDoor, WriterExportsTraceAndSnapshot) {
    FrontDoorEnv env(nullptr);
    const std::string dir = ::testing::TempDir();
    const std::string trace_arg = "--trace-out=" + dir + "front_door_w_trace.json";
    const std::string snap_arg = "--snapshot-out=" + dir + "front_door_w_snap.json";
    const char* argv[] = {"prog", trace_arg.c_str(), snap_arg.c_str()};
    const common::ObservabilityEnv obs = common::configure_observability_from_env(3, argv);
    common::trace_instant("test.front_door_writer");
    common::flight_record("test", "front_door_writer", 0.0, 0.0);
    common::write_observability_exports(obs);

    const auto slurp = [](const std::string& path) {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const std::string trace = slurp(obs.trace_path);
    const std::string snap = slurp(obs.snapshot_path);
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("test.front_door_writer"), std::string::npos);
    EXPECT_NE(snap.find("wifisense.telemetry_snapshot/v2"), std::string::npos);
    EXPECT_NE(snap.find("\"label\":\"front_door_writer\""), std::string::npos);
    std::remove(obs.trace_path.c_str());
    std::remove(obs.snapshot_path.c_str());
}

}  // namespace
