// Pre-reserved per-thread event ring: the one recording primitive under the
// span tracer (common/trace.hpp) and the flight recorder
// (common/telemetry/flight_recorder.hpp). See DESIGN.md §14.
//
//   - enable() sizes everything up front: `max_threads` lanes, each a ring
//     of `events_per_thread` slots rounded up to a power of two. Nothing
//     allocates after that.
//   - A thread's first record in a session claims the next lane with one
//     atomic increment and caches it in a thread_local cursor, keyed by a
//     session epoch that enable() and reset() bump. A thread that finds
//     every lane taken records nothing; each event it offers is counted in
//     dropped().
//   - A full lane wraps: slot `head & (capacity - 1)` is overwritten, the
//     oldest event is lost and counted in dropped(). Recording never grows
//     or blocks.
//   - The ring drives the front end's enabled flag (an atomic<bool> the
//     front end's inline gate loads), so the disabled cost stays one
//     relaxed load and a branch at the call site.
//
// Contract: enable(), reset(), snapshot() and dropped() run outside
// parallel regions; lane() and next() are wait-free per thread. Each front
// end owns exactly one ring per Event type (the thread_local cursor is per
// instantiation). `Event` needs a `std::uint32_t tid` member, which next()
// stamps with the lane index. `LaneState` is per-lane front-end state (the
// tracer's sampling counters; NoLaneState for none), value-reset by enable()
// and reset().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

namespace wifisense::common {

struct NoLaneState {};

template <class Event, class LaneState>
class EventRing {
public:
    struct Lane {
        std::vector<Event> slots;
        std::uint64_t head = 0;  ///< events ever written to this lane
        LaneState state{};
    };

    constexpr explicit EventRing(std::atomic<bool>& enabled) : enabled_(enabled) {}
    EventRing(const EventRing&) = delete;
    EventRing& operator=(const EventRing&) = delete;

    /// Reserve `max_threads` lanes of `events_per_thread` slots (rounded up
    /// to a power of two), discard every earlier event, start recording.
    void enable(std::size_t events_per_thread, std::size_t max_threads) {
        enabled_.store(false, std::memory_order_relaxed);
        capacity_ = 1;
        while (capacity_ < events_per_thread && capacity_ < (std::size_t{1} << 30))
            capacity_ <<= 1;
        lanes_.assign(std::max<std::size_t>(max_threads, 1), Lane{});
        for (Lane& lane : lanes_) lane.slots.assign(capacity_, Event{});
        restart(true);
    }

    /// Stop recording; recorded events stay readable.
    void disable() { enabled_.store(false, std::memory_order_relaxed); }

    /// Drop every event and lane claim, keep the buffers and the enabled
    /// state.
    void reset() { restart(enabled_.load(std::memory_order_relaxed)); }

    /// The calling thread's lane for this session, claimed on first use;
    /// nullptr (one dropped event) when every lane is taken.
    // wifisense-lint: requires(noalloc, noexcept, noclock, det)
    Lane* lane() {
        const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
        if (cursor_.owner != this || cursor_.epoch != epoch) {
            cursor_.owner = this;
            cursor_.epoch = epoch;
            const std::size_t idx =
                next_lane_.fetch_add(1, std::memory_order_relaxed);
            cursor_.lane = idx < lanes_.size() ? &lanes_[idx] : nullptr;
        }
        if (cursor_.lane == nullptr)
            lane_overflow_.fetch_add(1, std::memory_order_relaxed);
        return cursor_.lane;
    }

    /// The lane's next slot (overwriting the oldest when full), stamped
    /// with the lane index; the caller fills in the rest.
    // wifisense-lint: requires(noalloc, noexcept, noclock, det)
    Event& next(Lane& lane) {
        Event& e = lane.slots[lane.head & (capacity_ - 1)];
        e.tid = static_cast<std::uint32_t>(&lane - lanes_.data());
        ++lane.head;
        return e;
    }

    /// Surviving events, lane by lane, oldest first within a lane.
    std::vector<Event> snapshot() const {
        std::vector<Event> out;
        for (const Lane& lane : lanes_) {
            const std::uint64_t kept = std::min<std::uint64_t>(lane.head, capacity_);
            for (std::uint64_t i = lane.head - kept; i < lane.head; ++i)
                out.push_back(lane.slots[i & (capacity_ - 1)]);
        }
        return out;
    }

    /// Events lost to wrap-around or lane exhaustion.
    std::uint64_t dropped() const {
        std::uint64_t n = lane_overflow_.load(std::memory_order_relaxed);
        for (const Lane& lane : lanes_)
            if (lane.head > capacity_) n += lane.head - capacity_;
        return n;
    }

    const std::vector<Lane>& lanes() const { return lanes_; }

private:
    struct Cursor {
        const EventRing* owner = nullptr;
        std::uint64_t epoch = 0;
        Lane* lane = nullptr;
    };

    void restart(bool enabled) {
        enabled_.store(false, std::memory_order_relaxed);
        for (Lane& lane : lanes_) {
            lane.head = 0;
            lane.state = LaneState{};
        }
        next_lane_.store(0, std::memory_order_relaxed);
        lane_overflow_.store(0, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        enabled_.store(enabled, std::memory_order_release);
    }

    std::atomic<bool>& enabled_;
    std::size_t capacity_ = 1;  ///< power of two
    std::vector<Lane> lanes_;
    std::atomic<std::size_t> next_lane_{0};
    std::atomic<std::uint64_t> lane_overflow_{0};
    std::atomic<std::uint64_t> epoch_{0};
    static inline thread_local Cursor cursor_{};
};

}  // namespace wifisense::common
