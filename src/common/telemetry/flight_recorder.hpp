// Flight recorder: a pre-reserved per-thread ring of recent structured
// events — the "what just happened" buffer dumped when something breaks
// (DESIGN.md §19).
//
// Traces answer "where did the time go"; metrics answer "how much"; the
// flight recorder answers "in what order did the interesting state changes
// arrive" — degradation-ladder tier walks, link health flips, wire
// defects, SLO breaches. Each event is two interned string pointers
// (category + label: string literals only, mirroring the trace-span
// contract), a stream timestamp, and two numeric payloads.
//
// Storage is the per-thread EventRing the span tracer also records into
// (common/event_ring.hpp): lanes sized once at flight_enable() time, one
// atomic increment to claim a lane, a full ring wraps (oldest events drop,
// counted), recording never allocates or blocks. This file adds only the
// global sequence stamp and the tail JSON. Unlike the tracer there is NO
// clock read: ordering comes from the sequence counter and the caller's
// stream time, so record() holds the full `requires(noalloc, noexcept,
// noclock, det)` contract and is callable from the wire-decoder and
// reassembler hot paths whose lint roots forbid clock reads outright.
//
// Disabled cost: one relaxed atomic load and a branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace wifisense::common {

struct FlightConfig {
    /// Ring capacity per thread slot, rounded up to a power of two.
    std::size_t events_per_thread = std::size_t{1} << 10;
    /// Thread slots pre-reserved at enable time; threads beyond this record
    /// nothing (counted in flight_dropped_events()).
    std::size_t max_threads = 64;
};

/// One recorded event. `seq` is a global order stamp (atomic counter, not a
/// clock); `stream_t` is the caller's stream time in seconds (0 when the
/// recording site has no stream clock, e.g. the byte-offset-based decoder).
struct FlightEvent {
    const char* category = nullptr;  ///< e.g. "tier", "link", "wire"
    const char* label = nullptr;     ///< e.g. "subset-fusion", "seq-gap"
    double stream_t = 0.0;
    double value = 0.0;  ///< primary payload (link id, links used, ...)
    double extra = 0.0;  ///< secondary payload (missing count, detail, ...)
    std::uint64_t seq = 0;
    std::uint32_t tid = 0;
};

namespace obsdetail {
extern std::atomic<bool> g_flight_enabled;
}  // namespace obsdetail

/// True while the recorder accepts events (the relaxed load is the entire
/// disabled-path cost of flight_record()).
inline bool flight_enabled() {
    return obsdetail::g_flight_enabled.load(std::memory_order_relaxed);
}

/// Pre-reserve the rings and start recording. Must run outside parallel
/// regions; all recorder memory is allocated here so recording afterwards
/// is allocation-free. Re-enabling discards previous events.
void flight_enable(const FlightConfig& cfg = {});

/// Stop recording; recorded events stay available for snapshot/export.
void flight_disable();

/// Drop all recorded events, keep buffers and the enabled state.
void flight_reset();

/// Record one event. `category` and `label` must be string literals (only
/// the pointers are stored). Proven `noalloc, noexcept, noclock, det` —
/// the hot-path purity contract every instrumented site relies on.
void flight_record(const char* category, const char* label, double stream_t,
                   double value, double extra = 0.0);

/// Events recorded so far, ordered by global sequence stamp. Oldest
/// wrapped events are gone. Safe to call while disabled.
std::vector<FlightEvent> flight_snapshot();

/// Events lost to ring wrap-around, or offered by a thread that found every
/// slot taken.
std::uint64_t flight_dropped_events();

/// JSON of the most recent `tail` events (by sequence stamp):
/// {"dropped":N,"events":[{"seq":..,"tid":..,"category":"..","label":"..",
/// "t":..,"value":..,"extra":..},...]} — consumed by the snapshot export.
std::string flight_to_json(std::size_t tail = 512);

}  // namespace wifisense::common
