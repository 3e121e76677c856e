#include "data/link_ingest.hpp"

#include <algorithm>

#include "common/telemetry/flight_recorder.hpp"

namespace wifisense::data {

LinkReassembler::LinkReassembler() { buf_.reserve(kReorderWindow + 1); }

void LinkReassembler::reset() {
    buf_.clear();
    has_last_ = false;
    last_seq_ = 0;
    stats_ = ReassemblyStats{};
}

// wifisense-lint: allow-call(on_frame) FrameSink is an abstract observer; the ingest contract requires non-allocating, non-throwing implementations on the hot path
void LinkReassembler::emit_front(FrameSink& sink) {
    const TelemetryFrame frame = buf_.front();
    buf_.erase(buf_.begin());
    if (has_last_ && frame.sequence > last_seq_ + 1) {
        stats_.gaps++;
        stats_.missing_frames += frame.sequence - last_seq_ - 1;
        // Flight recorder: one event per sequence hole, timed on the wire
        // clock carried by the frame (never a host clock read — push/flush
        // keep their noclock/det contract). value = frames lost, extra = link.
        common::flight_record(
            "reassembly", "gap",
            static_cast<double>(frame.timestamp_ns) * 1e-9,
            static_cast<double>(frame.sequence - last_seq_ - 1),
            static_cast<double>(frame.link_id));
    }
    has_last_ = true;
    last_seq_ = frame.sequence;
    stats_.frames_out++;
    sink.on_frame(frame);
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void LinkReassembler::push(const TelemetryFrame& frame, FrameSink& sink) {
    stats_.frames_in++;
    if (has_last_ && frame.sequence <= last_seq_) {
        // Duplicate of an emitted frame, or a frame so late its slot has
        // already been released as a gap. Either way it cannot be reinserted
        // without reordering the output.
        stats_.duplicates_dropped++;
        return;
    }
    const auto it = std::lower_bound(
        buf_.begin(), buf_.end(), frame.sequence,
        [](const TelemetryFrame& f, std::uint32_t seq) {
            return f.sequence < seq;
        });
    if (it != buf_.end() && it->sequence == frame.sequence) {
        stats_.duplicates_dropped++;
        return;
    }
    // wifisense-lint: allow(noalloc.container-growth) capacity reserved in the
    // ctor (kReorderWindow + 1); insert never exceeds it in steady state
    buf_.insert(it, frame);

    const auto stale = [&] {
        if (buf_.size() < 2) return false;
        const std::uint64_t oldest = buf_.front().timestamp_ns;
        const std::uint64_t newest = buf_.back().timestamp_ns;
        const double span_s =
            newest > oldest ? static_cast<double>(newest - oldest) * 1e-9 : 0.0;
        return span_s > kStalenessBudgetS;
    };
    while (!buf_.empty() && (buf_.size() > kReorderWindow || stale())) {
        emit_front(sink);
    }
    // Fast path: with the next-in-sequence frame at the front there is
    // nothing to wait for.
    while (!buf_.empty() && has_last_ &&
           buf_.front().sequence == last_seq_ + 1) {
        emit_front(sink);
    }
    if (!has_last_ && !buf_.empty() && buf_.front().sequence == 0) {
        emit_front(sink);
        while (!buf_.empty() && buf_.front().sequence == last_seq_ + 1) {
            emit_front(sink);
        }
    }
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
void LinkReassembler::flush(FrameSink& sink) {
    while (!buf_.empty()) emit_front(sink);
}

}  // namespace wifisense::data
