// Per-link frame reassembly for the multi-link telemetry ingest path.
//
// The wire decoder (data/telemetry.hpp) hands back frames in arrival order,
// which under transport faults means duplicates, one-frame swaps, and holes
// where frames died to corruption or a link outage. LinkReassembler restores
// per-link sequence order under two fixed bounds — a reorder window (frames
// held back at most kReorderWindow deep) and a staleness budget (frames held
// back at most kStalenessBudgetS of wire time) — and accounts every anomaly:
// duplicate drops, late drops, sequence gaps and the frames missing inside
// them. One reassembler per link; core::ServingPipeline
// (core/serving_pipeline.hpp) aligns the links and fuses them downstream.
#pragma once

#include <cstdint>
#include <vector>

#include "data/telemetry.hpp"

namespace wifisense::data {

/// Maximum frames held back waiting for a sequence hole to fill.
inline constexpr std::size_t kReorderWindow = 8;
/// Maximum wire-clock spread (seconds) buffered before the oldest frame is
/// released even if holes remain ahead of it.
inline constexpr double kStalenessBudgetS = 1.0;

struct ReassemblyStats {
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    /// Re-delivered frames: sequence already buffered or already emitted.
    std::uint64_t duplicates_dropped = 0;
    /// Distinct sequence holes observed at emission time.
    std::uint64_t gaps = 0;
    /// Total frames those holes swallowed.
    std::uint64_t missing_frames = 0;
};

/// Bounded, allocation-free-in-steady-state sequence reassembler for one
/// link's decoded frame stream. push() never throws; emission order is by
/// ascending sequence number.
class LinkReassembler {
public:
    LinkReassembler();

    /// Offer one decoded frame; may release zero or more frames to `sink`.
    void push(const TelemetryFrame& frame, FrameSink& sink);

    /// Drain everything still buffered (end-of-stream). Reusable afterwards
    /// for a fresh stream via reset().
    void flush(FrameSink& sink);

    [[nodiscard]] const ReassemblyStats& stats() const { return stats_; }
    [[nodiscard]] std::size_t pending() const { return buf_.size(); }
    void reset();

private:
    void emit_front(FrameSink& sink);

    /// Sorted by sequence, size bounded by kReorderWindow + 1; capacity is
    /// reserved up front so steady-state pushes never allocate.
    std::vector<TelemetryFrame> buf_;
    bool has_last_ = false;
    std::uint32_t last_seq_ = 0;
    ReassemblyStats stats_;
};

}  // namespace wifisense::data
