// Closed-loop wire replay: simulated rooms encoded once into per-link byte
// streams, then served instant by instant through the library's public
// serving calls (TelemetryDecoder::push/finish -> LinkReassembler::push/
// flush -> SequenceAligner -> MultiLinkDetector::process) on one core.
#pragma once

#include <cstdint>
#include <vector>

#include "aligner.hpp"
#include "common/fault.hpp"
#include "data/link_ingest.hpp"
#include "data/telemetry.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One room's wire: per link, the bytes the encoder emitted and where each
/// instant's bytes start. offsets[l][i] .. offsets[l][i+1] is what link l
/// sent while instant i was sampled; the last range is the encoder's
/// end-of-stream flush.
struct WireRoom {
    std::uint32_t instants = 0;
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<std::vector<std::size_t>> offsets;
    /// Simulator ground truth per sequence (never read by the serving path).
    std::vector<std::uint8_t> truth;
    /// Offline batch prediction of the full model per sequence (serve_clean
    /// cross-check); empty when not computed.
    std::vector<std::uint8_t> offline;
};

/// Encode every room's links with LinkEncoder (and `plan`, when active).
/// `ns_per_frame` receives encode wall time per offered frame.
std::vector<WireRoom> encode_rooms(const std::vector<LinkSet>& rooms,
                                   const wifisense::common::FaultPlan* plan,
                                   double* ns_per_frame);

/// Order-sensitive digest of every room's wire bytes.
std::uint64_t wire_digest(const std::vector<WireRoom>& rooms);

/// Counters and timings of one pass over every room.
struct PassStats {
    double seconds = 0.0;
    std::uint64_t instants = 0;
    std::uint64_t decisions = 0;
    double latency_p50_us = 0.0;
    double latency_p99_us = 0.0;
    Confusion confusion;
    std::uint64_t digest = 0;
    /// Instants with a decision outside the process() contract, a second
    /// decision, or none at all by end of stream.
    std::uint64_t failed_instants = 0;
    std::uint64_t misjoined = 0;  ///< present frame from another sequence
    std::uint64_t offline_agree = 0;
    std::uint64_t offline_total = 0;
    std::uint64_t tiers[5] = {0, 0, 0, 0, 0};
    std::uint64_t link_frames_rejected = 0;
    // Decoder (all links).
    std::uint64_t frames_decoded = 0;
    std::uint64_t bytes_consumed = 0;
    std::uint64_t bytes_skipped = 0;
    std::uint64_t defects = 0;
    std::uint64_t resyncs = 0;
    std::uint64_t accounting_errors = 0;  ///< frames*308+skipped != consumed
    // Reassembler (all links).
    std::uint64_t reasm_frames = 0;
    std::uint64_t gaps = 0;
    std::uint64_t missing_frames = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t pending_peak = 0;
    // Aligner.
    std::uint64_t partial_instants = 0;
    std::uint64_t late_frames = 0;  ///< held back past the aligner's lead bound
    double wait_p99 = 0.0;
};

/// Serves rooms through one MultiLinkDetector. Passes are independent:
/// every room starts from reset decoders, reassemblers, aligner and
/// detector stream state, so every pass makes the same decisions.
class Replay final : public InstantSink {
public:
    explicit Replay(wifisense::core::MultiLinkDetector& det);
    Replay(const Replay&) = delete;
    Replay& operator=(const Replay&) = delete;

    /// Serve every room once. With `spans`, the pass records trace spans
    /// around each layer call and folds them into `spans` after each room.
    PassStats pass(const std::vector<WireRoom>& rooms, SpanTable* spans);

    /// Aligner callback: fuse + decide one instant, then account for it.
    void on_instant(const AlignedInstant& instant) override;

private:
    /// Decoder output of one link -> that link's reassembler.
    struct DecodeSink final : wifisense::data::WireSink {
        Replay* owner = nullptr;
        std::size_t link = 0;
        void on_frame(const wifisense::data::TelemetryFrame& f) override;
    };
    /// Reassembler output of one link -> the aligner.
    struct AlignSink final : wifisense::data::FrameSink {
        Replay* owner = nullptr;
        std::size_t link = 0;
        void on_frame(const wifisense::data::TelemetryFrame& f) override;
    };

    void serve_room(const WireRoom& room, std::uint32_t room_index);

    wifisense::core::MultiLinkDetector& det_;
    std::vector<wifisense::data::TelemetryDecoder> decoders_;
    std::vector<wifisense::data::LinkReassembler> reassemblers_;
    SequenceAligner aligner_;
    std::vector<DecodeSink> decode_sinks_;
    std::vector<AlignSink> align_sinks_;
    // Per-pass state touched by on_instant.
    const WireRoom* room_ = nullptr;
    std::uint32_t room_index_ = 0;
    std::vector<std::uint8_t> decided_;
    PassStats* stats_ = nullptr;
    std::vector<double> latency_us_;
    std::vector<double> waits_;
};

/// Time common::crc32 over the workload's own 304-byte frame prefixes
/// (stride 308 through room 0's link streams); ns per frame. With `clean`,
/// also checks each computed CRC against the one on the wire.
double crc_ns_per_frame(const std::vector<WireRoom>& rooms, bool clean, Result& res);

/// Per-layer metrics: self times per layer from the traced passes'
/// spans (`traced` sums those passes' counters), counts from one pass.
void report_serve_layers(const SpanTable& spans, const PassStats& traced,
                         const PassStats& one_pass, Result& res);

/// Add `p`'s work counters (instants, decisions, frames, bytes) to `into`.
void add_counts(PassStats& into, const PassStats& p);

}  // namespace perfbench
