// One serving pipeline: per-link wire bytes in, fused occupancy decisions
// out (DESIGN.md §17).
//
//   push(link, bytes) -> TelemetryDecoder (per link) -> LinkReassembler (per
//   link, sequence order) -> SequenceAligner (cross-link join on the wire
//   sequence) -> MultiLinkDetector::process -> DecisionSink
//
// The aligner joins links on the wire sequence number, never on a vector
// index (which misaligns every later instant after one lost frame).
// Sequence s is released once every link has moved past it (its frame is
// present or lost for good), or once some link is kMaxLead sequences ahead,
// so a dead link delays an instant by a bounded number of instants.
// Sequences no link delivered are released too, with no frames, no env and
// a timestamp extrapolated from the sample clock recovered off earlier
// frames: the detector still owes a decision for them. Otherwise the
// observation's timestamp and env come from the payload of the first frame
// that arrived for the sequence. Release order is ascending sequence, so
// observation timestamps are non-decreasing.
//
// Feed the links interleaved, one instant at a time (each link's bytes for
// instant i before any link's bytes for instant i + 1): a link pushed whole
// before the others runs kMaxLead ahead and its instants leave without them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/link_fusion.hpp"
#include "data/link_ingest.hpp"
#include "data/telemetry.hpp"

namespace wifisense::core {

/// How many sequences one link may run ahead of a sequence before that
/// sequence is released without the links that have not reached it.
inline constexpr std::uint32_t kMaxLead = 4;

/// Receives each released instant, in ascending sequence order.
class InstantSink {
public:
    virtual void on_instant(std::uint32_t sequence,
                            const MultiLinkObservation& obs) = 0;

protected:
    ~InstantSink() = default;
};

struct AlignStats {
    std::uint64_t frames_late = 0;       ///< arrived after their instant left
    std::uint64_t frames_duplicate = 0;  ///< same (link, sequence) twice
    std::uint64_t partial_instants = 0;  ///< 0 < links present < n_links
};

/// Sequence-keyed cross-link join (header comment). Allocation-free after
/// construction.
class SequenceAligner {
public:
    explicit SequenceAligner(std::size_t n_links);

    /// Offer link `link`'s next frame (ascending sequence per link).
    void offer(std::size_t link, const data::TelemetryFrame& frame,
               InstantSink& sink);

    /// End of stream: release every sequence below `end_sequence`.
    void close(std::uint32_t end_sequence, InstantSink& sink);

    /// Forget the stream and zero the counters.
    void reset();

    [[nodiscard]] const AlignStats& stats() const { return stats_; }

private:
    static constexpr std::size_t kSlots = 2 * (std::size_t{kMaxLead} + 1);
    static constexpr std::uint32_t kNoSequence = 0xFFFFFFFFu;

    struct Slot {
        std::uint32_t sequence = kNoSequence;
        std::uint32_t present = 0;
        std::vector<LinkFrame> frames;  ///< one per link
        MultiLinkObservation obs;       ///< links bound to `frames` at release
    };

    [[nodiscard]] bool releasable(std::uint32_t seq) const;
    void release_next(InstantSink& sink);

    std::size_t n_links_;
    std::vector<Slot> slots_;
    /// Highest sequence each link delivered, +1 (0 = nothing yet).
    std::vector<std::uint64_t> high_;
    std::uint64_t max_high_ = 0;
    std::uint32_t next_ = 0;
    /// Sample clock recovered from released frames, for empty instants.
    bool has_clock_ = false;
    std::uint32_t clock_seq_ = 0;
    double clock_ts_ = 0.0;
    double period_s_ = 0.0;
    std::vector<LinkFrame> empty_frames_;
    AlignStats stats_;
};

/// Receives one decision per released sequence, in ascending order.
class DecisionSink {
public:
    virtual void on_decision(std::uint32_t sequence,
                             const FusionDecision& decision) = 0;

protected:
    ~DecisionSink() = default;
};

/// Wire bytes -> decisions for one room's links (header comment). Holds a
/// fitted detector by reference; fit and calibrate_links stay on it.
class ServingPipeline : private InstantSink {
public:
    explicit ServingPipeline(MultiLinkDetector& det);
    ServingPipeline(const ServingPipeline&) = delete;
    ServingPipeline& operator=(const ServingPipeline&) = delete;

    /// Offer link `link`'s next bytes (any chunking); decisions for the
    /// instants this releases go to `sink`. Never allocates; a link index
    /// outside the detector's configuration is ignored.
    void push(std::size_t link, std::span<const std::uint8_t> bytes,
              DecisionSink& sink);

    /// End of stream: drain every decoder and reassembler, then decide every
    /// sequence below `end_sequence` still owed a decision.
    void finish(std::uint32_t end_sequence, DecisionSink& sink);

    /// Start a fresh stream: decoders, reassemblers, aligner and the
    /// detector's stream state (MultiLinkDetector::reset_stream).
    void reset();

    [[nodiscard]] const data::TelemetryDecoder::Stats& decoder_stats(std::size_t l) const {
        return decoders_[l].stats();
    }
    [[nodiscard]] const data::ReassemblyStats& reassembly_stats(std::size_t l) const {
        return reassemblers_[l].stats();
    }
    [[nodiscard]] const AlignStats& align_stats() const { return aligner_.stats(); }

private:
    struct ToReassembler final : data::WireSink {
        ServingPipeline* pipe = nullptr;
        std::size_t link = 0;
        void on_frame(const data::TelemetryFrame& frame) override;
    };
    struct ToAligner final : data::FrameSink {
        ServingPipeline* pipe = nullptr;
        std::size_t link = 0;
        void on_frame(const data::TelemetryFrame& frame) override;
    };

    void on_instant(std::uint32_t sequence,
                    const MultiLinkObservation& obs) override;

    MultiLinkDetector& det_;
    std::vector<data::TelemetryDecoder> decoders_;
    std::vector<data::LinkReassembler> reassemblers_;
    std::vector<ToReassembler> to_reassembler_;
    std::vector<ToAligner> to_aligner_;
    SequenceAligner aligner_;
    DecisionSink* out_ = nullptr;  ///< the sink of the running push/finish
};

}  // namespace wifisense::core
