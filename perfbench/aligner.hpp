// Sequence-keyed cross-link aligner for the serving replay.
//
// Each link's LinkReassembler releases frames in ascending sequence order;
// the aligner joins the links on that wire sequence number (never on a
// vector index, which misaligns every later instant after one lost frame).
// Sequence s is released once every link has moved past it (its frame is
// present or lost for good), or once some link is `max_lead` sequences
// ahead, so a dead link delays an instant by a bounded number of instants.
// Sequences no link delivered are released too, with no frames: the
// detector still owes a decision for them. Release order is ascending
// sequence, so observation timestamps are non-decreasing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/link_fusion.hpp"
#include "data/telemetry.hpp"

namespace perfbench {

inline constexpr std::uint32_t kNoSequence = 0xFFFFFFFFu;

/// One released instant. `links[l].present` marks the links that delivered
/// a frame for `sequence`; link_sequence[l] is that frame's wire sequence
/// (kNoSequence when absent), kept so the caller can check the join.
struct AlignedInstant {
    std::uint32_t sequence = 0;
    double timestamp = 0.0;
    bool has_env = false;
    float temperature_c = 0.0f;
    float humidity_pct = 0.0f;
    std::uint32_t present = 0;
    std::span<const wifisense::core::LinkFrame> links;
    std::span<const std::uint32_t> link_sequence;
};

class InstantSink {
public:
    virtual void on_instant(const AlignedInstant& instant) = 0;

protected:
    ~InstantSink() = default;
};

struct AlignStats {
    std::uint64_t frames_late = 0;        ///< arrived after their instant left
    std::uint64_t frames_duplicate = 0;   ///< same (link, sequence) twice
    std::uint64_t partial_instants = 0;   ///< 0 < present < n_links
};

class SequenceAligner {
public:
    explicit SequenceAligner(std::size_t n_links, std::uint32_t max_lead = 4);

    /// Offer link `link`'s next frame (ascending sequence per link).
    void offer(std::size_t link, const wifisense::data::TelemetryFrame& frame,
               InstantSink& sink);

    /// End of stream: release every sequence below `end_sequence`.
    void close(std::uint32_t end_sequence, InstantSink& sink);

    /// Forget the stream; the counters keep running.
    void reset();

    /// The caller's instant clock: how many push batches have been offered.
    /// Released instants record how many batches they waited.
    void set_batch(std::uint64_t batch) { batch_ = batch; }

    [[nodiscard]] const AlignStats& stats() const { return stats_; }
    /// Batches each released instant waited since its first frame arrived
    /// (cleared by reset_waits()).
    [[nodiscard]] const std::vector<std::uint32_t>& waits() const { return waits_; }
    void reset_waits() { waits_.clear(); }

private:
    struct Slot {
        std::uint32_t sequence = kNoSequence;
        std::uint32_t present = 0;
        std::uint64_t first_batch = 0;
        double timestamp = 0.0;
        float temperature_c = 0.0f;
        float humidity_pct = 0.0f;
    };

    [[nodiscard]] bool releasable(std::uint32_t seq) const;
    void release_next(InstantSink& sink);
    [[nodiscard]] std::size_t slot_index(std::uint32_t seq) const {
        return seq % capacity_;
    }

    std::size_t n_links_;
    std::uint32_t max_lead_;
    std::size_t capacity_;
    std::vector<Slot> slots_;
    /// capacity_ x n_links_ frames and sequences, row per slot.
    std::vector<wifisense::core::LinkFrame> frames_;
    std::vector<std::uint32_t> frame_seq_;
    /// Highest sequence each link delivered, +1 (0 = nothing yet).
    std::vector<std::uint64_t> high_;
    std::uint64_t max_high_ = 0;
    std::uint32_t next_ = 0;
    std::uint64_t batch_ = 0;
    /// Sample clock recovered from released frames, for empty instants.
    bool has_clock_ = false;
    std::uint32_t clock_seq_ = 0;
    double clock_ts_ = 0.0;
    double period_s_ = 0.0;
    std::vector<wifisense::core::LinkFrame> empty_frames_;
    std::vector<std::uint32_t> empty_seq_;
    std::vector<std::uint32_t> waits_;
    AlignStats stats_;
};

/// Self-test against a brute-force join: seeded per-link frame streams with
/// drops, duplicates, adjacent reorders, per-link clock skew and bounded
/// cross-link lag go through a LinkReassembler per link into the aligner;
/// every sequence must come out once, in order, with exactly the links that
/// delivered it and their own frames. Returns an empty string on success,
/// else what went wrong.
std::string aligner_self_test(std::uint64_t seed);

}  // namespace perfbench
