#include "core/serving_pipeline.hpp"

#include <algorithm>

namespace wifisense::core {

SequenceAligner::SequenceAligner(std::size_t n_links)
    : n_links_(n_links), slots_(kSlots), high_(n_links, 0), empty_frames_(n_links) {
    for (Slot& s : slots_) s.frames.resize(n_links);
}

void SequenceAligner::reset() {
    for (Slot& s : slots_) s.sequence = kNoSequence;
    std::fill(high_.begin(), high_.end(), 0);
    max_high_ = 0;
    next_ = 0;
    has_clock_ = false;
    period_s_ = 0.0;
    stats_ = AlignStats{};
}

bool SequenceAligner::releasable(std::uint32_t seq) const {
    if (max_high_ >= std::uint64_t{seq} + 1 + kMaxLead) return true;
    return std::all_of(high_.begin(), high_.end(),
                       [seq](std::uint64_t h) { return h > seq; });
}

void SequenceAligner::offer(std::size_t link, const data::TelemetryFrame& frame,
                            InstantSink& sink) {
    const std::uint32_t seq = frame.sequence;
    if (link >= n_links_ || seq < next_) {
        stats_.frames_late++;
        return;
    }
    while (std::uint64_t{seq} >= next_ + kSlots) release_next(sink);
    Slot& slot = slots_[seq % kSlots];
    if (slot.sequence != seq) {
        slot.sequence = seq;
        slot.present = 0;
        for (LinkFrame& f : slot.frames) f.present = false;
    }
    LinkFrame& mine = slot.frames[link];
    if (mine.present) {
        stats_.frames_duplicate++;
        return;
    }
    mine.present = true;
    mine.csi = frame.record.csi;
    if (slot.present++ == 0) {
        slot.obs.timestamp = frame.record.timestamp;
        slot.obs.has_env = true;
        slot.obs.temperature_c = frame.record.temperature_c;
        slot.obs.humidity_pct = frame.record.humidity_pct;
    }
    high_[link] = std::max<std::uint64_t>(high_[link], std::uint64_t{seq} + 1);
    max_high_ = std::max(max_high_, high_[link]);
    while (next_ < max_high_ && releasable(next_)) release_next(sink);
}

void SequenceAligner::close(std::uint32_t end_sequence, InstantSink& sink) {
    while (next_ < end_sequence) release_next(sink);
}

// wifisense-lint: allow-call(on_instant) InstantSink is an abstract observer; the serving contract requires non-allocating, non-throwing implementations on the hot path
void SequenceAligner::release_next(InstantSink& sink) {
    const std::uint32_t seq = next_++;
    Slot& slot = slots_[seq % kSlots];
    if (slot.sequence != seq) {
        // Nothing arrived for this sequence: extrapolate the sample clock.
        MultiLinkObservation empty;
        if (has_clock_)
            empty.timestamp = clock_ts_ + period_s_ * static_cast<double>(seq - clock_seq_);
        empty.links = empty_frames_;
        sink.on_instant(seq, empty);
        return;
    }
    if (slot.present < n_links_) stats_.partial_instants++;
    if (has_clock_ && seq > clock_seq_)
        period_s_ = (slot.obs.timestamp - clock_ts_) / static_cast<double>(seq - clock_seq_);
    has_clock_ = true;
    clock_seq_ = seq;
    clock_ts_ = slot.obs.timestamp;
    slot.sequence = kNoSequence;
    slot.obs.links = slot.frames;
    sink.on_instant(seq, slot.obs);
}

ServingPipeline::ServingPipeline(MultiLinkDetector& det)
    : det_(det),
      decoders_(det.config().n_links),
      reassemblers_(det.config().n_links),
      to_reassembler_(det.config().n_links),
      to_aligner_(det.config().n_links),
      aligner_(det.config().n_links) {
    for (std::size_t l = 0; l < decoders_.size(); ++l) {
        to_reassembler_[l].pipe = to_aligner_[l].pipe = this;
        to_reassembler_[l].link = to_aligner_[l].link = l;
    }
}

void ServingPipeline::reset() {
    for (data::TelemetryDecoder& d : decoders_) d.reset();
    for (data::LinkReassembler& r : reassemblers_) r.reset();
    aligner_.reset();
    det_.reset_stream();
}

// wifisense-lint: requires(noalloc, noexcept)
void ServingPipeline::push(std::size_t link, std::span<const std::uint8_t> bytes,
                           DecisionSink& sink) {
    if (link >= decoders_.size()) return;
    out_ = &sink;
    // wifisense-lint: allow(noalloc.container-growth) TelemetryDecoder::push,
    // a requires(noalloc, noexcept) root itself, not a container push
    decoders_[link].push(bytes, to_reassembler_[link]);
}

// wifisense-lint: requires(noalloc, noexcept)
void ServingPipeline::finish(std::uint32_t end_sequence, DecisionSink& sink) {
    out_ = &sink;
    for (std::size_t l = 0; l < decoders_.size(); ++l) {
        decoders_[l].finish(to_reassembler_[l]);
        reassemblers_[l].flush(to_aligner_[l]);
    }
    aligner_.close(end_sequence, *this);
}

// wifisense-lint: requires(noalloc, noexcept)
void ServingPipeline::ToReassembler::on_frame(const data::TelemetryFrame& frame) {
    data::LinkReassembler& reassembler = pipe->reassemblers_[link];
    // wifisense-lint: allow(noalloc.container-growth) LinkReassembler::push,
    // a requires(noalloc, noexcept) root itself, not a container push
    reassembler.push(frame, pipe->to_aligner_[link]);
}

// wifisense-lint: requires(noalloc, noexcept)
void ServingPipeline::ToAligner::on_frame(const data::TelemetryFrame& frame) {
    pipe->aligner_.offer(link, frame, *pipe);
}

// wifisense-lint: requires(noalloc, noexcept)
// wifisense-lint: allow-call(on_decision) DecisionSink is an abstract observer; the serving contract requires non-allocating, non-throwing implementations on the hot path
void ServingPipeline::on_instant(std::uint32_t sequence,
                                 const MultiLinkObservation& obs) {
    out_->on_decision(sequence, det_.process(obs));
}

}  // namespace wifisense::core
