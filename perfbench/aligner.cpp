#include "aligner.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "data/link_ingest.hpp"
#include "report.hpp"

namespace perfbench {

using wifisense::core::LinkFrame;
using wifisense::data::TelemetryFrame;

SequenceAligner::SequenceAligner(std::size_t n_links, std::uint32_t max_lead)
    : n_links_(n_links),
      max_lead_(std::max<std::uint32_t>(max_lead, 1)),
      capacity_(2 * (static_cast<std::size_t>(max_lead_) + 1)),
      slots_(capacity_),
      frames_(capacity_ * n_links),
      frame_seq_(capacity_ * n_links, kNoSequence),
      high_(n_links, 0),
      empty_frames_(n_links),
      empty_seq_(n_links, kNoSequence) {
    waits_.reserve(std::size_t{1} << 16);
}

void SequenceAligner::reset() {
    for (Slot& s : slots_) s = Slot{};
    for (LinkFrame& f : frames_) f.present = false;
    std::fill(frame_seq_.begin(), frame_seq_.end(), kNoSequence);
    std::fill(high_.begin(), high_.end(), 0);
    max_high_ = 0;
    next_ = 0;
    has_clock_ = false;
    clock_seq_ = 0;
    clock_ts_ = 0.0;
    period_s_ = 0.0;
}

bool SequenceAligner::releasable(std::uint32_t seq) const {
    if (max_high_ >= static_cast<std::uint64_t>(seq) + 1 + max_lead_) return true;
    for (std::uint64_t h : high_)
        if (h <= seq) return false;
    return true;
}

void SequenceAligner::offer(std::size_t link, const TelemetryFrame& frame,
                            InstantSink& sink) {
    const std::uint32_t seq = frame.sequence;
    if (link >= n_links_ || seq < next_) {
        stats_.frames_late++;
        return;
    }
    while (static_cast<std::uint64_t>(seq) >= next_ + capacity_) release_next(sink);
    const std::size_t idx = slot_index(seq);
    Slot& slot = slots_[idx];
    LinkFrame* row = &frames_[idx * n_links_];
    std::uint32_t* row_seq = &frame_seq_[idx * n_links_];
    if (slot.sequence != seq) {
        slot = Slot{};
        slot.sequence = seq;
        slot.first_batch = batch_;
        for (std::size_t l = 0; l < n_links_; ++l) {
            row[l].present = false;
            row_seq[l] = kNoSequence;
        }
    }
    if (row[link].present) {
        stats_.frames_duplicate++;
        return;
    }
    row[link].present = true;
    row[link].csi = frame.record.csi;
    row_seq[link] = frame.sequence;
    if (slot.present++ == 0) {
        slot.timestamp = frame.record.timestamp;
        slot.temperature_c = frame.record.temperature_c;
        slot.humidity_pct = frame.record.humidity_pct;
    }
    high_[link] = std::max<std::uint64_t>(high_[link], std::uint64_t{seq} + 1);
    max_high_ = std::max(max_high_, high_[link]);
    while (next_ < max_high_ && releasable(next_)) release_next(sink);
}

void SequenceAligner::close(std::uint32_t end_sequence, InstantSink& sink) {
    while (next_ < end_sequence) release_next(sink);
}

void SequenceAligner::release_next(InstantSink& sink) {
    const std::uint32_t seq = next_++;
    const std::size_t idx = slot_index(seq);
    Slot& slot = slots_[idx];
    AlignedInstant inst;
    inst.sequence = seq;
    if (slot.sequence == seq && slot.present > 0) {
        inst.timestamp = slot.timestamp;
        inst.has_env = true;
        inst.temperature_c = slot.temperature_c;
        inst.humidity_pct = slot.humidity_pct;
        inst.present = slot.present;
        inst.links = std::span<const LinkFrame>(&frames_[idx * n_links_], n_links_);
        inst.link_sequence =
            std::span<const std::uint32_t>(&frame_seq_[idx * n_links_], n_links_);
        if (slot.present < n_links_) stats_.partial_instants++;
        waits_.push_back(static_cast<std::uint32_t>(batch_ - slot.first_batch));
        if (has_clock_ && seq > clock_seq_)
            period_s_ = (slot.timestamp - clock_ts_) /
                        static_cast<double>(seq - clock_seq_);
        has_clock_ = true;
        clock_seq_ = seq;
        clock_ts_ = slot.timestamp;
    } else {
        // Nothing arrived for this sequence: extrapolate the sample clock.
        inst.timestamp =
            has_clock_ ? clock_ts_ + period_s_ * static_cast<double>(seq - clock_seq_)
                       : 0.0;
        inst.links = empty_frames_;
        inst.link_sequence = empty_seq_;
    }
    sink.on_instant(inst);
    slot.sequence = kNoSequence;
    slot.present = 0;
}

namespace {

/// Collects reassembled frames of one link straight into the aligner.
struct ToAligner final : wifisense::data::FrameSink {
    SequenceAligner* aligner = nullptr;
    InstantSink* sink = nullptr;
    std::size_t link = 0;
    void on_frame(const TelemetryFrame& f) override {
        aligner->offer(link, f, *sink);
    }
};

struct Recorder final : InstantSink {
    struct Row {
        std::uint32_t sequence;
        std::uint32_t mask;
        bool ok;
    };
    std::vector<Row> rows;
    void on_instant(const AlignedInstant& in) override {
        std::uint32_t mask = 0;
        bool ok = true;
        for (std::size_t l = 0; l < in.links.size(); ++l) {
            if (!in.links[l].present) continue;
            mask |= 1u << l;
            // Each frame carries its own (link, sequence) tag in csi[0..1].
            ok = ok && in.link_sequence[l] == in.sequence &&
                 in.links[l].csi[0] == static_cast<float>(l) &&
                 in.links[l].csi[1] == static_cast<float>(in.sequence);
        }
        rows.push_back(Row{in.sequence, mask, ok});
    }
};

}  // namespace

std::string aligner_self_test(std::uint64_t seed) {
    constexpr std::size_t kLinks = 4;
    constexpr std::uint32_t kSeqs = 4000;
    constexpr double kPeriodS = 4.0;
    std::uint64_t h = mix64(seed ^ 0xA11A11);
    const auto draw = [&h] {
        h = mix64(h);
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    };

    // Per link: the frames that leave the sender, in wire order, and the
    // batch (instant) each one is delivered in. A link lags the others by
    // up to one batch; drops come alone and in outage bursts.
    struct Delivery {
        std::uint64_t batch;
        TelemetryFrame frame;
    };
    std::vector<std::vector<Delivery>> wire(kLinks);
    std::vector<std::vector<bool>> sent(kLinks, std::vector<bool>(kSeqs, false));
    for (std::size_t l = 0; l < kLinks; ++l) {
        const std::uint64_t lag = draw() < 0.5 ? 1 : 0;
        const double skew_s = draw() * 0.2;
        std::uint32_t outage_left = 0;
        std::vector<TelemetryFrame> order;
        for (std::uint32_t s = 0; s < kSeqs; ++s) {
            if (outage_left == 0 && draw() < 0.004)
                outage_left = 1 + static_cast<std::uint32_t>(draw() * 60);
            if (outage_left > 0) {
                --outage_left;
                continue;
            }
            if (draw() < 0.08) continue;
            TelemetryFrame f;
            f.link_id = static_cast<std::uint8_t>(l);
            f.sequence = s;
            f.record.timestamp = kPeriodS * s;
            f.timestamp_ns = static_cast<std::uint64_t>((kPeriodS * s + 100.0 - skew_s) * 1e9);
            f.record.csi[0] = static_cast<float>(l);
            f.record.csi[1] = static_cast<float>(s);
            sent[l][s] = true;
            order.push_back(f);
            if (draw() < 0.05) order.push_back(f);  // duplicate
        }
        // Adjacent swaps (a frame overtaken by its successor in sequence).
        for (std::size_t i = 0; i + 1 < order.size(); ++i)
            if (order[i + 1].sequence == order[i].sequence + 1 && draw() < 0.05) {
                std::swap(order[i], order[i + 1]);
                ++i;
            }
        for (const TelemetryFrame& f : order) {
            // A swapped pair is delivered together, in the later batch.
            wire[l].push_back(Delivery{std::uint64_t{f.sequence} + lag, f});
        }
        for (std::size_t i = 1; i < wire[l].size(); ++i)
            wire[l][i].batch = std::max(wire[l][i].batch, wire[l][i - 1].batch);
    }

    // Replay the deliveries through one reassembler per link into an
    // aligner with the given lead bound; returns the released rows.
    const auto run = [&](std::uint32_t max_lead, AlignStats& stats) {
        SequenceAligner aligner(kLinks, max_lead);
        Recorder rec;
        std::vector<wifisense::data::LinkReassembler> reasm(kLinks);
        std::vector<ToAligner> to(kLinks);
        for (std::size_t l = 0; l < kLinks; ++l) {
            to[l].aligner = &aligner;
            to[l].sink = &rec;
            to[l].link = l;
        }
        std::vector<std::size_t> cursor(kLinks, 0);
        for (std::uint64_t b = 0; b <= kSeqs + 1; ++b) {
            aligner.set_batch(b);
            for (std::size_t l = 0; l < kLinks; ++l)
                while (cursor[l] < wire[l].size() && wire[l][cursor[l]].batch <= b)
                    reasm[l].push(wire[l][cursor[l]++].frame, to[l]);
        }
        for (std::size_t l = 0; l < kLinks; ++l) reasm[l].flush(to[l]);
        aligner.close(kSeqs, rec);
        stats = aligner.stats();
        return rec.rows;
    };

    // Brute-force join: sequence s holds exactly the links that sent it.
    std::vector<std::uint32_t> want(kSeqs, 0);
    std::uint64_t sent_frames = 0;
    for (std::uint32_t s = 0; s < kSeqs; ++s)
        for (std::size_t l = 0; l < kLinks; ++l)
            if (sent[l][s]) {
                want[s] |= 1u << l;
                ++sent_frames;
            }

    // With a lead bound no delivery delay reaches (a reassembler holds a
    // frame after a gap until the link's next frame, which an outage of up
    // to 60 sequences can delay), the join must be exact.
    // With the serving bound, a frame held back past it is dropped as late:
    // every sent frame is then either in its own instant or counted late.
    char msg[160];
    for (const std::uint32_t lead : {std::uint32_t{256}, std::uint32_t{4}}) {
        AlignStats st;
        const std::vector<Recorder::Row> rows = run(lead, st);
        if (rows.size() != kSeqs) {
            std::snprintf(msg, sizeof(msg), "lead %u: released %zu instants, expected %u",
                          lead, rows.size(), kSeqs);
            return msg;
        }
        std::uint64_t got_frames = 0;
        for (std::uint32_t s = 0; s < kSeqs; ++s) {
            const Recorder::Row& r = rows[s];
            const bool exact = lead == 256 ? r.mask == want[s] : (r.mask & ~want[s]) == 0;
            if (r.sequence != s || !exact || !r.ok) {
                std::snprintf(msg, sizeof(msg),
                              "lead %u, instant %u: got sequence %u mask %x (ok=%d), "
                              "want mask %x",
                              lead, s, r.sequence, r.mask, r.ok ? 1 : 0, want[s]);
                return msg;
            }
            got_frames += static_cast<std::uint64_t>(__builtin_popcount(r.mask));
        }
        if (got_frames + st.frames_late != sent_frames || st.frames_duplicate != 0) {
            std::snprintf(msg, sizeof(msg),
                          "lead %u: %llu joined + %llu late != %llu sent frames", lead,
                          static_cast<unsigned long long>(got_frames),
                          static_cast<unsigned long long>(st.frames_late),
                          static_cast<unsigned long long>(sent_frames));
            return msg;
        }
    }
    return "";
}

}  // namespace perfbench
