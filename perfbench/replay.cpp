#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/crc32.hpp"
#include "common/trace.hpp"

namespace perfbench {

using namespace wifisense;

std::vector<WireRoom> encode_rooms(const std::vector<LinkSet>& rooms,
                                   const common::FaultPlan* plan,
                                   double* ns_per_frame) {
    std::vector<WireRoom> out(rooms.size());
    std::uint64_t frames = 0;
    const std::uint64_t t0 = common::trace_now_ns();
    for (std::size_t r = 0; r < rooms.size(); ++r) {
        const LinkSet& links = rooms[r];
        WireRoom& w = out[r];
        w.instants = static_cast<std::uint32_t>(links[0].size());
        w.bytes.resize(kLinks);
        w.offsets.resize(kLinks);
        for (std::size_t l = 0; l < kLinks; ++l) {
            data::LinkEncoder enc(static_cast<std::uint8_t>(l), /*channel=*/6, plan);
            std::vector<std::uint8_t>& bytes = w.bytes[l];
            std::vector<std::size_t>& off = w.offsets[l];
            bytes.reserve((w.instants + 1) * data::kWireFrameBytes);
            off.reserve(w.instants + 2);
            for (std::uint32_t i = 0; i < w.instants; ++i) {
                off.push_back(bytes.size());
                enc.encode(links[l][i], bytes);
            }
            off.push_back(bytes.size());
            enc.flush(bytes);
            off.push_back(bytes.size());
            frames += w.instants;
        }
    }
    if (ns_per_frame != nullptr)
        *ns_per_frame = static_cast<double>(common::trace_now_ns() - t0) /
                        static_cast<double>(std::max<std::uint64_t>(frames, 1));
    for (std::size_t r = 0; r < rooms.size(); ++r) {
        out[r].truth.resize(out[r].instants);
        for (std::uint32_t i = 0; i < out[r].instants; ++i)
            out[r].truth[i] = rooms[r][0][i].occupancy;
    }
    return out;
}

std::uint64_t wire_digest(const std::vector<WireRoom>& rooms) {
    std::uint64_t h = 0;
    for (const WireRoom& w : rooms)
        for (const std::vector<std::uint8_t>& b : w.bytes)
            h = digest_add(h, common::crc32(b.data(), b.size()) ^ (b.size() << 32));
    return h;
}

Replay::Replay(core::MultiLinkDetector& det)
    : det_(det),
      decoders_(kLinks),
      reassemblers_(kLinks),
      aligner_(kLinks),
      decode_sinks_(kLinks),
      align_sinks_(kLinks) {
    for (std::size_t l = 0; l < kLinks; ++l) {
        decode_sinks_[l].owner = this;
        decode_sinks_[l].link = l;
        align_sinks_[l].owner = this;
        align_sinks_[l].link = l;
    }
}

void Replay::DecodeSink::on_frame(const data::TelemetryFrame& f) {
    common::TraceScope span("data.link_ingest.reassemble");
    owner->reassemblers_[link].push(f, owner->align_sinks_[link]);
}

void Replay::AlignSink::on_frame(const data::TelemetryFrame& f) {
    common::TraceScope span("bench.align");
    owner->aligner_.offer(link, f, *owner);
}

void Replay::on_instant(const AlignedInstant& in) {
    common::TraceScope span("bench.decide");
    core::MultiLinkObservation obs;
    obs.timestamp = in.timestamp;
    obs.has_env = in.has_env;
    obs.temperature_c = in.temperature_c;
    obs.humidity_pct = in.humidity_pct;
    obs.links = in.links;
    core::FusionDecision d;
    {
        common::TraceScope process_span("core.link_fusion.process");
        d = det_.process(obs);
    }
    PassStats& st = *stats_;
    st.decisions++;
    for (std::size_t l = 0; l < in.links.size(); ++l)
        if (in.links[l].present && in.link_sequence[l] != in.sequence) st.misjoined++;

    const double p = d.base.probability;
    const double c = d.base.confidence;
    const bool contract = std::isfinite(p) && p >= 0.0 && p <= 1.0 &&
                          std::isfinite(c) && c >= 0.0 && c <= 1.0 &&
                          (d.base.prediction == 0 || d.base.prediction == 1);
    if (in.sequence >= room_->instants || decided_[in.sequence] != 0) {
        st.failed_instants++;  // out of range or a second decision
        return;
    }
    decided_[in.sequence] = contract ? 1 : 2;
    const auto tier = static_cast<std::size_t>(d.tier);
    st.tiers[std::min<std::size_t>(tier, 4)]++;
    st.confusion.add(room_->truth[in.sequence], d.base.prediction);
    if (!room_->offline.empty()) {
        st.offline_total++;
        st.offline_agree += room_->offline[in.sequence] == d.base.prediction ? 1 : 0;
    }
    st.digest = digest_add(st.digest, (std::uint64_t{room_index_} << 40) ^
                                          (std::uint64_t{in.sequence} << 8) ^
                                          (tier << 1) ^
                                          static_cast<std::uint64_t>(d.base.prediction));
}

void Replay::serve_room(const WireRoom& room, std::uint32_t room_index) {
    room_ = &room;
    room_index_ = room_index;
    decided_.assign(room.instants, 0);
    for (std::size_t l = 0; l < kLinks; ++l) {
        decoders_[l].reset();
        reassemblers_[l].reset();
    }
    aligner_.reset();
    aligner_.reset_waits();
    det_.reset_stream();
    PassStats& st = *stats_;

    const auto push = [&](std::size_t l, std::size_t from, std::size_t to) {
        if (to == from) return;
        common::TraceScope span("data.telemetry.decode");
        decoders_[l].push(std::span<const std::uint8_t>(room.bytes[l].data() + from,
                                                        to - from),
                          decode_sinks_[l]);
    };
    for (std::uint32_t i = 0; i < room.instants; ++i) {
        const std::uint64_t t0 = common::trace_now_ns();
        {
            common::TraceScope span("bench.instant");
            aligner_.set_batch(i);
            for (std::size_t l = 0; l < kLinks; ++l)
                push(l, room.offsets[l][i], room.offsets[l][i + 1]);
        }
        latency_us_.push_back(static_cast<double>(common::trace_now_ns() - t0) * 1e-3);
        for (std::size_t l = 0; l < kLinks; ++l)
            st.pending_peak = std::max<std::uint64_t>(st.pending_peak,
                                                      reassemblers_[l].pending());
    }
    {
        // End of stream: encoder flush tail, decoder and reassembler drains,
        // then every sequence still owed a decision.
        common::TraceScope span("bench.instant");
        aligner_.set_batch(room.instants);
        for (std::size_t l = 0; l < kLinks; ++l) {
            push(l, room.offsets[l][room.instants], room.offsets[l][room.instants + 1]);
            {
                common::TraceScope dspan("data.telemetry.decode");
                decoders_[l].finish(decode_sinks_[l]);
            }
            common::TraceScope rspan("data.link_ingest.reassemble");
            reassemblers_[l].flush(align_sinks_[l]);
        }
        common::TraceScope aspan("bench.align");
        aligner_.close(room.instants, *this);
    }

    st.instants += room.instants;
    for (std::uint8_t v : decided_) st.failed_instants += v == 1 ? 0 : 1;
    for (std::size_t l = 0; l < kLinks; ++l) {
        const data::TelemetryDecoder::Stats& ds = decoders_[l].stats();
        st.frames_decoded += ds.frames_decoded;
        st.bytes_consumed += ds.bytes_consumed;
        st.bytes_skipped += ds.bytes_skipped;
        st.defects += ds.defects;
        st.resyncs += ds.resyncs;
        if (ds.frames_decoded * data::kWireFrameBytes + ds.bytes_skipped !=
                ds.bytes_consumed ||
            ds.bytes_consumed != room.bytes[l].size())
            st.accounting_errors++;
        const data::ReassemblyStats& rs = reassemblers_[l].stats();
        st.reasm_frames += rs.frames_in;
        st.gaps += rs.gaps;
        st.missing_frames += rs.missing_frames;
        st.duplicates_dropped += rs.duplicates_dropped;
    }
    st.link_frames_rejected += det_.stats().link_frames_rejected;
    for (std::uint32_t w : aligner_.waits()) waits_.push_back(w);
}

PassStats Replay::pass(const std::vector<WireRoom>& rooms, SpanTable* spans) {
    PassStats st;
    stats_ = &st;
    std::size_t total = 0;
    for (const WireRoom& r : rooms) total += r.instants;
    latency_us_.clear();
    latency_us_.reserve(total);
    waits_.clear();
    waits_.reserve(total);
    const AlignStats before = aligner_.stats();
    double seconds = 0.0;
    for (std::size_t r = 0; r < rooms.size(); ++r) {
        const std::uint64_t t0 = common::trace_now_ns();
        serve_room(rooms[r], static_cast<std::uint32_t>(r));
        seconds += common::trace_seconds_since(t0);
        // Fold the room's spans in outside the timed region, so the rings
        // never wrap and the fold does not count as serving time.
        if (spans != nullptr) spans->absorb_trace();
    }
    st.seconds = seconds;
    st.latency_p50_us = quantile(latency_us_, 0.50);
    st.latency_p99_us = quantile(latency_us_, 0.99);
    st.wait_p99 = quantile(waits_, 0.99);
    const AlignStats& after = aligner_.stats();
    st.partial_instants = after.partial_instants - before.partial_instants;
    st.late_frames = after.frames_late - before.frames_late;
    stats_ = nullptr;
    return st;
}

namespace {
volatile std::uint32_t g_crc_sink = 0;
}  // namespace

double crc_ns_per_frame(const std::vector<WireRoom>& rooms, bool clean, Result& res) {
    constexpr std::size_t kPrefix = data::kWireFrameBytes - 4;
    const std::vector<std::uint8_t>& b = rooms.front().bytes.front();
    const std::size_t frames = b.size() / data::kWireFrameBytes;
    if (clean) {
        std::uint64_t bad = 0;
        for (std::size_t f = 0; f < frames; ++f) {
            const std::uint8_t* p = b.data() + f * data::kWireFrameBytes;
            std::uint32_t wire = 0;
            std::memcpy(&wire, p + kPrefix, sizeof(wire));
            bad += common::crc32(p, kPrefix) == wire ? 0 : 1;
        }
        res.check(bad == 0 && frames > 0,
                  "common::crc32 matches the CRC of every clean wire frame");
    }
    // Repeat until ~50 ms of work so the per-frame figure is not clock noise.
    std::uint32_t sink = 0;
    std::uint64_t done = 0;
    const std::uint64_t t0 = common::trace_now_ns();
    while (common::trace_now_ns() - t0 < 50'000'000ull) {
        for (std::size_t f = 0; f < frames; ++f)
            sink ^= common::crc32(b.data() + f * data::kWireFrameBytes, kPrefix);
        done += frames;
    }
    const double ns = static_cast<double>(common::trace_now_ns() - t0);
    g_crc_sink = sink;  // keeps the timed CRCs observable
    return ns / static_cast<double>(std::max<std::uint64_t>(done, 1));
}

void add_counts(PassStats& into, const PassStats& p) {
    into.seconds += p.seconds;
    into.instants += p.instants;
    into.decisions += p.decisions;
    into.frames_decoded += p.frames_decoded;
    into.bytes_consumed += p.bytes_consumed;
    into.reasm_frames += p.reasm_frames;
}

void report_serve_layers(const SpanTable& spans, const PassStats& traced,
                         const PassStats& one, Result& res) {
    const auto per = [](double ns, std::uint64_t n) {
        return n > 0 ? ns / static_cast<double>(n) : 0.0;
    };
    const SpanTable::Row decode = spans.get("data.telemetry.decode");
    const SpanTable::Row reasm = spans.get("data.link_ingest.reassemble");
    const SpanTable::Row align = spans.get("bench.align");
    const SpanTable::Row process = spans.get("core.link_fusion.process");
    res.set("data.telemetry.decode_ns_per_frame", per(decode.self_ns, traced.frames_decoded),
            "ns");
    res.set("data.telemetry.decode_gbps",
            decode.self_ns > 0.0 ? static_cast<double>(traced.bytes_consumed) / decode.self_ns
                                 : 0.0,
            "GB/s");
    res.set("data.link_ingest.reassemble_ns_per_frame", per(reasm.self_ns, traced.reasm_frames),
            "ns");
    res.set("bench.align.ns_per_instant", per(align.self_ns, traced.instants), "ns");
    res.set("core.link_fusion.process_ns_per_decision", per(process.self_ns, traced.decisions),
            "ns");

    const auto count = [&res](const char* name, std::uint64_t v) {
        res.set(name, static_cast<double>(v), "count");
    };
    res.set("data.telemetry.useful_byte_ratio",
            one.bytes_consumed > 0
                ? static_cast<double>(one.frames_decoded * data::kWireFrameBytes) /
                      static_cast<double>(one.bytes_consumed)
                : 0.0,
            "ratio");
    count("data.telemetry.frames_decoded", one.frames_decoded);
    count("data.telemetry.defects", one.defects);
    count("data.telemetry.resyncs", one.resyncs);
    count("data.link_ingest.gaps", one.gaps);
    count("data.link_ingest.missing_frames", one.missing_frames);
    count("data.link_ingest.duplicates_dropped", one.duplicates_dropped);
    count("data.link_ingest.pending_peak", one.pending_peak);
    res.set("bench.align.wait_instants_p99", one.wait_p99, "instants");
    count("bench.align.partial_instants", one.partial_instants);
    count("bench.align.late_frames", one.late_frames);
    count("core.link_fusion.tier_full", one.tiers[0]);
    count("core.link_fusion.tier_subset", one.tiers[1]);
    count("core.link_fusion.tier_single", one.tiers[2]);
    count("core.link_fusion.tier_env_only", one.tiers[3]);
    count("core.link_fusion.tier_stale_hold", one.tiers[4]);
    count("core.link_fusion.link_frames_rejected", one.link_frames_rejected);
}

}  // namespace perfbench
