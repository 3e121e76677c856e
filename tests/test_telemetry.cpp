// Multi-link telemetry wire format: the CRC-32 every frame carries, framing
// round-trips, the decoder's hostile-byte contract (never throw, never
// allocate in steady state, typed defects for every rejection), per-link
// reassembly, wire-fault determinism, phase faults, and the zero-fault
// equivalence of the wire path with the direct pipeline at several thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/cpuid.hpp"
#include "common/crc32.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "core/link_fusion.hpp"
#include "csi/phase.hpp"
#include "csi/receiver.hpp"
#include "data/link_ingest.hpp"
#include "data/record_validator.hpp"
#include "data/telemetry.hpp"
#include "envsim/simulation.hpp"

namespace {

using namespace wifisense;

data::SampleRecord make_record(std::uint32_t i) {
    data::SampleRecord rec;
    rec.timestamp = 1000.0 + 0.5 * static_cast<double>(i);
    for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
        rec.csi[k] = 0.001f * static_cast<float>(k + 1) +
                     1e-5f * static_cast<float>(i);
    rec.temperature_c = 21.5f;
    rec.humidity_pct = 38.0f;
    rec.occupant_count = static_cast<std::uint8_t>(i % 4);
    rec.occupancy = rec.occupant_count > 0 ? 1 : 0;
    rec.activity = static_cast<std::uint8_t>(i % 3);
    rec.room_id = 7;
    return rec;
}

/// Field-wise bitwise equality (SampleRecord has interior padding, so a
/// whole-struct memcmp would compare indeterminate bytes).
bool records_equal(const data::SampleRecord& a, const data::SampleRecord& b) {
    return std::memcmp(&a.timestamp, &b.timestamp, sizeof(a.timestamp)) == 0 &&
           std::memcmp(a.csi.data(), b.csi.data(),
                       sizeof(float) * a.csi.size()) == 0 &&
           std::memcmp(&a.temperature_c, &b.temperature_c,
                       sizeof(a.temperature_c)) == 0 &&
           std::memcmp(&a.humidity_pct, &b.humidity_pct,
                       sizeof(a.humidity_pct)) == 0 &&
           a.occupant_count == b.occupant_count &&
           a.occupancy == b.occupancy && a.activity == b.activity &&
           a.room_id == b.room_id;
}

/// Collects frames and defects; allocation-free when reserved up front.
struct Collector final : data::WireSink {
    std::vector<data::TelemetryFrame> frames;
    std::vector<data::FrameDefect> defects;
    void on_frame(const data::TelemetryFrame& f) override {
        frames.push_back(f);
    }
    void on_defect(const data::FrameDefect& d) override {
        defects.push_back(d);
    }
};

/// Counts only — guaranteed not to allocate from the sink callbacks.
struct CountingSink final : data::WireSink {
    std::uint64_t frames = 0;
    std::uint64_t defects = 0;
    void on_frame(const data::TelemetryFrame&) override { ++frames; }
    void on_defect(const data::FrameDefect&) override { ++defects; }
};

std::vector<std::uint8_t> encode_clean(std::uint32_t n,
                                       std::uint8_t link_id = 0) {
    data::LinkEncoder enc(link_id);
    std::vector<std::uint8_t> bytes;
    for (std::uint32_t i = 0; i < n; ++i) enc.encode(make_record(i), bytes);
    enc.flush(bytes);
    return bytes;
}

// ---------------------------------------------------------------------------
// CRC-32: every dispatch path (folding kernel, byte table, the tail between
// them) against an independent bit-at-a-time oracle
// ---------------------------------------------------------------------------

/// Bit-at-a-time CRC-32 register update (reflected 0xEDB88320), written
/// from the polynomial alone so it shares nothing with the library's table.
std::uint32_t crc32_bitwise(std::uint32_t state, const std::uint8_t* p,
                            std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        state ^= p[i];
        for (int b = 0; b < 8; ++b)
            state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
    }
    return state;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng() >> 56);
    return v;
}

TEST(Crc32, ConcurrentFirstUseAgrees) {
    // ctest runs every test in its own process, so these are the process's
    // first CRCs: pool threads race through the one-time CPUID verdict and
    // table construction. Nothing above the parallel region may touch the
    // CRC (encode_clean would), hence random bytes.
    const std::size_t kSlices = 64;
    const std::vector<std::uint8_t> bytes =
        random_bytes(kSlices * data::kWireFrameBytes, 0xC0FFEE);
    // Even slices take the folding path (304 bytes), odd ones the table
    // alone (40 bytes).
    const auto slice_len = [](std::size_t i) -> std::size_t {
        return i % 2 == 0 ? data::kWireFrameBytes - 4 : 40;
    };
    std::vector<std::uint32_t> got(kSlices);
    const common::ExecutionConfig saved = common::execution_config();
    common::set_execution_config({8});
    common::parallel_for(kSlices, [&](std::size_t i) {
        got[i] = common::crc32(bytes.data() + i * data::kWireFrameBytes,
                               slice_len(i));
    });
    common::set_execution_config(saved);
    for (std::size_t i = 0; i < kSlices; ++i)
        EXPECT_EQ(got[i], ~crc32_bitwise(~0u, bytes.data() +
                                                  i * data::kWireFrameBytes,
                                         slice_len(i)))
            << "slice " << i;
}

TEST(Crc32, CheckValue) {
    const char* check = "123456789";
    EXPECT_EQ(common::crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(common::crc32(check, 0), 0u);
}

TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndOffset) {
    const std::vector<std::uint8_t> bytes = random_bytes(1024 + 16, 0x5EED);
    std::mt19937 seeds(7);
    for (std::size_t off = 0; off < 16; ++off) {
        for (std::size_t n = 0; n <= 1024; ++n) {
            const std::uint8_t* p = bytes.data() + off;
            ASSERT_EQ(common::crc32(p, n), ~crc32_bitwise(~0u, p, n))
                << "offset " << off << " length " << n;
            // A running CRC from an arbitrary earlier state.
            const std::uint32_t seed = seeds();
            ASSERT_EQ(common::crc32_update(seed, p, n),
                      crc32_bitwise(seed, p, n))
                << "offset " << off << " length " << n << " seed " << seed;
        }
    }
}

TEST(Crc32, StreamingSplitsMatchOneShot) {
    const std::vector<std::uint8_t> frame = encode_clean(1);
    ASSERT_EQ(frame.size(), data::kWireFrameBytes);
    const std::uint32_t whole = common::crc32(frame.data(), frame.size());
    for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
        std::uint32_t s = common::crc32_init();
        s = common::crc32_update(s, frame.data(), cut);
        s = common::crc32_update(s, frame.data() + cut, frame.size() - cut);
        EXPECT_EQ(common::crc32_final(s), whole) << "cut at " << cut;
    }
}

TEST(Crc32, PclmulIsReportedWhenDetected) {
    const common::CpuFeatures& f = common::cpu_features();
    const std::string s = common::cpu_feature_string();
    EXPECT_EQ(s.find("pclmul") != std::string::npos, f.pclmul);
}

// ---------------------------------------------------------------------------
// Framing round-trips
// ---------------------------------------------------------------------------

TEST(TelemetryWire, FrameLayoutConstants) {
    EXPECT_EQ(data::kWireHeaderBytes, 24u);
    EXPECT_EQ(sizeof(data::WireCsiPayload), 280u);
    EXPECT_EQ(data::kWireFrameBytes, 308u);
}

TEST(TelemetryWire, RoundTripIsBitwise) {
    data::TelemetryFrame in;
    in.link_id = 3;
    in.channel = 11;
    in.timestamp_ns = 123456789012345ull;
    in.sequence = 42;
    in.record = make_record(17);

    std::vector<std::uint8_t> bytes;
    data::encode_frame(in, bytes);
    ASSERT_EQ(bytes.size(), data::kWireFrameBytes);

    data::TelemetryDecoder dec;
    Collector sink;
    dec.push(bytes, sink);
    dec.finish(sink);

    ASSERT_EQ(sink.frames.size(), 1u);
    EXPECT_TRUE(sink.defects.empty());
    const data::TelemetryFrame& out = sink.frames[0];
    EXPECT_EQ(out.link_id, in.link_id);
    EXPECT_EQ(out.channel, in.channel);
    EXPECT_EQ(out.timestamp_ns, in.timestamp_ns);
    EXPECT_EQ(out.sequence, in.sequence);
    EXPECT_TRUE(records_equal(out.record, in.record));
}

TEST(TelemetryWire, ArbitraryChunkBoundariesDecodeEverything) {
    constexpr std::uint32_t kFrames = 100;
    const std::vector<std::uint8_t> bytes = encode_clean(kFrames);

    std::mt19937_64 rng(0xc4a11);
    data::TelemetryDecoder dec;
    Collector sink;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
        const std::size_t n = std::min<std::size_t>(
            1 + rng() % 700, bytes.size() - pos);
        dec.push(std::span<const std::uint8_t>(bytes.data() + pos, n), sink);
        pos += n;
    }
    dec.finish(sink);

    ASSERT_EQ(sink.frames.size(), kFrames);
    EXPECT_TRUE(sink.defects.empty());
    for (std::uint32_t i = 0; i < kFrames; ++i) {
        EXPECT_EQ(sink.frames[i].sequence, i);
        EXPECT_TRUE(records_equal(sink.frames[i].record, make_record(i)));
    }
    EXPECT_EQ(dec.stats().bytes_consumed, bytes.size());
    EXPECT_EQ(dec.stats().bytes_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Typed rejection paths
// ---------------------------------------------------------------------------

TEST(TelemetryDecoderDefects, ResyncAcrossGarbageRuns) {
    const std::vector<std::uint8_t> frame0 = encode_clean(1);
    std::vector<std::uint8_t> frame1;
    data::TelemetryFrame f;
    f.sequence = 1;
    f.record = make_record(1);
    data::encode_frame(f, frame1);

    std::vector<std::uint8_t> stream(100, 0xAB);
    stream.insert(stream.end(), frame0.begin(), frame0.end());
    stream.insert(stream.end(), 57, 0xCD);
    stream.insert(stream.end(), frame1.begin(), frame1.end());
    stream.insert(stream.end(), 9, 0xEF);

    data::TelemetryDecoder dec;
    Collector sink;
    dec.push(stream, sink);
    dec.finish(sink);

    ASSERT_EQ(sink.frames.size(), 2u);
    EXPECT_TRUE(records_equal(sink.frames[0].record, make_record(0)));
    EXPECT_TRUE(records_equal(sink.frames[1].record, make_record(1)));
    ASSERT_EQ(sink.defects.size(), 3u);
    std::uint64_t garbage_bytes = 0;
    for (const data::FrameDefect& d : sink.defects) {
        EXPECT_EQ(d.kind, data::FrameDefectKind::kGarbage);
        garbage_bytes += d.detail;
    }
    EXPECT_EQ(garbage_bytes, 100u + 57u + 9u);
    EXPECT_EQ(dec.stats().resyncs, 3u);
    EXPECT_EQ(dec.stats().bytes_skipped, 166u);
}

TEST(TelemetryDecoderDefects, VersionSkewIsTyped) {
    std::vector<std::uint8_t> bytes = encode_clean(1);
    bytes[4] = data::kWireVersion + 1;  // version byte
    // Re-seal so the only problem is the version (the decoder must reject
    // before ever trusting the payload).
    const std::uint32_t crc = common::crc32(bytes.data(), 304);
    std::memcpy(bytes.data() + 304, &crc, 4);

    data::TelemetryDecoder dec;
    Collector sink;
    dec.push(bytes, sink);
    dec.finish(sink);

    EXPECT_TRUE(sink.frames.empty());
    ASSERT_FALSE(sink.defects.empty());
    EXPECT_EQ(sink.defects[0].kind, data::FrameDefectKind::kVersionSkew);
    EXPECT_EQ(sink.defects[0].detail, data::kWireVersion + 1u);
    EXPECT_EQ(dec.stats().version_skews, 1u);
    const common::Status st = data::to_status(sink.defects[0]);
    EXPECT_EQ(st.code(), common::StatusCode::kFormatMismatch);
}

TEST(TelemetryDecoderDefects, CrcMismatchIsTyped) {
    std::vector<std::uint8_t> bytes = encode_clean(1);
    bytes[100] ^= 0x01;  // one payload bit

    data::TelemetryDecoder dec;
    Collector sink;
    dec.push(bytes, sink);
    dec.finish(sink);

    EXPECT_TRUE(sink.frames.empty());
    ASSERT_FALSE(sink.defects.empty());
    EXPECT_EQ(sink.defects[0].kind, data::FrameDefectKind::kCrcMismatch);
    EXPECT_EQ(dec.stats().crc_mismatches, 1u);
    EXPECT_EQ(data::to_status(sink.defects[0]).code(),
              common::StatusCode::kCorruptData);
}

TEST(TelemetryDecoderDefects, TruncatedTailIsTyped) {
    const std::vector<std::uint8_t> bytes = encode_clean(1);
    data::TelemetryDecoder dec;
    Collector sink;
    dec.push(std::span<const std::uint8_t>(bytes.data(), 200), sink);
    dec.finish(sink);

    EXPECT_TRUE(sink.frames.empty());
    ASSERT_EQ(sink.defects.size(), 1u);
    EXPECT_EQ(sink.defects[0].kind, data::FrameDefectKind::kTruncated);
    EXPECT_EQ(sink.defects[0].detail, 200u);
    EXPECT_EQ(dec.stats().truncated, 1u);
    EXPECT_EQ(data::to_status(sink.defects[0]).code(),
              common::StatusCode::kTruncated);
}

TEST(TelemetryDecoderDefects, BadLengthAndBadKindAreTyped) {
    for (const bool bad_kind : {true, false}) {
        std::vector<std::uint8_t> bytes = encode_clean(1);
        if (bad_kind) {
            bytes[7] = 9;  // payload_kind
        } else {
            bytes[20] = 0x10;  // payload_bytes -> 0x0010
            bytes[21] = 0x00;
        }
        const std::uint32_t crc = common::crc32(bytes.data(), 304);
        std::memcpy(bytes.data() + 304, &crc, 4);

        data::TelemetryDecoder dec;
        Collector sink;
        dec.push(bytes, sink);
        dec.finish(sink);
        EXPECT_TRUE(sink.frames.empty());
        ASSERT_FALSE(sink.defects.empty());
        EXPECT_EQ(sink.defects[0].kind,
                  bad_kind ? data::FrameDefectKind::kBadKind
                           : data::FrameDefectKind::kBadLength);
    }
}

// ---------------------------------------------------------------------------
// Hostile-bytes property: never throw, typed defects, consistent accounting
// ---------------------------------------------------------------------------

TEST(TelemetryDecoderHostile, SurvivesMutatedStreams) {
    constexpr std::uint32_t kFrames = 40;
    const std::vector<std::uint8_t> clean = encode_clean(kFrames);

    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        std::mt19937_64 rng(0xdead0000 + seed);
        std::vector<std::uint8_t> bytes;
        switch (seed % 4) {
            case 0: {  // random bit flips
                bytes = clean;
                const std::size_t flips = 1 + rng() % 256;
                for (std::size_t i = 0; i < flips; ++i)
                    bytes[rng() % bytes.size()] ^=
                        static_cast<std::uint8_t>(1u << (rng() % 8));
                break;
            }
            case 1: {  // random truncation + trailing junk
                bytes.assign(clean.begin(),
                             clean.begin() +
                                 static_cast<long>(1 + rng() % clean.size()));
                const std::size_t junk = rng() % 600;
                for (std::size_t i = 0; i < junk; ++i)
                    bytes.push_back(static_cast<std::uint8_t>(rng()));
                break;
            }
            case 2: {  // spliced substrings of the clean stream
                for (int s = 0; s < 8; ++s) {
                    const std::size_t a = rng() % clean.size();
                    const std::size_t b =
                        a + rng() % (clean.size() - a);
                    bytes.insert(bytes.end(), clean.begin() + a,
                                 clean.begin() + b);
                }
                break;
            }
            default: {  // pure noise
                const std::size_t n = 1 + rng() % 5000;
                for (std::size_t i = 0; i < n; ++i)
                    bytes.push_back(static_cast<std::uint8_t>(rng()));
                break;
            }
        }

        data::TelemetryDecoder dec;
        Collector sink;
        std::size_t pos = 0;
        while (pos < bytes.size()) {
            const std::size_t n = std::min<std::size_t>(
                1 + rng() % 997, bytes.size() - pos);
            dec.push(std::span<const std::uint8_t>(bytes.data() + pos, n),
                     sink);
            pos += n;
        }
        dec.finish(sink);

        const data::TelemetryDecoder::Stats& st = dec.stats();
        EXPECT_EQ(st.bytes_consumed, bytes.size()) << "seed " << seed;
        EXPECT_EQ(st.frames_decoded, sink.frames.size()) << "seed " << seed;
        EXPECT_EQ(st.defects, sink.defects.size()) << "seed " << seed;
        // Every consumed byte is either part of an accepted frame or
        // accounted as skipped.
        EXPECT_EQ(st.frames_decoded * data::kWireFrameBytes + st.bytes_skipped,
                  st.bytes_consumed)
            << "seed " << seed;
        // Any frame that survived CRC must be one of the originals, intact.
        for (const data::TelemetryFrame& f : sink.frames) {
            ASSERT_LT(f.sequence, kFrames) << "seed " << seed;
            EXPECT_TRUE(records_equal(f.record, make_record(f.sequence)))
                << "seed " << seed;
        }
        for (const data::FrameDefect& d : sink.defects)
            EXPECT_NE(data::to_string(d.kind), std::string("unknown defect"));
    }
}

TEST(TelemetryDecoderHostile, AcceptPathAllocatesNothing) {
    const std::vector<std::uint8_t> bytes = encode_clean(64);
    data::TelemetryDecoder dec;
    CountingSink sink;

    // Warm-up pass (first-touch effects), then the measured pass.
    dec.push(bytes, sink);
    dec.finish(sink);
    dec.reset();

    alloc::AllocationProbe probe;
    dec.push(bytes, sink);
    dec.finish(sink);
    EXPECT_EQ(probe.delta(), 0u) << "decoder accept path touched the heap";
    EXPECT_EQ(sink.frames, 128u);
}

TEST(TelemetryDecoderHostile, GarbageRejectPathAllocatesNothing) {
    std::vector<std::uint8_t> bytes(8192);
    std::mt19937_64 rng(0xbadbeef);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    data::TelemetryDecoder dec;
    CountingSink sink;
    dec.push(bytes, sink);
    dec.finish(sink);
    dec.reset();

    alloc::AllocationProbe probe;
    dec.push(bytes, sink);
    dec.finish(sink);
    EXPECT_EQ(probe.delta(), 0u) << "decoder reject path touched the heap";
}

// ---------------------------------------------------------------------------
// Per-link reassembly
// ---------------------------------------------------------------------------

data::TelemetryFrame seq_frame(std::uint32_t seq) {
    data::TelemetryFrame f;
    f.sequence = seq;
    f.timestamp_ns =
        1000000000ull + static_cast<std::uint64_t>(seq) * 500000000ull;
    f.record = make_record(seq);
    return f;
}

struct OrderSink final : data::FrameSink {
    std::vector<std::uint32_t> seqs;
    void on_frame(const data::TelemetryFrame& f) override {
        seqs.push_back(f.sequence);
    }
};

TEST(LinkReassembler, RestoresSwappedFrames) {
    data::LinkReassembler r;
    OrderSink sink;
    for (const std::uint32_t s : {0u, 2u, 1u, 3u, 4u})
        r.push(seq_frame(s), sink);
    r.flush(sink);
    EXPECT_EQ(sink.seqs, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(r.stats().gaps, 0u);
    EXPECT_EQ(r.stats().duplicates_dropped, 0u);
}

TEST(LinkReassembler, DropsDuplicates) {
    data::LinkReassembler r;
    OrderSink sink;
    for (const std::uint32_t s : {0u, 1u, 1u, 2u, 2u, 3u})
        r.push(seq_frame(s), sink);
    r.flush(sink);
    EXPECT_EQ(sink.seqs, (std::vector<std::uint32_t>{0, 1, 2, 3}));
    EXPECT_EQ(r.stats().duplicates_dropped, 2u);
}

TEST(LinkReassembler, AccountsSequenceGaps) {
    data::LinkReassembler r;
    OrderSink sink;
    for (const std::uint32_t s : {0u, 1u, 5u, 6u, 9u})
        r.push(seq_frame(s), sink);
    r.flush(sink);
    EXPECT_EQ(sink.seqs, (std::vector<std::uint32_t>{0, 1, 5, 6, 9}));
    EXPECT_EQ(r.stats().gaps, 2u);
    EXPECT_EQ(r.stats().missing_frames, 3u + 2u);
}

TEST(LinkReassembler, StalenessBudgetReleasesHeldFrames) {
    data::ReassemblyConfig cfg;
    cfg.reorder_window = 100;  // window alone would hold everything
    cfg.staleness_budget_s = 1.0;
    data::LinkReassembler r(cfg);
    OrderSink sink;
    // seq 0 never arrives; held frames span > 1 s of wire time, so the
    // budget must force them out despite the unfilled hole.
    r.push(seq_frame(1), sink);
    r.push(seq_frame(2), sink);
    EXPECT_TRUE(sink.seqs.empty());
    r.push(seq_frame(5), sink);  // 2 s after frame 1
    EXPECT_FALSE(sink.seqs.empty());
    r.flush(sink);
    EXPECT_EQ(sink.seqs, (std::vector<std::uint32_t>{1, 2, 5}));
}

TEST(LinkReassembler, SteadyStatePushAllocatesNothing) {
    data::LinkReassembler r;
    OrderSink sink;
    sink.seqs.reserve(4096);
    for (std::uint32_t s = 0; s < 64; ++s) r.push(seq_frame(s), sink);

    alloc::AllocationProbe probe;
    for (std::uint32_t s = 64; s < 1064; ++s) {
        // Persistent mild reordering: swap every pair.
        r.push(seq_frame(s ^ 1u), sink);
    }
    EXPECT_EQ(probe.delta(), 0u) << "reassembler steady state touched the heap";
}

// ---------------------------------------------------------------------------
// Wire faults through the encoder
// ---------------------------------------------------------------------------

common::FaultConfig wire_fault_mix(std::uint64_t seed = 0x5eed) {
    common::FaultConfig f;
    f.wire_corrupt_rate = 0.05;
    f.wire_truncate_rate = 0.03;
    f.wire_reorder_rate = 0.05;
    f.wire_duplicate_rate = 0.04;
    f.seed = seed;
    return f;
}

TEST(LinkEncoderFaults, SameSeedSameBytes) {
    const common::FaultPlan plan(wire_fault_mix());
    std::vector<std::uint8_t> a, b;
    for (std::vector<std::uint8_t>* out : {&a, &b}) {
        data::LinkEncoder enc(1, 6, &plan);
        for (std::uint32_t i = 0; i < 300; ++i)
            enc.encode(make_record(i), *out);
        enc.flush(*out);
    }
    EXPECT_EQ(a, b);
}

TEST(LinkEncoderFaults, ZeroRatePlanMatchesNoPlan) {
    common::FaultConfig inert;  // all-zero rates
    const common::FaultPlan plan(inert);
    std::vector<std::uint8_t> with_plan;
    data::LinkEncoder enc(0, 6, &plan);
    for (std::uint32_t i = 0; i < 50; ++i)
        enc.encode(make_record(i), with_plan);
    enc.flush(with_plan);
    EXPECT_EQ(with_plan, encode_clean(50));
}

TEST(LinkEncoderFaults, FaultedStreamStillDecodesDeterministically) {
    const common::FaultPlan plan(wire_fault_mix(0xfeed));
    std::vector<std::uint8_t> bytes;
    data::LinkEncoder enc(2, 6, &plan);
    constexpr std::uint32_t kFrames = 500;
    for (std::uint32_t i = 0; i < kFrames; ++i)
        enc.encode(make_record(i), bytes);
    enc.flush(bytes);
    const data::LinkEncoder::WireStats& ws = enc.wire_stats();
    EXPECT_GT(ws.corrupted + ws.truncated + ws.duplicated + ws.reordered, 0u);

    data::TelemetryDecoder dec;
    Collector sink;
    dec.push(bytes, sink);
    dec.finish(sink);
    // Corrupted/truncated frames die at the CRC; the survivors are intact
    // and reassembly restores order and counts the holes.
    EXPECT_GT(sink.frames.size(), 0u);
    EXPECT_FALSE(sink.defects.empty());
    struct FrameCollect final : data::FrameSink {
        std::vector<data::TelemetryFrame> frames;
        void on_frame(const data::TelemetryFrame& f) override {
            frames.push_back(f);
        }
    } ordered;
    data::LinkReassembler reasm;
    for (const data::TelemetryFrame& f : sink.frames) reasm.push(f, ordered);
    reasm.flush(ordered);
    ASSERT_FALSE(ordered.frames.empty());
    for (std::size_t i = 0; i < ordered.frames.size(); ++i) {
        if (i > 0)
            EXPECT_LT(ordered.frames[i - 1].sequence,
                      ordered.frames[i].sequence);
        // Every surviving frame carries its original record, bit for bit.
        EXPECT_TRUE(records_equal(ordered.frames[i].record,
                                  make_record(ordered.frames[i].sequence)));
    }
    // A duplicate whose bytes were also corrupted never reaches reassembly,
    // so the dup-drop count is bounded by (not equal to) the wire stat.
    EXPECT_LE(reasm.stats().duplicates_dropped, ws.duplicated);
}

TEST(LinkEncoderFaults, LinkOutageDropsFramesButKeepsSequences) {
    common::FaultConfig f;
    f.link_outage_rate_per_h = 30.0;
    f.link_outage_len_s = 120.0;
    f.seed = 0xabc;
    const common::FaultPlan plan(f);
    std::vector<std::uint8_t> bytes;
    data::LinkEncoder enc(1, 6, &plan);
    constexpr std::uint32_t kFrames = 2000;  // 1000 s of records
    for (std::uint32_t i = 0; i < kFrames; ++i)
        enc.encode(make_record(i), bytes);
    enc.flush(bytes);
    ASSERT_GT(enc.wire_stats().outage_dropped, 0u);

    data::TelemetryDecoder dec;
    Collector sink;
    dec.push(bytes, sink);
    dec.finish(sink);
    OrderSink ordered;
    data::LinkReassembler reasm;
    for (const data::TelemetryFrame& fr : sink.frames) reasm.push(fr, ordered);
    reasm.flush(ordered);
    // The dropped frames consumed their sequence numbers, so the outage is
    // visible downstream as missing_frames. Gap accounting spans the emitted
    // range (a hole before the first emitted frame has no left edge to
    // measure from), hence first..last rather than 0..last.
    ASSERT_FALSE(ordered.seqs.empty());
    EXPECT_EQ(reasm.stats().missing_frames + ordered.seqs.size(),
              static_cast<std::size_t>(ordered.seqs.back() -
                                       ordered.seqs.front() + 1));
    EXPECT_EQ(enc.wire_stats().outage_dropped + enc.wire_stats().emitted,
              kFrames);
}

TEST(LinkEncoderFaults, PerLinkClockSkewOnlyMovesWireClock) {
    common::FaultConfig f;
    f.link_clock_skew_s = 2.0;
    f.seed = 0x5eed;
    const common::FaultPlan plan(f);
    EXPECT_EQ(plan.link_skew_s(0), 0.0);  // link 0 is the reference clock
    const double skew1 = plan.link_skew_s(1);
    EXPECT_GT(skew1, 0.0);
    EXPECT_LE(skew1, 2.0);
    EXPECT_EQ(skew1, plan.link_skew_s(1));  // deterministic

    for (const std::uint8_t link : {std::uint8_t{0}, std::uint8_t{1}}) {
        std::vector<std::uint8_t> bytes;
        data::LinkEncoder enc(link, 6, &plan);
        enc.encode(make_record(0), bytes);
        data::TelemetryDecoder dec;
        Collector sink;
        dec.push(bytes, sink);
        dec.finish(sink);
        ASSERT_EQ(sink.frames.size(), 1u);
        // Payload record is bitwise untouched; only the wire clock lags.
        EXPECT_TRUE(records_equal(sink.frames[0].record, make_record(0)));
        const double wire_t =
            static_cast<double>(sink.frames[0].timestamp_ns) * 1e-9;
        const double skew = plan.link_skew_s(link);
        EXPECT_NEAR(wire_t, make_record(0).timestamp - skew, 1e-6);
    }
}

// ---------------------------------------------------------------------------
// Phase faults (satellite: src/csi/phase.cpp exercised by seeded faults)
// ---------------------------------------------------------------------------

std::vector<std::complex<double>> synthetic_cfr() {
    std::vector<std::complex<double>> cfr(data::kNumSubcarriers);
    for (std::size_t k = 0; k < cfr.size(); ++k) {
        // Linear phase ramp (CFO/SFO-like) plus a nonlinear multipath
        // residual, so sanitize_phase has real structure to preserve.
        const double phase = 0.3 * static_cast<double>(k) +
                             0.25 * std::sin(0.4 * static_cast<double>(k));
        cfr[k] = std::polar(1e-3 * (1.0 + 0.1 * std::sin(0.2 * k)), phase);
    }
    return cfr;
}

TEST(PhaseFaults, PureJumpPreservesAmplitudes) {
    std::vector<std::complex<double>> cfr = synthetic_cfr();
    const std::vector<std::complex<double>> clean = cfr;
    common::PhaseFault fault;
    fault.jump_rad = 0.5;
    common::apply_phase_fault(cfr, fault);
    for (std::size_t k = 0; k < cfr.size(); ++k) {
        EXPECT_NEAR(std::abs(cfr[k]), std::abs(clean[k]),
                    1e-15 * std::abs(clean[k]) + 1e-18);
        EXPECT_GT(std::abs(cfr[k] - clean[k]), 0.0);  // phase did move
    }
}

TEST(PhaseFaults, SanitizeRecoversFromJump) {
    std::vector<std::complex<double>> cfr = synthetic_cfr();
    const std::vector<double> clean_resid =
        csi::sanitize_phase(csi::raw_phase(cfr));
    common::PhaseFault fault;
    fault.jump_rad = 0.4;
    common::apply_phase_fault(cfr, fault);
    const std::vector<double> fault_resid =
        csi::sanitize_phase(csi::raw_phase(cfr));
    ASSERT_EQ(fault_resid.size(), clean_resid.size());
    // The constant CFO term is exactly what sanitize_phase's linear detrend
    // removes, so the multipath residual survives the glitch.
    for (std::size_t k = 0; k < fault_resid.size(); ++k)
        EXPECT_NEAR(fault_resid[k], clean_resid[k], 1e-9);
}

TEST(PhaseFaults, NoiseIsDeterministicPerSeed) {
    common::PhaseFault fault;
    fault.noise_seed = 0x1234;
    fault.noise_sigma_rad = 0.2;
    std::vector<std::complex<double>> a = synthetic_cfr();
    std::vector<std::complex<double>> b = synthetic_cfr();
    common::apply_phase_fault(a, fault);
    common::apply_phase_fault(b, fault);
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
    // Magnitudes are invariant for per-subcarrier rotation too.
    const std::vector<std::complex<double>> clean = synthetic_cfr();
    for (std::size_t k = 0; k < a.size(); ++k)
        EXPECT_NEAR(std::abs(a[k]), std::abs(clean[k]),
                    1e-15 * std::abs(clean[k]) + 1e-18);
}

TEST(PhaseFaults, InvisibleToNoiselessAmplitudePath) {
    // With the additive noise off, a pure rotation cannot change reported
    // amplitudes: the faulted receiver's output is bitwise the clean one's.
    csi::ReceiverConfig rcfg;
    rcfg.noise_sigma = 0.0;
    common::FaultConfig f;
    f.phase_jump_rate = 1.0;
    f.phase_noise_rate = 1.0;
    const common::FaultPlan plan(f);

    csi::Receiver clean(rcfg, 99);
    csi::Receiver faulty(rcfg, 99);
    faulty.set_fault_plan(&plan, 1);
    const std::vector<std::complex<double>> cfr = synthetic_cfr();
    for (int i = 0; i < 5; ++i) {
        const std::vector<float> a = clean.sample_amplitudes(cfr);
        const std::vector<float> b = faulty.sample_amplitudes(cfr);
        EXPECT_EQ(a, b) << "packet " << i;
    }
}

TEST(PhaseFaults, ReceiverPhaseFaultsAreLinkIndependent) {
    common::FaultConfig f;
    f.phase_jump_rate = 0.5;
    f.seed = 77;
    const common::FaultPlan plan(f);
    bool differs = false;
    for (std::uint64_t i = 0; i < 50 && !differs; ++i) {
        const common::PhaseFault a = plan.phase_fault(i, 0);
        const common::PhaseFault b = plan.phase_fault(i, 1);
        if (a.any() != b.any() || a.jump_rad != b.jump_rad) differs = true;
    }
    EXPECT_TRUE(differs) << "links share one phase-glitch stream";
}

// ---------------------------------------------------------------------------
// Multi-link simulator + zero-fault pipeline equivalence
// ---------------------------------------------------------------------------

envsim::SimulationConfig short_sim(std::size_t n_links = 1) {
    envsim::SimulationConfig cfg;
    cfg.duration_s = 900.0;
    cfg.sample_rate_hz = 2.0;
    cfg.seed = 7;
    if (n_links > 1) {
        const std::vector<csi::Vec3> pos =
            envsim::default_link_positions(cfg.room, n_links);
        cfg.extra_rx.assign(pos.begin() + 1, pos.end());
    }
    return cfg;
}

TEST(MultiLinkSim, RunLinksWithoutExtraLinksEqualsRun) {
    envsim::OfficeSimulator sim(short_sim());
    const data::Dataset direct = sim.run();

    envsim::OfficeSimulator sim2(short_sim());
    std::vector<data::SampleRecord> linked;
    sim2.run_links([&](std::uint8_t link, const data::SampleRecord& rec) {
        EXPECT_EQ(link, 0);
        linked.push_back(rec);
    });
    ASSERT_EQ(linked.size(), direct.size());
    for (std::size_t i = 0; i < linked.size(); ++i)
        EXPECT_TRUE(records_equal(linked[i], direct[i])) << "record " << i;
}

TEST(MultiLinkSim, LinkZeroBitwiseEqualsSingleLinkAtEveryThreadCount) {
    const common::ExecutionConfig saved = common::execution_config();
    data::Dataset direct;
    {
        common::set_execution_config({1});
        envsim::OfficeSimulator sim(short_sim());
        direct = sim.run();
    }
    std::vector<std::uint64_t> digests;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
        common::set_execution_config({threads});
        envsim::OfficeSimulator sim(short_sim(2));
        std::vector<data::SampleRecord> link0, link1;
        sim.run_links([&](std::uint8_t link, const data::SampleRecord& rec) {
            (link == 0 ? link0 : link1).push_back(rec);
        });
        ASSERT_EQ(link0.size(), direct.size());
        ASSERT_EQ(link1.size(), direct.size());
        for (std::size_t i = 0; i < link0.size(); ++i) {
            ASSERT_TRUE(records_equal(link0[i], direct[i]))
                << "threads " << threads << " record " << i;
        }
        data::Dataset l1(std::move(link1));
        digests.push_back(data::dataset_digest(l1.view()));
        // The extra link sees the same world through different multipath:
        // same labels/env, different CSI.
        bool csi_differs = false;
        for (std::size_t i = 0; i < link0.size() && !csi_differs; ++i)
            csi_differs = l1[i].csi != link0[i].csi;
        EXPECT_TRUE(csi_differs);
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
    common::set_execution_config(saved);
}

TEST(MultiLinkSim, ZeroFaultWirePathIsBitwiseIdenticalToDirect) {
    // The acceptance invariant: simulate -> encode -> decode -> reassemble ->
    // validate must reproduce the direct pipeline bit for bit when no fault
    // is configured.
    envsim::OfficeSimulator sim(short_sim());
    const data::Dataset direct = sim.run();

    data::LinkEncoder enc(0);
    std::vector<std::uint8_t> stream;
    stream.reserve(direct.size() * data::kWireFrameBytes);
    for (const data::SampleRecord& rec : direct.records())
        enc.encode(rec, stream);
    enc.flush(stream);

    Collector sink;
    data::TelemetryDecoder dec;
    dec.push(stream, sink);
    dec.finish(sink);
    ASSERT_EQ(sink.frames.size(), direct.size());
    EXPECT_TRUE(sink.defects.empty());

    data::LinkReassembler reasm;
    std::vector<data::SampleRecord> out;
    struct RecSink final : data::FrameSink {
        std::vector<data::SampleRecord>* out;
        void on_frame(const data::TelemetryFrame& f) override {
            out->push_back(f.record);
        }
    } rec_sink;
    rec_sink.out = &out;
    for (const data::TelemetryFrame& f : sink.frames)
        reasm.push(f, rec_sink);
    reasm.flush(rec_sink);

    data::RecordValidator validator;
    ASSERT_EQ(out.size(), direct.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(validator.ingest(out[i]), data::RecordDisposition::kAccepted);
        ASSERT_TRUE(records_equal(out[i], direct[i])) << "record " << i;
    }
    EXPECT_EQ(validator.stats().quarantined, 0u);
}

// ---------------------------------------------------------------------------
// Fusion ladder
// ---------------------------------------------------------------------------

TEST(LinkFusion, FusedDatasetIsElementwiseMean) {
    std::vector<data::Dataset> links(2);
    for (std::uint32_t i = 0; i < 10; ++i) {
        data::SampleRecord a = make_record(i), b = make_record(i);
        for (auto& v : b.csi) v *= 3.0f;
        links[0].push_back(a);
        links[1].push_back(b);
    }
    const data::Dataset fused = core::fused_dataset(links);
    ASSERT_EQ(fused.size(), 10u);
    for (std::size_t i = 0; i < fused.size(); ++i)
        for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
            EXPECT_FLOAT_EQ(fused[i].csi[k], 2.0f * links[0][i].csi[k]);

    links[1].records().pop_back();
    EXPECT_THROW((void)core::fused_dataset(links), std::invalid_argument);
}

TEST(LinkFusion, DegradationLadderTiersAndConfidences) {
    // Train a small fused detector, then walk the ladder by withholding
    // links on a fixed observation stream.
    envsim::OfficeSimulator sim(short_sim(4));
    std::vector<data::Dataset> links(4);
    sim.run_links([&](std::uint8_t link, const data::SampleRecord& rec) {
        links[link].push_back(rec);
    });
    const data::Dataset fused = core::fused_dataset(links);

    core::MultiLinkConfig mcfg;
    mcfg.n_links = 4;
    mcfg.resilient.full.train_stride = 2;
    mcfg.resilient.fallback.train_stride = 2;
    core::MultiLinkDetector det(mcfg);
    det.fit(fused.view());

    const std::size_t n = std::min<std::size_t>(links[0].size(), 200);
    std::vector<core::LinkFrame> frames(4);
    const auto observe = [&](std::size_t i, std::size_t alive, bool env) {
        for (std::size_t l = 0; l < 4; ++l) {
            frames[l] = core::LinkFrame{};
            if (l < alive) {
                frames[l].present = true;
                frames[l].csi = links[l][i].csi;
            }
        }
        core::MultiLinkObservation obs;
        obs.timestamp = links[0][i].timestamp;
        obs.has_env = env;
        obs.temperature_c = links[0][i].temperature_c;
        obs.humidity_pct = links[0][i].humidity_pct;
        obs.links = frames;
        return det.process(obs);
    };

    const struct {
        std::size_t alive;
        bool env;
        core::FusionTier tier;
    } ladder[] = {
        {4, true, core::FusionTier::kFullFusion},
        {2, true, core::FusionTier::kSubsetFusion},
        {1, true, core::FusionTier::kSingleLink},
        {0, true, core::FusionTier::kEnvOnly},
    };
    for (const auto& step : ladder) {
        det.reset_stream();
        core::FusionDecision last;
        for (std::size_t i = 0; i < n; ++i)
            last = observe(i, step.alive, step.env);
        EXPECT_EQ(last.tier, step.tier)
            << "alive=" << step.alive << " got " << core::to_string(last.tier);
        EXPECT_EQ(last.links_used, step.alive);
        EXPECT_GE(last.base.confidence, 0.0);
        EXPECT_LE(last.base.confidence, 1.0);
        EXPECT_GE(last.base.probability, 0.0);
        EXPECT_LE(last.base.probability, 1.0);
        EXPECT_TRUE(std::isfinite(last.base.probability));
    }

    // Confidence ordering on the same instant: fewer links never report
    // MORE confidence than full fusion (the sqrt(k/N) scale enforces it for
    // identical base decisions; across the real decisions we assert the
    // aggregate).
    det.reset_stream();
    double conf_full = 0.0, conf_single = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        conf_full += observe(i, 4, true).base.confidence;
    det.reset_stream();
    for (std::size_t i = 0; i < n; ++i)
        conf_single += observe(i, 1, true).base.confidence;
    EXPECT_LE(conf_single, conf_full + 1e-9);

    const core::FusionStats& st = det.stats();
    EXPECT_EQ(st.observations, n);

    // Stale-hold tail: no links, no env.
    det.reset_stream();
    core::FusionDecision d{};
    for (std::size_t i = 0; i < n; ++i) d = observe(i, 0, false);
    EXPECT_EQ(d.tier, core::FusionTier::kStaleHold);
}

TEST(LinkFusion, CalibrationRecentersSubsetAndLeavesFullFusionBitwise) {
    // Links that see the room through constant per-link amplitude offsets:
    // after calibration, a subset's re-centered mean must land on the
    // all-link baseline (so subset decisions match full-fusion decisions),
    // while the full-fusion path must not change at all.
    envsim::OfficeSimulator sim(short_sim());
    const data::Dataset base = sim.run();
    std::vector<data::Dataset> links(4);
    for (std::size_t l = 0; l < links.size(); ++l) {
        links[l].reserve(base.size());
        for (const data::SampleRecord& r : base.records()) {
            data::SampleRecord rec = r;
            for (auto& v : rec.csi) v += 0.25f * static_cast<float>(l);
            links[l].push_back(rec);
        }
    }
    const data::Dataset fused = core::fused_dataset(links);

    core::MultiLinkConfig mcfg;
    mcfg.n_links = 4;
    mcfg.resilient.full.train_stride = 2;
    mcfg.resilient.fallback.train_stride = 2;
    core::MultiLinkDetector plain(mcfg), calib(mcfg);
    plain.fit(fused.view());
    calib.fit(fused.view());
    EXPECT_TRUE(calib.calibrate_links(links).is_ok());
    EXPECT_FALSE(plain.calibrated());
    EXPECT_TRUE(calib.calibrated());

    const std::size_t n = std::min<std::size_t>(base.size(), 200);
    std::vector<core::LinkFrame> frames(4);
    const auto observe = [&](core::MultiLinkDetector& det, std::size_t i,
                             std::size_t alive) {
        for (std::size_t l = 0; l < 4; ++l) {
            frames[l] = core::LinkFrame{};
            if (l < alive) {
                frames[l].present = true;
                frames[l].csi = links[l][i].csi;
            }
        }
        core::MultiLinkObservation obs;
        obs.timestamp = links[0][i].timestamp;
        obs.has_env = true;
        obs.temperature_c = links[0][i].temperature_c;
        obs.humidity_pct = links[0][i].humidity_pct;
        obs.links = frames;
        return det.process(obs);
    };

    // Full fusion: calibration must be invisible, bit for bit.
    std::vector<double> p_full(n);
    for (std::size_t i = 0; i < n; ++i) {
        const core::FusionDecision a = observe(plain, i, 4);
        const core::FusionDecision b = observe(calib, i, 4);
        EXPECT_EQ(a.base.probability, b.base.probability) << "instant " << i;
        EXPECT_EQ(a.base.confidence, b.base.confidence) << "instant " << i;
        EXPECT_EQ(a.tier, core::FusionTier::kFullFusion);
        EXPECT_EQ(b.tier, core::FusionTier::kFullFusion);
        p_full[i] = b.base.probability;
    }

    // Two survivors: the re-centered mean equals the full-fusion frame up
    // to float rounding, so the probabilities must agree tightly.
    calib.reset_stream();
    for (std::size_t i = 0; i < n; ++i) {
        const core::FusionDecision d = observe(calib, i, 2);
        EXPECT_EQ(d.tier, core::FusionTier::kSubsetFusion);
        EXPECT_NEAR(d.base.probability, p_full[i], 1e-3) << "instant " << i;
    }
}

TEST(LinkFusion, LinkDropoutFusedIsDeterministicAndRecenters) {
    envsim::OfficeSimulator sim(short_sim());
    const data::Dataset base = sim.run();
    std::vector<data::Dataset> links(3);
    for (std::size_t l = 0; l < links.size(); ++l) {
        links[l].reserve(base.size());
        for (const data::SampleRecord& r : base.records()) {
            data::SampleRecord rec = r;
            for (auto& v : rec.csi) v += 0.5f * static_cast<float>(l);
            links[l].push_back(rec);
        }
    }
    const data::Dataset fused = core::fused_dataset(links);

    // full_fraction = 1 reproduces fused_dataset bitwise.
    const data::Dataset all = core::link_dropout_fused(
        links, 0, static_cast<std::size_t>(-1), 123, 1.0);
    EXPECT_EQ(data::dataset_digest(all.view()),
              data::dataset_digest(fused.view()));

    // Same seed, same stream; different seed, different subsets.
    const data::Dataset a =
        core::link_dropout_fused(links, 0, static_cast<std::size_t>(-1), 42);
    const data::Dataset b =
        core::link_dropout_fused(links, 0, static_cast<std::size_t>(-1), 42);
    const data::Dataset c =
        core::link_dropout_fused(links, 0, static_cast<std::size_t>(-1), 43);
    EXPECT_EQ(data::dataset_digest(a.view()), data::dataset_digest(b.view()));
    EXPECT_NE(data::dataset_digest(a.view()), data::dataset_digest(c.view()));

    // Constant per-link offsets: whatever subset each row drew, the
    // re-centering must cancel the offsets and land every row on the
    // full-fusion mean (up to float rounding).
    ASSERT_EQ(a.size(), fused.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
            ASSERT_NEAR(a[i].csi[k], fused[i].csi[k], 1e-4)
                << "row " << i << " subcarrier " << k;

    EXPECT_THROW(
        (void)core::link_dropout_fused(links, 10, 10),
        std::invalid_argument);
}

TEST(LinkFusion, IngestStatsMergeSumsCounters) {
    data::IngestStats a, b;
    a.total = 10;
    a.accepted = 8;
    a.quarantined = 2;
    a.max_gap_s = 1.5;
    b.total = 5;
    b.accepted = 5;
    b.gaps = 3;
    b.max_gap_s = 4.0;
    a.merge(b);
    EXPECT_EQ(a.total, 15u);
    EXPECT_EQ(a.accepted, 13u);
    EXPECT_EQ(a.quarantined, 2u);
    EXPECT_EQ(a.gaps, 3u);
    EXPECT_DOUBLE_EQ(a.max_gap_s, 4.0);
}

}  // namespace
