// The library serving pipeline (core/serving_pipeline.hpp): wire bytes ->
// decisions bitwise equal to MultiLinkDetector::process on observations built
// directly from the records, clean and with one frame of one link missing,
// and an allocation-free steady state. The aligner's brute-force join tests
// sit with the reassembler tests in test_telemetry.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "core/link_fusion.hpp"
#include "core/serving_pipeline.hpp"
#include "data/telemetry.hpp"
#include "envsim/simulation.hpp"

namespace {

using namespace wifisense;

constexpr std::size_t kLinks = 4;

/// A 15-minute 4-link collection at 2 Hz and a detector fitted on it.
struct Room {
    std::vector<data::Dataset> links{kLinks};
    std::unique_ptr<core::MultiLinkDetector> det;
    /// Clean wire per link: frame i at bytes [i, i + 1) * kWireFrameBytes.
    std::vector<std::vector<std::uint8_t>> wire{kLinks};
};

Room& room() {
    static Room r = [] {
        Room out;
        envsim::SimulationConfig cfg = envsim::paper_config(2.0, 7);
        cfg.duration_s = 900.0;
        const std::vector<csi::Vec3> positions =
            envsim::default_link_positions(cfg.room, kLinks);
        cfg.extra_rx.assign(positions.begin() + 1, positions.end());
        envsim::OfficeSimulator(cfg).run_links(
            [&](std::uint8_t link, const data::SampleRecord& rec) {
                out.links[link].push_back(rec);
            });
        core::MultiLinkConfig mcfg;
        mcfg.n_links = kLinks;
        mcfg.resilient.full.training.epochs = 3;
        mcfg.resilient.fallback.training.epochs = 3;
        out.det = std::make_unique<core::MultiLinkDetector>(mcfg);
        out.det->calibrate_links(out.links).throw_if_error();
        out.det->fit(core::fused_dataset(out.links).view());
        for (std::size_t l = 0; l < kLinks; ++l) {
            data::LinkEncoder enc(static_cast<std::uint8_t>(l));
            for (const data::SampleRecord& rec : out.links[l].records())
                enc.encode(rec, out.wire[l]);
        }
        return out;
    }();
    return r;
}

struct Decisions final : core::DecisionSink {
    std::vector<std::uint32_t> seqs;
    std::vector<core::FusionDecision> out;
    void on_decision(std::uint32_t seq, const core::FusionDecision& d) override {
        seqs.push_back(seq);
        out.push_back(d);
    }
};

/// Direct process() over observations built from the records, with link
/// `absent_link` missing at sequence `absent_seq`.
std::vector<core::FusionDecision> direct(Room& r, std::size_t absent_link,
                                         std::size_t absent_seq) {
    r.det->reset_stream();
    std::vector<core::FusionDecision> out;
    std::vector<core::LinkFrame> frames(kLinks);
    for (std::size_t i = 0; i < r.links[0].size(); ++i) {
        for (std::size_t l = 0; l < kLinks; ++l) {
            frames[l].present = !(l == absent_link && i == absent_seq);
            frames[l].csi = r.links[l][i].csi;
        }
        core::MultiLinkObservation obs;
        obs.timestamp = r.links[0][i].timestamp;
        obs.has_env = true;
        obs.temperature_c = r.links[0][i].temperature_c;
        obs.humidity_pct = r.links[0][i].humidity_pct;
        obs.links = frames;
        out.push_back(r.det->process(obs));
    }
    return out;
}

/// Serves the clean wire one instant at a time, skipping link
/// `absent_link`'s frame for sequence `absent_seq`.
void serve(Room& r, core::ServingPipeline& pipe, core::DecisionSink& sink,
           std::size_t absent_link, std::size_t absent_seq) {
    const std::size_t n = r.links[0].size();
    pipe.reset();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t l = 0; l < kLinks; ++l)
            if (!(l == absent_link && i == absent_seq))
                pipe.push(l,
                          std::span<const std::uint8_t>(
                              r.wire[l].data() + i * data::kWireFrameBytes,
                              data::kWireFrameBytes),
                          sink);
    pipe.finish(static_cast<std::uint32_t>(n), sink);
}

bool bitwise_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same(const std::vector<core::FusionDecision>& want, const Decisions& got) {
    ASSERT_EQ(got.out.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("sequence " + std::to_string(i));
        ASSERT_EQ(got.seqs[i], i);
        const core::FusionDecision& a = want[i];
        const core::FusionDecision& b = got.out[i];
        ASSERT_TRUE(bitwise_equal(a.base.probability, b.base.probability));
        ASSERT_TRUE(bitwise_equal(a.base.confidence, b.base.confidence));
        ASSERT_TRUE(bitwise_equal(a.base.csi_health, b.base.csi_health));
        ASSERT_TRUE(bitwise_equal(a.base.env_health, b.base.env_health));
        ASSERT_TRUE(bitwise_equal(a.mean_link_health, b.mean_link_health));
        ASSERT_EQ(a.base.prediction, b.base.prediction);
        ASSERT_EQ(a.base.csi_repaired, b.base.csi_repaired);
        ASSERT_EQ(a.base.env_held, b.base.env_held);
        ASSERT_EQ(a.tier, b.tier);
        ASSERT_EQ(a.links_used, b.links_used);
    }
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

TEST(ServingPipeline, CleanWireMatchesDirectProcess) {
    Room& r = room();
    const std::vector<core::FusionDecision> want = direct(r, kNone, kNone);
    core::ServingPipeline pipe(*r.det);
    Decisions got;
    serve(r, pipe, got, kNone, kNone);
    expect_same(want, got);
    EXPECT_EQ(r.det->stats().full_fusion, r.links[0].size());
    EXPECT_EQ(pipe.align_stats().partial_instants, 0u);
    EXPECT_EQ(pipe.align_stats().frames_late, 0u);
    for (std::size_t l = 0; l < kLinks; ++l)
        EXPECT_EQ(pipe.decoder_stats(l).frames_decoded, r.links[l].size());
}

TEST(ServingPipeline, DroppedLink2FrameKeepsLaterInstantsAligned) {
    // Link 2's reassembler holds its later frames until the staleness budget
    // releases them; the aligner must still join every later instant on
    // same-sequence frames from all four links.
    Room& r = room();
    const std::size_t k = r.links[0].size() / 2;
    const std::vector<core::FusionDecision> want = direct(r, 2, k);
    ASSERT_EQ(want[k].tier, core::FusionTier::kSubsetFusion);
    core::ServingPipeline pipe(*r.det);
    Decisions got;
    serve(r, pipe, got, 2, k);
    expect_same(want, got);
    EXPECT_EQ(pipe.align_stats().partial_instants, 1u);
    EXPECT_EQ(pipe.align_stats().frames_late, 0u);
    EXPECT_EQ(pipe.reassembly_stats(2).gaps, 1u);
    EXPECT_EQ(pipe.reassembly_stats(2).missing_frames, 1u);
}

TEST(ServingPipeline, SteadyStatePushAllocatesNothing) {
    Room& r = room();
    core::ServingPipeline pipe(*r.det);
    struct Count final : core::DecisionSink {
        std::size_t n = 0;
        void on_decision(std::uint32_t, const core::FusionDecision&) override { ++n; }
    } count;
    serve(r, pipe, count, kNone, kNone);  // warm-up (first-touch statics)
    const std::size_t warm = count.n;
    alloc::AllocationProbe probe;
    serve(r, pipe, count, 2, 100);
    EXPECT_EQ(probe.delta(), 0u) << "serving pipeline touched the heap";
    EXPECT_EQ(count.n, 2 * warm);
}

}  // namespace
