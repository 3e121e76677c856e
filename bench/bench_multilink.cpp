// Multi-link degradation curve: occupancy-detection accuracy on fold 1 as
// receiver links die. A 4-link collection (one room, four receivers) is
// fused for training; at evaluation time every surviving link's records are
// framed by a LinkEncoder and served through core::ServingPipeline (decode,
// reassembly, cross-link alignment, fusion), so the curve measures the
// deployed pipeline, not an idealized one. Levels kill 0 / 1 / 2 / 3 of the
// 4 links (highest ids first; link 0 is the paper's receiver), walking the
// fusion ladder from kFullFusion down to kSingleLink.
//
// Hard invariant (exit 1 on violation): full-fusion accuracy is at least
// single-link accuracy — fusing four independent looks at the room must not
// be worse than the best the paper's single receiver does alone.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "common/fault.hpp"
#include "core/link_fusion.hpp"
#include "core/serving_pipeline.hpp"
#include "data/telemetry.hpp"
#include "envsim/simulation.hpp"

namespace {

constexpr std::size_t kLinks = 4;

/// Scores each decision against the fold's labels, keyed by sequence
/// (sequence i carries fold row base + i), and counts the tiers.
struct Scorer final : wifisense::core::DecisionSink {
    const wifisense::data::Dataset* truth = nullptr;
    std::size_t base = 0;
    std::uint64_t correct = 0, frames_decoded = 0, tiers[5] = {0, 0, 0, 0, 0};
    void on_decision(std::uint32_t seq,
                     const wifisense::core::FusionDecision& d) override {
        correct += d.base.prediction == (*truth)[base + seq].occupancy ? 1 : 0;
        tiers[static_cast<std::size_t>(d.tier)]++;
    }
};

/// Serve fold rows [base, base+n) of each alive link through the wire
/// (LinkEncoder -> core::ServingPipeline), one instant at a time, and score.
/// A non-null fault plan injects wire/outage faults at the encoder
/// (--fault-plan=SPEC).
Scorer evaluate_links_down(wifisense::core::ServingPipeline& pipe,
                           std::span<const wifisense::data::Dataset> links,
                           std::size_t base, std::size_t n, std::size_t alive,
                           const wifisense::common::FaultPlan* faults) {
    using namespace wifisense;
    Scorer s;
    s.truth = &links[0];
    s.base = base;
    pipe.reset();
    std::vector<data::LinkEncoder> enc;
    for (std::size_t l = 0; l < alive; ++l)
        enc.emplace_back(static_cast<std::uint8_t>(l), /*channel=*/6, faults);
    std::vector<std::uint8_t> buf;
    for (std::size_t i = 0; i <= n; ++i) {
        for (std::size_t l = 0; l < alive; ++l) {
            buf.clear();
            if (i < n) enc[l].encode(links[l][base + i], buf);
            else enc[l].flush(buf);
            pipe.push(l, buf, s);
        }
    }
    pipe.finish(static_cast<std::uint32_t>(n), s);
    for (std::size_t l = 0; l < alive; ++l)
        s.frames_decoded += pipe.decoder_stats(l).frames_decoded;
    return s;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace wifisense;
    bench::configure_observability(argc, argv);
    bench::print_header("multi-link - accuracy vs links down (fold 1)");
    bench::BenchReport report("multilink");

    // Optional wire fault injection: --fault-plan=SPEC (or the
    // WIFISENSE_BENCH_FAULTS environment variable) feeds every link's
    // encoder a common::FaultPlan; the default run stays byte-identical.
    common::FaultPlan faults;
    {
        const char* spec = std::getenv("WIFISENSE_BENCH_FAULTS");
        for (int i = 1; i < argc; ++i)
            if (std::strncmp(argv[i], "--fault-plan=", 13) == 0)
                spec = argv[i] + 13;
        if (spec != nullptr && spec[0] != '\0') {
            auto parsed = common::parse_fault_spec(spec);
            if (!parsed.is_ok()) {
                std::fprintf(stderr, "bench_multilink: %s\n",
                             parsed.status().to_string().c_str());
                return 2;
            }
            faults = common::FaultPlan(parsed.value());
            std::printf("fault plan: %s\n\n",
                        common::to_spec(faults.config()).c_str());
        }
    }

    // 4-link collection over the paper timeline.
    const double rate = bench::bench_rate();
    envsim::SimulationConfig cfg = envsim::paper_config(rate);
    const std::vector<csi::Vec3> positions =
        envsim::default_link_positions(cfg.room, kLinks);
    cfg.extra_rx.assign(positions.begin() + 1, positions.end());

    std::printf("generating %zu-link collection: 74.5 h @ %.2f Hz (%zu threads) ...\n",
                kLinks, rate, common::thread_count());
    const std::uint64_t tg = common::trace_now_ns();
    std::vector<data::Dataset> links(kLinks);
    envsim::OfficeSimulator sim(cfg);
    sim.run_links([&](std::uint8_t link, const data::SampleRecord& rec) {
        links[link].push_back(rec);
    });
    std::printf("  %zu samples x %zu links in %.1f s\n\n", links[0].size(),
                kLinks, common::trace_seconds_since(tg));
    report.set_rows(links[0].size() * kLinks);
    report.metric("generate_s", report.elapsed_s());

    const data::Dataset fused = core::fused_dataset(links);
    const data::FoldSplit split = data::split_paper_folds(fused);
    const data::DatasetView fold1 = split.test[0];
    const std::size_t base = static_cast<std::size_t>(
        fold1.records().data() - fused.records().data());
    const std::size_t n = fold1.size();

    core::MultiLinkConfig mcfg;
    mcfg.n_links = kLinks;
    mcfg.resilient.full.train_stride =
        std::max<std::size_t>(1, split.train.size() / 25000);
    mcfg.resilient.fallback.train_stride = mcfg.resilient.full.train_stride;

    const std::uint64_t t0 = common::trace_now_ns();
    core::MultiLinkDetector det(mcfg);
    // Link-dropout-augmented training + per-link amplitude baselines: the
    // model sees every fusion tier at its deployed (re-centered)
    // distribution, and degraded inference re-centers the survivors' mean
    // onto the all-link baseline the model trained on (full fusion frames
    // are fused exactly as fused_dataset builds them).
    det.calibrate_links(links, 0, split.train.size()).throw_if_error();
    const data::Dataset aug_train =
        core::link_dropout_fused(links, 0, split.train.size());
    det.fit(aug_train.view());
    report.metric("train_s", common::trace_seconds_since(t0));

    double acc[kLinks] = {0.0, 0.0, 0.0, 0.0};
    core::ServingPipeline pipe(det);
    std::printf("links-down  alive  accuracy   full    subset  single  other\n");
    for (std::size_t down = 0; down < kLinks; ++down) {
        const std::size_t alive = kLinks - down;
        const Scorer r = evaluate_links_down(
            pipe, links, base, n, alive, faults.active() ? &faults : nullptr);
        const double dn = static_cast<double>(n);
        const double frac[4] = {r.tiers[0] / dn, r.tiers[1] / dn, r.tiers[2] / dn,
                                (r.tiers[3] + r.tiers[4]) / dn};
        acc[down] = 100.0 * static_cast<double>(r.correct) / dn;
        std::printf("%9zu  %5zu  %7.2f%%  %5.1f%%  %5.1f%%  %5.1f%%  %5.1f%%\n",
                    down, alive, acc[down], 100.0 * frac[0], 100.0 * frac[1],
                    100.0 * frac[2], 100.0 * frac[3]);
        char key[64];
        std::snprintf(key, sizeof(key), "acc_pct_links_down_%zu", down);
        report.metric(key, acc[down]);
        std::snprintf(key, sizeof(key), "tier_full_frac_%zu", down);
        report.metric(key, frac[0]);
        std::snprintf(key, sizeof(key), "tier_subset_frac_%zu", down);
        report.metric(key, frac[1]);
        std::snprintf(key, sizeof(key), "tier_single_frac_%zu", down);
        report.metric(key, frac[2]);
        std::snprintf(key, sizeof(key), "wire_frames_decoded_%zu", down);
        report.metric(key, static_cast<double>(r.frames_decoded));
    }

    report.write();

    // The ordering invariant is a clean-wire property; an injected fault plan
    // degrades tiers non-uniformly, so the gate applies to default runs only.
    if (!faults.active() && acc[0] < acc[kLinks - 1]) {
        std::fprintf(stderr,
                     "FAIL: full fusion (%.2f%%) is worse than single link "
                     "(%.2f%%) — fusing %zu looks at the room must not lose "
                     "to one\n",
                     acc[0], acc[kLinks - 1], kLinks);
        return 1;
    }
    std::printf(
        "\nexpected shape: accuracy decays gracefully as links die; the\n"
        "0-down point (full fusion over %zu links) stays at or above the\n"
        "3-down point (the paper's single receiver through the same wire).\n",
        kLinks);
    return 0;
}
