#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "data/simtime.hpp"
#include "envsim/simulation.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace wifisense;

std::vector<RoomSpec> training_rooms(std::uint64_t seed) {
    std::vector<RoomSpec> rooms;
    for (std::uint64_t k = 0; k < 8; ++k)
        rooms.push_back(RoomSpec{mix64(seed * 2 + 0) ^ (k << 48) ^ k,
                                 data::kCollectionStart, 24.0 * 3600.0, 0.1});
    return rooms;
}

std::vector<RoomSpec> scored_rooms(std::uint64_t seed, std::size_t count) {
    std::vector<RoomSpec> rooms;
    for (std::uint64_t r = 0; r < count; ++r)
        rooms.push_back(RoomSpec{mix64(seed * 2 + 1) ^ (r << 40) ^ (r + 1),
                                 data::kSecondsPerDay + 2.0 * 3600.0 + 8.0 * 60.0,
                                 12.0 * 3600.0, 0.125});
    return rooms;
}

std::vector<LinkSet> simulate_rooms(const std::vector<RoomSpec>& specs,
                                    std::size_t threads, double* rows_per_s) {
    std::vector<LinkSet> rooms(specs.size(), LinkSet(kLinks));
    const PoolThreads pool(threads);
    const std::uint64_t t0 = common::trace_now_ns();
    // One room per task; each room's run_links then runs inline on its
    // worker, so rooms proceed in parallel with bitwise-identical output.
    common::parallel_for(specs.size(), [&](std::size_t r) {
        envsim::SimulationConfig cfg =
            envsim::paper_config(specs[r].rate_hz, specs[r].seed);
        cfg.start_timestamp = specs[r].start_s;
        cfg.duration_s = specs[r].duration_s;
        const std::vector<csi::Vec3> pos =
            envsim::default_link_positions(cfg.room, kLinks);
        cfg.extra_rx.assign(pos.begin() + 1, pos.end());
        envsim::OfficeSimulator sim(cfg);
        LinkSet& links = rooms[r];
        sim.run_links([&links](std::uint8_t l, const data::SampleRecord& rec) {
            links[l].push_back(rec);
        });
    });
    const double secs = common::trace_seconds_since(t0);
    double rows = 0.0;
    for (const LinkSet& room : rooms)
        for (const data::Dataset& link : room) rows += static_cast<double>(link.size());
    if (rows_per_s != nullptr) *rows_per_s = rows / secs;
    return rooms;
}

LinkSet concat_rooms(std::vector<LinkSet>&& rooms) {
    LinkSet out(kLinks);
    for (std::size_t l = 0; l < kLinks; ++l) {
        std::size_t n = 0;
        for (const LinkSet& room : rooms) n += room[l].size();
        out[l].records().reserve(n);
        for (LinkSet& room : rooms) {
            for (const data::SampleRecord& rec : room[l].records()) out[l].push_back(rec);
            room[l] = data::Dataset{};  // release as we go
        }
    }
    rooms.clear();
    return out;
}

data::Dataset augmented_training_set(const LinkSet& train, std::uint64_t seed) {
    return core::link_dropout_fused(train, 0, static_cast<std::size_t>(-1),
                                    mix64(seed ^ 0xA06));
}

PoolThreads::PoolThreads(std::size_t threads) {
    common::set_execution_config(common::ExecutionConfig{threads});
}

PoolThreads::~PoolThreads() {
    common::set_execution_config(common::ExecutionConfig{1});
}

double macs_per_sample(nn::Mlp& net) {
    double macs = 0.0;
    for (const nn::ParamView& p : net.parameters())
        if (p.name == "weight") macs += static_cast<double>(p.values.size());
    return macs;
}

void EpochTimes::add(const EpochTimes& fit) {
    full_s.insert(full_s.end(), fit.full_s.begin(), fit.full_s.end());
    fallback_s.insert(fallback_s.end(), fit.fallback_s.begin(), fit.fallback_s.end());
    rows = fit.rows;
    flops_per_row = fit.flops_per_row;
}

double EpochTimes::samples_per_s() const {
    const double t = median(full_s) + median(fallback_s);
    return t > 0.0 ? 2.0 * rows / t : 0.0;
}

double EpochTimes::gflops() const {
    return samples_per_s() * flops_per_row * 0.5 * 1e-9;
}

Fitted fit_detector(const LinkSet& train, const data::Dataset& augmented) {
    // Per-network epoch clocks. The callbacks live in the detector's config
    // for its whole life, so they share ownership of the clock state.
    struct Clock {
        std::uint64_t last_ns = 0;
        std::vector<double> full_s, fallback_s;
    };
    const auto clock = std::make_shared<Clock>();
    const auto tick = [clock](bool full) {
        return [clock, full](std::size_t epoch, double) {
            const std::uint64_t now = common::trace_now_ns();
            if (epoch > 0)
                (full ? clock->full_s : clock->fallback_s)
                    .push_back(static_cast<double>(now - clock->last_ns) * 1e-9);
            clock->last_ns = now;
        };
    };
    core::MultiLinkConfig cfg;
    cfg.n_links = kLinks;
    cfg.resilient.full.train_stride = 20;
    cfg.resilient.fallback.train_stride = 20;
    cfg.resilient.full.training.on_epoch = tick(true);
    cfg.resilient.fallback.training.on_epoch = tick(false);

    Fitted out;
    out.det = std::make_unique<core::MultiLinkDetector>(cfg);
    out.det->calibrate_links(train).throw_if_error();
    {
        common::TraceScope span("core.link_fusion.fit");
        const std::uint64_t t0 = common::trace_now_ns();
        out.det->fit(augmented.view());
        out.fit_s = common::trace_seconds_since(t0);
    }
    core::ResilientDetector& rd = out.det->detector();
    out.epochs.rows = std::ceil(static_cast<double>(augmented.size()) /
                                static_cast<double>(cfg.resilient.full.train_stride));
    out.epochs.flops_per_row = 6.0 * (macs_per_sample(rd.full_model().network()) +
                                      macs_per_sample(rd.fallback_model().network()));
    out.epochs.full_s = clock->full_s;
    out.epochs.fallback_s = clock->fallback_s;
    return out;
}

double Confusion::balanced_accuracy() const {
    const double tpr = pos > 0 ? static_cast<double>(tp) / static_cast<double>(pos) : 0.0;
    const double tnr = neg > 0 ? static_cast<double>(tn) / static_cast<double>(neg) : 0.0;
    return 0.5 * (tpr + tnr);
}

double Confusion::positive_share() const {
    const std::uint64_t n = pos + neg;
    return n > 0 ? static_cast<double>(pos) / static_cast<double>(n) : 0.0;
}

void check_accuracy(const Confusion& c, const char* what, Result& res) {
    const double share = c.positive_share();
    std::printf("%-26s %10s %10s %10s\n", what, "bal.acc", "accuracy", "rows");
    const double n = static_cast<double>(c.pos + c.neg);
    std::printf("%-26s %10.4f %10.4f %10llu\n", "  detector", c.balanced_accuracy(),
                n > 0 ? static_cast<double>(c.tp + c.tn) / n : 0.0,
                static_cast<unsigned long long>(c.pos + c.neg));
    std::printf("%-26s %10.4f %10.4f\n", "  constant 'occupied'", 0.5, share);
    std::printf("%-26s %10.4f %10.4f\n", "  constant 'empty'", 0.5, 1.0 - share);
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "%s: both classes >= 20%% of scored rows (occupied %.3f)", what,
                  share);
    res.check(share >= 0.2 && share <= 0.8, msg);
    std::snprintf(msg, sizeof(msg),
                  "%s: balanced accuracy %.4f clearly above constant 0.5 (>= 0.6)",
                  what, c.balanced_accuracy());
    res.check(c.balanced_accuracy() >= 0.6, msg);
}

data::Dataset fuse_rooms(const std::vector<LinkSet>& rooms) {
    data::Dataset out;
    for (const LinkSet& room : rooms) {
        const data::Dataset fused = core::fused_dataset(room);
        for (const data::SampleRecord& rec : fused.records()) out.push_back(rec);
    }
    return out;
}

ScoreOutcome score_full_model(core::MultiLinkDetector& det, const data::Dataset& fused,
                              std::size_t single_rows) {
    ScoreOutcome out;
    core::OccupancyDetector& full = det.detector().full_model();
    out.predictions.reserve(fused.size());
    const std::span<const data::SampleRecord> rows(fused.records());
    for (std::size_t begin = 0; begin < rows.size(); begin += kEvalBatch) {
        const std::size_t n = std::min(kEvalBatch, rows.size() - begin);
        common::TraceScope span("core.occupancy_detector.predict");
        const std::uint64_t t0 = common::trace_now_ns();
        const std::vector<int> pred = full.predict(data::DatasetView(rows.subspan(begin, n)));
        if (n == kEvalBatch) out.batch_s.push_back(common::trace_seconds_since(t0));
        out.predictions.insert(out.predictions.end(), pred.begin(), pred.end());
    }
    out.flops_per_row = 2.0 * macs_per_sample(full.network());
    for (std::size_t i = 0; i < fused.size(); ++i)
        out.confusion.add(fused[i].occupancy, out.predictions[i]);

    const std::size_t n = std::min(single_rows, fused.size());
    out.single_us.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t t0 = common::trace_now_ns();
        const double p = full.predict_proba(fused[i]);
        out.single_us[i] = static_cast<double>(common::trace_now_ns() - t0) * 1e-3;
        out.contract_violations += std::isfinite(p) && p >= 0.0 && p <= 1.0 ? 0 : 1;
        out.disagreements += (p > 0.5 ? 1 : 0) == out.predictions[i] ? 0 : 1;
    }
    return out;
}

void report_fit_layers(const SpanTable& spans, const EpochTimes& epochs,
                       double fit_s_total, std::size_t fits, Result& res) {
    const SpanTable::Row step = spans.get("train.step");
    res.set("nn.train.step_us",
            step.count > 0 ? step.total_ns * 1e-3 / static_cast<double>(step.count) : 0.0,
            "us");
    res.set("nn.train.gflops", epochs.gflops(), "GFLOP/s");
    res.set("core.link_fusion.fit_s",
            fits > 0 ? fit_s_total / static_cast<double>(fits) : 0.0, "s");
}

void report_pool_layers(const LinkSet& train, const data::Dataset& augmented,
                        std::size_t threads, double one_thread_fit_s, SpanTable& spans,
                        Result& res) {
    double fit_s = 0.0;
    {
        const PoolThreads pool(threads);
        start_tracing(threads);
        fit_s = fit_detector(train, augmented).fit_s;
        spans.absorb_trace();
        common::trace_disable();
    }
    const SpanTable::Row chunk = spans.get("pool.chunk");
    res.set("common.parallel.busy_frac",
            chunk.total_ns * 1e-9 / (fit_s * static_cast<double>(threads)), "ratio");
    res.set("common.parallel.chunks", static_cast<double>(chunk.count), "count");
    res.set("common.parallel.fit_speedup", one_thread_fit_s / fit_s, "ratio");
}

}  // namespace perfbench
