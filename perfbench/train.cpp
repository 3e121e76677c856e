// train: fit the MultiLinkDetector on a fixed link-dropout-fused training
// set, then score held-out rooms (batch-4096 predict plus single-record
// predict_proba), repeatedly for the run's time budget. No wire, no fusion
// ladder in the timed loop.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/trace.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace wifisense;

namespace {

constexpr std::size_t kHeldOutRooms = 8;
constexpr int kSetups = 3;

struct TrainInputs {
    LinkSet train;
    data::Dataset augmented;
    std::vector<LinkSet> held_out;
    data::Dataset fused_held_out;
    double rows_per_s = 0.0;
};

TrainInputs set_up(const RunConfig& cfg) {
    TrainInputs in;
    std::vector<RoomSpec> specs = training_rooms(cfg.seed);
    const std::size_t n_train = specs.size();
    for (const RoomSpec& s : scored_rooms(cfg.seed, kHeldOutRooms)) specs.push_back(s);
    std::vector<LinkSet> rooms = simulate_rooms(specs, cfg.threads, &in.rows_per_s);
    in.held_out.assign(std::make_move_iterator(rooms.begin() + n_train),
                       std::make_move_iterator(rooms.end()));
    rooms.resize(n_train);
    in.train = concat_rooms(std::move(rooms));
    in.augmented = augmented_training_set(in.train, cfg.seed);
    in.fused_held_out = fuse_rooms(in.held_out);
    return in;
}

struct Iteration {
    double fit_s = 0.0;
    ScoreOutcome score;
    std::uint64_t digest = 0;
};

}  // namespace

int run_train(const RunConfig& cfg, Result& res) {
    // The host's speed is sampled between the timed phases (see HostSpeed).
    HostSpeed host;
    host.sample();
    std::vector<double> setup_s, rows_rate;
    TrainInputs in;
    for (int k = 0; k < kSetups; ++k) {
        in = TrainInputs{};  // free the previous set-up before building anew
        const std::uint64_t t0 = common::trace_now_ns();
        in = set_up(cfg);
        setup_s.push_back(common::trace_seconds_since(t0));
        rows_rate.push_back(in.rows_per_s);
        std::printf("setup %d: %.3f s (%zu training rows, %zu held-out rows)\n", k,
                    setup_s.back(), in.augmented.size(), in.fused_held_out.size());
        host.sample();
    }

    // Timed loop: fit + score. In a traced run, odd iterations record spans.
    std::vector<Iteration> untraced, traced;
    EpochTimes epochs_off, epochs_on;
    SpanTable spans;
    std::unique_ptr<core::MultiLinkDetector> det;
    const std::uint64_t t_loop = common::trace_now_ns();
    for (int k = 0;; ++k) {
        const bool trace_this = cfg.trace && k % 2 == 1;
        Iteration it;
        if (trace_this) start_tracing(cfg.threads);
        Fitted fitted = fit_detector(in.train, in.augmented);
        (trace_this ? epochs_on : epochs_off).add(fitted.epochs);
        det = std::move(fitted.det);
        it.fit_s = fitted.fit_s;
        if (trace_this) spans.absorb_trace();
        it.score = score_full_model(*det, in.fused_held_out, in.fused_held_out.size());
        if (trace_this) {
            spans.absorb_trace();
            common::trace_disable();
        }
        for (int p : it.score.predictions) it.digest = digest_add(it.digest, p);
        std::printf("iteration %d%s: fit %.3f s, batch predict %.0f samples/s\n", k,
                    trace_this ? " (traced)" : "", it.fit_s,
                    static_cast<double>(kEvalBatch) / median(it.score.batch_s));
        host.sample();
        (trace_this ? traced : untraced).push_back(std::move(it));
        const bool enough = untraced.size() >= 3 && (!cfg.trace || !traced.empty());
        if (enough && common::trace_seconds_since(t_loop) >= cfg.seconds) break;
    }

    const Iteration& first = untraced.front();
    bool same = true;
    std::uint64_t violations = 0, disagreements = 0, scored = 0;
    for (const std::vector<Iteration>* set : {&untraced, &traced})
        for (const Iteration& it : *set) {
            same = same && it.digest == first.digest;
            violations += it.score.contract_violations;
            disagreements += it.score.disagreements;
            scored += it.score.predictions.size();
        }
    res.attempted = scored;
    res.failed = violations;
    std::printf("iterations: %zu untraced, %zu traced\n", untraced.size(), traced.size());
    res.check(same, "batch predictions identical across repeated fits");
    res.check(violations == 0, "predict_proba outputs are finite and in [0,1]");
    res.check(disagreements * 1000 <= scored,
              "single-record predict_proba agrees with batch predict (>= 99.9%)");
    check_accuracy(first.score.confusion, "train (held-out)", res);
    const double speed = host.factor();
    std::printf("host speed: %.4f of nominal (timed end-to-end metrics are scaled to "
                "nominal)\n",
                speed);

    std::vector<double> batch_s, single_rate, p50, p99, proba_us;
    for (const Iteration& it : untraced) {
        batch_s.insert(batch_s.end(), it.score.batch_s.begin(), it.score.batch_s.end());
        double sum_us = 0.0;
        for (double us : it.score.single_us) sum_us += us;
        single_rate.push_back(static_cast<double>(it.score.single_us.size()) /
                              (sum_us * 1e-6));
        p50.push_back(quantile(it.score.single_us, 0.50));
        p99.push_back(quantile(it.score.single_us, 0.99));
    }
    if (!cfg.trace) {
        res.set("decisions_per_s", median(single_rate) / speed, "decisions/s");
        res.set("instant_latency_p50_us", median(p50) * speed, "us");
        res.set("instant_latency_p99_us", median(p99) * speed, "us");
        res.set("balanced_accuracy", first.score.confusion.balanced_accuracy(), "ratio");
        res.set("train_samples_per_s", epochs_off.samples_per_s() / speed, "samples/s");
        res.set("eval_samples_per_s", static_cast<double>(kEvalBatch) / median(batch_s) / speed,
                "samples/s");
        res.set("setup_s", median(setup_s) * speed, "s");
        res.set("peak_rss_mib", peak_rss_mib(), "MiB");
        return 0;
    }

    // Per-layer figures. Fit and predict layers come from the traced
    // iterations; the serving layers from one traced clean wire pass over
    // the held-out rooms, outside the timed loop.
    double fit_s = 0.0;
    for (const Iteration& it : traced) fit_s += it.fit_s;
    std::vector<double> untraced_fit_s;
    for (const Iteration& it : untraced) untraced_fit_s.push_back(it.fit_s);
    print_spans(spans, "fits and batch scoring (traced)");
    report_fit_layers(spans, epochs_on, fit_s, traced.size(), res);
    SpanTable pool_spans;
    report_pool_layers(in.train, in.augmented, cfg.threads, median(untraced_fit_s), pool_spans,
                       res);
    res.set("nn.predict.batch_gflops",
            static_cast<double>(kEvalBatch) * first.score.flops_per_row / median(batch_s) *
                1e-9,
            "GFLOP/s");
    res.set("core.occupancy_detector.predict_proba_us", median(p50), "us");
    res.set("envsim.link_rows_per_s", median(rows_rate), "rows/s");
    res.set("trace_overhead_pct",
            (epochs_off.samples_per_s() / epochs_on.samples_per_s() - 1.0) * 100.0, "%");

    double encode_ns = 0.0;
    const std::vector<WireRoom> wire = encode_rooms(in.held_out, nullptr, &encode_ns);
    res.set("data.telemetry.encode_ns_per_frame", encode_ns, "ns");
    res.set("common.crc32.ns_per_frame", crc_ns_per_frame(wire, true, res), "ns");
    Replay replay(*det);
    SpanTable wire_spans;
    start_tracing(cfg.threads);
    const PassStats pass = replay.pass(wire, &wire_spans);
    common::trace_disable();
    PassStats total;
    add_counts(total, pass);
    print_spans(wire_spans, "held-out clean wire pass (traced)");
    report_serve_layers(wire_spans, total, pass, res);
    res.check(pass.failed_instants == 0 && pass.accounting_errors == 0 && pass.defects == 0,
              "held-out clean wire pass: one decision per instant, clean decode");
    const std::uint64_t dropped =
        spans.dropped() + wire_spans.dropped() + pool_spans.dropped();
    res.set("trace.dropped_spans", static_cast<double>(dropped), "count");
    res.check(dropped == 0, "no trace span lost to ring wrap");
    return 0;
}

}  // namespace perfbench
