// serve_clean / serve_faulty: set up (train the detector, simulate and
// encode the served rooms) three times, then replay the rooms' wire bytes
// closed-loop on one core for the run's time budget.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/fault.hpp"
#include "common/trace.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace wifisense;

namespace {

constexpr std::size_t kServedRooms = 16;
constexpr int kSetups = 3;
/// Single-record predict_proba calls timed during set-up scoring.
constexpr std::size_t kSingleRows = 4096;

/// Wire faults of serve_faulty, per link: outages of 300 s about six times
/// an hour, plus byte corruption, truncation, reordering, duplication and
/// per-link clock skew.
constexpr const char* kFaultSpec =
    "link_outage_rate=6,link_outage_len=300,wire_corrupt=0.05,"
    "wire_truncate=0.02,wire_reorder=0.05,wire_duplicate=0.05,link_skew=0.2";

/// Everything one set-up builds and the serving phase uses.
struct Deployment {
    std::unique_ptr<core::MultiLinkDetector> det;
    std::vector<WireRoom> rooms;
    std::uint64_t wire_digest = 0;
    std::uint64_t model_digest = 0;
    /// Kept for the traced run's pool probe only.
    LinkSet train;
    data::Dataset augmented;
};

struct SetupTimes {
    double total_s = 0.0;
    double rows_per_s = 0.0;
    double encode_ns = 0.0;
    double sim_s = 0.0;
    double fit_s = 0.0;
    ScoreOutcome score;
};

Deployment set_up(const RunConfig& cfg, const common::FaultPlan* plan,
                  SpanTable* fit_spans, EpochTimes& epochs, SetupTimes& t) {
    const std::uint64_t t0 = common::trace_now_ns();
    Deployment dep;
    std::vector<RoomSpec> specs = training_rooms(cfg.seed);
    const std::size_t n_train = specs.size();
    for (const RoomSpec& s : scored_rooms(cfg.seed, kServedRooms)) specs.push_back(s);
    std::vector<LinkSet> rooms = simulate_rooms(specs, cfg.threads, &t.rows_per_s);
    std::vector<LinkSet> served(std::make_move_iterator(rooms.begin() + n_train),
                                std::make_move_iterator(rooms.end()));
    rooms.resize(n_train);
    t.sim_s = common::trace_seconds_since(t0);

    {
        LinkSet train = concat_rooms(std::move(rooms));
        data::Dataset augmented = augmented_training_set(train, cfg.seed);
        if (fit_spans != nullptr) start_tracing(cfg.threads);
        Fitted fitted = fit_detector(train, augmented);
        epochs.add(fitted.epochs);
        if (fit_spans != nullptr) fit_spans->absorb_trace();
        common::trace_disable();
        dep.det = std::move(fitted.det);
        t.fit_s = fitted.fit_s;
        if (cfg.trace) {
            dep.train = std::move(train);
            dep.augmented = std::move(augmented);
        }
    }

    // Offline reference: the full model's batch predictions on the fused
    // served rows, which clean full-fusion serving must reproduce.
    const data::Dataset fused = fuse_rooms(served);
    t.score = score_full_model(*dep.det, fused, kSingleRows);
    for (int p : t.score.predictions) dep.model_digest = digest_add(dep.model_digest, p);

    dep.rooms = encode_rooms(served, plan, &t.encode_ns);
    served.clear();
    std::size_t row = 0;
    for (WireRoom& w : dep.rooms) {
        w.offline.resize(w.instants);
        for (std::uint32_t i = 0; i < w.instants; ++i)
            w.offline[i] = static_cast<std::uint8_t>(t.score.predictions[row++]);
    }
    dep.wire_digest = wire_digest(dep.rooms);
    t.total_s = common::trace_seconds_since(t0);
    return dep;
}

}  // namespace

int run_serve(const RunConfig& cfg, Result& res) {
    const bool faulty = cfg.workload == "serve_faulty";
    common::FaultPlan plan;
    if (faulty) {
        auto parsed = common::parse_fault_spec(kFaultSpec);
        if (!parsed.is_ok()) {
            std::fprintf(stderr, "perfbench: %s\n", parsed.status().to_string().c_str());
            return 2;
        }
        common::FaultConfig fc = parsed.value();
        fc.seed = mix64(cfg.seed ^ 0xFA17);
        plan = common::FaultPlan(fc);
        std::printf("fault plan: %s\n", common::to_spec(plan.config()).c_str());
    }

    // Set-up, several times: setup_s is the median, and every set-up must
    // rebuild bitwise the same wire and model. The host's speed is sampled
    // between the timed phases (see HostSpeed).
    HostSpeed host;
    host.sample();
    SpanTable fit_spans;
    EpochTimes epochs;
    std::vector<double> setup_s, batch_s, rows_rate, encode_ns, proba_us, fit_s;
    double flops_per_row = 0.0;
    Deployment dep;
    std::uint64_t first_wire = 0, first_model = 0;
    bool setups_agree = true;
    for (int k = 0; k < kSetups; ++k) {
        dep = Deployment{};  // free the previous set-up before building anew
        SetupTimes t;
        dep = set_up(cfg, faulty ? &plan : nullptr, cfg.trace ? &fit_spans : nullptr,
                     epochs, t);
        host.sample();
        setup_s.push_back(t.total_s);
        batch_s.insert(batch_s.end(), t.score.batch_s.begin(), t.score.batch_s.end());
        flops_per_row = t.score.flops_per_row;
        rows_rate.push_back(t.rows_per_s);
        encode_ns.push_back(t.encode_ns);
        proba_us.push_back(median(t.score.single_us));
        fit_s.push_back(t.fit_s);
        std::printf("setup %d: %.3f s (simulate %.3f s, fit %.3f s, %zu served rows)\n",
                    k, t.total_s, t.sim_s, t.fit_s, t.score.predictions.size());
        if (k == 0) {
            first_wire = dep.wire_digest;
            first_model = dep.model_digest;
        } else {
            setups_agree = setups_agree && dep.wire_digest == first_wire &&
                           dep.model_digest == first_model;
        }
        if (k == kSetups - 1) {
            res.check(t.score.contract_violations == 0,
                      "offline predict_proba outputs are finite and in [0,1]");
            res.check(t.score.disagreements * 1000 <= t.score.single_us.size(),
                      "single-record predict_proba agrees with batch predict (>= 99.9%)");
        }
    }
    res.check(setups_agree, "every set-up rebuilds identical wire bytes and model outputs");

    // Serving: closed loop, one core. A short untimed warm-up room first.
    Replay replay(*dep.det);
    {
        const std::vector<WireRoom> warm(dep.rooms.begin(), dep.rooms.begin() + 1);
        (void)replay.pass(warm, nullptr);
    }
    std::vector<PassStats> untraced, traced;
    SpanTable serve_spans;
    PassStats traced_total;
    const std::uint64_t t_serve = common::trace_now_ns();
    for (int k = 0;; ++k) {
        const bool trace_this = cfg.trace && k % 2 == 1;
        if (trace_this) {
            start_tracing(cfg.threads);
            traced.push_back(replay.pass(dep.rooms, &serve_spans));
            common::trace_disable();
            add_counts(traced_total, traced.back());
        } else {
            untraced.push_back(replay.pass(dep.rooms, nullptr));
        }
        host.sample();
        const PassStats& p = trace_this ? traced.back() : untraced.back();
        std::printf("pass %d%s: %.0f decisions/s, p50 %.3f us, p99 %.3f us\n", k,
                    trace_this ? " (traced)" : "",
                    static_cast<double>(p.decisions) / p.seconds, p.latency_p50_us,
                    p.latency_p99_us);
        const bool enough = untraced.size() >= 2 && (!cfg.trace || !traced.empty());
        if (enough && common::trace_seconds_since(t_serve) >= cfg.seconds) break;
    }

    // Output checks over every pass.
    const PassStats& first = untraced.front();
    bool same_digest = true;
    std::uint64_t failed = 0, misjoined = 0, accounting = 0, late = 0, instants = 0;
    for (const std::vector<PassStats>* set : {&untraced, &traced})
        for (const PassStats& p : *set) {
            same_digest = same_digest && p.digest == first.digest;
            failed += p.failed_instants;
            misjoined += p.misjoined;
            accounting += p.accounting_errors;
            late += p.late_frames;
            instants += p.instants;
        }
    res.attempted = instants;
    res.failed = failed;
    std::printf("passes: %zu untraced, %zu traced; %llu instants per pass\n",
                untraced.size(), traced.size(),
                static_cast<unsigned long long>(first.instants));
    res.check(same_digest, "decision digest (room, sequence, tier, prediction) "
                           "identical across passes");
    res.check(failed == 0, "every offered instant got exactly one decision within "
                           "the process() contract");
    res.check(misjoined == 0, "present frames of every fused instant share one sequence");
    res.check(accounting == 0,
              "decoder accounting: frames x 308 + skipped == consumed == wire bytes");
    const std::uint64_t* tiers = first.tiers;
    std::printf("tiers: full %llu subset %llu single %llu env-only %llu stale-hold %llu\n",
                static_cast<unsigned long long>(tiers[0]),
                static_cast<unsigned long long>(tiers[1]),
                static_cast<unsigned long long>(tiers[2]),
                static_cast<unsigned long long>(tiers[3]),
                static_cast<unsigned long long>(tiers[4]));
    if (faulty) {
        res.check(tiers[1] > 0 && tiers[2] > 0 && tiers[3] > 0,
                  "serve_faulty reaches the subset, single and env-only tiers");
        res.check(first.defects > 0 && first.gaps > 0,
                  "serve_faulty wire shows decoder defects and reassembly gaps");
    } else {
        res.check(late == 0, "serve_clean: no frame reached the aligner after its "
                             "instant was released");
        res.check(first.defects == 0 && first.bytes_skipped == 0,
                  "serve_clean decodes with zero defects");
        res.check(tiers[0] == first.decisions,
                  "serve_clean decides every instant at full fusion");
        const double agree = first.offline_total > 0
                                 ? static_cast<double>(first.offline_agree) /
                                       static_cast<double>(first.offline_total)
                                 : 0.0;
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "serve_clean decisions match offline batch predictions "
                      "(%.5f >= 0.999)",
                      agree);
        res.check(agree >= 0.999, msg);
    }
    check_accuracy(first.confusion, cfg.workload.c_str(), res);
    const double crc_ns = crc_ns_per_frame(dep.rooms, !faulty, res);
    const double speed = host.factor();
    std::printf("host speed: %.4f of nominal (timed end-to-end metrics are scaled to "
                "nominal)\n",
                speed);

    if (!cfg.trace) {
        std::vector<double> rate, p50, p99;
        for (const PassStats& p : untraced) {
            rate.push_back(static_cast<double>(p.decisions) / p.seconds);
            p50.push_back(p.latency_p50_us);
            p99.push_back(p.latency_p99_us);
        }
        res.set("decisions_per_s", median(rate) / speed, "decisions/s");
        res.set("instant_latency_p50_us", median(p50) * speed, "us");
        res.set("instant_latency_p99_us", median(p99) * speed, "us");
        res.set("balanced_accuracy", first.confusion.balanced_accuracy(), "ratio");
        res.set("train_samples_per_s", epochs.samples_per_s() / speed, "samples/s");
        res.set("eval_samples_per_s", static_cast<double>(kEvalBatch) / median(batch_s) / speed,
                "samples/s");
        res.set("setup_s", median(setup_s) * speed, "s");
        res.set("peak_rss_mib", peak_rss_mib(), "MiB");
        return 0;
    }

    print_spans(fit_spans, "set-up fits (traced)");
    print_spans(serve_spans, "serving passes (traced)");
    report_serve_layers(serve_spans, traced_total, first, res);
    res.set("common.crc32.ns_per_frame", crc_ns, "ns");
    res.set("core.occupancy_detector.predict_proba_us", median(proba_us), "us");
    double fit_s_sum = 0.0;
    for (double f : fit_s) fit_s_sum += f;
    report_fit_layers(fit_spans, epochs, fit_s_sum, kSetups, res);
    SpanTable pool_spans;
    report_pool_layers(dep.train, dep.augmented, cfg.threads, median(fit_s), pool_spans, res);
    res.set("nn.predict.batch_gflops",
            static_cast<double>(kEvalBatch) * flops_per_row / median(batch_s) * 1e-9,
            "GFLOP/s");
    res.set("envsim.link_rows_per_s", median(rows_rate), "rows/s");
    res.set("data.telemetry.encode_ns_per_frame", median(encode_ns), "ns");
    std::vector<double> off_rate, on_rate;
    for (const PassStats& p : untraced)
        off_rate.push_back(static_cast<double>(p.decisions) / p.seconds);
    for (const PassStats& p : traced)
        on_rate.push_back(static_cast<double>(p.decisions) / p.seconds);
    res.set("trace_overhead_pct", (median(off_rate) / median(on_rate) - 1.0) * 100.0, "%");
    const std::uint64_t dropped =
        fit_spans.dropped() + serve_spans.dropped() + pool_spans.dropped();
    res.set("trace.dropped_spans", static_cast<double>(dropped), "count");
    res.check(dropped == 0, "no trace span lost to ring wrap");
    return 0;
}

}  // namespace perfbench
