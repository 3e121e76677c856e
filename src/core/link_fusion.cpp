#include "core/link_fusion.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "common/telemetry/sliding_window.hpp"
#include "common/trace.hpp"

namespace wifisense::core {

namespace {

/// Tier names indexed by FusionTier: string literals, so the flight recorder
/// logs them allocation-free.
constexpr const char* kTierNames[] = {"full-fusion", "subset-fusion",
                                      "single-link", "env-only", "stale-hold"};

/// The 60s sliding-window reservoir of model-inference microseconds, keyed
/// on stream time. Registration runs once behind the function-local static.
common::WindowedQuantile& predict_latency_window() {
    static common::WindowedQuantile& window =
        common::obs_windowed_quantile("resilient.predict_us");
    return window;
}

double clamp01(double v) {
    if (!(v > 0.0)) return 0.0;  // also maps NaN to 0
    return v < 1.0 ? v : 1.0;
}

/// One model inference clamped to [0,1], timed into resilient.predict_us
/// when the metric registry is live.
// wifisense-lint: allow-call(predict_latency_window, trace_now_ns) env-gated observability: instrument registration runs once per process behind a function-local static; the clock reads bracket predict_proba and never feed back into the decision
double timed_predict(OccupancyDetector& model, const data::SampleRecord& r) {
    const std::uint64_t t0 =
        common::metrics_enabled() ? common::trace_now_ns() : 0;
    const double p = clamp01(model.predict_proba(r));
    if (t0 != 0)
        predict_latency_window().observe(
            r.timestamp,
            static_cast<double>(common::trace_now_ns() - t0) * 1e-3);
    return p;
}

/// Per-link per-subcarrier amplitude means over rows [row_begin, row_end),
/// skipping non-finite amplitudes (a subcarrier with no finite sample in the
/// window gets baseline 0). Shared by calibrate_links and the link-dropout
/// augmentation so training and inference re-center identically.
std::vector<std::array<double, data::kNumSubcarriers>> link_baselines(
    std::span<const data::Dataset> links, std::size_t row_begin,
    std::size_t row_end) {
    std::vector<std::array<double, data::kNumSubcarriers>> mu(links.size());
    for (std::size_t l = 0; l < links.size(); ++l) {
        const std::size_t end = std::min(row_end, links[l].size());
        if (row_begin >= end)
            throw std::invalid_argument(
                "link_baselines: empty calibration row window");
        std::array<double, data::kNumSubcarriers> sum{};
        std::array<double, data::kNumSubcarriers> cnt{};
        for (std::size_t i = row_begin; i < end; ++i) {
            const auto& csi = links[l][i].csi;
            for (std::size_t k = 0; k < sum.size(); ++k) {
                const double a = static_cast<double>(csi[k]);
                if (std::isfinite(a)) {
                    sum[k] += a;
                    cnt[k] += 1.0;
                }
            }
        }
        for (std::size_t k = 0; k < sum.size(); ++k)
            mu[l][k] = cnt[k] > 0.0 ? sum[k] / cnt[k] : 0.0;
    }
    return mu;
}

std::uint64_t next_draw(std::uint64_t& h) {
    h = common::splitmix64(h + 0x9E3779B97F4A7C15ull);
    return h;
}

double uniform01(std::uint64_t v) {
    return static_cast<double>(v >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(FusionTier tier) {
    const auto i = static_cast<std::size_t>(tier);
    return i < std::size(kTierNames) ? kTierNames[i] : "unknown";
}

ResilientDetector::ResilientDetector(const ResilientConfig& cfg)
    : full_([&] {
          DetectorConfig c = cfg.full;
          c.features = data::FeatureSet::kCsiEnv;
          return c;
      }()),
      fallback_([&] {
          DetectorConfig c = cfg.fallback;
          c.features = data::FeatureSet::kEnv;
          return c;
      }()) {}

nn::TrainHistory ResilientDetector::fit(const data::DatasetView& train) {
    const nn::TrainHistory history = full_.fit(train);
    fallback_.fit(train);
    fitted_ = true;
    return history;
}

MultiLinkDetector::MultiLinkDetector(MultiLinkConfig cfg)
    : cfg_(cfg),
      detector_(cfg.resilient),
      health_(cfg.n_links == 0 ? 1 : cfg.n_links, cfg.link_health),
      csi_health_(cfg.link_health),
      env_health_(cfg.resilient.env_health),
      donors_(cfg.n_links) {
    if (cfg_.n_links == 0)
        throw std::invalid_argument("MultiLinkDetector: zero links");
    if (cfg_.link_health_floor < 0.0 || cfg_.link_health_floor > 1.0)
        throw std::invalid_argument(
            "MultiLinkDetector: link_health_floor outside [0,1]");
    if (cfg_.resilient.csi_health_floor < 0.0 ||
        cfg_.resilient.csi_health_floor > 1.0)
        throw std::invalid_argument(
            "MultiLinkDetector: csi_health_floor outside [0,1]");
    if (cfg_.resilient.stale_confidence_tau_s <= 0.0)
        throw std::invalid_argument(
            "MultiLinkDetector: non-positive stale tau");
}

nn::TrainHistory MultiLinkDetector::fit(const data::DatasetView& fused_train) {
    return detector_.fit(fused_train);
}

common::Status MultiLinkDetector::calibrate_links(
    std::span<const data::Dataset> links, std::size_t row_begin,
    std::size_t row_end) {
    if (links.size() != cfg_.n_links)
        return common::Status(
            common::StatusCode::kInvalidArgument,
            "MultiLinkDetector::calibrate_links: link count != configured "
            "links");
    // Validated up front so link_baselines' throwing guard stays unreachable
    // and a failed call leaves the previous calibration intact.
    for (const auto& d : links)
        if (row_begin >= std::min(row_end, d.size()))
            return common::Status(
                common::StatusCode::kInvalidArgument,
                "MultiLinkDetector::calibrate_links: empty calibration row "
                "window");
    link_mu_ = link_baselines(links, row_begin, row_end);
    all_mu_.fill(0.0);
    for (const auto& m : link_mu_)
        for (std::size_t k = 0; k < all_mu_.size(); ++k) all_mu_[k] += m[k];
    for (double& v : all_mu_) v /= static_cast<double>(cfg_.n_links);
    calibrated_ = true;
    return common::Status::ok();
}

void MultiLinkDetector::reset_stream() {
    health_.reset();
    csi_health_.reset();
    env_health_.reset();
    stats_ = FusionStats{};
    for (data::CsiDonor& d : donors_) d.has = false;
    has_last_env_ = false;
    has_last_decision_ = false;
    last_decision_p_ = 0.5;
    prev_tier_ = FusionTier::kStaleHold;
    has_prev_tier_ = false;
    prev_healthy_mask_ = 0;
}

// wifisense-lint: requires(noalloc, noexcept)
// wifisense-lint: allow-call(obs_gauge) env-gated observability: gauge registration runs once per process behind function-local statics and never feeds back into the decision
FusionDecision MultiLinkDetector::process(const MultiLinkObservation& obs) {
    if (!detector_.fitted())
        // wifisense-lint: allow(ipa.throw-leak) precondition guard: fires only
        // when process() is called before fit(), never on data content
        throw std::logic_error("MultiLinkDetector::process: not fitted");
    if (obs.links.size() != cfg_.n_links)
        // wifisense-lint: allow(ipa.throw-leak) precondition guard: fires only
        // on caller API misuse (wrong links span length), never on data content
        throw std::invalid_argument(
            "MultiLinkDetector: observation link count != configured links");
    stats_.observations++;
    const double t = obs.timestamp;
    const ResilientConfig& rc = cfg_.resilient;

    // ---- Per-link triage and health vote. ----------------------------------
    // A usable frame (clean, or repaired from this link's own donor by the
    // shared data::triage_csi rule) becomes the link's donor; it votes when
    // the link's validity EWMA is above the floor and not stale. Health is
    // observed BEFORE gating so a recovering link earns its vote back.
    std::array<double, data::kNumSubcarriers> sum{};
    std::array<double, data::kNumSubcarriers> mu_used{};
    std::uint32_t used = 0;
    std::uint64_t healthy_mask = 0;
    bool repaired_vote = false;
    for (std::size_t l = 0; l < obs.links.size(); ++l) {
        const LinkFrame& f = obs.links[l];
        data::CsiDonor& donor = donors_[l];
        bool usable = false;
        bool repaired = false;
        if (f.present) {
            stats_.link_frames_seen++;
            std::array<float, data::kNumSubcarriers> csi = f.csi;
            const data::CsiTriage tri = data::triage_csi(csi, t, donor);
            usable = tri.usable();
            if (usable) donor = {true, t, csi};
            repaired = tri.verdict == data::CsiVerdict::kRepaired;
            if (repaired) {
                stats_.csi_values_imputed += tri.nonfinite;
                stats_.csi_frames_repaired++;
            }
        }
        health_.observe(l, t, usable);
        const bool healthy =
            health_.link(l).health() >= cfg_.link_health_floor &&
            !health_.link(l).stale(t);
        if (healthy && l < 64) healthy_mask |= std::uint64_t{1} << l;
        const bool voting = usable && healthy;
        if (f.present && !voting) stats_.link_frames_rejected++;
        if (!voting) continue;
        for (std::size_t k = 0; k < sum.size(); ++k)
            sum[k] += static_cast<double>(donor.csi[k]);
        if (calibrated_)
            for (std::size_t k = 0; k < mu_used.size(); ++k)
                mu_used[k] += link_mu_[l][k];
        repaired_vote = repaired_vote || repaired;
        used++;
    }

    // ---- Fusion. -----------------------------------------------------------
    data::SampleRecord r;
    r.timestamp = t;
    if (used > 0) {
        // Subset re-centering (header comment): shift the survivors' mean
        // onto the all-link baseline. Skipped at full fusion so that path
        // stays bitwise identical with and without calibration.
        const bool recenter = calibrated_ && used < cfg_.n_links;
        const double dn = static_cast<double>(used);
        for (std::size_t k = 0; k < sum.size(); ++k) {
            double v = sum[k] / dn;
            if (recenter) v += all_mu_[k] - mu_used[k] / dn;
            r.csi[k] = static_cast<float>(v);
        }
    }
    csi_health_.observe(t, used > 0);

    // ---- Env triage: fresh reading, else forward-hold within budget. -------
    const bool env_fresh = obs.has_env && std::isfinite(obs.temperature_c) &&
                           std::isfinite(obs.humidity_pct);
    env_health_.observe(t, env_fresh);
    if (env_fresh) {
        last_temp_ = obs.temperature_c;
        last_hum_ = obs.humidity_pct;
        last_env_t_ = t;
        has_last_env_ = true;
    }
    const bool env_held = !env_fresh && has_last_env_ &&
                          t - last_env_t_ <= rc.env_staleness_budget_s;
    if (env_held) stats_.env_ticks_held++;
    const bool env_usable = env_fresh || env_held;
    r.temperature_c = last_temp_;
    r.humidity_pct = last_hum_;

    // ---- Tier, model and confidence. ---------------------------------------
    FusionDecision out;
    DetectorDecision& d = out.base;
    d.csi_health = csi_health_.health();
    d.env_health = env_health_.health();
    d.csi_repaired = repaired_vote;
    d.env_held = env_held;
    out.links_used = used;
    out.mean_link_health = health_.mean_health();

    if (used > 0 && env_usable && d.csi_health >= rc.csi_health_floor) {
        d.probability = timed_predict(detector_.full_model(), r);
        d.confidence =
            clamp01(2.0 * std::abs(d.probability - 0.5) * d.csi_health);
        if (used >= cfg_.n_links) {
            out.tier = FusionTier::kFullFusion;
            stats_.full_fusion++;
        } else if (used == 1) {
            out.tier = FusionTier::kSingleLink;
            stats_.single_link++;
        } else {
            out.tier = FusionTier::kSubsetFusion;
            stats_.subset_fusion++;
        }
        // Confidence decays with the surviving-link count: the fused frame is
        // a mean of `used` looks at the room where the model trained on
        // n_links, so scale by sqrt(used/n) (standard-error growth of a mean
        // losing terms).
        if (used < cfg_.n_links) {
            const double scale = std::sqrt(static_cast<double>(used) /
                                           static_cast<double>(cfg_.n_links));
            d.confidence = std::clamp(d.confidence * scale, 0.0, 1.0);
        }
    } else if (env_usable) {
        out.tier = FusionTier::kEnvOnly;
        stats_.env_only++;
        d.probability = timed_predict(detector_.fallback_model(), r);
        d.confidence =
            clamp01(2.0 * std::abs(d.probability - 0.5) * d.env_health);
    } else {
        // Both streams dark: hold the last model-backed estimate, shrinking
        // it toward the 0.5 prior so a long outage converges to "don't know"
        // instead of confidently repeating stale state.
        out.tier = FusionTier::kStaleHold;
        stats_.stale_hold++;
        if (has_last_decision_) {
            const double age = std::max(0.0, t - last_decision_t_);
            const double decay = std::exp(-age / rc.stale_confidence_tau_s);
            d.probability = clamp01(0.5 + (last_decision_p_ - 0.5) * decay);
            d.confidence = clamp01(2.0 * std::abs(d.probability - 0.5));
        }
    }
    if (out.tier != FusionTier::kStaleHold) {
        has_last_decision_ = true;
        last_decision_t_ = t;
        last_decision_p_ = d.probability;
    }
    d.prediction = d.probability > 0.5 ? 1 : 0;

    // Observability: EWMA health gauges every tick; on the flight recorder,
    // tier transitions (payload: links used) and per-link health-gate flips
    // (a link going stale or below the floor, and coming back — not every
    // missed frame, which the tier event already tells), so a snapshot's
    // recorder tail replays the degradation walk. Never feeds back into the
    // decision.
    if (common::metrics_enabled() || common::trace_enabled()) {
        static common::Gauge& csi_gauge = common::obs_gauge("resilient.csi_health");
        static common::Gauge& env_gauge = common::obs_gauge("resilient.env_health");
        csi_gauge.set(d.csi_health);
        env_gauge.set(d.env_health);
    }
    if (common::flight_enabled()) {
        if (!has_prev_tier_ || prev_tier_ != out.tier)
            common::flight_record(
                "tier", kTierNames[static_cast<std::size_t>(out.tier)], t,
                static_cast<double>(used), static_cast<double>(out.tier));
        const std::uint64_t flips = healthy_mask ^ prev_healthy_mask_;
        if (has_prev_tier_ && flips != 0) {
            for (std::size_t l = 0; l < cfg_.n_links && l < 64; ++l) {
                if ((flips >> l) & 1u)
                    common::flight_record(
                        "link", ((healthy_mask >> l) & 1u) != 0 ? "up" : "down",
                        t, static_cast<double>(l), health_.link(l).health());
            }
        }
    }
    prev_tier_ = out.tier;
    has_prev_tier_ = true;
    prev_healthy_mask_ = healthy_mask;
    return out;
}

data::Dataset fused_dataset(std::span<const data::Dataset> links) {
    if (links.empty())
        throw std::invalid_argument("fused_dataset: no link datasets");
    const std::size_t n = links[0].size();
    for (const auto& d : links) {
        if (d.size() != n)
            throw std::invalid_argument(
                "fused_dataset: link datasets differ in length");
    }
    data::Dataset out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        data::SampleRecord rec = links[0][i];
        std::array<double, data::kNumSubcarriers> sum{};
        for (const auto& d : links) {
            if (d[i].timestamp != rec.timestamp)
                throw std::invalid_argument(
                    "fused_dataset: link timestamps disagree");
            for (std::size_t k = 0; k < sum.size(); ++k)
                sum[k] += static_cast<double>(d[i].csi[k]);
        }
        for (std::size_t k = 0; k < sum.size(); ++k)
            rec.csi[k] = static_cast<float>(sum[k] /
                                            static_cast<double>(links.size()));
        out.push_back(rec);
    }
    return out;
}

data::Dataset link_dropout_fused(std::span<const data::Dataset> links,
                                 std::size_t row_begin, std::size_t row_end,
                                 std::uint64_t seed, double full_fraction) {
    if (links.empty())
        throw std::invalid_argument("link_dropout_fused: no link datasets");
    const std::size_t n_links = links.size();
    const std::size_t n = links[0].size();
    for (const auto& d : links) {
        if (d.size() != n)
            throw std::invalid_argument(
                "link_dropout_fused: link datasets differ in length");
    }
    const std::size_t end = std::min(row_end, n);
    if (row_begin >= end)
        throw std::invalid_argument("link_dropout_fused: empty row window");

    const auto mu = link_baselines(links, row_begin, end);
    std::array<double, data::kNumSubcarriers> all_mu{};
    for (const auto& m : mu)
        for (std::size_t k = 0; k < all_mu.size(); ++k) all_mu[k] += m[k];
    for (double& v : all_mu) v /= static_cast<double>(n_links);

    data::Dataset out;
    out.reserve(end - row_begin);
    std::vector<std::size_t> order(n_links);
    for (std::size_t i = row_begin; i < end; ++i) {
        data::SampleRecord rec = links[0][i];
        // Subset draw: pure function of (seed, row) via its own substream.
        std::uint64_t h = common::substream_seed(seed, i);
        std::size_t used = n_links;
        std::iota(order.begin(), order.end(), std::size_t{0});
        if (n_links > 1 && uniform01(next_draw(h)) >= full_fraction) {
            used = 1 + static_cast<std::size_t>(next_draw(h) % (n_links - 1));
            for (std::size_t j = 0; j + 1 < n_links && j < used; ++j) {
                const std::size_t pick =
                    j + static_cast<std::size_t>(next_draw(h) % (n_links - j));
                std::swap(order[j], order[pick]);
            }
        }

        std::array<double, data::kNumSubcarriers> sum{};
        std::array<double, data::kNumSubcarriers> mu_used{};
        for (std::size_t j = 0; j < used; ++j) {
            const data::SampleRecord& src = links[order[j]][i];
            if (src.timestamp != rec.timestamp)
                throw std::invalid_argument(
                    "link_dropout_fused: link timestamps disagree");
            for (std::size_t k = 0; k < sum.size(); ++k) {
                sum[k] += static_cast<double>(src.csi[k]);
                mu_used[k] += mu[order[j]][k];
            }
        }
        // Same mean + re-centering arithmetic as the inference path.
        const double dn = static_cast<double>(used);
        for (std::size_t k = 0; k < sum.size(); ++k) {
            double v = sum[k] / dn;
            if (used < n_links) v += all_mu[k] - mu_used[k] / dn;
            rec.csi[k] = static_cast<float>(v);
        }
        out.push_back(rec);
    }
    return out;
}

}  // namespace wifisense::core
