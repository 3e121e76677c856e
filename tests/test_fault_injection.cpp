// Fault-injection layer: determinism of the plan, the bitwise-identity
// guarantees of the simulator hooks, quarantine/imputation accounting, and
// the detector degradation ladder (single-link walk and per-link repair).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/telemetry/flight_recorder.hpp"
#include "core/link_fusion.hpp"
#include "core/stream_health.hpp"
#include "data/record_validator.hpp"
#include "envsim/simulation.hpp"

namespace common = wifisense::common;
namespace core = wifisense::core;
namespace data = wifisense::data;
namespace envsim = wifisense::envsim;

namespace {

/// Short collection (2 h at 2 Hz) for the simulator-level checks.
envsim::SimulationConfig short_config() {
    envsim::SimulationConfig cfg = envsim::paper_config(2.0, 7);
    cfg.duration_s = 2.0 * 3600.0;
    return cfg;
}

bool records_equal(const data::SampleRecord& a, const data::SampleRecord& b) {
    return std::memcmp(&a.timestamp, &b.timestamp, sizeof(double)) == 0 &&
           std::memcmp(a.csi.data(), b.csi.data(),
                       a.csi.size() * sizeof(float)) == 0 &&
           std::memcmp(&a.temperature_c, &b.temperature_c, sizeof(float)) == 0 &&
           std::memcmp(&a.humidity_pct, &b.humidity_pct, sizeof(float)) == 0 &&
           a.occupant_count == b.occupant_count && a.occupancy == b.occupancy &&
           a.activity == b.activity;
}

struct ThreadGuard {
    explicit ThreadGuard(std::size_t n) {
        common::set_execution_config({n});
    }
    ~ThreadGuard() { common::set_execution_config({1}); }
};

common::FaultConfig busy_config() {
    common::FaultConfig f;
    f.frame_drop_rate = 0.2;
    f.nan_rate = 0.1;
    f.inf_rate = 0.05;
    f.saturate_rate = 0.05;
    f.subcarrier_dropout_rate = 0.1;
    f.burst_rate_per_h = 2.0;
    f.burst_len_s = 45.0;
    f.env_stall_rate_per_h = 1.5;
    f.env_stall_len_s = 90.0;
    f.seed = 1234;
    return f;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan purity / determinism
// ---------------------------------------------------------------------------

TEST(FaultPlan, InactiveByDefault) {
    const common::FaultPlan plan;
    EXPECT_FALSE(plan.active());
    EXPECT_FALSE(plan.packet_fault(0).any());
    EXPECT_FALSE(plan.csi_offline(1000.0));
    EXPECT_FALSE(plan.env_stalled(1000.0));
    EXPECT_EQ(plan.env_skew_s(), 0.0);

    const common::FaultPlan zero{common::FaultConfig{}};
    EXPECT_FALSE(zero.active());
}

TEST(FaultPlan, RejectsInvalidConfigs) {
    common::FaultConfig bad = busy_config();
    bad.frame_drop_rate = 1.5;
    EXPECT_THROW(common::FaultPlan{bad}, std::invalid_argument);
    bad = busy_config();
    bad.nan_rate = 0.6;
    bad.inf_rate = 0.6;
    EXPECT_THROW(common::FaultPlan{bad}, std::invalid_argument);
    bad = busy_config();
    bad.burst_len_s = -1.0;
    EXPECT_THROW(common::FaultPlan{bad}, std::invalid_argument);
}

TEST(FaultPlan, PacketDecisionsArePureFunctionsOfIndex) {
    const common::FaultPlan plan(busy_config());
    constexpr std::size_t kN = 5000;

    std::vector<common::PacketFault> serial(kN);
    for (std::size_t i = kN; i-- > 0;)  // reverse order: no hidden state
        serial[i] = plan.packet_fault(i);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadGuard guard(threads);
        std::vector<common::PacketFault> parallel(kN);
        common::parallel_for(kN, [&](std::size_t i) {
            parallel[i] = plan.packet_fault(i);
        });
        for (std::size_t i = 0; i < kN; ++i) {
            EXPECT_EQ(parallel[i].dropped, serial[i].dropped) << i;
            EXPECT_EQ(parallel[i].corrupt, serial[i].corrupt) << i;
            EXPECT_EQ(parallel[i].corrupt_mask_seed, serial[i].corrupt_mask_seed);
            EXPECT_EQ(parallel[i].dropout_mask_seed, serial[i].dropout_mask_seed);
        }
    }
}

TEST(FaultPlan, RatesAreRealizedApproximately) {
    common::FaultConfig cfg;
    cfg.frame_drop_rate = 0.25;
    cfg.subcarrier_dropout_rate = 0.1;
    const common::FaultPlan plan(cfg);
    constexpr std::size_t kN = 40000;
    std::size_t drops = 0, holes = 0;
    for (std::size_t i = 0; i < kN; ++i) {
        const common::PacketFault f = plan.packet_fault(i);
        drops += f.dropped;
        holes += f.dropout_mask_seed != 0;
    }
    EXPECT_NEAR((double)drops / kN, 0.25, 0.02);
    // Dropped frames have no payload, so dropout only hits survivors.
    EXPECT_NEAR((double)holes / (double)(kN - drops), 0.10, 0.02);
}

TEST(FaultPlan, WindowFaultsAreStatelessAndOrderFree) {
    const common::FaultPlan plan(busy_config());
    // Query a timeline forward, then backward: answers must match.
    std::vector<char> forward;
    for (std::size_t k = 0; k * 7 < 7200; ++k)
        forward.push_back(plan.csi_offline(7.0 * (double)k) ? 1 : 0);
    for (std::size_t k = forward.size(); k-- > 0;)
        EXPECT_EQ(plan.csi_offline(7.0 * (double)k), forward[k] != 0) << k;
    // With the chosen rate some windows must be offline and most online.
    const std::size_t offline =
        (std::size_t)std::count(forward.begin(), forward.end(), 1);
    EXPECT_GT(offline, 0u);
    EXPECT_LT(offline, forward.size() / 2);
}

TEST(FaultSpec, ParseRoundTripAndErrors) {
    const auto parsed = common::parse_fault_spec(
        "drop=0.05,nan=0.01,dropout=0.02,burst_rate=0.5,burst_len=45,seed=99");
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_DOUBLE_EQ(parsed.value().frame_drop_rate, 0.05);
    EXPECT_DOUBLE_EQ(parsed.value().burst_len_s, 45.0);
    EXPECT_EQ(parsed.value().seed, 99u);

    const auto back = common::parse_fault_spec(common::to_spec(parsed.value()));
    ASSERT_TRUE(back.is_ok());
    EXPECT_DOUBLE_EQ(back.value().frame_drop_rate, 0.05);

    EXPECT_FALSE(common::parse_fault_spec("bogus=1").is_ok());
    EXPECT_FALSE(common::parse_fault_spec("drop").is_ok());
    EXPECT_FALSE(common::parse_fault_spec("drop=abc").is_ok());
    EXPECT_FALSE(common::parse_fault_spec("drop=1.5").is_ok());
    EXPECT_TRUE(common::parse_fault_spec("").is_ok());
}

// ---------------------------------------------------------------------------
// Simulator integration: bitwise guarantees
// ---------------------------------------------------------------------------

TEST(FaultSim, ZeroFaultConfigIsBitwiseIdenticalToSeedAtAnyThreadCount) {
    envsim::SimulationConfig cfg = short_config();
    const data::Dataset baseline = [&] {
        ThreadGuard guard(1);
        return envsim::OfficeSimulator(cfg).run();
    }();
    ASSERT_GT(baseline.size(), 1000u);

    // Default (all-zero) FaultConfig, any thread count: identical stream.
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadGuard guard(threads);
        envsim::SimulationConfig faulted = short_config();
        faulted.faults = common::FaultConfig{};  // explicit inert plan
        const data::Dataset out = envsim::OfficeSimulator(faulted).run();
        ASSERT_EQ(out.size(), baseline.size()) << threads << " threads";
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_TRUE(records_equal(out[i], baseline[i]))
                << "record " << i << " at " << threads << " threads";
    }
}

TEST(FaultSim, DropOnlySurvivorsAreBitwiseSubsetOfCleanRun) {
    envsim::SimulationConfig clean_cfg = short_config();
    ThreadGuard guard(2);
    const data::Dataset clean = envsim::OfficeSimulator(clean_cfg).run();

    envsim::SimulationConfig faulty_cfg = short_config();
    faulty_cfg.faults.frame_drop_rate = 0.3;
    faulty_cfg.faults.burst_rate_per_h = 2.0;
    faulty_cfg.faults.burst_len_s = 60.0;
    const data::Dataset faulty = envsim::OfficeSimulator(faulty_cfg).run();

    ASSERT_LT(faulty.size(), clean.size());
    ASSERT_GT(faulty.size(), clean.size() / 2);

    // Every surviving record equals the clean record with its timestamp.
    std::size_t ci = 0;
    for (std::size_t fi = 0; fi < faulty.size(); ++fi) {
        while (ci < clean.size() && clean[ci].timestamp < faulty[fi].timestamp)
            ++ci;
        ASSERT_LT(ci, clean.size());
        ASSERT_TRUE(records_equal(faulty[fi], clean[ci])) << "record " << fi;
    }
}

TEST(FaultSim, CorruptionProducesNonFiniteAmplitudesDeterministically) {
    envsim::SimulationConfig cfg = short_config();
    cfg.faults.nan_rate = 0.1;
    cfg.faults.inf_rate = 0.05;
    cfg.faults.subcarrier_dropout_rate = 0.1;
    ThreadGuard guard(2);
    const data::Dataset a = envsim::OfficeSimulator(cfg).run();
    const data::Dataset b = envsim::OfficeSimulator(cfg).run();
    ASSERT_EQ(a.size(), b.size());
    std::size_t nonfinite_rows = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(records_equal(a[i], b[i])) << i;
        for (const float amp : a[i].csi)
            if (!std::isfinite(amp)) {
                ++nonfinite_rows;
                break;
            }
    }
    EXPECT_GT(nonfinite_rows, a.size() / 20);  // faults actually landed
    EXPECT_LT(nonfinite_rows, a.size() / 2);
}

TEST(FaultSim, EnvStallRepeatsReadingsWithoutPerturbingTheRest) {
    envsim::SimulationConfig cfg = short_config();
    cfg.faults.env_stall_rate_per_h = 6.0;
    cfg.faults.env_stall_len_s = 120.0;
    ThreadGuard guard(1);
    const data::Dataset stalled = envsim::OfficeSimulator(cfg).run();
    const data::Dataset clean =
        envsim::OfficeSimulator(short_config()).run();
    ASSERT_EQ(stalled.size(), clean.size());

    const common::FaultPlan plan(cfg.faults);
    std::size_t stalled_ticks = 0, diffs = 0;
    for (std::size_t i = 0; i < stalled.size(); ++i) {
        // CSI and labels are untouched by an env-sensor stall.
        ASSERT_EQ(0, std::memcmp(stalled[i].csi.data(), clean[i].csi.data(),
                                 stalled[i].csi.size() * sizeof(float)));
        if (plan.env_stalled(stalled[i].timestamp)) ++stalled_ticks;
        if (stalled[i].temperature_c != clean[i].temperature_c ||
            stalled[i].humidity_pct != clean[i].humidity_pct)
            ++diffs;
    }
    EXPECT_GT(stalled_ticks, 0u);
    EXPECT_GT(diffs, 0u);           // the stall visibly froze some readings
    EXPECT_LE(diffs, stalled_ticks);  // ...but only within stall windows
}

// ---------------------------------------------------------------------------
// Validating ingest
// ---------------------------------------------------------------------------

namespace {

data::SampleRecord valid_record(double t) {
    data::SampleRecord r;
    r.timestamp = t;
    for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
        r.csi[k] = 0.002f + 0.0001f * (float)k;
    r.temperature_c = 21.5f;
    r.humidity_pct = 38.0f;
    r.occupancy = 1;
    r.occupant_count = 1;
    return r;
}

}  // namespace

TEST(RecordValidator, AccountingIsExactAndOutputFinite) {
    std::vector<data::SampleRecord> rows;
    for (int i = 0; i < 100; ++i) rows.push_back(valid_record(i));
    rows[10].csi[3] = std::numeric_limits<float>::quiet_NaN();   // repairable
    rows[20].temperature_c = std::numeric_limits<float>::infinity();
    for (auto& a : rows[30].csi) a = std::numeric_limits<float>::quiet_NaN();
    rows[40].timestamp = 5.0;  // goes backwards
    rows[50].humidity_pct = 140.0f;  // out of range

    const data::CleanIngest clean = data::sanitize_records(rows);
    const data::IngestStats& s = clean.stats;
    EXPECT_EQ(s.total, 100u);
    EXPECT_EQ(s.accepted + s.repaired + s.quarantined, s.total);
    EXPECT_EQ(s.quarantined, 2u);  // all-NaN frame + nonmonotonic row
    EXPECT_EQ(s.repaired, 3u);
    EXPECT_EQ(s.csi_values_imputed, 1u);
    EXPECT_EQ(s.env_values_imputed, 2u);
    EXPECT_EQ(s.nonmonotonic_timestamps, 1u);
    EXPECT_EQ(clean.dataset.size(), 98u);

    for (const auto& r : clean.dataset.records()) {
        for (const float a : r.csi) EXPECT_TRUE(std::isfinite(a));
        EXPECT_TRUE(std::isfinite(r.temperature_c));
        EXPECT_TRUE(std::isfinite(r.humidity_pct));
    }
    EXPECT_NE(clean.stats.summary().find("100 records"), std::string::npos);
}

TEST(RecordValidator, StalenessBudgetBoundsImputation) {
    data::RecordValidator v;

    data::SampleRecord good = valid_record(0.0);
    EXPECT_EQ(v.ingest(good), data::RecordDisposition::kAccepted);

    data::SampleRecord fresh_bad = valid_record(1.0);
    fresh_bad.csi[0] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(v.ingest(fresh_bad), data::RecordDisposition::kRepaired);
    EXPECT_FLOAT_EQ(fresh_bad.csi[0], good.csi[0]);

    data::SampleRecord stale_bad = valid_record(10.0);
    stale_bad.csi[0] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(v.ingest(stale_bad), data::RecordDisposition::kQuarantined);
}

TEST(RecordValidator, SaturatedFramesAreQuarantined) {
    data::RecordValidator v;
    data::SampleRecord r = valid_record(0.0);
    for (auto& a : r.csi) a = 0.02f;  // pinned at full scale
    EXPECT_EQ(v.ingest(r), data::RecordDisposition::kQuarantined);
    EXPECT_EQ(v.stats().saturated_frames, 1u);
}

TEST(CsiTriage, RuleBoundaries) {
    // 64 subcarriers: up to 32 non-finite are repairable from a donor at
    // most 5 s old; 58 railed at 0.02f make a saturated frame.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    data::CsiDonor donor{true, 0.0, {}};
    donor.csi.fill(0.005f);
    std::array<float, data::kNumSubcarriers> frame{};

    frame.fill(0.004f);
    EXPECT_EQ(data::triage_csi(frame, 1.0, donor).verdict,
              data::CsiVerdict::kClean);

    std::fill_n(frame.begin(), 32, nan);
    data::CsiTriage tri = data::triage_csi(frame, 5.0, donor);
    EXPECT_EQ(tri.verdict, data::CsiVerdict::kRepaired);
    EXPECT_EQ(tri.nonfinite, 32u);
    EXPECT_EQ(frame[0], 0.005f);
    EXPECT_EQ(frame[32], 0.004f);

    frame.fill(0.004f);
    frame[0] = nan;
    EXPECT_EQ(data::triage_csi(frame, 5.5, donor).verdict,
              data::CsiVerdict::kUnrepairable);  // stale donor
    EXPECT_TRUE(std::isnan(frame[0]));
    EXPECT_EQ(data::triage_csi(frame, 1.0, data::CsiDonor{}).verdict,
              data::CsiVerdict::kUnrepairable);  // no donor
    std::fill_n(frame.begin(), 33, nan);
    EXPECT_EQ(data::triage_csi(frame, 1.0, donor).verdict,
              data::CsiVerdict::kUnrepairable);  // majority bad

    frame.fill(0.004f);
    std::fill_n(frame.begin(), 57, data::kSaturationLevel);
    EXPECT_EQ(data::triage_csi(frame, 1.0, donor).verdict,
              data::CsiVerdict::kClean);
    frame[57] = data::kSaturationLevel;
    frame[63] = nan;
    tri = data::triage_csi(frame, 1.0, donor);
    EXPECT_EQ(tri.verdict, data::CsiVerdict::kSaturated);
    EXPECT_EQ(tri.nonfinite, 1u);
    EXPECT_TRUE(std::isnan(frame[63]));  // never imputed
}

// ---------------------------------------------------------------------------
// Stream health + degradation policy
// ---------------------------------------------------------------------------

TEST(StreamHealth, EwmaTracksValidityAndStaleness) {
    core::StreamHealthConfig cfg;
    cfg.tau_s = 10.0;
    cfg.stale_after_s = 5.0;
    core::StreamHealth h(cfg);
    EXPECT_DOUBLE_EQ(h.health(), 1.0);
    EXPECT_TRUE(h.stale(0.0));  // nothing seen yet

    h.observe(0.0, true);
    EXPECT_DOUBLE_EQ(h.health(), 1.0);
    EXPECT_FALSE(h.stale(3.0));
    EXPECT_TRUE(h.stale(6.0));

    double prev = h.health();
    for (double t = 1.0; t <= 30.0; t += 1.0) {
        h.observe(t, false);
        EXPECT_LT(h.health(), prev);
        prev = h.health();
    }
    EXPECT_LT(h.health(), 0.1);  // ~3 tau of outage
    EXPECT_TRUE(h.stale(30.0));
}

namespace {

/// Tiny trainable dataset: occupancy flips every 50 records; CSI and env
/// both carry the label so either model can learn it.
data::Dataset trainable_dataset(std::size_t n) {
    data::Dataset ds;
    for (std::size_t i = 0; i < n; ++i) {
        const int occ = (i / 50) % 2;
        data::SampleRecord r;
        r.timestamp = (double)i;
        for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
            r.csi[k] = 0.004f + 0.002f * (float)occ +
                       0.0001f * (float)((i * 7 + k * 13) % 10);
        r.temperature_c = 20.0f + 3.0f * (float)occ +
                          0.1f * (float)((i * 3) % 5);
        r.humidity_pct = 35.0f + 6.0f * (float)occ + 0.2f * (float)(i % 4);
        r.occupancy = (std::uint8_t)occ;
        r.occupant_count = (std::uint8_t)occ;
        ds.push_back(r);
    }
    return ds;
}

/// The ladder over `n_links` links fitted on the tiny dataset (identical
/// links, so the fused training stream is the dataset itself).
core::MultiLinkDetector fitted_detector(std::size_t n_links = 1) {
    core::MultiLinkConfig cfg;
    cfg.n_links = n_links;
    cfg.resilient.full.training.epochs = 4;
    cfg.resilient.fallback.training.epochs = 4;
    // Short env hold so a total blackout reaches kStaleHold within the test
    // horizon (records are 1 s apart).
    cfg.resilient.env_staleness_budget_s = 5.0;
    core::MultiLinkDetector det(cfg);
    det.fit(trainable_dataset(600).view());
    return det;
}

/// Feed one instant: each link's frame as given, env values from `rec`
/// when `env`.
core::FusionDecision feed(core::MultiLinkDetector& det,
                          const data::SampleRecord& rec,
                          std::span<const core::LinkFrame> frames,
                          bool env = true) {
    core::MultiLinkObservation obs;
    obs.timestamp = rec.timestamp;
    obs.has_env = env;
    obs.temperature_c = rec.temperature_c;
    obs.humidity_pct = rec.humidity_pct;
    obs.links = frames;
    return det.process(obs);
}

/// One-link instant: the record's own frame when `csi`.
core::FusionDecision feed(core::MultiLinkDetector& det,
                          const data::SampleRecord& rec, bool csi = true,
                          bool env = true) {
    core::LinkFrame link;
    link.present = csi;
    link.csi = rec.csi;
    return feed(det, rec, std::span<const core::LinkFrame>(&link, 1), env);
}

}  // namespace

// The single-receiver deployment is the n_links = 1 case of the ladder:
// kFullFusion -> kEnvOnly -> kStaleHold.

TEST(ResilientDetector, ThrowsOnlyWhenUnfitted) {
    core::MultiLinkConfig cfg;
    cfg.n_links = 1;
    core::MultiLinkDetector det(cfg);
    EXPECT_THROW(feed(det, data::SampleRecord{}), std::logic_error);
}

TEST(ResilientDetector, FullModeOnCleanStream) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(600);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const auto d = feed(det, ds[i]);
        EXPECT_EQ(d.tier, core::FusionTier::kFullFusion);
        EXPECT_TRUE(std::isfinite(d.base.probability));
        correct += d.base.prediction == (int)ds[i].occupancy;
    }
    EXPECT_GT((double)correct / (double)ds.size(), 0.9);
    EXPECT_EQ(det.stats().full_fusion, ds.size());
}

TEST(ResilientDetector, DegradesThroughEnvOnlyToStaleHoldAndRecovers) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(400);
    common::flight_enable();

    // Phase 1: healthy.
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(feed(det, ds[i]).tier, core::FusionTier::kFullFusion);

    // Phase 2: CSI dies, env alive -> env-only.
    core::FusionTier last_tier = core::FusionTier::kFullFusion;
    for (std::size_t i = 100; i < 200; ++i) {
        const auto d = feed(det, ds[i], /*csi=*/false);
        EXPECT_TRUE(std::isfinite(d.base.probability));
        last_tier = d.tier;
    }
    EXPECT_EQ(last_tier, core::FusionTier::kEnvOnly);
    EXPECT_GT(det.stats().env_only, 50u);

    // Phase 3: both streams dark. Env values are forward-held for the first
    // few seconds (env-only), then the detector enters stale hold with
    // monotonically decaying confidence — and never NaN.
    double prev_conf = 1.1;
    std::size_t stale_ticks = 0;
    for (std::size_t i = 200; i < 300; ++i) {
        const auto d = feed(det, ds[i], /*csi=*/false, /*env=*/false);
        ASSERT_TRUE(std::isfinite(d.base.probability));
        EXPECT_GE(d.base.probability, 0.0);
        EXPECT_LE(d.base.probability, 1.0);
        EXPECT_NE(d.tier, core::FusionTier::kFullFusion);
        if (d.tier == core::FusionTier::kStaleHold) {
            if (stale_ticks > 0) {
                EXPECT_LE(d.base.confidence, prev_conf);
            }
            prev_conf = d.base.confidence;
            ++stale_ticks;
        }
    }
    EXPECT_GT(stale_ticks, 80u);  // the hold budget expires quickly
    // ~95 s of blackout at tau=60 s: decay factor exp(-95/60) ~ 0.21.
    EXPECT_LT(prev_conf, 0.25);   // long outage decays toward "don't know"

    // Phase 4: CSI returns -> recovery to full once health rebuilds.
    core::FusionTier final_tier = core::FusionTier::kStaleHold;
    for (std::size_t i = 300; i < 400; ++i) {
        const auto d = feed(det, ds[i]);
        final_tier = d.tier;
        EXPECT_TRUE(std::isfinite(d.base.probability));
    }
    EXPECT_EQ(final_tier, core::FusionTier::kFullFusion);

    // The walk is told in the one tier vocabulary, and nothing else names
    // the ladder state. Recovery re-enters through env-only: the returning
    // link votes at once, but the aggregate CSI health needs a few ticks to
    // climb back over csi_health_floor.
    std::vector<std::string> tiers;
    for (const common::FlightEvent& e : common::flight_snapshot()) {
        const std::string category = e.category;
        EXPECT_NE(category, "mode");
        if (category == "tier") tiers.emplace_back(e.label);
    }
    common::flight_disable();
    common::flight_reset();
    const std::vector<std::string> want = {"full-fusion", "env-only",
                                           "stale-hold", "env-only",
                                           "full-fusion"};
    EXPECT_EQ(tiers, want);
}

TEST(ResilientDetector, HundredPercentCsiDropoutNeverThrowsOrEmitsNaN) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(500);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const auto d = feed(det, ds[i], /*csi=*/false);  // total CSI loss
        ASSERT_TRUE(std::isfinite(d.base.probability));
        ASSERT_GE(d.base.probability, 0.0);
        ASSERT_LE(d.base.probability, 1.0);
        EXPECT_NE(d.tier, core::FusionTier::kFullFusion);
        correct += d.base.prediction == (int)ds[i].occupancy;
    }
    EXPECT_EQ(det.stats().full_fusion, 0u);
    // Env features still carry the label: the fallback keeps detecting.
    EXPECT_GT((double)correct / (double)ds.size(), 0.8);
}

TEST(ResilientDetector, AllNaNFramesAreHandledLikeDrops) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(300);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        data::SampleRecord r = ds[i];
        for (auto& a : r.csi) a = std::numeric_limits<float>::quiet_NaN();
        const auto d = feed(det, r);
        ASSERT_TRUE(std::isfinite(d.base.probability));
        EXPECT_NE(d.tier, core::FusionTier::kFullFusion);
    }
    EXPECT_EQ(det.stats().link_frames_rejected, ds.size());
}

TEST(ResilientDetector, RepairsLightCorruptionWithinBudget) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(300);
    // Healthy warm-up so a fresh donor frame exists.
    for (std::size_t i = 0; i < 10; ++i) feed(det, ds[i]);
    data::SampleRecord r = ds[10];
    r.csi[5] = std::numeric_limits<float>::quiet_NaN();
    r.csi[17] = std::numeric_limits<float>::infinity();
    const auto d = feed(det, r);
    EXPECT_EQ(d.tier, core::FusionTier::kFullFusion);
    EXPECT_TRUE(d.base.csi_repaired);
    EXPECT_TRUE(std::isfinite(d.base.probability));
    EXPECT_EQ(det.stats().csi_values_imputed, 2u);
    EXPECT_EQ(det.stats().csi_frames_repaired, 1u);
}

TEST(ResilientDetector, ResetStreamClearsStateButKeepsModels) {
    core::MultiLinkDetector det = fitted_detector();
    const data::Dataset ds = trainable_dataset(100);
    for (std::size_t i = 0; i < 50; ++i) feed(det, ds[i], /*csi=*/false);
    EXPECT_GT(det.stats().observations, 0u);
    det.reset_stream();
    EXPECT_EQ(det.stats().observations, 0u);
    EXPECT_TRUE(det.fitted());
    // Health is fresh again.
    EXPECT_EQ(feed(det, ds[0]).tier, core::FusionTier::kFullFusion);
}

TEST(CsiTriage, TrainingIngestAndServingLadderAgree) {
    // One faulted one-link stream through both paths. Every frame the
    // validator quarantines (env and clock are clean, so only CSI reasons)
    // must lose its vote in serving, both paths must impute the same count,
    // and each repaired row must score bitwise like the validator's repair.
    core::MultiLinkDetector det = fitted_detector();
    std::vector<data::SampleRecord> rows = trainable_dataset(400).records();
    const auto fault_at = [](std::size_t i) {
        common::PacketFault f;
        if (i >= 250 && i < 257) {
            f.corrupt = common::CorruptKind::kSaturate;  // donor goes stale
        } else if (i == 257) {
            f.corrupt = common::CorruptKind::kNaN;
            f.corrupt_mask_seed = i + 1;
        } else if (i == 258) {
            f.dropout_mask_seed = i + 1;
        } else if (i < 20) {
            // clean warm-up
        } else if (i % 17 == 3) {
            f.corrupt = common::CorruptKind::kNaN;
            f.corrupt_mask_seed = i + 1;
        } else if (i % 23 == 5) {
            f.corrupt = common::CorruptKind::kInf;
            f.corrupt_mask_seed = i + 1;
        } else if (i % 29 == 7) {
            f.corrupt = common::CorruptKind::kSaturate;
        } else if (i % 13 == 9) {
            f.dropout_mask_seed = i + 1;
        }
        return f;
    };
    for (std::size_t i = 0; i < rows.size(); ++i)
        common::apply_packet_fault(rows[i].csi, fault_at(i), 0.02);

    const data::CleanIngest clean = data::sanitize_records(rows);
    EXPECT_EQ(clean.stats.bad_env_records, 0u);
    EXPECT_EQ(clean.stats.nonmonotonic_timestamps, 0u);
    EXPECT_GT(clean.stats.saturated_frames, 7u);
    EXPECT_GT(clean.stats.quarantined, clean.stats.saturated_frames);
    EXPECT_GT(clean.stats.repaired, 10u);

    std::size_t kept = 0;
    std::size_t repaired_rows = 0;
    for (const data::SampleRecord& r : rows) {
        const core::FusionDecision d = feed(det, r);
        const bool quarantined = kept == clean.dataset.size() ||
                                 clean.dataset[kept].timestamp != r.timestamp;
        if (quarantined) {
            EXPECT_EQ(d.links_used, 0u) << "t=" << r.timestamp;
            continue;
        }
        const data::SampleRecord& v = clean.dataset[kept++];
        EXPECT_EQ(d.links_used, 1u) << "t=" << r.timestamp;
        if (std::memcmp(v.csi.data(), r.csi.data(),
                        r.csi.size() * sizeof(float)) == 0)
            continue;
        ++repaired_rows;
        EXPECT_EQ(d.tier, core::FusionTier::kFullFusion);
        EXPECT_EQ(d.base.probability,
                  det.detector().full_model().predict_proba(v))
            << "t=" << r.timestamp;
    }
    EXPECT_EQ(kept, clean.dataset.size());
    EXPECT_EQ(repaired_rows, clean.stats.repaired);
    EXPECT_EQ(det.stats().csi_values_imputed, clean.stats.csi_values_imputed);
}

TEST(LinkFusion, RepairsMinorityNanLinkFrameFromItsOwnFreshDonor) {
    // Four links: a link whose frame loses a minority of subcarriers is
    // repaired from its own last usable frame and keeps its vote; a majority
    // of bad subcarriers, or a donor older than the staleness budget, still
    // costs the vote.
    core::MultiLinkDetector det = fitted_detector(4);
    const data::Dataset ds = trainable_dataset(40);
    std::vector<core::LinkFrame> frames(4);
    const auto instant = [&](std::size_t i) {
        for (core::LinkFrame& f : frames) {
            f.present = true;
            f.csi = ds[i].csi;
        }
        return std::span<core::LinkFrame>(frames);
    };
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(feed(det, ds[i], instant(i)).tier,
                  core::FusionTier::kFullFusion);

    // Minority of bad subcarriers on link 2, donor 1 s old: repaired.
    auto links = instant(10);
    links[2].csi[3] = nan;
    links[2].csi[11] = std::numeric_limits<float>::infinity();
    auto d = feed(det, ds[10], links);
    EXPECT_EQ(d.tier, core::FusionTier::kFullFusion);
    EXPECT_EQ(d.links_used, 4u);
    EXPECT_TRUE(d.base.csi_repaired);
    EXPECT_EQ(det.stats().csi_frames_repaired, 1u);
    EXPECT_EQ(det.stats().csi_values_imputed, 2u);
    EXPECT_EQ(det.stats().link_frames_rejected, 0u);

    // Majority of bad subcarriers: rejected, even with a fresh donor.
    links = instant(11);
    for (std::size_t k = 0; k < 2 * data::kNumSubcarriers / 3; ++k)
        links[2].csi[k] = nan;
    d = feed(det, ds[11], links);
    EXPECT_EQ(d.tier, core::FusionTier::kSubsetFusion);
    EXPECT_EQ(d.links_used, 3u);
    EXPECT_EQ(det.stats().link_frames_rejected, 1u);

    // Link 2 dark for 7 s, then a minority-bad frame: its donor (t = 10) is
    // past the 5 s budget, so the frame is rejected, not repaired.
    for (std::size_t i = 12; i < 19; ++i) {
        links = instant(i);
        links[2].present = false;
        EXPECT_EQ(feed(det, ds[i], links).tier,
                  core::FusionTier::kSubsetFusion);
    }
    links = instant(19);
    links[2].csi[3] = nan;
    d = feed(det, ds[19], links);
    EXPECT_EQ(d.tier, core::FusionTier::kSubsetFusion);
    EXPECT_FALSE(d.base.csi_repaired);
    EXPECT_EQ(det.stats().csi_frames_repaired, 1u);
    EXPECT_EQ(det.stats().link_frames_rejected, 2u);

    // A clean frame earns the vote back.
    EXPECT_EQ(feed(det, ds[20], instant(20)).tier,
              core::FusionTier::kFullFusion);
}
