#include "data/record_validator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/metrics.hpp"

namespace wifisense::data {

namespace {

/// Training-ingest env checks: plausible office ranges, and the same 5 s
/// forward-fill horizon as the CSI donor.
constexpr double kTempMinC = -30.0;
constexpr double kTempMaxC = 60.0;
constexpr double kHumidityMinPct = 0.0;
constexpr double kHumidityMaxPct = 100.0;
constexpr double kEnvStalenessBudgetS = kCsiStalenessBudgetS;
/// A spacing above this multiple of the inferred period counts as a gap.
constexpr double kGapFactor = 1.5;

bool env_value_ok(float v, double lo, double hi) {
    return std::isfinite(v) && v >= lo && v <= hi;
}

}  // namespace

// wifisense-lint: requires(noalloc, noexcept)
CsiTriage triage_csi(std::array<float, kNumSubcarriers>& csi, double t,
                     const CsiDonor& donor) noexcept {
    CsiTriage out;
    std::size_t railed = 0;
    for (const float a : csi) {
        if (!std::isfinite(a))
            ++out.nonfinite;
        else if (a >= kSaturationLevel)
            ++railed;
    }
    const double n = static_cast<double>(kNumSubcarriers);
    if (railed >= static_cast<std::size_t>(std::ceil(kSaturationFraction * n))) {
        out.verdict = CsiVerdict::kSaturated;
    } else if (out.nonfinite > 0) {
        const bool donor_fresh =
            donor.has && t - donor.t <= kCsiStalenessBudgetS;
        if (!donor_fresh ||
            static_cast<double>(out.nonfinite) > kMaxBadSubcarrierFraction * n) {
            out.verdict = CsiVerdict::kUnrepairable;
        } else {
            for (std::size_t k = 0; k < csi.size(); ++k)
                if (!std::isfinite(csi[k])) csi[k] = donor.csi[k];
            out.verdict = CsiVerdict::kRepaired;
        }
    }
    return out;
}

std::string IngestStats::summary() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ingest: %llu records (%llu accepted, %llu repaired, %llu "
                  "quarantined), %llu csi + %llu env values imputed, %llu "
                  "gaps (max %.2fs)",
                  (unsigned long long)total, (unsigned long long)accepted,
                  (unsigned long long)repaired, (unsigned long long)quarantined,
                  (unsigned long long)csi_values_imputed,
                  (unsigned long long)env_values_imputed,
                  (unsigned long long)gaps, max_gap_s);
    return buf;
}

void RecordValidator::reset_stream() {
    csi_donor_.has = false;
    has_last_env_ = false;
    has_last_t_ = false;
    inferred_period_ = 0.0;
}

RecordDisposition RecordValidator::ingest(SampleRecord& r) {
    if (!common::metrics_enabled()) return ingest_impl(r);
    // Mirror the exact stats deltas of this record into the process-wide
    // metric registry (common/metrics.hpp) so quarantine/repair rates are
    // visible without plumbing an IngestStats out of every call site.
    const IngestStats before = stats_;
    const RecordDisposition d = ingest_impl(r);
    static common::Counter& obs_accepted = common::obs_counter("ingest.accepted");
    static common::Counter& obs_repaired = common::obs_counter("ingest.repaired");
    static common::Counter& obs_quarantined =
        common::obs_counter("ingest.quarantined");
    static common::Counter& obs_csi_imputed =
        common::obs_counter("ingest.csi_values_imputed");
    static common::Counter& obs_env_imputed =
        common::obs_counter("ingest.env_values_imputed");
    obs_accepted.add(stats_.accepted - before.accepted);
    obs_repaired.add(stats_.repaired - before.repaired);
    obs_quarantined.add(stats_.quarantined - before.quarantined);
    obs_csi_imputed.add(stats_.csi_values_imputed - before.csi_values_imputed);
    obs_env_imputed.add(stats_.env_values_imputed - before.env_values_imputed);
    return d;
}

RecordDisposition RecordValidator::ingest_impl(SampleRecord& r) {
    ++stats_.total;

    // --- Timestamp sanity: the stream must move forward. ---------------------
    if (!std::isfinite(r.timestamp) ||
        (has_last_t_ && r.timestamp < last_t_)) {
        ++stats_.nonmonotonic_timestamps;
        ++stats_.quarantined;
        return RecordDisposition::kQuarantined;
    }

    // --- Gap accounting (before any repair decisions). -----------------------
    if (has_last_t_) {
        const double dt = r.timestamp - last_t_;
        if (inferred_period_ <= 0.0 && dt > 0.0) inferred_period_ = dt;
        if (inferred_period_ > 0.0 && dt > kGapFactor * inferred_period_) {
            ++stats_.gaps;
            stats_.max_gap_s = std::max(stats_.max_gap_s, dt);
        }
    }

    bool repaired = false;

    // --- CSI frame triage: the shared rule. ----------------------------------
    const CsiTriage csi = triage_csi(r.csi, r.timestamp, csi_donor_);
    if (csi.nonfinite > 0) ++stats_.nonfinite_frames;
    if (csi.verdict == CsiVerdict::kSaturated) ++stats_.saturated_frames;
    if (!csi.usable()) {
        ++stats_.quarantined;
        has_last_t_ = true;  // time still advanced
        last_t_ = r.timestamp;
        return RecordDisposition::kQuarantined;
    }
    if (csi.verdict == CsiVerdict::kRepaired) {
        stats_.csi_values_imputed += csi.nonfinite;
        repaired = true;
    }

    // --- Env triage. ---------------------------------------------------------
    const bool temp_ok = env_value_ok(r.temperature_c, kTempMinC, kTempMaxC);
    const bool hum_ok =
        env_value_ok(r.humidity_pct, kHumidityMinPct, kHumidityMaxPct);
    if (!temp_ok || !hum_ok) {
        ++stats_.bad_env_records;
        const bool donor_fresh =
            has_last_env_ &&
            r.timestamp - last_env_t_ <= kEnvStalenessBudgetS;
        if (!donor_fresh) {
            ++stats_.quarantined;
            has_last_t_ = true;
            last_t_ = r.timestamp;
            return RecordDisposition::kQuarantined;
        }
        if (!temp_ok) {
            r.temperature_c = last_temp_;
            ++stats_.env_values_imputed;
        }
        if (!hum_ok) {
            r.humidity_pct = last_hum_;
            ++stats_.env_values_imputed;
        }
        repaired = true;
    }

    // --- Record accepted: refresh donor state. -------------------------------
    csi_donor_ = {true, r.timestamp, r.csi};
    last_temp_ = r.temperature_c;
    last_hum_ = r.humidity_pct;
    last_env_t_ = r.timestamp;
    has_last_env_ = true;
    has_last_t_ = true;
    last_t_ = r.timestamp;

    if (repaired) {
        ++stats_.repaired;
        return RecordDisposition::kRepaired;
    }
    ++stats_.accepted;
    return RecordDisposition::kAccepted;
}

CleanIngest sanitize_records(std::vector<SampleRecord> records) {
    RecordValidator validator;
    std::size_t out = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        SampleRecord r = records[i];
        if (validator.ingest(r) != RecordDisposition::kQuarantined)
            records[out++] = r;
    }
    records.resize(out);
    return CleanIngest{Dataset(std::move(records)), validator.stats()};
}

}  // namespace wifisense::data
