// Validating ingest for Table-I record streams, and the one CSI triage rule.
//
// Real captures (Nexmon Pi + Thingy 52) deliver NaN/Inf amplitudes,
// saturated frames, missing subcarriers, frozen env readings, and gaps.
// The seed reproduction assumed a perfect gapless stream; this layer makes
// Dataset construction safe against an arbitrary byte stream:
//
//   triage_csi        the CSI rule: clean / repaired from a fresh donor /
//                     saturated / unrepairable. Training ingest and the
//                     serving ladder (core::MultiLinkDetector) both call it,
//                     so the model serves frames repaired exactly as the
//                     rows it trained on.
//   RecordValidator   per-record streaming triage: accept / repair /
//                     quarantine, with bounded forward-fill imputation and
//                     full accounting (IngestStats).
//   sanitize_records  batch wrapper producing a guaranteed-finite Dataset.
//
// Invariant downstream code relies on: every record that leaves this layer
// has finite CSI amplitudes, finite in-range env values, and a timestamp
// not older than the previous accepted record.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "data/dataset.hpp"
#include "data/record.hpp"

namespace wifisense::data {

/// The receiver's full scale. Compared in float: amplitudes are float32,
/// and a frame pinned at full scale stores the nearest float of the level
/// (0.02f < 0.02).
inline constexpr float kSaturationLevel = 0.02f;
/// A frame is saturated (AGC railed, amplitudes carry no information) when
/// at least this fraction of its subcarriers sit at or above full scale.
inline constexpr double kSaturationFraction = 0.9;
/// A frame with more than this fraction of non-finite subcarriers is not
/// repaired: imputing most of a frame fabricates data.
inline constexpr double kMaxBadSubcarrierFraction = 0.5;
/// A repair donor older than this is stale.
inline constexpr double kCsiStalenessBudgetS = 5.0;

/// A stream's last usable CSI frame and its time: the repair donor.
struct CsiDonor {
    bool has = false;
    double t = 0.0;
    std::array<float, kNumSubcarriers> csi{};
};

enum class CsiVerdict : std::uint8_t {
    kClean = 0,         ///< every subcarrier finite, not saturated
    kRepaired = 1,      ///< non-finite subcarriers imputed from the donor
    kSaturated = 2,     ///< railed at full scale; never imputed
    kUnrepairable = 3,  ///< too many bad subcarriers, or no fresh donor
};

struct CsiTriage {
    CsiVerdict verdict = CsiVerdict::kClean;
    /// Non-finite subcarriers in the frame; all of them were imputed when
    /// the verdict is kRepaired.
    std::uint32_t nonfinite = 0;

    [[nodiscard]] bool usable() const {
        return verdict == CsiVerdict::kClean || verdict == CsiVerdict::kRepaired;
    }
};

/// The CSI triage rule for one frame observed at time `t`. A saturated frame
/// (>= kSaturationFraction of subcarriers >= kSaturationLevel) is rejected.
/// Otherwise a frame with <= kMaxBadSubcarrierFraction non-finite
/// subcarriers is repaired in place from `donor` when the donor is at most
/// kCsiStalenessBudgetS old. `csi` is modified only on kRepaired; the
/// caller decides when the donor refreshes.
[[nodiscard]] CsiTriage triage_csi(std::array<float, kNumSubcarriers>& csi,
                                   double t, const CsiDonor& donor) noexcept;

enum class RecordDisposition : std::uint8_t {
    kAccepted = 0,    ///< clean, untouched
    kRepaired = 1,    ///< bad fields imputed in place; safe to ingest
    kQuarantined = 2, ///< unusable; must not enter a Dataset
};

/// Quarantine / imputation / gap accounting. Counters are exact: total ==
/// accepted + repaired + quarantined, and every imputed value is counted.
struct IngestStats {
    std::uint64_t total = 0;
    std::uint64_t accepted = 0;
    std::uint64_t repaired = 0;
    std::uint64_t quarantined = 0;

    std::uint64_t csi_values_imputed = 0;  ///< individual subcarrier fills
    std::uint64_t env_values_imputed = 0;  ///< temperature/humidity fills
    std::uint64_t nonfinite_frames = 0;    ///< frames with NaN/Inf amplitudes
    std::uint64_t saturated_frames = 0;
    std::uint64_t bad_env_records = 0;     ///< NaN/Inf/out-of-range T or H
    std::uint64_t nonmonotonic_timestamps = 0;

    std::uint64_t gaps = 0;
    double max_gap_s = 0.0;

    std::string summary() const;  ///< one-line human-readable digest
};

class RecordValidator {
public:
    /// Triage one record in stream order. kRepaired mutates `r` in place
    /// (imputed values); kQuarantined leaves `r` unspecified and the caller
    /// must drop it. Never throws on data content.
    [[nodiscard]] RecordDisposition ingest(SampleRecord& r);

    const IngestStats& stats() const { return stats_; }

    /// Forget the stream history (last-good values, timestamps). Stats are
    /// kept; call between independent files.
    void reset_stream();

private:
    /// The triage logic; ingest() wraps it with observability accounting.
    [[nodiscard]] RecordDisposition ingest_impl(SampleRecord& r);

    IngestStats stats_;
    /// Refreshed only when a whole record is accepted.
    CsiDonor csi_donor_;
    bool has_last_env_ = false;
    double last_env_t_ = 0.0;
    float last_temp_ = 0.0f;
    float last_hum_ = 0.0f;
    bool has_last_t_ = false;
    double last_t_ = 0.0;
    double inferred_period_ = 0.0;
};

struct CleanIngest {
    Dataset dataset;   ///< quarantined rows removed, repairs applied
    IngestStats stats;
};

/// Batch triage of a record stream: returns a Dataset that is guaranteed
/// free of NaN/Inf and non-monotonic timestamps, plus the accounting.
[[nodiscard]] CleanIngest sanitize_records(std::vector<SampleRecord> records);

}  // namespace wifisense::data
