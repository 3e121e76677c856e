// Deterministic fault model for the sensing -> inference pipeline.
//
// The paper's deployment (Nexmon-patched Raspberry Pi receivers in an
// unconstrained office) suffers dropped frames, burst losses while a
// receiver reconnects, saturated/NaN amplitudes, per-subcarrier dropout,
// stalled environmental sensors, and clock skew between the CSI and the
// T/H streams. This header makes those faults first-class, reproducible
// inputs instead of exceptions:
//
//   - every per-packet decision is a pure function of (seed, packet_index)
//     via the splitmix64 substream machinery of common/rng.hpp, so a fault
//     plan is bitwise reproducible at any thread count and never perturbs
//     the world RNG streams it is injected next to;
//   - time-windowed faults (receiver outage bursts, env-sensor stalls) are
//     pure functions of (seed, window_index), queryable statelessly at any
//     timestamp in any order;
//   - an all-zero FaultConfig is inert by construction: the injection hooks
//     in csi::Receiver / envsim::OfficeSimulator compare against the
//     default PacketFault and touch nothing, keeping the zero-fault path
//     bitwise identical to the seed outputs.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace wifisense::common {

struct FaultConfig {
    // -- per-packet iid faults (probabilities in [0, 1]) --------------------
    double frame_drop_rate = 0.0;  ///< packet never reaches the host
    double nan_rate = 0.0;         ///< a subset of amplitudes reads NaN
    double inf_rate = 0.0;         ///< a subset of amplitudes reads +Inf
    double saturate_rate = 0.0;    ///< AGC saturation: frame pinned at full scale
    /// Chance a packet loses a random subset of subcarriers (reported NaN).
    double subcarrier_dropout_rate = 0.0;
    /// Fraction of subcarriers lost by such a packet (at least one).
    double subcarrier_dropout_fraction = 0.15;

    // -- receiver outage bursts (disconnect/reconnect windows) --------------
    double burst_rate_per_h = 0.0;  ///< expected outages per hour
    double burst_len_s = 30.0;      ///< outage duration (clamped to the window)

    // -- environmental-sensor stream faults ---------------------------------
    double env_stall_rate_per_h = 0.0;  ///< expected stalls per hour
    double env_stall_len_s = 120.0;     ///< stall duration (sensor repeats itself)
    /// CSI<->env clock skew: env readings lag the CSI timeline by this much.
    double env_clock_skew_s = 0.0;

    // -- wire-level transport faults (per encoded telemetry frame) ----------
    // Applied by data::LinkEncoder between framing and the byte stream; the
    // decisions are keyed on (link_id, sequence) so every link degrades
    // independently under one plan.
    double wire_corrupt_rate = 0.0;    ///< random bit flips inside a frame
    double wire_truncate_rate = 0.0;   ///< frame cut short mid-stream
    double wire_reorder_rate = 0.0;    ///< frame swapped with its successor
    double wire_duplicate_rate = 0.0;  ///< frame delivered twice

    // -- per-link faults (multi-link telemetry) -----------------------------
    /// Per-link outage windows: the link emits no bytes at all while down.
    double link_outage_rate_per_h = 0.0;
    double link_outage_len_s = 30.0;
    /// Cross-link clock skew ceiling: link l's wire timestamps lag the world
    /// clock by a deterministic per-link amount in [0, link_clock_skew_s].
    double link_clock_skew_s = 0.0;

    // -- phase-stream faults (csi::Receiver CFR path) -----------------------
    /// Chance a packet's CFR picks up a random constant phase jump (CFO
    /// glitch) and/or per-subcarrier phase noise (PLL jitter). Amplitudes are
    /// invariant to a pure rotation, so these only reach the amplitude
    /// pipeline through the additive receiver noise that follows them.
    double phase_jump_rate = 0.0;
    double phase_jump_max_rad = 3.14159265358979323846;
    double phase_noise_rate = 0.0;
    double phase_noise_sigma_rad = 0.2;

    std::uint64_t seed = 0x5eed;

    /// True if any fault channel can fire.
    bool any_active() const;

    /// Copy with every stochastic rate multiplied by `factor` (clamped to
    /// [0,1] for probabilities). Durations and skew are kept; factor 0 is
    /// the inert plan. Bench sweeps use this to trace accuracy vs fault rate.
    FaultConfig scaled(double factor) const;
};

enum class CorruptKind : std::uint8_t { kNone = 0, kNaN, kInf, kSaturate };

/// The fault decision for one packet. Default-constructed == no fault.
struct PacketFault {
    bool dropped = false;
    CorruptKind corrupt = CorruptKind::kNone;
    /// Seeds the per-subcarrier mask of a kNaN/kInf corruption (nonzero iff
    /// corrupt is one of those kinds).
    std::uint64_t corrupt_mask_seed = 0;
    /// Nonzero => this packet loses subcarriers; the value seeds the mask.
    std::uint64_t dropout_mask_seed = 0;

    bool any() const {
        return dropped || corrupt != CorruptKind::kNone || dropout_mask_seed != 0;
    }
};

/// The wire-transport fault decision for one encoded telemetry frame.
/// Default-constructed == the frame passes through untouched.
struct WireFault {
    bool corrupt = false;    ///< flip a seeded handful of payload bits
    bool truncate = false;   ///< emit only a seeded prefix of the frame
    bool duplicate = false;  ///< emit the frame twice
    bool reorder = false;    ///< swap the frame with its successor
    /// Seeds the corruption offsets / truncation point (nonzero iff corrupt
    /// or truncate fired).
    std::uint64_t byte_seed = 0;

    bool any() const { return corrupt || truncate || duplicate || reorder; }
};

/// The phase-stream fault decision for one packet's CFR. Default == clean.
struct PhaseFault {
    double jump_rad = 0.0;           ///< constant rotation over all subcarriers
    std::uint64_t noise_seed = 0;    ///< nonzero => per-subcarrier phase noise
    double noise_sigma_rad = 0.0;    ///< std-dev of that per-subcarrier noise

    bool any() const { return jump_rad != 0.0 || noise_seed != 0; }
};

/// Stateless, seeded description of every fault the pipeline will see.
/// All queries are pure and safe to call concurrently.
class FaultPlan {
public:
    /// Inactive plan (every query reports "no fault").
    FaultPlan() = default;
    explicit FaultPlan(FaultConfig cfg);

    bool active() const { return active_; }
    const FaultConfig& config() const { return cfg_; }

    /// Fault decision for the packet_index-th CSI packet of the stream.
    PacketFault packet_fault(std::uint64_t packet_index) const;

    /// True while a receiver outage burst covers timestamp `t`.
    bool csi_offline(double t) const;

    /// True while the environmental sensor is stalled at timestamp `t`.
    bool env_stalled(double t) const;

    /// Constant env-behind-CSI clock skew in seconds (>= 0).
    double env_skew_s() const { return active_ ? cfg_.env_clock_skew_s : 0.0; }

    /// Wire-transport fault for frame `sequence` of link `link_id`. Keyed on
    /// (seed, link, sequence): links degrade independently, and the same
    /// frame always sees the same fate.
    WireFault wire_fault(std::uint8_t link_id, std::uint64_t sequence) const;

    /// True while a per-link outage window covers timestamp `t` on `link_id`
    /// (the link emits nothing at all; cf. csi_offline for the paper's
    /// single-receiver bursts).
    bool link_offline(std::uint8_t link_id, double t) const;

    /// Deterministic per-link clock skew in [0, link_clock_skew_s]; link 0 is
    /// the reference clock and never skews.
    double link_skew_s(std::uint8_t link_id) const;

    /// Phase-stream fault for the packet_index-th packet (salted by link so
    /// each receiver's oscillator glitches independently).
    PhaseFault phase_fault(std::uint64_t packet_index,
                           std::uint8_t link_id = 0) const;

private:
    bool window_fault_active(double t, std::uint64_t salt, double rate_per_h,
                             double len_s) const;

    FaultConfig cfg_;
    bool active_ = false;
};

/// Apply a packet fault to an amplitude vector in place (pure; `full_scale`
/// is the receiver's saturation amplitude, `dropout_fraction` the share of
/// subcarriers a dropout fault loses). Dropped-out / NaN / Inf subcarriers
/// overwrite their slots; downstream ingest must validate.
void apply_packet_fault(std::span<float> amps, const PacketFault& fault,
                        double full_scale, double dropout_fraction = 0.15);

/// Rotate a CFR in place per a phase fault: the constant jump plus seeded
/// per-subcarrier Gaussian phase noise. Pure — the noise stream is derived
/// from the fault's own seed, never from a shared RNG. |H[k]| is unchanged
/// by construction (rotations preserve magnitude).
void apply_phase_fault(std::span<std::complex<double>> cfr,
                       const PhaseFault& fault);

/// Parse a "key=value,key=value" fault-plan spec, e.g.
///   "drop=0.05,nan=0.01,dropout=0.02,burst_rate=0.5,burst_len=45,
///    env_stall_rate=0.3,env_stall_len=120,skew=1.5,seed=99"
/// Keys: drop, nan, inf, saturate, dropout, dropout_fraction, burst_rate,
/// burst_len, env_stall_rate, env_stall_len, skew, seed, plus the wire /
/// multi-link / phase families: wire_corrupt, wire_truncate, wire_reorder,
/// wire_duplicate, link_outage_rate, link_outage_len, link_skew, phase_jump,
/// phase_jump_max, phase_noise, phase_noise_sigma. Unknown keys and
/// out-of-range values produce kInvalidArgument.
[[nodiscard]] Result<FaultConfig> parse_fault_spec(std::string_view spec);

/// Render a config back to the spec format (diagnostics, bench metadata).
std::string to_spec(const FaultConfig& cfg);

}  // namespace wifisense::common
