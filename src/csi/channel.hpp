// Physics-based OFDM channel model producing the per-subcarrier complex
// frequency response H(f_k) of Eq. (1).
//
// Ray inventory per evaluation:
//   - the line-of-sight path TX -> RX;
//   - six first-order specular images (walls, floor, ceiling);
//   - one bistatic scattering path TX -> scatterer -> RX per furniture item;
//   - one bistatic path per human body present, plus obstruction losses on
//     static paths that a body stands close to.
//
// Environmental coupling (the paper's Section V-D claim that CSI encodes
// temperature/humidity non-linearly):
//   - water-vapour excess attenuation: each path is scaled by
//     exp(-alpha * d) with alpha proportional to absolute humidity;
//   - temperature phase drift: effective electrical path length scales with
//     (1 + kappa (T - 21degC)), modeling combined oscillator ppm drift and
//     material property changes;
//   - temperature gain drift of the receiver front-end.
// The coupling coefficients are deliberately a few orders of magnitude
// larger than free-space physics alone would give (real 2.4 GHz vapour
// absorption is ~1e-4 dB/m); they stand in for the aggregate of all
// temperature/humidity-dependent effects in a real building (heater airflow,
// material permittivity, hardware drift) and are sized so the regression
// task of Table V is learnable above the receiver noise floor. See
// DESIGN.md, substitution table.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "csi/geometry.hpp"

namespace wifisense::csi {

/// Thermodynamic state of the room as seen by the channel.
struct EnvironmentState {
    double temperature_c = 21.0;
    double vapor_density_gm3 = 6.0;  ///< absolute humidity (g/m^3)
};

/// A human body treated as a mobile scatterer.
struct BodyState {
    Vec3 position;
    double reflectivity = 1.0;   ///< torso monostatic reflection coefficient
};

struct ChannelConfig {
    std::size_t n_subcarriers = 64;       ///< 20 MHz channel => 64 (Section II-A)
    double center_freq_hz = 2.437e9;      ///< 2.4 GHz band, channel 6
    double subcarrier_spacing_hz = 312.5e3;
    SurfaceReflectivity surfaces;

    std::size_t n_furniture = 10;
    double furniture_reflectivity = 0.15;
    /// Slow Ornstein-Uhlenbeck positional drift of the scatterers (chairs
    /// nudged, doors ajar, cm-scale everyday entropy). This is what makes
    /// the empty-room CSI wander across hours/days — the reason a linear
    /// classifier cannot pin down a fixed "empty" signature (Table IV,
    /// Logistic/CSI) while nonlinear models still can.
    double furniture_drift_sigma_m = 0.001;
    double furniture_drift_tau_s = 14400.0;

    /// Body shadowing: extra loss applied to a static path when a body is
    /// within `body_block_radius_m` of the path's chord.
    double body_block_radius_m = 0.6;
    double body_block_loss = 0.45;  ///< multiplicative amplitude retained

    /// Water vapour attenuation per metre per (g/m^3) of absolute humidity.
    double humidity_atten_per_m_gm3 = 5.0e-4;
    /// Fractional electrical path length change per degC away from 21degC.
    double temp_phase_coeff = 4.0e-5;
    /// Receiver front-end gain slope per degC away from 21degC.
    double temp_gain_coeff = -8.0e-4;
};

/// Multipath channel over a fixed room. The furniture scatterer layout is
/// drawn once from the constructor seed and can later be perturbed to model
/// the paper's "furniture layout does change" condition.
class ChannelModel {
public:
    ChannelModel(RoomGeometry room, ChannelConfig cfg, std::uint64_t seed);

    /// Complex CFR H[k] for the current layout, environment, and bodies.
    std::vector<std::complex<double>> frequency_response(
        const EnvironmentState& env, std::span<const BodyState> bodies) const;

    /// Pure variant over an explicit scatterer snapshot (base + drift
    /// positions, see scatterer_positions()). Reads only immutable channel
    /// state, so it is safe to call concurrently while the snapshot's owner
    /// keeps mutating the live layout — the simulator's parallel measurement
    /// phase relies on this.
    std::vector<std::complex<double>> frequency_response(
        const EnvironmentState& env, std::span<const BodyState> bodies,
        std::span<const Vec3> scatterers) const;

    /// Effective scatterer positions right now: furniture + OU drift.
    std::vector<Vec3> scatterer_positions() const;

    /// Displace furniture scatterers by up to `magnitude` metres (uniform
    /// per-axis), clamped into the room. Each scatterer is moved with
    /// probability `fraction` (cleaners move chairs, not desks). Models
    /// layout changes.
    void perturb_furniture(double magnitude, std::mt19937_64& rng,
                           double fraction = 1.0);

    /// Replace the scatterer layout (size must match n_furniture); used to
    /// restore a saved layout after a temporary rearrangement.
    void set_furniture(std::vector<Vec3> positions);

    /// Anchored shuffle: selected scatterers jump to (original position +
    /// fresh uniform displacement up to `magnitude`). Unlike
    /// perturb_furniture this does NOT accumulate — repeated shuffles form an
    /// i.i.d. cloud around the constructor layout, modelling furniture that
    /// is moved and roughly put back.
    void shuffle_furniture(double magnitude, std::mt19937_64& rng,
                           double fraction = 1.0);

    /// Advance the OU positional drift of the scatterers by dt seconds.
    void advance_drift(double dt, std::mt19937_64& rng);

    const std::vector<Vec3>& furniture() const { return furniture_; }
    const RoomGeometry& room() const { return room_; }
    const ChannelConfig& config() const { return cfg_; }

    /// Subcarrier center frequency f_k (k in [0, n_subcarriers)).
    double subcarrier_frequency(std::size_t k) const;

private:
    RoomGeometry room_;
    ChannelConfig cfg_;
    std::array<ImageSource, 6> images_;
    std::vector<Vec3> furniture_;
    std::vector<Vec3> furniture_original_;
    std::vector<Vec3> drift_;  ///< OU offset added to each scatterer
};

/// Absolute humidity (g/m^3) from temperature (degC) and relative humidity
/// (percent), via the Magnus saturation-pressure formula.
double vapor_density_gm3(double temperature_c, double relative_humidity_pct);

}  // namespace wifisense::csi
