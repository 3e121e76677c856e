#include "csi/channel.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace wifisense::csi {

namespace {

constexpr double kSpeedOfLight = 299'792'458.0;

}  // namespace

double vapor_density_gm3(double temperature_c, double relative_humidity_pct) {
    // Magnus formula: saturation vapour pressure in hPa.
    const double es = 6.112 * std::exp(17.62 * temperature_c / (243.12 + temperature_c));
    const double e = es * relative_humidity_pct / 100.0;
    // Ideal gas: rho_v [g/m^3] = 216.7 * e[hPa] / T[K].
    return 216.7 * e / (temperature_c + 273.15);
}

ChannelModel::ChannelModel(RoomGeometry room, ChannelConfig cfg, std::uint64_t seed)
    : room_(room), cfg_(cfg) {
    if (cfg_.n_subcarriers == 0)
        throw std::invalid_argument("ChannelModel: zero subcarriers");
    if (!room_.contains(room_.tx) || !room_.contains(room_.rx))
        throw std::invalid_argument("ChannelModel: TX/RX outside the room");

    images_ = first_order_images(room_.tx, room_, cfg_.surfaces);

    // Furniture scatterers: desks/cabinets scattered through the office away
    // from the TX-RX wall, at typical furniture heights.
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> ux(0.5, room_.lx - 0.5);
    std::uniform_real_distribution<double> uy(1.2, room_.ly - 0.3);
    std::uniform_real_distribution<double> uz(0.4, 1.5);
    furniture_.reserve(cfg_.n_furniture);
    for (std::size_t i = 0; i < cfg_.n_furniture; ++i)
        furniture_.push_back({ux(rng), uy(rng), uz(rng)});
    furniture_original_ = furniture_;
    drift_.assign(cfg_.n_furniture, Vec3{});
}

double ChannelModel::subcarrier_frequency(std::size_t k) const {
    const double offset =
        (static_cast<double>(k) - (static_cast<double>(cfg_.n_subcarriers) - 1.0) / 2.0);
    return cfg_.center_freq_hz + offset * cfg_.subcarrier_spacing_hz;
}

void ChannelModel::perturb_furniture(double magnitude, std::mt19937_64& rng,
                                     double fraction) {
    // wifisense-lint: allow(ipa.rng-leak) stateless shaper over the caller's seeded substream engine: deterministic under the fixed-seed contract
    std::uniform_real_distribution<double> u(-magnitude, magnitude);
    // wifisense-lint: allow(ipa.rng-leak) stateless shaper over the caller's seeded substream engine: deterministic under the fixed-seed contract
    std::uniform_real_distribution<double> pick(0.0, 1.0);
    for (Vec3& f : furniture_) {
        if (pick(rng) > fraction) continue;
        f.x = std::clamp(f.x + u(rng), 0.3, room_.lx - 0.3);
        f.y = std::clamp(f.y + u(rng), 0.3, room_.ly - 0.3);
        f.z = std::clamp(f.z + 0.3 * u(rng), 0.2, 1.8);
    }
}

void ChannelModel::shuffle_furniture(double magnitude, std::mt19937_64& rng,
                                     double fraction) {
    // wifisense-lint: allow(ipa.rng-leak) stateless shaper over the caller's seeded substream engine: deterministic under the fixed-seed contract
    std::uniform_real_distribution<double> u(-magnitude, magnitude);
    // wifisense-lint: allow(ipa.rng-leak) stateless shaper over the caller's seeded substream engine: deterministic under the fixed-seed contract
    std::uniform_real_distribution<double> pick(0.0, 1.0);
    for (std::size_t i = 0; i < furniture_.size(); ++i) {
        if (pick(rng) > fraction) continue;
        const Vec3& base = furniture_original_[i];
        furniture_[i].x = std::clamp(base.x + u(rng), 0.3, room_.lx - 0.3);
        furniture_[i].y = std::clamp(base.y + u(rng), 0.3, room_.ly - 0.3);
        furniture_[i].z = std::clamp(base.z + 0.3 * u(rng), 0.2, 1.8);
    }
}

void ChannelModel::set_furniture(std::vector<Vec3> positions) {
    if (positions.size() != furniture_.size())
        throw std::invalid_argument("set_furniture: scatterer count mismatch");
    furniture_ = std::move(positions);
}

void ChannelModel::advance_drift(double dt, std::mt19937_64& rng) {
    if (cfg_.furniture_drift_sigma_m <= 0.0 || cfg_.furniture_drift_tau_s <= 0.0)
        return;
    const double decay = dt / cfg_.furniture_drift_tau_s;
    const double kick =
        cfg_.furniture_drift_sigma_m * std::sqrt(2.0 * decay);
    // wifisense-lint: allow(ipa.rng-leak) stateless shaper over the caller's seeded substream engine: deterministic under the fixed-seed contract
    std::normal_distribution<double> norm(0.0, 1.0);
    for (Vec3& d : drift_) {
        d.x += -d.x * decay + kick * norm(rng);
        d.y += -d.y * decay + kick * norm(rng);
        d.z += -0.3 * d.z * decay + 0.3 * kick * norm(rng);
    }
}

std::vector<Vec3> ChannelModel::scatterer_positions() const {
    std::vector<Vec3> out(furniture_.size());
    for (std::size_t i = 0; i < furniture_.size(); ++i)
        out[i] = furniture_[i] + drift_[i];
    return out;
}

std::vector<std::complex<double>> ChannelModel::frequency_response(
    const EnvironmentState& env, std::span<const BodyState> bodies) const {
    return frequency_response(env, bodies, scatterer_positions());
}

std::vector<std::complex<double>> ChannelModel::frequency_response(
    const EnvironmentState& env, std::span<const BodyState> bodies,
    std::span<const Vec3> scatterers) const {
    const std::size_t n = cfg_.n_subcarriers;
    std::vector<std::complex<double>> h(n, {0.0, 0.0});

    const double alpha = cfg_.humidity_atten_per_m_gm3 * env.vapor_density_gm3;
    const double phase_stretch = 1.0 + cfg_.temp_phase_coeff * (env.temperature_c - 21.0);
    const double rx_gain = 1.0 + cfg_.temp_gain_coeff * (env.temperature_c - 21.0);

    // A path contributes amp * exp(-j 2 pi f d_eff / c) on every subcarrier;
    // amp includes the Friis spreading loss at the center wavelength.
    const double lambda_c = kSpeedOfLight / cfg_.center_freq_hz;
    const auto add_path = [&](double geometric_length, double coeff) {
        if (coeff == 0.0) return;
        const double amp = coeff * lambda_c / (4.0 * std::numbers::pi * geometric_length) *
                           std::exp(-alpha * geometric_length);
        const double d_eff = geometric_length * phase_stretch;
        // phase(k) = -2 pi f_k d_eff / c is affine in k, so step through the
        // subcarriers with one complex rotation instead of 64 sincos calls.
        const double base = -2.0 * std::numbers::pi * d_eff / kSpeedOfLight;
        const std::complex<double> rot =
            std::polar(1.0, base * cfg_.subcarrier_spacing_hz);
        std::complex<double> cur = std::polar(amp, base * subcarrier_frequency(0));
        for (std::size_t k = 0; k < n; ++k) {
            h[k] += cur;
            cur *= rot;
        }
    };

    // Obstruction: amplitude retained on a chord passing near bodies.
    const auto obstruction = [&](const Vec3& a, const Vec3& b) {
        double retained = 1.0;
        for (const BodyState& body : bodies) {
            // Bodies occupy roughly z in [0, 1.8]; the chord runs at sensor
            // height, so planar proximity is what matters.
            const Vec3 p{body.position.x, body.position.y, (a.z + b.z) / 2.0};
            if (point_segment_distance(p, a, b) < cfg_.body_block_radius_m)
                retained *= cfg_.body_block_loss;
        }
        return retained;
    };

    // Line of sight. The paper's occupants cannot pass between AP and RP1,
    // and the occupant model keeps them out of that strip, so obstruction is
    // structurally ~1 here but kept for generality.
    add_path(distance(room_.tx, room_.rx),
             obstruction(room_.tx, room_.rx));

    // First-order wall/floor/ceiling reflections (image method: the path
    // length equals the image-to-RX distance).
    for (const ImageSource& img : images_) {
        const double d = distance(img.position, room_.rx);
        add_path(d, img.reflection_coeff * obstruction(img.position, room_.rx));
    }

    // Furniture bistatic scattering (base position + slow drift).
    for (std::size_t i = 0; i < scatterers.size(); ++i) {
        const Vec3& f = scatterers[i];
        const double d = distance(room_.tx, f) + distance(f, room_.rx);
        const double block =
            obstruction(room_.tx, f) * obstruction(f, room_.rx);
        add_path(d, cfg_.furniture_reflectivity * block * 0.8);
    }

    // Human bodies as scatterers.
    for (const BodyState& body : bodies) {
        const Vec3 torso{body.position.x, body.position.y, 1.1};
        const double d = distance(room_.tx, torso) + distance(torso, room_.rx);
        add_path(d, body.reflectivity);
    }

    for (std::complex<double>& v : h) v *= rx_gain;
    return h;
}

}  // namespace wifisense::csi
