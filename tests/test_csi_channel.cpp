#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>

#include "csi/channel.hpp"
#include "csi/geometry.hpp"
#include "csi/receiver.hpp"

namespace csi = wifisense::csi;

namespace {

csi::ChannelModel default_channel(std::uint64_t seed = 1) {
    return csi::ChannelModel(csi::RoomGeometry{}, csi::ChannelConfig{}, seed);
}

double mean_amplitude(const std::vector<std::complex<double>>& h) {
    double acc = 0.0;
    for (const auto& v : h) acc += std::abs(v);
    return acc / static_cast<double>(h.size());
}

}  // namespace

// --- geometry ---------------------------------------------------------------

TEST(Geometry, PointSegmentDistance) {
    const csi::Vec3 a{0, 0, 0}, b{10, 0, 0};
    EXPECT_NEAR(csi::point_segment_distance({5, 3, 0}, a, b), 3.0, 1e-12);
    EXPECT_NEAR(csi::point_segment_distance({-4, 0, 3}, a, b), 5.0, 1e-12);
    EXPECT_NEAR(csi::point_segment_distance({12, 0, 0}, a, b), 2.0, 1e-12);
}

TEST(Geometry, DegenerateSegmentIsPointDistance) {
    const csi::Vec3 a{1, 1, 1};
    EXPECT_NEAR(csi::point_segment_distance({1, 2, 1}, a, a), 1.0, 1e-12);
}

TEST(Geometry, FirstOrderImagesMirrorAcrossSurfaces) {
    const csi::RoomGeometry room;
    const csi::SurfaceReflectivity refl;
    const csi::Vec3 src{2.0, 3.0, 1.0};
    const auto images = csi::first_order_images(src, room, refl);
    EXPECT_DOUBLE_EQ(images[0].position.x, -2.0);              // x = 0 wall
    EXPECT_DOUBLE_EQ(images[1].position.x, 2.0 * room.lx - 2.0);
    EXPECT_DOUBLE_EQ(images[2].position.y, -3.0);
    EXPECT_DOUBLE_EQ(images[3].position.y, 2.0 * room.ly - 3.0);
    EXPECT_DOUBLE_EQ(images[4].position.z, -1.0);              // floor
    EXPECT_DOUBLE_EQ(images[5].position.z, 2.0 * room.lz - 1.0);
    EXPECT_DOUBLE_EQ(images[4].reflection_coeff, refl.floor);
    EXPECT_DOUBLE_EQ(images[5].reflection_coeff, refl.ceiling);
}

TEST(Geometry, RoomContains) {
    const csi::RoomGeometry room;
    EXPECT_TRUE(room.contains({6, 3, 1.5}));
    EXPECT_FALSE(room.contains({-0.1, 3, 1.5}));
    EXPECT_FALSE(room.contains({6, 3, 3.1}));
}

// --- channel ----------------------------------------------------------------

TEST(Channel, SubcarrierGridIsCenteredOnCarrier) {
    const auto ch = default_channel();
    const csi::ChannelConfig& cfg = ch.config();
    const double f0 = ch.subcarrier_frequency(0);
    const double f63 = ch.subcarrier_frequency(63);
    EXPECT_NEAR((f0 + f63) / 2.0, cfg.center_freq_hz, 1.0);
    EXPECT_NEAR(f63 - f0, 63.0 * cfg.subcarrier_spacing_hz, 1e-3);
    // 64 subcarriers over 20 MHz (Section II-A).
    EXPECT_EQ(cfg.n_subcarriers, 64u);
    EXPECT_NEAR(64.0 * cfg.subcarrier_spacing_hz, 20e6, 1.0);
}

TEST(Channel, ResponseIsDeterministicForFixedState) {
    const auto ch = default_channel(3);
    const csi::EnvironmentState env;
    const auto h1 = ch.frequency_response(env, {});
    const auto h2 = ch.frequency_response(env, {});
    ASSERT_EQ(h1.size(), h2.size());
    for (std::size_t k = 0; k < h1.size(); ++k) EXPECT_EQ(h1[k], h2[k]);
}

TEST(Channel, FrequencySelectiveFading) {
    const auto ch = default_channel(4);
    const auto h = ch.frequency_response(csi::EnvironmentState{}, {});
    double lo = 1e9, hi = 0.0;
    for (const auto& v : h) {
        lo = std::min(lo, std::abs(v));
        hi = std::max(hi, std::abs(v));
    }
    EXPECT_GT(hi / lo, 1.02);  // multipath ripple exists
    EXPECT_LT(hi / lo, 100.0);  // but LoS dominates (no deep nulls at 2 m)
}

TEST(Channel, BodyPresenceChangesResponse) {
    const auto ch = default_channel(5);
    const csi::EnvironmentState env;
    const auto empty = ch.frequency_response(env, {});
    const std::vector<csi::BodyState> bodies{{{6.0, 3.0, 1.1}, 1.0}};
    const auto occupied = ch.frequency_response(env, bodies);
    double delta = 0.0;
    for (std::size_t k = 0; k < empty.size(); ++k)
        delta = std::max(delta, std::abs(std::abs(occupied[k]) - std::abs(empty[k])));
    // Body-induced change clearly above receiver noise (4e-5).
    EXPECT_GT(delta, 5e-5);
}

TEST(Channel, MoreBodiesMoreDeviation) {
    const auto ch = default_channel(6);
    const csi::EnvironmentState env;
    const auto empty = ch.frequency_response(env, {});
    const auto rms_delta = [&](const std::vector<csi::BodyState>& bodies) {
        const auto h = ch.frequency_response(env, bodies);
        double acc = 0.0;
        for (std::size_t k = 0; k < h.size(); ++k) {
            const double d = std::abs(h[k]) - std::abs(empty[k]);
            acc += d * d;
        }
        return std::sqrt(acc / static_cast<double>(h.size()));
    };
    const double one = rms_delta({{{4.0, 4.0, 1.1}, 1.0}});
    const double three = rms_delta({{{4.0, 4.0, 1.1}, 1.0},
                                    {{8.0, 2.5, 1.1}, 1.0},
                                    {{10.0, 4.5, 1.1}, 1.0}});
    EXPECT_GT(three, one * 1.2);
}

TEST(Channel, HumidityAttenuatesAmplitude) {
    const auto ch = default_channel(7);
    const auto dry = ch.frequency_response({21.0, 2.0}, {});
    const auto humid = ch.frequency_response({21.0, 14.0}, {});
    EXPECT_LT(mean_amplitude(humid), mean_amplitude(dry));
}

TEST(Channel, TemperatureShiftsInterferencePattern) {
    const auto ch = default_channel(8);
    const auto cold = ch.frequency_response({18.0, 6.0}, {});
    const auto hot = ch.frequency_response({28.0, 6.0}, {});
    double delta = 0.0;
    for (std::size_t k = 0; k < cold.size(); ++k)
        delta = std::max(delta, std::abs(std::abs(hot[k]) - std::abs(cold[k])));
    EXPECT_GT(delta, 1e-5);
}

TEST(Channel, PerturbFurnitureMovesScatterersWithinRoom) {
    auto ch = default_channel(9);
    const auto before = ch.furniture();
    std::mt19937_64 rng(1);
    ch.perturb_furniture(0.5, rng);
    const auto& after = ch.furniture();
    double moved = 0.0;
    for (std::size_t i = 0; i < before.size(); ++i) {
        moved += csi::distance(before[i], after[i]);
        EXPECT_TRUE(ch.room().contains(after[i]));
    }
    EXPECT_GT(moved, 0.1);
}

TEST(Channel, PartialPerturbationMovesOnlySomeScatterers) {
    auto ch = default_channel(10);
    const auto before = ch.furniture();
    std::mt19937_64 rng(2);
    ch.perturb_furniture(0.5, rng, 0.3);
    std::size_t moved = 0;
    for (std::size_t i = 0; i < before.size(); ++i)
        if (csi::distance(before[i], ch.furniture()[i]) > 1e-9) ++moved;
    EXPECT_GT(moved, 0u);
    EXPECT_LT(moved, before.size());
}

TEST(Channel, SetFurnitureValidatesCount) {
    auto ch = default_channel(11);
    EXPECT_THROW(ch.set_furniture({}), std::invalid_argument);
    auto layout = ch.furniture();
    layout[0].x += 1.0;
    ch.set_furniture(layout);
    EXPECT_NEAR(ch.furniture()[0].x, layout[0].x, 1e-12);
}

TEST(Channel, DriftIsStationaryOu) {
    auto ch = default_channel(12);
    csi::ChannelConfig cfg = ch.config();
    std::mt19937_64 rng(3);
    // Advance far beyond tau; scatterer displacement stays bounded by ~4 sigma.
    const auto base = ch.furniture();
    for (int i = 0; i < 20'000; ++i) ch.advance_drift(10.0, rng);
    const auto h1 = ch.frequency_response(csi::EnvironmentState{}, {});
    EXPECT_TRUE(std::isfinite(mean_amplitude(h1)));
    (void)base;
    (void)cfg;
}

TEST(Channel, InvalidConstructionThrows) {
    csi::RoomGeometry room;
    room.tx = {-1.0, 0.0, 0.0};
    EXPECT_THROW(csi::ChannelModel(room, csi::ChannelConfig{}, 1), std::invalid_argument);
    csi::ChannelConfig cfg;
    cfg.n_subcarriers = 0;
    EXPECT_THROW(csi::ChannelModel(csi::RoomGeometry{}, cfg, 1), std::invalid_argument);
}

TEST(Channel, VaporDensityMagnusFormula) {
    // ~17.3 g/m^3 saturation at 20 degC is the textbook value.
    EXPECT_NEAR(csi::vapor_density_gm3(20.0, 100.0), 17.3, 0.3);
    EXPECT_NEAR(csi::vapor_density_gm3(20.0, 50.0), 17.3 / 2.0, 0.2);
    EXPECT_GT(csi::vapor_density_gm3(30.0, 50.0), csi::vapor_density_gm3(10.0, 50.0));
}

// --- receiver ----------------------------------------------------------------

TEST(Receiver, OutputHasRightSizeAndIsNonNegative) {
    csi::Receiver rx(csi::ReceiverConfig{}, 5);
    const auto ch = default_channel(13);
    const auto h = ch.frequency_response(csi::EnvironmentState{}, {});
    const std::vector<float> amps = rx.sample_amplitudes(h);
    ASSERT_EQ(amps.size(), h.size());
    for (const float a : amps) EXPECT_GE(a, 0.0f);
}

TEST(Receiver, AgcNormalizesTotalPower) {
    csi::ReceiverConfig cfg;
    cfg.agc_compression = 1.0;
    cfg.agc_jitter_sigma = 0.0;
    cfg.noise_sigma = 0.0;
    cfg.quant_levels = 0;
    csi::Receiver rx(cfg, 6);
    const auto ch = default_channel(14);
    // Same channel at two global scales must produce the same AGC output.
    auto h = ch.frequency_response(csi::EnvironmentState{}, {});
    auto h2 = h;
    for (auto& v : h2) v *= 3.0;
    const std::vector<float> a1 = rx.sample_amplitudes(h);
    const std::vector<float> a2 = rx.sample_amplitudes(h2);
    for (std::size_t k = 0; k < a1.size(); ++k) EXPECT_NEAR(a1[k], a2[k], 1e-6f);
}

TEST(Receiver, QuantizationSnapsToGrid) {
    csi::ReceiverConfig cfg;
    cfg.noise_sigma = 0.0;
    cfg.agc_jitter_sigma = 0.0;
    cfg.agc_compression = 0.0;
    cfg.quant_levels = 16;
    cfg.full_scale = 1.6;
    csi::Receiver rx(cfg, 7);
    const std::vector<std::complex<double>> h{{0.33, 0.0}, {0.87, 0.0}};
    const std::vector<float> a = rx.sample_amplitudes(h);
    EXPECT_NEAR(a[0], 0.3f, 1e-6f);
    EXPECT_NEAR(a[1], 0.9f, 1e-6f);
}

TEST(Receiver, NoiseProducesSampleToSampleVariation) {
    csi::Receiver rx(csi::ReceiverConfig{}, 8);
    const auto ch = default_channel(15);
    const auto h = ch.frequency_response(csi::EnvironmentState{}, {});
    const std::vector<float> a1 = rx.sample_amplitudes(h);
    const std::vector<float> a2 = rx.sample_amplitudes(h);
    float delta = 0.0f;
    for (std::size_t k = 0; k < a1.size(); ++k)
        delta = std::max(delta, std::abs(a1[k] - a2[k]));
    EXPECT_GT(delta, 0.0f);
}

TEST(Receiver, ConfigValidation) {
    csi::ReceiverConfig cfg;
    cfg.noise_sigma = -1.0;
    EXPECT_THROW(csi::Receiver(cfg, 1), std::invalid_argument);
    cfg = {};
    cfg.full_scale = 0.0;
    EXPECT_THROW(csi::Receiver(cfg, 1), std::invalid_argument);
}
