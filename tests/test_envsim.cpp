#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/simtime.hpp"
#include "envsim/occupants.hpp"
#include "envsim/sensor.hpp"
#include "envsim/thermal.hpp"

namespace envsim = wifisense::envsim;
namespace data = wifisense::data;

// --- simtime -----------------------------------------------------------------

TEST(SimTime, DayIndexAndSecondsOfDay) {
    EXPECT_EQ(data::day_index(0.0), 0);
    EXPECT_EQ(data::day_index(86'400.0 * 2 + 5.0), 2);
    EXPECT_DOUBLE_EQ(data::seconds_of_day(86'400.0 + 3'600.0), 3'600.0);
    EXPECT_DOUBLE_EQ(data::hour_of_day(86'400.0 * 3 + 12.5 * 3'600.0), 12.5);
}

TEST(SimTime, WeekendDetection) {
    // Day 0 = Tuesday Jan 4; Saturday is day 4, Sunday day 5.
    EXPECT_FALSE(data::is_weekend(0.0));
    EXPECT_FALSE(data::is_weekend(3.0 * 86'400.0));   // Friday
    EXPECT_TRUE(data::is_weekend(4.0 * 86'400.0));    // Saturday
    EXPECT_TRUE(data::is_weekend(5.0 * 86'400.0));    // Sunday
    EXPECT_FALSE(data::is_weekend(6.0 * 86'400.0));   // Monday
}

TEST(SimTime, FormatMatchesTable3Style) {
    EXPECT_EQ(data::format_timestamp(data::kCollectionStart), "04/01 15:08");
    EXPECT_EQ(data::format_timestamp(2.0 * 86'400.0 + 19.0 * 3'600.0 + 16.0 * 60.0),
              "06/01 19:16");
}

// --- thermal -----------------------------------------------------------------

TEST(Thermal, HeaterDrivesTemperatureTowardSetpoint) {
    envsim::ThermalConfig cfg;
    cfg.setpoint_day_jitter_c = 0.0;
    envsim::ThermalModel model(cfg, 1);
    // Tuesday 09:00, heating scheduled on.
    const double t0 = 9.0 * 3'600.0;
    for (int i = 0; i < 4 * 3'600; ++i) model.step(t0 + i, 1.0, 0, false);
    EXPECT_NEAR(model.indoor_temperature_c(), cfg.setpoint_c, 1.0);
}

TEST(Thermal, NightCoolsTowardStructureNotOutdoor) {
    envsim::ThermalConfig cfg;
    envsim::ThermalModel model(cfg, 2);
    const double t0 = 22.0 * 3'600.0;  // Tuesday 22:00, heating off
    for (int i = 0; i < 8 * 3'600; ++i) model.step(t0 + i, 1.0, 0, false);
    // Outdoor is ~0-3 degC at night; the office floor stays near 17-20.
    EXPECT_GT(model.indoor_temperature_c(), 15.0);
    EXPECT_LT(model.indoor_temperature_c(), 21.0);
}

TEST(Thermal, OccupantsRaiseHumidity) {
    envsim::ThermalConfig cfg;
    envsim::ThermalModel occupied(cfg, 3);
    envsim::ThermalModel empty(cfg, 3);
    const double t0 = 10.0 * 3'600.0;
    for (int i = 0; i < 2 * 3'600; ++i) {
        occupied.step(t0 + i, 1.0, 4, false);
        empty.step(t0 + i, 1.0, 0, false);
    }
    EXPECT_GT(occupied.vapor_density_gm3(), empty.vapor_density_gm3() + 0.5);
    EXPECT_GT(occupied.relative_humidity_pct(), empty.relative_humidity_pct());
}

TEST(Thermal, WindowVentilationDriesTheRoom) {
    envsim::ThermalConfig cfg;
    cfg.initial_vapor_gm3 = 9.0;
    envsim::ThermalModel open(cfg, 4);
    envsim::ThermalModel closed(cfg, 4);
    const double t0 = 10.0 * 3'600.0;
    for (int i = 0; i < 1'800; ++i) {
        open.step(t0 + i, 1.0, 0, true);
        closed.step(t0 + i, 1.0, 0, false);
    }
    EXPECT_LT(open.vapor_density_gm3(), closed.vapor_density_gm3());
}

TEST(Thermal, FaultDayKillsMorningHeating) {
    envsim::ThermalConfig cfg;
    envsim::ThermalModel model(cfg, 5);
    // Friday (day 3) 10:00: inside normal heating hours but before fault end.
    const double friday10 = 3.0 * 86'400.0 + 10.0 * 3'600.0;
    EXPECT_DOUBLE_EQ(model.active_setpoint(friday10), 0.0);
    // Friday 14:00: boost.
    const double friday14 = 3.0 * 86'400.0 + 14.0 * 3'600.0;
    EXPECT_DOUBLE_EQ(model.active_setpoint(friday14), cfg.fault_boost_setpoint_c);
    // Tuesday 14:00: normal setpoint (plus deterministic day jitter).
    const double tuesday14 = 14.0 * 3'600.0;
    EXPECT_GE(model.active_setpoint(tuesday14), cfg.setpoint_c);
    EXPECT_LE(model.active_setpoint(tuesday14),
              cfg.setpoint_c + cfg.setpoint_day_jitter_c);
}

TEST(Thermal, WeekendAndNightSetpointOff) {
    envsim::ThermalModel model(envsim::ThermalConfig{}, 6);
    EXPECT_DOUBLE_EQ(model.active_setpoint(2.0 * 3'600.0), 0.0);          // 02:00
    EXPECT_DOUBLE_EQ(model.active_setpoint(4.0 * 86'400.0 + 12.0 * 3'600.0),
                     0.0);  // Saturday noon
}

TEST(Thermal, OutdoorDiurnalCycle) {
    envsim::ThermalConfig cfg;
    envsim::ThermalModel model(cfg, 7);
    const double peak = model.outdoor_temperature_c(cfg.outdoor_temp_peak_hour * 3'600.0);
    const double trough =
        model.outdoor_temperature_c((cfg.outdoor_temp_peak_hour + 12.0) * 3'600.0);
    EXPECT_NEAR(peak, cfg.outdoor_temp_mean_c + cfg.outdoor_temp_amplitude_c, 1e-9);
    EXPECT_NEAR(trough, cfg.outdoor_temp_mean_c - cfg.outdoor_temp_amplitude_c, 1e-9);
}

TEST(Thermal, SaturationVaporDensityTextbookValues) {
    EXPECT_NEAR(envsim::saturation_vapor_density_gm3(20.0), 17.3, 0.3);
    EXPECT_NEAR(envsim::saturation_vapor_density_gm3(0.0), 4.85, 0.15);
}

TEST(Thermal, InvalidConfigThrows) {
    envsim::ThermalConfig cfg;
    cfg.volume_m3 = 0.0;
    EXPECT_THROW(envsim::ThermalModel(cfg, 1), std::invalid_argument);
    envsim::ThermalModel ok(envsim::ThermalConfig{}, 1);
    EXPECT_THROW(ok.step(0.0, 0.0, 0, false), std::invalid_argument);
}

// --- sensor --------------------------------------------------------------

TEST(Sensor, TracksTrueValueWithLag) {
    envsim::SensorConfig cfg;
    cfg.temp_noise_c = 0.0;
    cfg.humidity_noise_pct = 0.0;
    cfg.heater_pickup_max_c = 0.0;
    envsim::EnvironmentSensor sensor(cfg, 1);
    for (int i = 0; i < 100; ++i) sensor.step(10.0, 25.0, 40.0, false);
    EXPECT_NEAR(sensor.read_temperature_c(), 25.0, 0.1);
    EXPECT_NEAR(sensor.read_humidity_pct(), 40.0, 1.0);
}

TEST(Sensor, QuantizesHumidityToIntegers) {
    envsim::SensorConfig cfg;
    cfg.humidity_noise_pct = 0.0;
    envsim::EnvironmentSensor sensor(cfg, 2);
    for (int i = 0; i < 50; ++i) sensor.step(10.0, 21.0, 37.4, false);
    const double h = sensor.read_humidity_pct();
    EXPECT_DOUBLE_EQ(h, std::round(h));
}

TEST(Sensor, HeaterPickupBiasesTemperatureUp) {
    envsim::SensorConfig cfg;
    cfg.temp_noise_c = 0.0;
    envsim::EnvironmentSensor with(cfg, 3);
    envsim::EnvironmentSensor without(cfg, 3);
    for (int i = 0; i < 2'000; ++i) {
        with.step(10.0, 22.0, 35.0, true);
        without.step(10.0, 22.0, 35.0, false);
    }
    EXPECT_GT(with.read_temperature_c(), without.read_temperature_c() + 0.2);
}

TEST(Sensor, Validation) {
    envsim::SensorConfig cfg;
    cfg.time_constant_s = 0.0;
    EXPECT_THROW(envsim::EnvironmentSensor(cfg, 1), std::invalid_argument);
    envsim::EnvironmentSensor ok(envsim::SensorConfig{}, 1);
    EXPECT_THROW(ok.step(0.0, 20.0, 40.0, false), std::invalid_argument);
}

// --- occupants -----------------------------------------------------------

TEST(Occupants, NightsAreEmpty) {
    envsim::OccupantModel model(envsim::OccupantConfig{}, wifisense::csi::RoomGeometry{},
                                42);
    for (int day = 0; day < 4; ++day) {
        EXPECT_EQ(model.count_inside(day * 86'400.0 + 2.0 * 3'600.0), 0)
            << "night of day " << day;
    }
}

TEST(Occupants, ThursdayEveningEmptyForFolds123) {
    envsim::OccupantModel model(envsim::OccupantConfig{}, wifisense::csi::RoomGeometry{},
                                42);
    // Thursday (day 2) 19:16 through Friday 08:41: the empty test folds.
    const double start = 2.0 * 86'400.0 + 19.27 * 3'600.0;
    const double end = 3.0 * 86'400.0 + 8.68 * 3'600.0;
    for (double t = start; t < end; t += 300.0)
        ASSERT_EQ(model.count_inside(t), 0) << "t=" << data::format_timestamp(t);
}

TEST(Occupants, FridayAfternoonAlwaysOccupied) {
    envsim::OccupantModel model(envsim::OccupantConfig{}, wifisense::csi::RoomGeometry{},
                                42);
    // Fold 5: Friday 13:10 - 17:38.
    const double start = 3.0 * 86'400.0 + 13.2 * 3'600.0;
    const double end = 3.0 * 86'400.0 + 17.6 * 3'600.0;
    for (double t = start; t < end; t += 300.0)
        ASSERT_GE(model.count_inside(t), 1) << "t=" << data::format_timestamp(t);
}

TEST(Occupants, WorkdaysHavePeople) {
    envsim::OccupantModel model(envsim::OccupantConfig{}, wifisense::csi::RoomGeometry{},
                                42);
    int peak = 0;
    for (double t = 86'400.0 + 9.0 * 3'600.0; t < 86'400.0 + 17.0 * 3'600.0; t += 600.0)
        peak = std::max(peak, model.count_inside(t));
    EXPECT_GE(peak, 1);
    EXPECT_LE(peak, 6);
}

TEST(Occupants, BodiesStayInsideRoomAndOutOfKeepout) {
    envsim::OccupantConfig cfg;
    wifisense::csi::RoomGeometry room;
    envsim::OccupantModel model(cfg, room, 43);
    // Walk through a busy day and check every body position.
    const double start = 86'400.0 + 8.0 * 3'600.0;
    for (double t = start; t < start + 9.0 * 3'600.0; t += 1.0) {
        model.step(t, 1.0);
        for (const auto& body : model.bodies()) {
            ASSERT_TRUE(room.contains(body.position));
            ASSERT_GE(body.position.y, cfg.keepout_y * 0.9)
                << "occupant crossed into the AP/RP1 strip";
        }
    }
}

TEST(Occupants, BodyCountMatchesSchedule) {
    envsim::OccupantModel model(envsim::OccupantConfig{}, wifisense::csi::RoomGeometry{},
                                44);
    const double t = 86'400.0 + 10.0 * 3'600.0;
    // Step up to the queried time so positions are valid.
    for (double s = t - 600.0; s <= t; s += 1.0) model.step(s, 1.0);
    EXPECT_EQ(static_cast<int>(model.bodies().size()), model.count_inside(t));
}

TEST(Occupants, SittingSubjectsMoveLittleWalkersMoveMore) {
    envsim::OccupantConfig cfg;
    cfg.n_subjects = 1;
    cfg.present_prob = 1.0;
    wifisense::csi::RoomGeometry room;
    envsim::OccupantModel model(cfg, room, 45);
    // Track total movement across a workday; must be nonzero (activity
    // machine runs) yet bounded (no teleporting).
    double total = 0.0;
    wifisense::csi::Vec3 prev{};
    bool has_prev = false;
    const double start = 86'400.0 + 9.5 * 3'600.0;
    for (double t = start; t < start + 3'600.0; t += 1.0) {
        model.step(t, 1.0);
        const auto bodies = model.bodies();
        if (bodies.empty()) {
            has_prev = false;
            continue;
        }
        if (has_prev) {
            const double step = wifisense::csi::distance(prev, bodies[0].position);
            EXPECT_LE(step, cfg.walk_speed_mps * 1.0 + 0.2);
            total += step;
        }
        prev = bodies[0].position;
        has_prev = true;
    }
    if (model.count_inside(start + 1'800.0) > 0) {
        EXPECT_GT(total, 1.0);
    }
}

TEST(Occupants, ZeroSubjectsRejected) {
    envsim::OccupantConfig cfg;
    cfg.n_subjects = 0;
    EXPECT_THROW(
        envsim::OccupantModel(cfg, wifisense::csi::RoomGeometry{}, 1),
        std::invalid_argument);
}

// Property: schedules honour the early-Thursday cap across seeds.
class OccupantSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OccupantSeeds, FoldBoundaryInvariantsHoldForAnySeed) {
    envsim::OccupantModel model(envsim::OccupantConfig{}, wifisense::csi::RoomGeometry{},
                                GetParam());
    // Thursday 19:16 -> Friday 08:41 empty.
    for (double t = 2.0 * 86'400.0 + 19.27 * 3'600.0;
         t < 3.0 * 86'400.0 + 8.68 * 3'600.0; t += 900.0)
        ASSERT_EQ(model.count_inside(t), 0);
    // Friday 13:10 -> 17:38 occupied.
    for (double t = 3.0 * 86'400.0 + 13.2 * 3'600.0;
         t < 3.0 * 86'400.0 + 17.6 * 3'600.0; t += 900.0)
        ASSERT_GE(model.count_inside(t), 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OccupantSeeds,
                         ::testing::Values(1, 7, 42, 99, 123, 20220104));
