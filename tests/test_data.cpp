#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/status.hpp"
#include "data/csv.hpp"
#include "data/dataset.hpp"
#include "data/folds.hpp"
#include "data/scaler.hpp"
#include "data/simtime.hpp"

namespace data = wifisense::data;
namespace nn = wifisense::nn;

namespace {

data::SampleRecord make_record(double t, int occupants, float temp = 21.0f,
                               float hum = 35.0f) {
    data::SampleRecord r;
    r.timestamp = t;
    for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
        r.csi[k] = 0.001f * static_cast<float>(k) + static_cast<float>(t) * 1e-7f;
    r.temperature_c = temp;
    r.humidity_pct = hum;
    r.occupant_count = static_cast<std::uint8_t>(occupants);
    r.occupancy = occupants > 0 ? 1 : 0;
    return r;
}

data::Dataset make_dataset(std::size_t n) {
    data::Dataset ds;
    for (std::size_t i = 0; i < n; ++i)
        ds.push_back(make_record(static_cast<double>(i), static_cast<int>(i % 3),
                                 20.0f + static_cast<float>(i % 7),
                                 30.0f + static_cast<float>(i % 11)));
    return ds;
}

}  // namespace

TEST(Dataset, FeatureCountsPerSet) {
    EXPECT_EQ(data::feature_count(data::FeatureSet::kCsi), 64u);
    EXPECT_EQ(data::feature_count(data::FeatureSet::kEnv), 2u);
    EXPECT_EQ(data::feature_count(data::FeatureSet::kCsiEnv), 66u);
    EXPECT_EQ(data::feature_count(data::FeatureSet::kTime), 1u);
    EXPECT_EQ(data::to_string(data::FeatureSet::kCsiEnv), "C+E");
}

TEST(Dataset, FeatureMatrixLayout) {
    const data::Dataset ds = make_dataset(5);
    const nn::Matrix csi = ds.view().features(data::FeatureSet::kCsi);
    EXPECT_EQ(csi.rows(), 5u);
    EXPECT_EQ(csi.cols(), 64u);
    EXPECT_FLOAT_EQ(csi.at(0, 3), ds[0].csi[3]);

    const nn::Matrix env = ds.view().features(data::FeatureSet::kEnv);
    EXPECT_FLOAT_EQ(env.at(2, 0), ds[2].temperature_c);
    EXPECT_FLOAT_EQ(env.at(2, 1), ds[2].humidity_pct);

    const nn::Matrix both = ds.view().features(data::FeatureSet::kCsiEnv);
    EXPECT_FLOAT_EQ(both.at(1, 64), ds[1].temperature_c);
    EXPECT_FLOAT_EQ(both.at(1, 65), ds[1].humidity_pct);

    const nn::Matrix time = ds.view().features(data::FeatureSet::kTime);
    EXPECT_FLOAT_EQ(time.at(3, 0),
                    static_cast<float>(data::seconds_of_day(ds[3].timestamp)));
}

TEST(Dataset, LabelsAndTargets) {
    const data::Dataset ds = make_dataset(6);
    const std::vector<int> labels = ds.view().labels();
    EXPECT_EQ(labels[0], 0);
    EXPECT_EQ(labels[1], 1);
    EXPECT_EQ(labels[2], 1);
}

TEST(Dataset, OccupancyDistributionTable2Format) {
    const data::Dataset ds = make_dataset(9);  // counts cycle 0,1,2
    const data::OccupancyDistribution dist = ds.view().occupancy_distribution();
    EXPECT_EQ(dist.total, 9u);
    EXPECT_EQ(dist.empty, 3u);
    EXPECT_EQ(dist.occupied, 6u);
    EXPECT_NEAR(dist.empty_fraction(), 1.0 / 3.0, 1e-12);
    EXPECT_EQ(dist.by_count[1], 3u);
    EXPECT_EQ(dist.by_count[2], 3u);
    EXPECT_NEAR(dist.fraction_with(1), 1.0 / 3.0, 1e-12);
}

TEST(Dataset, SliceAndStridedCopy) {
    const data::Dataset ds = make_dataset(10);
    const data::DatasetView mid = ds.slice(2, 5);
    EXPECT_EQ(mid.size(), 3u);
    EXPECT_DOUBLE_EQ(mid.start_time(), 2.0);
    EXPECT_DOUBLE_EQ(mid.end_time(), 4.0);
    EXPECT_THROW(ds.slice(5, 2), std::out_of_range);
    EXPECT_THROW(ds.slice(0, 11), std::out_of_range);

    const data::Dataset every3 = ds.strided_copy(3);
    EXPECT_EQ(every3.size(), 4u);
    EXPECT_DOUBLE_EQ(every3[1].timestamp, 3.0);
    EXPECT_THROW(ds.strided_copy(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Folds
// ---------------------------------------------------------------------------

TEST(Folds, PaperSplitIsTemporalAndExhaustive) {
    const data::Dataset ds = make_dataset(1'000);
    const data::FoldSplit split = data::split_paper_folds(ds);
    EXPECT_EQ(split.train.size(), 700u);
    std::size_t total = split.train.size();
    double prev_end = split.train.end_time();
    for (const data::DatasetView& fold : split.test) {
        EXPECT_EQ(fold.size(), 60u);
        EXPECT_GT(fold.start_time(), prev_end);
        prev_end = fold.end_time();
        total += fold.size();
    }
    EXPECT_EQ(total, ds.size());
}

TEST(Folds, LastFoldAbsorbsRemainder) {
    const data::Dataset ds = make_dataset(1'003);
    const data::FoldSplit split = data::split_paper_folds(ds);
    std::size_t total = split.train.size();
    for (const auto& f : split.test) total += f.size();
    EXPECT_EQ(total, 1'003u);
    EXPECT_GE(split.test[4].size(), split.test[0].size());
}

TEST(Folds, RejectsUnsortedOrTinyDatasets) {
    data::Dataset tiny = make_dataset(10);
    EXPECT_THROW(data::split_paper_folds(tiny), std::invalid_argument);

    data::Dataset unsorted = make_dataset(100);
    std::swap(unsorted.records()[10], unsorted.records()[20]);
    EXPECT_THROW(data::split_paper_folds(unsorted), std::invalid_argument);

    data::Dataset ok = make_dataset(100);
    EXPECT_THROW(data::split_paper_folds(ok, 0.0), std::invalid_argument);
    EXPECT_THROW(data::split_paper_folds(ok, 1.0), std::invalid_argument);
}

TEST(Folds, SummaryComputesRangesAndCounts) {
    data::Dataset ds;
    ds.push_back(make_record(0.0, 0, 18.0f, 20.0f));
    ds.push_back(make_record(1.0, 2, 25.0f, 45.0f));
    ds.push_back(make_record(2.0, 0, 21.0f, 30.0f));
    const data::FoldSummary s = data::summarize_fold(ds.view(), "x");
    EXPECT_EQ(s.empty, 2u);
    EXPECT_EQ(s.occupied, 1u);
    EXPECT_DOUBLE_EQ(s.t_min, 18.0);
    EXPECT_DOUBLE_EQ(s.t_max, 25.0);
    EXPECT_DOUBLE_EQ(s.h_min, 20.0);
    EXPECT_DOUBLE_EQ(s.h_max, 45.0);
}

TEST(Folds, Table3HasSixRows) {
    const data::Dataset ds = make_dataset(500);
    const auto rows = data::table3_summaries(data::split_paper_folds(ds));
    ASSERT_EQ(rows.size(), 6u);
    EXPECT_EQ(rows[0].name, "0");
    EXPECT_EQ(rows[5].name, "5");
}

// ---------------------------------------------------------------------------
// Scaler
// ---------------------------------------------------------------------------

TEST(Scaler, StandardizesToZeroMeanUnitVariance) {
    nn::Matrix x(100, 2);
    for (std::size_t i = 0; i < 100; ++i) {
        x.at(i, 0) = static_cast<float>(i);
        x.at(i, 1) = 5.0f;  // constant column
    }
    data::StandardScaler scaler;
    const nn::Matrix z = scaler.fit_transform(x);
    double mean0 = 0.0;
    for (std::size_t i = 0; i < 100; ++i) mean0 += z.at(i, 0);
    EXPECT_NEAR(mean0 / 100.0, 0.0, 1e-5);
    // Constant column: scale treated as 1, output = 0.
    EXPECT_FLOAT_EQ(z.at(0, 1), 0.0f);
}

TEST(Scaler, TransformUsesTrainStatistics) {
    nn::Matrix train(10, 1);
    for (std::size_t i = 0; i < 10; ++i) train.at(i, 0) = static_cast<float>(i);
    data::StandardScaler scaler;
    scaler.fit(train);
    nn::Matrix test(1, 1);
    test.at(0, 0) = 4.5f;  // the train mean
    EXPECT_NEAR(scaler.transform(test).at(0, 0), 0.0f, 1e-6f);
}

TEST(Scaler, SetParametersRoundTrip) {
    data::StandardScaler scaler;
    scaler.set_parameters({1.0, 2.0}, {0.5, 4.0});
    nn::Matrix x(1, 2);
    x.at(0, 0) = 2.0f;
    x.at(0, 1) = 10.0f;
    const nn::Matrix z = scaler.transform(x);
    EXPECT_NEAR(z.at(0, 0), 2.0f, 1e-6f);
    EXPECT_NEAR(z.at(0, 1), 2.0f, 1e-6f);
    EXPECT_THROW(scaler.set_parameters({1.0}, {0.0}), std::invalid_argument);
    EXPECT_THROW(scaler.set_parameters({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Scaler, Validation) {
    data::StandardScaler scaler;
    EXPECT_THROW(scaler.transform(nn::Matrix(1, 1)), std::logic_error);
    EXPECT_THROW(scaler.fit(nn::Matrix(1, 2)), std::invalid_argument);
    scaler.fit(nn::Matrix(3, 2, 1.0f));
    EXPECT_THROW(scaler.transform(nn::Matrix(1, 3)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(Csv, RoundTripPreservesRecords) {
    const data::Dataset ds = make_dataset(7);
    std::stringstream buf;
    data::write_csv(ds.view(), buf);
    const data::Dataset back = data::read_csv(buf);
    ASSERT_EQ(back.size(), ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i) {
        EXPECT_DOUBLE_EQ(back[i].timestamp, ds[i].timestamp);
        EXPECT_EQ(back[i].occupancy, ds[i].occupancy);
        EXPECT_EQ(back[i].occupant_count, ds[i].occupant_count);
        EXPECT_FLOAT_EQ(back[i].temperature_c, ds[i].temperature_c);
        EXPECT_FLOAT_EQ(back[i].humidity_pct, ds[i].humidity_pct);
        for (std::size_t k = 0; k < data::kNumSubcarriers; ++k)
            EXPECT_FLOAT_EQ(back[i].csi[k], ds[i].csi[k]) << "row " << i << " a" << k;
    }
}

TEST(Csv, HeaderHasTable1Columns) {
    const data::Dataset ds = make_dataset(1);
    std::stringstream buf;
    data::write_csv(ds.view(), buf);
    std::string header;
    std::getline(buf, header);
    EXPECT_NE(header.find("timestamp"), std::string::npos);
    EXPECT_NE(header.find("a0"), std::string::npos);
    EXPECT_NE(header.find("a63"), std::string::npos);
    EXPECT_NE(header.find("temperature"), std::string::npos);
    EXPECT_NE(header.find("humidity"), std::string::npos);
    EXPECT_NE(header.find("occupancy"), std::string::npos);
}

TEST(Csv, MalformedInputThrows) {
    std::stringstream empty;
    EXPECT_THROW(data::read_csv(empty), std::runtime_error);

    std::stringstream bad_header("wrong,header\n1,2\n");
    EXPECT_THROW(data::read_csv(bad_header), std::runtime_error);

    const data::Dataset ds = make_dataset(1);
    std::stringstream buf;
    data::write_csv(ds.view(), buf);
    std::string contents = buf.str();
    contents += "1,2,3\n";  // short row appended
    std::stringstream cut(contents);
    EXPECT_THROW(data::read_csv(cut), std::runtime_error);
}

TEST(Csv, MissingFileThrows) {
    EXPECT_THROW(data::read_csv(std::string("/no/such/file.csv")), std::runtime_error);
}

TEST(Csv, RejectsNaNAndInfValues) {
    const data::Dataset ds = make_dataset(2);
    std::stringstream buf;
    data::write_csv(ds.view(), buf);
    std::string contents = buf.str();

    // Replace the second data row's first amplitude with "nan": from_chars
    // parses it happily, so the reader must reject it explicitly.
    const std::size_t row2 = contents.find('\n', contents.find('\n') + 1) + 1;
    const std::size_t a0 = contents.find(',', row2) + 1;
    const std::size_t a0_end = contents.find(',', a0);
    contents.replace(a0, a0_end - a0, "nan");

    std::stringstream nan_buf(contents);
    const auto result = data::try_read_csv(nan_buf, "capture.csv");
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), wifisense::common::StatusCode::kCorruptData);
    // Diagnostic carries source name and 1-based line number (header = 1).
    EXPECT_NE(result.status().message().find("capture.csv:3"), std::string::npos)
        << result.status().message();
    EXPECT_NE(result.status().message().find("non-finite"), std::string::npos);

    contents.replace(a0, 3, "inf");
    std::stringstream inf_buf(contents);
    EXPECT_THROW(data::read_csv(inf_buf), std::runtime_error);
}

TEST(Csv, WrongFieldCountDiagnosticNamesLine) {
    const data::Dataset ds = make_dataset(1);
    std::stringstream buf;
    data::write_csv(ds.view(), buf);
    std::string contents = buf.str();
    contents += "1,2,3\n";

    std::stringstream is(contents);
    const auto result = data::try_read_csv(is, "short.csv");
    ASSERT_FALSE(result.is_ok());
    EXPECT_NE(result.status().message().find("short.csv:3"), std::string::npos)
        << result.status().message();
    EXPECT_NE(result.status().message().find("field count"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scaler guards
// ---------------------------------------------------------------------------

TEST(Scaler, RejectsNonFiniteTrainingData) {
    nn::Matrix x(3, 2, 1.0f);
    x.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
    data::StandardScaler scaler;
    EXPECT_THROW(scaler.fit(x), std::invalid_argument);
    try {
        scaler.fit(x);
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("column 1"), std::string::npos);
    }

    x.at(1, 1) = std::numeric_limits<float>::infinity();
    EXPECT_THROW(scaler.fit(x), std::invalid_argument);
}

TEST(Scaler, ZeroVarianceFeatureTransformsToZero) {
    nn::Matrix x(50, 2);
    for (std::size_t i = 0; i < 50; ++i) {
        x.at(i, 0) = static_cast<float>(i);
        x.at(i, 1) = -3.25f;  // dead feature
    }
    data::StandardScaler scaler;
    const nn::Matrix z = scaler.fit_transform(x);
    for (std::size_t i = 0; i < 50; ++i) {
        EXPECT_FLOAT_EQ(z.at(i, 1), 0.0f);
        EXPECT_TRUE(std::isfinite(z.at(i, 0)));
    }
    EXPECT_DOUBLE_EQ(scaler.scale()[1], 1.0);
}
