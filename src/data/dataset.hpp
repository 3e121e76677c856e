// Dataset container plus the feature-subset views the paper trains on:
// CSI-only, Env-only (temperature + humidity), CSI+Env, and time-of-day.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/record.hpp"
#include "nn/tensor.hpp"

namespace wifisense::data {

/// Feature subsets of Table IV.
enum class FeatureSet {
    kCsi,     ///< 64 subcarrier amplitudes
    kEnv,     ///< temperature + humidity
    kCsiEnv,  ///< all 66 features
    kTime,    ///< seconds-of-day only (the paper's 89.3% baseline)
};

std::size_t feature_count(FeatureSet set);
std::string to_string(FeatureSet set);

/// Class balance / simultaneous-occupant distribution (Table II).
struct OccupancyDistribution {
    std::uint64_t total = 0;
    std::uint64_t empty = 0;
    std::uint64_t occupied = 0;
    /// Samples with exactly k occupants, k in [0, 8].
    std::array<std::uint64_t, 9> by_count{};

    double empty_fraction() const;
    double fraction_with(std::size_t k) const;
};

/// Non-owning contiguous view over a dataset (used for fold slices).
class DatasetView {
public:
    DatasetView() = default;
    explicit DatasetView(std::span<const SampleRecord> records) : records_(records) {}

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const SampleRecord& operator[](std::size_t i) const { return records_[i]; }
    std::span<const SampleRecord> records() const { return records_; }

    /// Feature matrix [n x feature_count(set)].
    nn::Matrix features(FeatureSet set) const;
    /// {0,1} occupancy labels.
    std::vector<int> labels() const;
    OccupancyDistribution occupancy_distribution() const;

    double start_time() const;
    double end_time() const;

private:
    std::span<const SampleRecord> records_;
};

/// Owning dataset.
class Dataset {
public:
    Dataset() = default;
    explicit Dataset(std::vector<SampleRecord> records);

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const SampleRecord& operator[](std::size_t i) const { return records_[i]; }
    SampleRecord& operator[](std::size_t i) { return records_[i]; }

    void push_back(const SampleRecord& r) { records_.push_back(r); }
    void reserve(std::size_t n) { records_.reserve(n); }

    DatasetView view() const { return DatasetView(records_); }
    DatasetView slice(std::size_t begin, std::size_t end) const;

    /// Every stride-th record, as an owning dataset (for cost-bounded fits).
    Dataset strided_copy(std::size_t stride) const;

    const std::vector<SampleRecord>& records() const { return records_; }
    std::vector<SampleRecord>& records() { return records_; }

private:
    std::vector<SampleRecord> records_;
};

/// Build the feature matrix for any span of records.
nn::Matrix make_features(std::span<const SampleRecord> records, FeatureSet set);

/// make_features() into a caller-owned workspace matrix: allocation-free
/// once `out` has been reserved to the batch shape (the warm-predict path
/// relies on this; see DESIGN.md, "Memory model").
void make_features_into(std::span<const SampleRecord> records, FeatureSet set,
                        nn::Matrix& out);

/// One room's contiguous run of records inside a fleet dataset (fleet
/// output is concatenated in room-id order, so each room is one slice).
struct RoomSlice {
    std::uint32_t room_id = 0;
    DatasetView view;
};

/// Split a view into per-room slices at room_id boundaries (a single-room
/// dataset yields one slice with room_id 0). Records are not reordered:
/// each maximal run of equal room_id becomes one slice.
std::vector<RoomSlice> room_slices(DatasetView view);

/// Order-sensitive FNV-1a 64 digest over every field of every record
/// (timestamp, CSI amplitudes, temperature, humidity, occupant count,
/// occupancy, activity, room id — each hashed from its in-memory bytes).
/// The determinism contract's canonical fingerprint: tests, bench_fleet,
/// and the CI smoke jobs all compare this value.
std::uint64_t dataset_digest(DatasetView view);

/// Chaining form: continue a digest across several views (e.g. the per-room
/// shards of a fleet run). dataset_digest(v) == chained over any split of v.
std::uint64_t dataset_digest(DatasetView view, std::uint64_t h);

}  // namespace wifisense::data
