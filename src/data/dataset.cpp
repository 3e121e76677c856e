#include "data/dataset.hpp"

#include <stdexcept>

#include "data/simtime.hpp"

namespace wifisense::data {

std::size_t feature_count(FeatureSet set) {
    switch (set) {
        case FeatureSet::kCsi: return kNumSubcarriers;
        case FeatureSet::kEnv: return 2;
        case FeatureSet::kCsiEnv: return kNumSubcarriers + 2;
        case FeatureSet::kTime: return 1;
    }
    // wifisense-lint: allow(ipa.throw-leak) enum-exhaustiveness guard:
    // unreachable for every in-range FeatureSet value
    throw std::invalid_argument("feature_count: unknown feature set");
}

std::string to_string(FeatureSet set) {
    switch (set) {
        case FeatureSet::kCsi: return "CSI";
        case FeatureSet::kEnv: return "Env";
        case FeatureSet::kCsiEnv: return "C+E";
        case FeatureSet::kTime: return "Time";
    }
    throw std::invalid_argument("to_string: unknown feature set");
}

double OccupancyDistribution::empty_fraction() const {
    if (total == 0) return 0.0;
    return static_cast<double>(empty) / static_cast<double>(total);
}

double OccupancyDistribution::fraction_with(std::size_t k) const {
    if (total == 0 || k >= by_count.size()) return 0.0;
    return static_cast<double>(by_count[k]) / static_cast<double>(total);
}

nn::Matrix make_features(std::span<const SampleRecord> records, FeatureSet set) {
    nn::Matrix m;
    make_features_into(records, set, m);
    return m;
}

void make_features_into(std::span<const SampleRecord> records, FeatureSet set,
                        nn::Matrix& out) {
    const std::size_t d = feature_count(set);
    // wifisense-lint: allow(noalloc.container-growth) resize within the
    // reserved workspace capacity is allocation-free (DESIGN.md §11)
    out.resize(records.size(), d);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const SampleRecord& r = records[i];
        std::span<float> row = out.row(i);
        switch (set) {
            case FeatureSet::kCsi:
                std::copy(r.csi.begin(), r.csi.end(), row.begin());
                break;
            case FeatureSet::kEnv:
                row[0] = r.temperature_c;
                row[1] = r.humidity_pct;
                break;
            case FeatureSet::kCsiEnv:
                std::copy(r.csi.begin(), r.csi.end(), row.begin());
                row[kNumSubcarriers] = r.temperature_c;
                row[kNumSubcarriers + 1] = r.humidity_pct;
                break;
            case FeatureSet::kTime:
                row[0] = static_cast<float>(seconds_of_day(r.timestamp));
                break;
        }
    }
}

nn::Matrix DatasetView::features(FeatureSet set) const {
    return make_features(records_, set);
}

std::vector<int> DatasetView::labels() const {
    std::vector<int> out(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) out[i] = records_[i].occupancy;
    return out;
}

OccupancyDistribution DatasetView::occupancy_distribution() const {
    OccupancyDistribution dist;
    dist.total = records_.size();
    for (const SampleRecord& r : records_) {
        if (r.occupancy == 0) ++dist.empty;
        else ++dist.occupied;
        const std::size_t k =
            std::min<std::size_t>(r.occupant_count, dist.by_count.size() - 1);
        ++dist.by_count[k];
    }
    return dist;
}

double DatasetView::start_time() const {
    if (records_.empty()) throw std::logic_error("DatasetView: empty view");
    return records_.front().timestamp;
}

double DatasetView::end_time() const {
    if (records_.empty()) throw std::logic_error("DatasetView: empty view");
    return records_.back().timestamp;
}

Dataset::Dataset(std::vector<SampleRecord> records) : records_(std::move(records)) {}

DatasetView Dataset::slice(std::size_t begin, std::size_t end) const {
    if (begin > end || end > records_.size())
        throw std::out_of_range("Dataset::slice: bad range");
    return DatasetView(std::span<const SampleRecord>(records_).subspan(begin, end - begin));
}

Dataset Dataset::strided_copy(std::size_t stride) const {
    if (stride == 0) throw std::invalid_argument("strided_copy: zero stride");
    std::vector<SampleRecord> out;
    out.reserve(records_.size() / stride + 1);
    for (std::size_t i = 0; i < records_.size(); i += stride) out.push_back(records_[i]);
    return Dataset(std::move(out));
}

std::vector<RoomSlice> room_slices(DatasetView view) {
    std::vector<RoomSlice> out;
    const std::span<const SampleRecord> records = view.records();
    std::size_t begin = 0;
    for (std::size_t i = 1; i <= records.size(); ++i) {
        if (i == records.size() || records[i].room_id != records[begin].room_id) {
            out.push_back(RoomSlice{records[begin].room_id,
                                    DatasetView(records.subspan(begin, i - begin))});
            begin = i;
        }
    }
    return out;
}

namespace {

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace

std::uint64_t dataset_digest(DatasetView view) {
    return dataset_digest(view, 0xcbf29ce484222325ull);  // FNV-1a offset basis
}

std::uint64_t dataset_digest(DatasetView view, std::uint64_t h) {
    for (const SampleRecord& r : view.records()) {
        h = fnv1a(&r.timestamp, sizeof r.timestamp, h);
        h = fnv1a(r.csi.data(), sizeof r.csi, h);
        h = fnv1a(&r.temperature_c, sizeof r.temperature_c, h);
        h = fnv1a(&r.humidity_pct, sizeof r.humidity_pct, h);
        h = fnv1a(&r.occupant_count, sizeof r.occupant_count, h);
        h = fnv1a(&r.occupancy, sizeof r.occupancy, h);
        h = fnv1a(&r.activity, sizeof r.activity, h);
        h = fnv1a(&r.room_id, sizeof r.room_id, h);
    }
    return h;
}

}  // namespace wifisense::data
