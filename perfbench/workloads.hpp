// The perfbench workloads and the set-up they share: simulated rooms,
// the trained detector, and offline scoring.
//
// Every input is a pure function of the run's --seed: training rooms,
// serving / held-out rooms and the wire fault plan all draw their seeds
// from it, and the library is deterministic at a fixed thread count, so
// one seed gives bitwise-identical inputs, models and decisions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/link_fusion.hpp"
#include "data/dataset.hpp"
#include "report.hpp"

namespace perfbench {

inline constexpr std::size_t kLinks = 4;

/// One simulated paper-geometry room: world seed and sampling window.
struct RoomSpec {
    std::uint64_t seed = 0;
    double start_s = 0.0;
    double duration_s = 0.0;
    double rate_hz = 0.0;
};

/// One Dataset per receiver link, row i of every link = sample instant i.
using LinkSet = std::vector<wifisense::data::Dataset>;

/// Training rooms: 8 rooms x 24 h from the collection start at 0.1 Hz.
std::vector<RoomSpec> training_rooms(std::uint64_t seed);
/// Scored rooms: `count` rooms over 02:08-14:08 of Jan 5 at 0.125 Hz, a
/// window where each class holds roughly 30-60% of the instants. Their
/// seeds differ from the training rooms'.
std::vector<RoomSpec> scored_rooms(std::uint64_t seed, std::size_t count);

/// Sizes the shared pool for a scope, then returns it to one thread.
class PoolThreads {
public:
    explicit PoolThreads(std::size_t threads);
    ~PoolThreads();
    PoolThreads(const PoolThreads&) = delete;
    PoolThreads& operator=(const PoolThreads&) = delete;
};

/// Simulate every room with run_links, rooms fanned across `threads` pool
/// threads. `rows_per_s` receives link rows (rooms x instants x links) per
/// second.
std::vector<LinkSet> simulate_rooms(const std::vector<RoomSpec>& specs,
                                    std::size_t threads, double* rows_per_s);

/// Rooms concatenated link by link (the multi-room training stream);
/// consumes `rooms`.
LinkSet concat_rooms(std::vector<LinkSet>&& rooms);

/// Link-dropout-fused training stream of `train` (seeded augmentation).
wifisense::data::Dataset augmented_training_set(const LinkSet& train,
                                                std::uint64_t seed);

/// Epoch wall times per network (full CSI+env model, env fallback model),
/// recorded through the trainer's on_epoch callback. The first epoch of
/// each network also pays feature extraction and scaling, so only later
/// epochs are kept: their median is the steady-state cost of one pass over
/// the training rows.
struct EpochTimes {
    std::vector<double> full_s;
    std::vector<double> fallback_s;
    double rows = 0.0;           ///< training rows per epoch, per network
    double flops_per_row = 0.0;  ///< 2 x 3 x MACs per sample, both networks

    /// Append another fit's epochs.
    void add(const EpochTimes& fit);
    /// Training rows x 2 networks per second of median epoch time.
    [[nodiscard]] double samples_per_s() const;
    /// Forward, input-gradient and weight-gradient GEMM flops per second.
    [[nodiscard]] double gflops() const;
};

/// One calibrated, trained detector (train stride 20, link-dropout
/// augmentation), the wall time of its MultiLinkDetector::fit and its
/// epochs as timed.
struct Fitted {
    std::unique_ptr<wifisense::core::MultiLinkDetector> det;
    double fit_s = 0.0;
    EpochTimes epochs;
};
Fitted fit_detector(const LinkSet& train, const wifisense::data::Dataset& augmented);

/// Multiply-accumulates per sample of a network's dense layers.
double macs_per_sample(wifisense::nn::Mlp& net);

/// Binary confusion counts against simulator ground truth.
struct Confusion {
    std::uint64_t tp = 0, tn = 0, pos = 0, neg = 0;
    void add(int truth, int pred) {
        if (truth != 0) {
            ++pos;
            tp += pred != 0 ? 1 : 0;
        } else {
            ++neg;
            tn += pred == 0 ? 1 : 0;
        }
    }
    [[nodiscard]] double balanced_accuracy() const;
    [[nodiscard]] double positive_share() const;
};

/// Print the detector's and the constant predictors' rows, then check that
/// the detector is clearly above a constant predictor and that both
/// classes hold at least 20% of the scored rows.
void check_accuracy(const Confusion& c, const char* what, Result& res);

/// Offline scoring of the full (CSI+env) model on fused rows: batch
/// OccupancyDetector::predict over consecutive 4096-row slices, each timed,
/// then single-record predict_proba over the first `single_rows` rows, one
/// call timed at a time.
inline constexpr std::size_t kEvalBatch = 4096;
struct ScoreOutcome {
    std::vector<int> predictions;
    std::vector<double> batch_s;  ///< per full 4096-row predict call
    double flops_per_row = 0.0;   ///< 2 x MACs per sample
    std::vector<double> single_us;  ///< per predict_proba call
    std::uint64_t contract_violations = 0;  ///< non-finite or outside [0,1]
    std::uint64_t disagreements = 0;  ///< single-record vs batch prediction
    Confusion confusion;
};
ScoreOutcome score_full_model(wifisense::core::MultiLinkDetector& det,
                              const wifisense::data::Dataset& fused,
                              std::size_t single_rows);

/// Row-wise link fusion of each room, concatenated.
wifisense::data::Dataset fuse_rooms(const std::vector<LinkSet>& rooms);

/// Per-layer metrics of the traced one-thread fits (trainer spans).
void report_fit_layers(const SpanTable& fit_spans, const EpochTimes& epochs,
                       double fit_s_total, std::size_t fits, Result& res);

/// Pool fan-out: one traced fit on `threads` pool threads; reports the
/// chunk spans' busy fraction and count and the speed-up over the median
/// one-thread fit time.
void report_pool_layers(const LinkSet& train, const wifisense::data::Dataset& augmented,
                        std::size_t threads, double one_thread_fit_s, SpanTable& spans,
                        Result& res);

int run_serve(const RunConfig& cfg, Result& res);
int run_train(const RunConfig& cfg, Result& res);

}  // namespace perfbench
