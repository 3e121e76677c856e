#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace wifisense::nn {

namespace {

double scheduled_lr(const TrainConfig& cfg, std::size_t epoch) {
    switch (cfg.schedule) {
        case LrSchedule::kConstant:
            return cfg.learning_rate;
        case LrSchedule::kStepDecay: {
            const auto steps = cfg.step_every > 0 ? epoch / cfg.step_every : 0;
            return cfg.learning_rate * std::pow(cfg.step_gamma,
                                                static_cast<double>(steps));
        }
        case LrSchedule::kCosine: {
            if (cfg.epochs <= 1) return cfg.learning_rate;
            const double progress =
                static_cast<double>(epoch) / static_cast<double>(cfg.epochs - 1);
            const double floor = cfg.learning_rate * cfg.cosine_floor;
            return floor + 0.5 * (cfg.learning_rate - floor) *
                               (1.0 + std::cos(3.14159265358979 * progress));
        }
    }
    return cfg.learning_rate;
}

void clip_gradients(std::vector<ParamView>& params, double max_norm) {
    double sq = 0.0;
    for (const ParamView& p : params)
        for (const float g : p.grads) sq += static_cast<double>(g) * g;
    const double norm = std::sqrt(sq);
    if (norm <= max_norm || norm == 0.0) return;
    const auto scale = static_cast<float>(max_norm / norm);
    for (ParamView& p : params)
        for (float& g : p.grads) g *= scale;
}

/// One SGD step over the index window `idx`: gather the batch, forward,
/// loss+gradient, backward, clip, optimizer update. Returns the batch loss.
/// After the first batch warms the optimizer state this is heap-free
/// (tests/test_nn_workspace.cpp asserts 0 allocations per step, with tracing
/// disabled AND enabled); the contract below makes wifisense-lint prove it
/// transitively over the whole call graph. TraceScope/Counter recording is a
/// gated atomic slot write into pre-reserved buffers — never a heap touch.
// wifisense-lint: requires(noalloc)
// wifisense-lint: allow-call(TraceScope) env-gated observability: the span ring is preallocated at trace start; a disabled tracer records nothing
double train_step(Mlp& net, const Matrix& inputs, const Matrix& targets,
                  const Loss& loss, const TrainConfig& cfg, Optimizer& opt,
                  std::vector<ParamView>& params, Matrix& by,
                  std::span<const std::size_t> idx, common::BulkMt19937_64& rng,
                  common::Counter& obs_steps) {
    common::TraceScope step_span("train.step");
    obs_steps.add(1);
    Matrix& bx = net.input_buffer();
    gather_rows_into(inputs, idx, bx);
    gather_rows_into(targets, idx, by);
    // Bit for bit what a fresh std::normal_distribution<float> per step adds.
    if (cfg.input_noise > 0.0)
        common::add_normal_noise(bx.data(), static_cast<float>(cfg.input_noise), rng);

    net.zero_grad();
    const Matrix& out = net.forward_ws(bx, /*cache=*/true);
    const double batch_loss = loss.compute_into(out, by, net.output_grad_buffer());
    net.backward_params_ws();  // the input gradient is never read here
    if (cfg.grad_clip > 0.0) clip_gradients(params, cfg.grad_clip);
    opt.step(params);
    return batch_loss;
}

}  // namespace

TrainHistory train(Mlp& net, const Matrix& inputs, const Matrix& targets,
                   const Loss& loss, const TrainConfig& cfg) {
    AdamW opt({.lr = cfg.learning_rate, .weight_decay = cfg.weight_decay});
    return train(net, inputs, targets, loss, cfg, opt);
}

TrainHistory train(Mlp& net, const Matrix& inputs, const Matrix& targets,
                   const Loss& loss, const TrainConfig& cfg, Optimizer& opt) {
    if (inputs.rows() != targets.rows())
        throw std::invalid_argument("train: inputs/targets row mismatch");
    if (inputs.rows() == 0) throw std::invalid_argument("train: empty training set");
    if (cfg.batch_size == 0) throw std::invalid_argument("train: zero batch size");
    if (inputs.cols() != net.input_size())
        throw std::invalid_argument("train: input width != network input size");
    if (targets.cols() != net.output_size())
        throw std::invalid_argument("train: target width != network output size");

    // The std::mt19937_64 stream, a twist at a time: shuffles and noise
    // draw the same words as from the standard engine.
    common::BulkMt19937_64 rng(cfg.seed);
    std::vector<std::size_t> order(inputs.rows());
    std::iota(order.begin(), order.end(), std::size_t{0});

    TrainHistory history;
    std::vector<ParamView> params = net.parameters();
    net.set_training(true);

    // Size the workspace and the target-batch scratch once: after the first
    // batch warms the optimizer state, every remaining step is allocation-free
    // (see tests/test_nn_workspace.cpp).
    const std::size_t max_batch = std::min(cfg.batch_size, inputs.rows());
    net.reserve_workspace(max_batch);
    Matrix by;
    by.reserve(max_batch, targets.cols());

    // Instrument handles are hoisted here so the steady-state loop below
    // performs only gated atomic recording (see common/metrics.hpp).
    common::Counter& obs_steps = common::obs_counter("train.steps");
    common::Counter& obs_epochs = common::obs_counter("train.epochs");
    common::Gauge& obs_loss = common::obs_gauge("train.epoch_loss");
    common::Gauge& obs_lr = common::obs_gauge("train.lr");

    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        common::TraceScope epoch_span("train.epoch");
        opt.set_learning_rate(scheduled_lr(cfg, epoch));
        obs_lr.set(scheduled_lr(cfg, epoch));
        if (cfg.shuffle) std::shuffle(order.begin(), order.end(), rng);
        double epoch_loss = 0.0;
        std::size_t batches = 0;

        // Steady-state stepping: each train_step carries a requires(noalloc)
        // contract proven transitively by wifisense-lint; the textual region
        // marker additionally rejects any future allocating call spelled
        // directly inside this loop.
        // wifisense-lint: noalloc-begin
        for (std::size_t begin = 0; begin < order.size(); begin += cfg.batch_size) {
            const std::size_t count = std::min(cfg.batch_size, order.size() - begin);
            const std::span<const std::size_t> idx(&order[begin], count);
            epoch_loss += train_step(net, inputs, targets, loss, cfg, opt, params,
                                     by, idx, rng, obs_steps);
            ++batches;
        }
        // wifisense-lint: noalloc-end

        const double mean_loss = epoch_loss / static_cast<double>(batches);
        obs_epochs.add(1);
        obs_loss.set(mean_loss);
        history.epoch_loss.push_back(mean_loss);
        if (cfg.on_epoch) cfg.on_epoch(epoch, mean_loss);
    }
    net.set_training(false);
    return history;
}

Matrix predict(Mlp& net, const Matrix& inputs, std::size_t batch_size) {
    if (batch_size == 0) throw std::invalid_argument("predict: zero batch size");
    // Force inference mode for the duration: dropout becomes the identity and
    // layers skip activation caching entirely (no stale Grad-CAM views, no
    // gradient-buffer reservations). Restore the caller's mode on exit.
    const bool was_training = net.training_mode();
    net.set_training(false);
    if (inputs.rows() > 0)
        net.reserve_workspace(std::min(batch_size, inputs.rows()));
    Matrix out(inputs.rows(), net.output_size());
    for (std::size_t begin = 0; begin < inputs.rows(); begin += batch_size) {
        common::TraceScope batch_span("predict.batch");
        const std::size_t count = std::min(batch_size, inputs.rows() - begin);
        Matrix& block = net.input_buffer();
        row_block_into(inputs, begin, count, block);
        const Matrix& y = net.forward_ws(block, /*cache=*/false);
        std::copy_n(y.data().data(), y.size(), out.data().data() + begin * out.cols());
    }
    net.set_training(was_training);
    return out;
}

std::vector<int> predict_binary(Mlp& net, const Matrix& inputs, std::size_t batch_size) {
    if (net.output_size() != 1)
        throw std::invalid_argument("predict_binary: network must have one output");
    const Matrix logits = predict(net, inputs, batch_size);
    std::vector<int> labels(logits.rows());
    for (std::size_t r = 0; r < logits.rows(); ++r)
        labels[r] = logits.at(r, 0) > 0.0f ? 1 : 0;  // sigmoid(z) > .5 <=> z > 0
    return labels;
}

}  // namespace wifisense::nn
