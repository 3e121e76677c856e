// The paper's model: a lightweight four-Dense-layer MLP with ReLU between
// layers (Section IV-B). With the paper's per-layer parameter counts
// (8,320 / 33,024 / ~32,896 / 129) the hidden widths resolve to
// 128 -> 256 -> 128 with a single logit output; `paper_mlp()` builds exactly
// that for any input width.
//
// The class is a generic sequential container, so tests, ablations and the
// regression head (2 outputs for temperature+humidity, Table V) reuse it.
//
// Memory model: every Mlp owns a Workspace — per-layer activation and
// gradient buffers plus a batch input slot — sized once from the largest
// batch seen (or reserve_workspace()). The zero-allocation API
// (forward_ws/output_grad_buffer/backward_ws) runs a full training step
// without touching the heap once the workspace is warm; the value-returning
// forward/backward remain as thin copying shims. Buffers are reused across
// batches and epochs, never shared across Mlp instances — clone the network
// before driving it from concurrent tasks (see core/experiments.cpp).
#pragma once

#include <cstddef>
#include <memory>
#include <random>
#include <vector>

#include "nn/init.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace wifisense::nn {

class Mlp {
public:
    Mlp() = default;

    /// Build Dense(+ReLU) stack: dims = {in, h1, ..., out}. The final Dense
    /// has no activation (losses are computed on logits / raw outputs).
    Mlp(std::vector<std::size_t> dims, Init scheme, std::mt19937_64& rng);

    /// Forward a batch [n x input_size] -> [n x output_size]. Copying shim
    /// over forward_ws(): the input is staged into the workspace (so the
    /// caller's matrix may die) and the result is returned by value.
    /// Activation caching follows the training/inference mode.
    Matrix forward(const Matrix& input);

    /// Backward from dObjective/dOutput; accumulates parameter gradients and
    /// stores per-layer activation-gradient views for Grad-CAM. Returns
    /// dObjective/dInput (the input-feature gradient). Copying shim over
    /// backward_ws(); requires a cached (training-mode) forward.
    Matrix backward(const Matrix& grad_output);

    // -- Zero-allocation hot path -------------------------------------------
    //
    // Contract: `input` must stay alive until the next forward or the end of
    // the matching backward_ws() — layers keep non-owning views of it. The
    // returned references point into the workspace and are invalidated by
    // the next forward_ws()/reserve_workspace() call.

    /// Grow the workspace so batches of up to `max_rows` run allocation-free.
    /// Gradient buffers are reserved lazily by output_grad_buffer(), so
    /// inference-only networks never pay for them.
    void reserve_workspace(std::size_t max_rows);

    /// Batch staging slot sized for the reserved workspace; callers gather
    /// or slice batches directly into it (trainer, predict).
    Matrix& input_buffer() { return ws_input_; }

    /// Run the network over `input`, writing activations into workspace
    /// slots; returns a view of the output activation. With `cache`, layers
    /// record the views Grad-CAM and backward_ws() read; without it
    /// (inference) all caches are cleared.
    const Matrix& forward_ws(const Matrix& input, bool cache);

    /// The dObjective/dOutput slot for the latest forward_ws() batch,
    /// resized to the output's shape (contents unspecified — fill it, e.g.
    /// via Loss::compute_into, before backward_ws()).
    Matrix& output_grad_buffer();

    /// Backpropagate from output_grad_buffer(); returns a view of
    /// dObjective/dInput. Requires a cached forward_ws() on this batch.
    const Matrix& backward_ws();

    /// backward_ws() without dObjective/dInput: the same parameter
    /// gradients, bit for bit, minus the first layer's input-gradient GEMM.
    /// The trainer's step, which never reads the input gradient.
    void backward_params_ws();

    void zero_grad();

    /// Propagate training/inference mode to every layer (dropout, activation
    /// caching). Networks start in training mode.
    void set_training(bool training);
    bool training_mode() const { return training_; }

    /// Flat list of parameter views across all layers, in layer order.
    std::vector<ParamView> parameters();

    /// Total trainable scalar count.
    std::size_t parameter_count() const;

    /// Serialized weight size in bytes (float32), i.e. the "model size"
    /// figure of Section IV-B.
    std::size_t weight_bytes() const { return parameter_count() * sizeof(float); }

    std::size_t input_size() const;
    std::size_t output_size() const;

    const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }
    std::vector<std::unique_ptr<Layer>>& layers() { return layers_; }

    /// Hidden-width spec used to build this network (empty if assembled
    /// manually); retained for serialization.
    const std::vector<std::size_t>& dims() const { return dims_; }

    /// Deep copy (layers are value-owned behind unique_ptr). The clone gets
    /// a fresh, empty workspace.
    Mlp clone() const;

private:
    void reserve_grad_buffers();
    /// Checks backward preconditions, then runs backward_into() over every
    /// layer but the first; the callers finish layer 0.
    void backward_upper_layers();

    std::vector<std::unique_ptr<Layer>> layers_;
    std::vector<std::size_t> dims_;

    // Workspace: ws_act_[i] is the output of layers_[i]; ws_grad_[i] is
    // dObjective/d ws_act_[i]; ws_input_grad_ is dObjective/d input.
    Matrix ws_input_;
    std::vector<Matrix> ws_act_;
    std::vector<Matrix> ws_grad_;
    Matrix ws_input_grad_;
    std::size_t ws_rows_ = 0;       ///< reserved batch capacity (rows)
    std::size_t ws_grad_rows_ = 0;  ///< reserved gradient-buffer capacity
    const Matrix* fwd_input_ = nullptr;  ///< input of the latest cached forward
    bool training_ = true;
};

/// The architecture of Section IV-B: in -> 128 -> 256 -> 128 -> 1.
/// For in = 64 (CSI-only) this is 74,369 parameters; the paper's stated
/// total (77,881) is internally inconsistent with its own per-layer counts,
/// so we follow the per-layer counts.
Mlp paper_mlp(std::size_t input_size, std::mt19937_64& rng);

/// Regression variant for Table V: in -> 128 -> 256 -> 128 -> outputs.
Mlp paper_regression_mlp(std::size_t input_size, std::size_t outputs,
                         std::mt19937_64& rng);

}  // namespace wifisense::nn
