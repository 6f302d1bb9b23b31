// InferencePlan: the forward-only serving path.
//
// Training-mode forward runs through autodiff machinery: every layer heap-
// allocates its output tensor, caches its input for a backward pass that
// never comes, re-packs constant weights into GEMM panels on every call and
// runs bias/activation as separate sweeps. The plan walks a network once at
// load time and compiles it into a flat step program:
//
//   * every conv / deconv step resolves its math::conv engine plan (the
//     cache entry the layer's module forward and backward use too) and
//     prepacks its weights into GEMM A panels exactly once; linear weights
//     pre-pack into GEMM panels (math::pack_b_t) the same way;
//   * a conv/linear immediately followed by an activation has bias +
//     activation fused into the GEMM epilogue (math::Epilogue); a batchnorm
//     absorbs it into its per-channel affine sweep; a deconv fuses bias +
//     activation into its col2im writeback, which builds each output row
//     from whole tap rows instead of memset + scatter + sweep;
//   * activation storage comes from a static arena: buffer lifetimes are
//     computed by liveness analysis and dead buffers' slots are ping-pong
//     reused, so U-Net skip buffers stay pinned across their live range
//     while chain activations alternate between two slots;
//   * execution reuses the arena call over call — zero steady-state heap
//     allocations (arena_stats() makes that checkable).
//
// The executed arithmetic mirrors the training-mode forward operation for
// operation — same GEMM kernel, same accumulation order, same scalar
// formulas — so infer() is bit-identical to eval-mode forward() at any
// batch size and thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "math/conv.hpp"
#include "math/gemm.hpp"
#include "nn/tensor.hpp"
#include "util/workspace.hpp"

namespace lithogan::util {
class ExecContext;
}

namespace lithogan::nn {

class Module;
class Sequential;

class InferencePlan {
 public:
  /// Logical activation buffer id within the plan graph.
  using BufId = std::size_t;

  InferencePlan() = default;
  InferencePlan(const InferencePlan&) = delete;
  InferencePlan& operator=(const InferencePlan&) = delete;
  InferencePlan(InferencePlan&&) = default;
  InferencePlan& operator=(InferencePlan&&) = default;

  // --- graph construction (load time) ---------------------------------------

  /// Total bytes of plan-owned packed weights. The infer.weight_bytes gauge
  /// reads the sum over every live finalized plan.
  std::size_t weight_bytes() const;

  /// Declares the external input with its per-sample shape, e.g. {C, H, W}.
  /// Must be the first call; returns the input buffer id. Plans run in f32
  /// only: throws util::Error if LITHOGAN_INFER_DTYPE is set to anything
  /// other than empty or "f32".
  BufId add_input(const std::vector<std::size_t>& sample_shape);

  /// Appends one layer reading `in`; returns the buffer its result lands
  /// in. Supported kinds: Conv2d, ConvTranspose2d, Linear, BatchNorm2d,
  /// ReLU, LeakyReLU, Tanh, Sigmoid, MaxPool2d, Flatten, Dropout (eval
  /// identity), Sequential (recursed). Weights are snapshot-prepacked here.
  BufId add_module(Module& layer, BufId in);

  /// Appends every layer of `net` in order.
  BufId add_layers(Sequential& net, BufId in);

  /// Channel concatenation of two NCHW buffers (U-Net skip joins).
  BufId add_concat(BufId a, BufId b);

  /// Marks the plan result. Its buffer is pinned to the output tensor and
  /// never arena-recycled.
  void set_output(BufId out);

  /// Fuses activation epilogues, runs liveness analysis and assigns arena
  /// slots. After this the graph is frozen and infer() may run.
  void finalize();

  /// Convenience: add_input + add_layers + set_output + finalize.
  void compile(Sequential& net, const std::vector<std::size_t>& sample_shape);

  // --- execution (serving time) ---------------------------------------------

  /// Runs the plan over a batch shaped (N, sample_shape...). The returned
  /// reference points at plan-owned storage reused by the next call.
  const Tensor& infer(const Tensor& input);

  /// Execution context for batch- and row-parallel dispatch; may be changed
  /// between infer() calls. nullptr = serial.
  void set_exec_context(util::ExecContext* exec) { exec_ = exec; }

  /// Arena accounting for the zero-steady-state-allocation contract: after
  /// a warm-up infer() at a given batch size, `allocations` must not grow
  /// on subsequent calls at the same (or smaller) batch size.
  struct ArenaStats {
    std::size_t allocations = 0;  ///< arena/scratch/output growth events
    std::size_t arena_floats = 0;  ///< floats currently held by slots + scratch
    std::size_t slots = 0;         ///< physical arena slots after liveness reuse
    std::size_t buffers = 0;       ///< logical activation buffers in the graph
  };
  ArenaStats arena_stats() const;

  /// Human-readable step listing: one line per step with its geometry, fused
  /// activation and, for weight-bearing steps, packed weight bytes.
  std::string plan_dump() const;

  bool finalized() const { return finalized_; }
  std::size_t step_count() const { return steps_.size(); }
  const std::vector<std::size_t>& output_sample_shape() const;

 private:
  enum class Op { kConv, kDeconv, kLinear, kBatchNorm, kActivation, kMaxPool, kConcat };

  struct Step {
    Op op;
    BufId in0 = 0;
    BufId in1 = 0;  ///< second operand (concat only)
    BufId out = 0;
    // Per-sample geometry, snapshot at build time.
    std::size_t in_c = 0, in_h = 0, in_w = 0;
    std::size_t out_c = 0, out_h = 0, out_w = 0;
    std::size_t kernel = 0, stride = 0, pad = 0;
    std::size_t in_elems = 0, in1_elems = 0, out_elems = 0;
    // Fused (or standalone) activation.
    math::Activation act = math::Activation::kIdentity;
    float slope = 0.2f;
    std::size_t act_cost = 2;  ///< dispatch-cost ops/elem hint (standalone act)
    // Plan-owned constants.
    std::vector<float> packed_w;  ///< pre-packed weight panels (conv, deconv, linear)
    std::vector<float> bias;
    std::vector<float> bn_mean, bn_inv_std, bn_gamma, bn_beta;
    /// Conv/deconv steps: the engine plan (geometry, writeback table).
    std::shared_ptr<const math::ConvPlan> conv;
  };

  struct BufferInfo {
    std::vector<std::size_t> sample_shape;
    std::size_t sample_elems = 0;
    bool external = false;  ///< the caller-owned input tensor
    bool is_output = false;
    std::size_t last_use = 0;  ///< last step index reading this buffer
    int slot = kUnassigned;
  };

  static constexpr int kUnassigned = -1;
  static constexpr int kSlotInput = -2;
  static constexpr int kSlotOutput = -3;

  BufId new_buffer(std::vector<std::size_t> sample_shape);
  BufId add_elementwise(math::Activation act, float slope, std::size_t cost, BufId in);
  void fuse_epilogues();
  void assign_slots();

  const float* src_ptr(BufId id, const Tensor& input) const;
  float* dst_ptr(BufId id);
  void ensure_capacity(std::size_t batch);
  void run_step(std::size_t index, std::size_t batch, const Tensor& input);
  void run_conv(const Step& s, std::size_t batch, const float* src, float* dst);
  void run_deconv(const Step& s, std::size_t batch, const float* src, float* dst);
  void run_linear(const Step& s, std::size_t batch, const float* src, float* dst);
  void run_batchnorm(const Step& s, std::size_t batch, const float* src, float* dst);
  void run_activation(const Step& s, std::size_t batch, const float* src, float* dst);
  void run_maxpool(const Step& s, std::size_t batch, const float* src, float* dst);

  std::vector<Step> steps_;
  std::vector<BufferInfo> buffers_;
  bool has_input_ = false;
  bool has_output_ = false;
  bool finalized_ = false;
  BufId input_id_ = 0;
  BufId output_id_ = 0;

  util::ExecContext* exec_ = nullptr;

  /// This plan's term of the infer.weight_bytes gauge: added at finalize,
  /// withdrawn when the plan is destroyed or assigned over; a move hands it
  /// to the new owner.
  class WeightShare {
   public:
    WeightShare() = default;
    WeightShare(WeightShare&& other) noexcept : bytes_(std::exchange(other.bytes_, 0)) {}
    WeightShare& operator=(WeightShare&& other) noexcept;
    WeightShare(const WeightShare&) = delete;
    WeightShare& operator=(const WeightShare&) = delete;
    ~WeightShare() { set(0); }
    void set(std::size_t bytes) noexcept;

   private:
    std::size_t bytes_ = 0;
  };
  WeightShare weight_share_;

  // Arena state (sized by ensure_capacity, reused across calls).
  std::vector<std::size_t> slot_elems_;  ///< per-slot max sample floats
  std::vector<std::vector<float>> slots_;
  util::Workspace ws_;  ///< serial-path engine scratch (capacity-retaining)
  Tensor output_;
  std::size_t output_max_batch_ = 0;  ///< high-water mark; growth past it allocates
  mutable ArenaStats stats_;
};

}  // namespace lithogan::nn
