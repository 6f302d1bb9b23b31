#include "nn/infer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <sstream>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"

namespace lithogan::nn {

namespace {

/// Scalar activation, formula-for-formula the eval path of the activation
/// modules (and of math::Epilogue) so every execution route rounds alike.
inline float act_eval(math::Activation act, float v, float slope) {
  switch (act) {
    case math::Activation::kRelu:
      return v < 0.0f ? 0.0f : v;
    case math::Activation::kLeakyRelu:
      return v < 0.0f ? v * slope : v;
    case math::Activation::kTanh:
      return std::tanh(v);
    case math::Activation::kSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case math::Activation::kIdentity:
      break;
  }
  return v;
}

std::size_t shape_elems(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) n *= d;
  return n;
}

/// Inference is f32 only. A leftover LITHOGAN_INFER_DTYPE asking for any
/// other precision fails the plan build instead of silently serving f32.
void reject_reduced_precision_env() {
  const char* dtype = std::getenv("LITHOGAN_INFER_DTYPE");
  if (dtype == nullptr || *dtype == '\0' || std::strcmp(dtype, "f32") == 0) return;
  throw util::Error(std::string("LITHOGAN_INFER_DTYPE=") + dtype +
                    ": inference is f32 only; unset the variable or set it to f32");
}

/// Names a GEMM-backed step in a trace: its index in plan_dump(), the batch
/// and the batch's GEMM work 2*m*n*k in MFLOP, so mflop divided by the
/// span's duration in ms reads as GF/s.
void tag_gemm_step(obs::Span& span, std::size_t index, std::size_t batch,
                   std::size_t flops_per_sample) {
  span.arg("step", static_cast<double>(index));
  span.arg("batch", static_cast<double>(batch));
  span.arg("mflop", static_cast<double>(batch * flops_per_sample) * 1e-6);
}

}  // namespace

std::size_t InferencePlan::weight_bytes() const {
  std::size_t bytes = 0;
  for (const Step& s : steps_) bytes += s.packed_w.size() * sizeof(float);
  return bytes;
}

void InferencePlan::WeightShare::set(std::size_t bytes) noexcept {
  if (bytes == bytes_) return;
  // Leaked like the registry, so plans destroyed during static teardown
  // still find it.
  struct Live {
    std::mutex mu;
    std::size_t bytes = 0;
    obs::Gauge& gauge = obs::Registry::global().gauge("infer.weight_bytes");
  };
  static Live* live = new Live();
  const std::lock_guard<std::mutex> lock(live->mu);
  live->bytes = live->bytes - bytes_ + bytes;
  bytes_ = bytes;
  live->gauge.set(static_cast<double>(live->bytes));
}

InferencePlan::WeightShare& InferencePlan::WeightShare::operator=(
    WeightShare&& other) noexcept {
  if (this != &other) {
    set(0);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

// ---------------------------------------------------------------------------
// Graph construction
// ---------------------------------------------------------------------------

InferencePlan::BufId InferencePlan::new_buffer(std::vector<std::size_t> sample_shape) {
  BufferInfo info;
  info.sample_elems = shape_elems(sample_shape);
  info.sample_shape = std::move(sample_shape);
  buffers_.push_back(std::move(info));
  return buffers_.size() - 1;
}

InferencePlan::BufId InferencePlan::add_input(
    const std::vector<std::size_t>& sample_shape) {
  LITHOGAN_REQUIRE(!finalized_ && !has_input_, "InferencePlan: input already declared");
  LITHOGAN_REQUIRE(!sample_shape.empty(), "InferencePlan: empty input shape");
  reject_reduced_precision_env();
  input_id_ = new_buffer(sample_shape);
  buffers_[input_id_].external = true;
  has_input_ = true;
  return input_id_;
}

InferencePlan::BufId InferencePlan::add_elementwise(math::Activation act, float slope,
                                                    std::size_t cost, BufId in) {
  Step s;
  s.op = Op::kActivation;
  s.act = act;
  s.slope = slope;
  s.act_cost = cost;
  s.in0 = in;
  // Elementwise steps run in place except on the caller-owned input tensor,
  // which the plan must never write.
  s.out = buffers_[in].external ? new_buffer(buffers_[in].sample_shape) : in;
  s.in_elems = buffers_[in].sample_elems;
  s.out_elems = buffers_[s.out].sample_elems;
  const BufId out = s.out;
  steps_.push_back(std::move(s));
  return out;
}

InferencePlan::BufId InferencePlan::add_module(Module& layer, BufId in) {
  LITHOGAN_REQUIRE(!finalized_, "InferencePlan: add_module after finalize");
  LITHOGAN_REQUIRE(has_input_ && in < buffers_.size(),
                   "InferencePlan: unknown input buffer");

  if (auto* seq = dynamic_cast<Sequential*>(&layer)) return add_layers(*seq, in);

  const std::vector<std::size_t> shape = buffers_[in].sample_shape;

  if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
    LITHOGAN_REQUIRE(shape.size() == 3 && shape[0] == conv->in_channels(),
                     "InferencePlan: Conv2d input mismatch");
    Step s;
    s.op = Op::kConv;
    s.in0 = in;
    s.in_c = shape[0];
    s.in_h = shape[1];
    s.in_w = shape[2];
    s.kernel = conv->kernel();
    s.stride = conv->stride();
    s.pad = conv->pad();
    s.out_c = conv->out_channels();
    // Resolve the engine plan and snapshot the weights prepacked into GEMM
    // A panels.
    s.conv = math::conv_plan({math::ConvDir::kConv, s.in_c, s.in_h, s.in_w, s.out_c,
                              s.kernel, s.stride, s.pad, 0});
    s.out_h = s.conv->out_h;
    s.out_w = s.conv->out_w;
    s.packed_w = math::pack_conv_weights(*s.conv, conv->weight().raw());
    s.bias.assign(conv->bias().raw(), conv->bias().raw() + s.out_c);
    s.out = new_buffer({s.out_c, s.out_h, s.out_w});
    s.in_elems = buffers_[in].sample_elems;
    s.out_elems = buffers_[s.out].sample_elems;
    const BufId out = s.out;
    steps_.push_back(std::move(s));
    return out;
  }

  if (auto* deconv = dynamic_cast<ConvTranspose2d*>(&layer)) {
    LITHOGAN_REQUIRE(shape.size() == 3 && shape[0] == deconv->in_channels(),
                     "InferencePlan: ConvTranspose2d input mismatch");
    Step s;
    s.op = Op::kDeconv;
    s.in0 = in;
    s.in_c = shape[0];
    s.in_h = shape[1];
    s.in_w = shape[2];
    s.kernel = deconv->kernel();
    s.stride = deconv->stride();
    s.pad = deconv->pad();
    s.out_c = deconv->out_channels();
    // Engine plan (validates the adjoint geometry) + prepacked weights:
    // the deconv GEMM is Col = W^T * X, so the (in, out*k*k) weight packs
    // as the transposed A operand once instead of per call.
    s.conv = math::conv_plan({math::ConvDir::kDeconv, s.in_c, s.in_h, s.in_w, s.out_c,
                              s.kernel, s.stride, s.pad, deconv->output_pad()});
    s.out_h = s.conv->out_h;
    s.out_w = s.conv->out_w;
    s.packed_w = math::pack_conv_weights(*s.conv, deconv->weight().raw());
    s.bias.assign(deconv->bias().raw(), deconv->bias().raw() + s.out_c);
    s.out = new_buffer({s.out_c, s.out_h, s.out_w});
    s.in_elems = buffers_[in].sample_elems;
    s.out_elems = buffers_[s.out].sample_elems;
    const BufId out = s.out;
    steps_.push_back(std::move(s));
    return out;
  }

  if (auto* linear = dynamic_cast<Linear*>(&layer)) {
    LITHOGAN_REQUIRE(shape.size() == 1 && shape[0] == linear->in_features(),
                     "InferencePlan: Linear input mismatch (flatten first)");
    Step s;
    s.op = Op::kLinear;
    s.in0 = in;
    s.in_c = linear->in_features();
    s.out_c = linear->out_features();
    // y = x W^T: the (out, in) weight is the transposed-B operand of
    // gemm_bt; pre-pack its panels once.
    s.packed_w.resize(math::packed_b_size(s.out_c, s.in_c));
    math::pack_b_t(s.in_c, s.out_c, linear->weight().raw(), s.packed_w.data());
    s.bias.assign(linear->bias().raw(), linear->bias().raw() + s.out_c);
    s.out = new_buffer({s.out_c});
    s.in_elems = buffers_[in].sample_elems;
    s.out_elems = buffers_[s.out].sample_elems;
    const BufId out = s.out;
    steps_.push_back(std::move(s));
    return out;
  }

  if (auto* bn = dynamic_cast<BatchNorm2d*>(&layer)) {
    LITHOGAN_REQUIRE(shape.size() == 3 && shape[0] == bn->channels(),
                     "InferencePlan: BatchNorm2d input mismatch");
    Step s;
    s.op = Op::kBatchNorm;
    s.in0 = in;
    s.in_c = shape[0];
    s.in_h = shape[1];
    s.in_w = shape[2];
    s.out_c = s.in_c;
    s.out_h = s.in_h;
    s.out_w = s.in_w;
    const std::size_t channels = bn->channels();
    s.bn_mean.assign(bn->running_mean().raw(), bn->running_mean().raw() + channels);
    s.bn_gamma.assign(bn->gamma().raw(), bn->gamma().raw() + channels);
    s.bn_beta.assign(bn->beta().raw(), bn->beta().raw() + channels);
    // Same expression the eval forward evaluates per call, hoisted to plan
    // time — identical floats, computed once.
    s.bn_inv_std.resize(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      s.bn_inv_std[c] = 1.0f / std::sqrt(bn->running_var()[c] + bn->eps());
    }
    s.out = buffers_[in].external ? new_buffer(shape) : in;
    s.in_elems = buffers_[in].sample_elems;
    s.out_elems = buffers_[s.out].sample_elems;
    const BufId out = s.out;
    steps_.push_back(std::move(s));
    return out;
  }

  if (dynamic_cast<ReLU*>(&layer) != nullptr) {
    return add_elementwise(math::Activation::kRelu, 0.0f, 2, in);
  }
  if (auto* lrelu = dynamic_cast<LeakyReLU*>(&layer)) {
    return add_elementwise(math::Activation::kLeakyRelu, lrelu->slope(), 2, in);
  }
  if (dynamic_cast<Tanh*>(&layer) != nullptr) {
    return add_elementwise(math::Activation::kTanh, 0.0f, 32, in);
  }
  if (dynamic_cast<Sigmoid*>(&layer) != nullptr) {
    return add_elementwise(math::Activation::kSigmoid, 0.0f, 32, in);
  }

  if (auto* pool = dynamic_cast<MaxPool2d*>(&layer)) {
    LITHOGAN_REQUIRE(shape.size() == 3, "InferencePlan: MaxPool2d input mismatch");
    Step s;
    s.op = Op::kMaxPool;
    s.in0 = in;
    s.in_c = shape[0];
    s.in_h = shape[1];
    s.in_w = shape[2];
    s.kernel = pool->kernel();
    s.stride = pool->stride();
    s.out_c = s.in_c;
    s.out_h = math::conv_out_size(s.in_h, s.kernel, s.stride, 0);
    s.out_w = math::conv_out_size(s.in_w, s.kernel, s.stride, 0);
    s.out = new_buffer({s.out_c, s.out_h, s.out_w});
    s.in_elems = buffers_[in].sample_elems;
    s.out_elems = buffers_[s.out].sample_elems;
    const BufId out = s.out;
    steps_.push_back(std::move(s));
    return out;
  }

  if (dynamic_cast<Flatten*>(&layer) != nullptr) {
    // Shape-only: collapse the buffer's logical sample shape in place.
    buffers_[in].sample_shape = {buffers_[in].sample_elems};
    return in;
  }
  if (dynamic_cast<Dropout*>(&layer) != nullptr) {
    return in;  // identity at inference (pix2pix predict convention)
  }

  LITHOGAN_REQUIRE(false, "InferencePlan: unsupported layer kind " + layer.kind());
  return in;
}

InferencePlan::BufId InferencePlan::add_layers(Sequential& net, BufId in) {
  BufId x = in;
  for (std::size_t i = 0; i < net.layer_count(); ++i) x = add_module(net.layer(i), x);
  return x;
}

InferencePlan::BufId InferencePlan::add_concat(BufId a, BufId b) {
  LITHOGAN_REQUIRE(!finalized_ && a < buffers_.size() && b < buffers_.size(),
                   "InferencePlan: bad concat operands");
  const auto& sa = buffers_[a].sample_shape;
  const auto& sb = buffers_[b].sample_shape;
  LITHOGAN_REQUIRE(sa.size() == 3 && sb.size() == 3 && sa[1] == sb[1] && sa[2] == sb[2],
                   "InferencePlan: concat shape mismatch");
  Step s;
  s.op = Op::kConcat;
  s.in0 = a;
  s.in1 = b;
  s.in_c = sa[0];
  s.in_h = sa[1];
  s.in_w = sa[2];
  s.out_c = sa[0] + sb[0];
  s.out_h = sa[1];
  s.out_w = sa[2];
  s.out = new_buffer({s.out_c, s.out_h, s.out_w});
  s.in_elems = buffers_[a].sample_elems;
  s.in1_elems = buffers_[b].sample_elems;
  s.out_elems = buffers_[s.out].sample_elems;
  const BufId out = s.out;
  steps_.push_back(std::move(s));
  return out;
}

void InferencePlan::set_output(BufId out) {
  LITHOGAN_REQUIRE(!finalized_ && out < buffers_.size(), "InferencePlan: bad output");
  LITHOGAN_REQUIRE(!buffers_[out].external, "InferencePlan: output cannot be the input");
  output_id_ = out;
  buffers_[out].is_output = true;
  has_output_ = true;
}

// ---------------------------------------------------------------------------
// Finalization: epilogue fusion + liveness-based arena assignment
// ---------------------------------------------------------------------------

void InferencePlan::fuse_epilogues() {
  for (std::size_t i = 0; i + 1 < steps_.size();) {
    Step& s = steps_[i];
    const Step& nxt = steps_[i + 1];
    // GEMM-like steps absorb the activation into their writeback epilogue;
    // a BatchNorm absorbs it into its per-channel affine sweep (the fused
    // element is act(g*xh + b) — the exact expression the two separate
    // passes compute, so fusion preserves bit-identity).
    const bool fusable = s.op == Op::kConv || s.op == Op::kDeconv ||
                         s.op == Op::kLinear || s.op == Op::kBatchNorm;
    if (fusable && s.act == math::Activation::kIdentity &&
        nxt.op == Op::kActivation && nxt.in0 == s.out) {
      s.act = nxt.act;
      s.slope = nxt.slope;
      s.out = nxt.out;
      s.out_elems = nxt.out_elems;
      steps_.erase(steps_.begin() + i + 1);
    } else {
      ++i;
    }
  }
}

void InferencePlan::assign_slots() {
  for (BufferInfo& b : buffers_) b.last_use = 0;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    buffers_[steps_[i].in0].last_use = i;
    if (steps_[i].op == Op::kConcat) buffers_[steps_[i].in1].last_use = i;
  }
  // Pin the result past the last step and route it to the output tensor;
  // the input aliases the caller's tensor.
  buffers_[output_id_].last_use = steps_.size();
  buffers_[input_id_].slot = kSlotInput;
  buffers_[output_id_].slot = kSlotOutput;

  slot_elems_.clear();
  std::vector<int> free_list;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    BufferInfo& out = buffers_[s.out];
    if (out.slot == kUnassigned) {
      if (!free_list.empty()) {
        out.slot = free_list.back();
        free_list.pop_back();
      } else {
        out.slot = static_cast<int>(slot_elems_.size());
        slot_elems_.push_back(0);
      }
    }
    if (out.slot >= 0) {
      slot_elems_[out.slot] = std::max(slot_elems_[out.slot], out.sample_elems);
    }
    // Release operands after their last read (keeping their slot id for
    // execution — a slot on the free list is reused, not invalidated).
    // Outputs never take a slot freed at the same step: conv/linear/concat
    // read whole samples while writing, so src/dst aliasing would corrupt
    // them.
    auto release = [&](BufId id) {
      BufferInfo& b = buffers_[id];
      if (b.slot >= 0 && b.last_use == i && id != s.out) free_list.push_back(b.slot);
    };
    release(s.in0);
    if (s.op == Op::kConcat && s.in1 != s.in0) release(s.in1);
  }

}

void InferencePlan::finalize() {
  LITHOGAN_REQUIRE(!finalized_, "InferencePlan: already finalized");
  LITHOGAN_REQUIRE(has_input_ && has_output_, "InferencePlan: incomplete graph");
  const obs::Span span("infer.plan");
  fuse_epilogues();
  assign_slots();
  finalized_ = true;
  weight_share_.set(weight_bytes());
}

void InferencePlan::compile(Sequential& net,
                            const std::vector<std::size_t>& sample_shape) {
  const BufId in = add_input(sample_shape);
  set_output(add_layers(net, in));
  finalize();
}

const std::vector<std::size_t>& InferencePlan::output_sample_shape() const {
  LITHOGAN_REQUIRE(has_output_, "InferencePlan: no output declared");
  return buffers_[output_id_].sample_shape;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

const float* InferencePlan::src_ptr(BufId id, const Tensor& input) const {
  const BufferInfo& b = buffers_[id];
  if (b.slot == kSlotInput) return input.raw();
  if (b.slot == kSlotOutput) return output_.raw();
  return slots_[static_cast<std::size_t>(b.slot)].data();
}

float* InferencePlan::dst_ptr(BufId id) {
  const BufferInfo& b = buffers_[id];
  LITHOGAN_REQUIRE(b.slot != kSlotInput, "InferencePlan: write to input buffer");
  if (b.slot == kSlotOutput) return output_.raw();
  return slots_[static_cast<std::size_t>(b.slot)].data();
}

void InferencePlan::ensure_capacity(std::size_t batch) {
  if (slots_.size() < slot_elems_.size()) {
    slots_.resize(slot_elems_.size());
    ++stats_.allocations;
  }
  for (std::size_t s = 0; s < slot_elems_.size(); ++s) {
    const std::size_t need = slot_elems_[s] * batch;
    if (need > slots_[s].capacity()) ++stats_.allocations;
    slots_[s].resize(need);
  }
  if (output_.empty()) {
    std::vector<std::size_t> shape{batch};
    const auto& out_shape = buffers_[output_id_].sample_shape;
    shape.insert(shape.end(), out_shape.begin(), out_shape.end());
    output_ = Tensor(shape);
  } else if (output_.dim(0) != batch) {
    // Capacity-preserving re-target: a stream whose batch size oscillates
    // (micro-batching, chip tile remainders) must not reallocate once the
    // high-water batch has been seen.
    output_.set_batch(batch);
  }
  if (batch > output_max_batch_) {
    output_max_batch_ = batch;
    ++stats_.allocations;
  }
}

void InferencePlan::run_conv(const Step& s, std::size_t batch, const float* src,
                             float* dst) {
  math::Epilogue epi;
  epi.bias = s.bias.data();
  epi.bias_per_row = true;
  epi.act = s.act;
  epi.slope = s.slope;
  math::conv2d_forward(*s.conv, batch, src, nullptr, s.packed_w.data(), epi, dst, exec_,
                       ws_);
}

void InferencePlan::run_deconv(const Step& s, std::size_t batch, const float* src,
                               float* dst) {
  math::Epilogue epi;
  epi.bias = s.bias.data();
  epi.bias_per_row = true;
  epi.act = s.act;
  epi.slope = s.slope;
  math::deconv2d_forward(*s.conv, batch, src, nullptr, s.packed_w.data(), epi, dst,
                         exec_, ws_);
}

void InferencePlan::run_linear(const Step& s, std::size_t batch, const float* src,
                               float* dst) {
  math::Epilogue epi;
  epi.bias = s.bias.data();
  epi.bias_per_row = false;  // linear bias broadcasts along C's columns
  epi.act = s.act;
  epi.slope = s.slope;
  math::gemm_packed(batch, s.out_c, s.in_c, 1.0f, src, s.packed_w.data(), 0.0f, dst,
                    epi, exec_);
}

void InferencePlan::run_batchnorm(const Step& s, std::size_t batch, const float* src,
                                  float* dst) {
  const std::size_t plane = s.in_h * s.in_w;
  const std::size_t per_channel = batch * plane;
  auto channel_range = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      const float mean = s.bn_mean[c];
      const float inv_std = s.bn_inv_std[c];
      const float g = s.bn_gamma[c];
      const float b = s.bn_beta[c];
      for (std::size_t n = 0; n < batch; ++n) {
        const float* x = src + n * s.in_elems + c * plane;
        float* y = dst + n * s.out_elems + c * plane;
        // The fused trailing activation (see fuse_epilogues) is dispatched
        // once per plane, not per element: each specialized loop body is
        // branch-free on the activation kind so it auto-vectorizes, and
        // each formula matches act_eval character for character, so fusion
        // stays bit-identical to the two separate sweeps.
        switch (s.act) {
          case math::Activation::kIdentity:
            for (std::size_t i = 0; i < plane; ++i) {
              const float xh = (x[i] - mean) * inv_std;
              y[i] = g * xh + b;
            }
            break;
          case math::Activation::kRelu:
            for (std::size_t i = 0; i < plane; ++i) {
              const float xh = (x[i] - mean) * inv_std;
              const float v = g * xh + b;
              y[i] = v < 0.0f ? 0.0f : v;
            }
            break;
          case math::Activation::kLeakyRelu: {
            const float slope = s.slope;
            for (std::size_t i = 0; i < plane; ++i) {
              const float xh = (x[i] - mean) * inv_std;
              const float v = g * xh + b;
              y[i] = v < 0.0f ? v * slope : v;
            }
            break;
          }
          default:
            for (std::size_t i = 0; i < plane; ++i) {
              const float xh = (x[i] - mean) * inv_std;
              y[i] = act_eval(s.act, g * xh + b, s.slope);
            }
            break;
        }
      }
    }
  };
  if (exec_ != nullptr) {
    exec_->parallel_for(0, s.in_c, 1, s.in_c * per_channel * 8,
                        [&](std::size_t c0, std::size_t c1, util::Workspace&) {
                          channel_range(c0, c1);
                        });
  } else {
    channel_range(0, s.in_c);
  }
}

void InferencePlan::run_activation(const Step& s, std::size_t batch, const float* src,
                                   float* dst) {
  const std::size_t total = batch * s.out_elems;
  auto range = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) dst[i] = act_eval(s.act, src[i], s.slope);
  };
  if (exec_ != nullptr) {
    exec_->parallel_for(0, total, exec_->grain_for(total, 1024), total * s.act_cost,
                        [&](std::size_t b, std::size_t e, util::Workspace&) {
                          range(b, e);
                        });
  } else {
    range(0, total);
  }
}

void InferencePlan::run_maxpool(const Step& s, std::size_t batch, const float* src,
                                float* dst) {
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < s.in_c; ++c) {
      const float* plane = src + n * s.in_elems + c * s.in_h * s.in_w;
      float* out = dst + n * s.out_elems + c * s.out_h * s.out_w;
      std::size_t out_idx = 0;
      for (std::size_t oy = 0; oy < s.out_h; ++oy) {
        for (std::size_t ox = 0; ox < s.out_w; ++ox, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::size_t ky = 0; ky < s.kernel; ++ky) {
            const std::size_t iy = oy * s.stride + ky;
            if (iy >= s.in_h) break;
            for (std::size_t kx = 0; kx < s.kernel; ++kx) {
              const std::size_t ix = ox * s.stride + kx;
              if (ix >= s.in_w) break;
              const float v = plane[iy * s.in_w + ix];
              if (v > best) best = v;
            }
          }
          out[out_idx] = best;
        }
      }
    }
  }
}

void InferencePlan::run_step(std::size_t index, std::size_t batch, const Tensor& input) {
  const Step& s = steps_[index];
  const float* src = src_ptr(s.in0, input);
  float* dst = dst_ptr(s.out);
  const std::size_t taps = s.kernel * s.kernel;
  switch (s.op) {
    case Op::kConv: {
      obs::Span span("infer.step.conv");
      tag_gemm_step(span, index, batch, 2 * s.out_c * s.out_h * s.out_w * s.in_c * taps);
      run_conv(s, batch, src, dst);
      break;
    }
    case Op::kDeconv: {
      obs::Span span("infer.step.deconv");
      tag_gemm_step(span, index, batch, 2 * s.out_c * taps * s.in_h * s.in_w * s.in_c);
      run_deconv(s, batch, src, dst);
      break;
    }
    case Op::kLinear: {
      obs::Span span("infer.step.linear");
      tag_gemm_step(span, index, batch, 2 * s.out_c * s.in_c);
      run_linear(s, batch, src, dst);
      break;
    }
    case Op::kBatchNorm: {
      const obs::Span span("infer.step.bn");
      run_batchnorm(s, batch, src, dst);
      break;
    }
    case Op::kActivation: {
      const obs::Span span("infer.step.act");
      run_activation(s, batch, src, dst);
      break;
    }
    case Op::kMaxPool: {
      const obs::Span span("infer.step.pool");
      run_maxpool(s, batch, src, dst);
      break;
    }
    case Op::kConcat: {
      const obs::Span span("infer.step.concat");
      const float* src1 = src_ptr(s.in1, input);
      for (std::size_t n = 0; n < batch; ++n) {
        float* out = dst + n * s.out_elems;
        std::memcpy(out, src + n * s.in_elems, s.in_elems * sizeof(float));
        std::memcpy(out + s.in_elems, src1 + n * s.in1_elems,
                    s.in1_elems * sizeof(float));
      }
      break;
    }
  }
}

const Tensor& InferencePlan::infer(const Tensor& input) {
  LITHOGAN_REQUIRE(finalized_, "InferencePlan::infer before finalize");
  const BufferInfo& in = buffers_[input_id_];
  LITHOGAN_REQUIRE(input.rank() == in.sample_shape.size() + 1,
                   "InferencePlan: input rank mismatch " + input.shape_string());
  for (std::size_t d = 0; d < in.sample_shape.size(); ++d) {
    LITHOGAN_REQUIRE(input.dim(d + 1) == in.sample_shape[d],
                     "InferencePlan: input shape mismatch " + input.shape_string());
  }
  const std::size_t batch = input.dim(0);
  LITHOGAN_REQUIRE(batch > 0, "InferencePlan: empty batch");
  ensure_capacity(batch);
  for (std::size_t i = 0; i < steps_.size(); ++i) run_step(i, batch, input);
  return output_;
}

InferencePlan::ArenaStats InferencePlan::arena_stats() const {
  ArenaStats st = stats_;
  st.slots = slot_elems_.size();
  st.buffers = buffers_.size();
  std::size_t floats = 0;
  for (const auto& v : slots_) floats += v.size();
  st.arena_floats = floats;
  return st;
}

std::string InferencePlan::plan_dump() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    const char* name = "?";
    switch (s.op) {
      case Op::kConv:
        name = "conv";
        break;
      case Op::kDeconv:
        name = "deconv";
        break;
      case Op::kLinear:
        name = "linear";
        break;
      case Op::kBatchNorm:
        name = "batchnorm";
        break;
      case Op::kActivation:
        name = "activation";
        break;
      case Op::kMaxPool:
        name = "maxpool";
        break;
      case Op::kConcat:
        name = "concat";
        break;
    }
    os << "step " << i << ": " << name;
    if (s.op == Op::kConv || s.op == Op::kDeconv) {
      os << ' ' << s.in_c << 'x' << s.in_h << 'x' << s.in_w << " -> " << s.out_c << 'x'
         << s.out_h << 'x' << s.out_w << " k" << s.kernel << " s" << s.stride << " p"
         << s.pad;
    } else if (s.op == Op::kLinear) {
      os << ' ' << s.in_c << " -> " << s.out_c;
    } else if (s.op != Op::kActivation) {
      os << ' ' << s.in_c << 'x' << s.in_h << 'x' << s.in_w;
    }
    // Weight-bearing steps report their packed byte footprint.
    if (!s.packed_w.empty()) os << " bytes=" << s.packed_w.size() * sizeof(float);
    if (s.act != math::Activation::kIdentity) {
      const char* act = s.act == math::Activation::kRelu        ? "relu"
                        : s.act == math::Activation::kLeakyRelu ? "leaky_relu"
                        : s.act == math::Activation::kTanh      ? "tanh"
                                                                : "sigmoid";
      os << " act=" << act;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace lithogan::nn
