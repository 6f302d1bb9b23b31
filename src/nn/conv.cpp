#include "nn/conv.hpp"

#include "math/conv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lithogan::nn {

namespace {
constexpr float kInitStddev = 0.02f;  // DCGAN / pix2pix weight initialization

// Module-arena slots for per-sample gradient partials. The math::conv
// engine owns float slots 0-1 of whatever workspace a chunk runs with —
// and on the serial path the module arena IS that workspace — so the
// partials live above the engine's range.
constexpr std::size_t kWgradSlot = 2;
constexpr std::size_t kBgradSlot = 3;

// Adds `contribution` into `acc` elementwise. Each per-sample partial was
// produced exactly like the seed's beta=1 GEMM term, and float addition is
// commutative, so acc[i] + t and the seed's t + acc[i] round identically —
// the reduction is bit-identical to the seed's sequential accumulation.
void accumulate(float* acc, const float* contribution, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) acc[i] += contribution[i];
}
}  // namespace

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_("conv.weight",
              Tensor::randn({out_channels, in_channels * kernel * kernel}, rng,
                            kInitStddev)),
      bias_("conv.bias", Tensor::zeros({out_channels})) {}

Tensor Conv2d::forward(const Tensor& input) {
  LITHOGAN_REQUIRE(input.rank() == 4 && input.dim(1) == in_channels_,
                   "Conv2d input shape " + input.shape_string());
  // The cached input only feeds backward(); forward-only (no-grad) callers
  // must not pay one retained activation copy per call.
  input_ = grad_enabled_ ? input : Tensor();
  const std::size_t batch = input.dim(0);

  // Per-shape plan from the engine's process-wide cache, shared with
  // backward and with any InferencePlan compiled from this layer.
  const auto plan = math::conv_plan({math::ConvDir::kConv, in_channels_, input.dim(2),
                                     input.dim(3), out_channels_, kernel_, stride_,
                                     pad_, 0});

  Tensor output({batch, out_channels_, plan->out_h, plan->out_w});
  math::Epilogue epi;
  epi.bias = bias_.value.raw();
  epi.bias_per_row = true;
  math::conv2d_forward(*plan, batch, input.raw(), weight_.value.raw(), nullptr, epi,
                       output.raw(), exec_, arena_);
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  LITHOGAN_REQUIRE(!input_.empty(), "Conv2d::backward before forward");
  const std::size_t batch = input_.dim(0);
  const auto plan = math::conv_plan({math::ConvDir::kConv, in_channels_, input_.dim(2),
                                     input_.dim(3), out_channels_, kernel_, stride_,
                                     pad_, 0});
  LITHOGAN_REQUIRE(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
                       grad_output.dim(1) == out_channels_ &&
                       grad_output.dim(2) == plan->out_h &&
                       grad_output.dim(3) == plan->out_w,
                   "Conv2d grad shape " + grad_output.shape_string());

  Tensor grad_input(input_.shape());
  const std::size_t wgrad_size = out_channels_ * plan->rows;
  // Per-sample weight/bias gradient partials, reduced in sample order below
  // so the result is independent of how samples were scheduled.
  auto& wgrad_partials = arena_.floats(kWgradSlot);
  auto& bgrad_partials = arena_.floats(kBgradSlot);
  wgrad_partials.resize(batch * wgrad_size);
  bgrad_partials.resize(batch * out_channels_);

  math::conv2d_backward(*plan, batch, input_.raw(), grad_output.raw(),
                        weight_.value.raw(), grad_input.raw(), wgrad_partials.data(),
                        bgrad_partials.data(), exec_, arena_);

  for (std::size_t n = 0; n < batch; ++n) {
    accumulate(weight_.grad.raw(), wgrad_partials.data() + n * wgrad_size, wgrad_size);
    accumulate(bias_.grad.raw(), bgrad_partials.data() + n * out_channels_,
               out_channels_);
  }
  return grad_input;
}

// ---------------------------------------------------------------------------
// ConvTranspose2d
// ---------------------------------------------------------------------------

ConvTranspose2d::ConvTranspose2d(std::size_t in_channels, std::size_t out_channels,
                                 std::size_t kernel, std::size_t stride, std::size_t pad,
                                 std::size_t output_pad, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      output_pad_(output_pad),
      weight_("deconv.weight",
              Tensor::randn({in_channels, out_channels * kernel * kernel}, rng,
                            kInitStddev)),
      bias_("deconv.bias", Tensor::zeros({out_channels})) {}

Tensor ConvTranspose2d::forward(const Tensor& input) {
  LITHOGAN_REQUIRE(input.rank() == 4 && input.dim(1) == in_channels_,
                   "ConvTranspose2d input shape " + input.shape_string());
  input_ = grad_enabled_ ? input : Tensor();
  const std::size_t batch = input.dim(0);

  const auto plan = math::conv_plan({math::ConvDir::kDeconv, in_channels_, input.dim(2),
                                     input.dim(3), out_channels_, kernel_, stride_,
                                     pad_, output_pad_});
  out_h_ = plan->out_h;
  out_w_ = plan->out_w;

  Tensor output({batch, out_channels_, out_h_, out_w_});
  math::Epilogue epi;
  epi.bias = bias_.value.raw();
  epi.bias_per_row = true;
  math::deconv2d_forward(*plan, batch, input.raw(), weight_.value.raw(), nullptr, epi,
                         output.raw(), exec_, arena_);
  return output;
}

Tensor ConvTranspose2d::backward(const Tensor& grad_output) {
  LITHOGAN_REQUIRE(!input_.empty(), "ConvTranspose2d::backward before forward");
  const std::size_t batch = input_.dim(0);
  const auto plan = math::conv_plan({math::ConvDir::kDeconv, in_channels_, input_.dim(2),
                                     input_.dim(3), out_channels_, kernel_, stride_,
                                     pad_, output_pad_});
  LITHOGAN_REQUIRE(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
                       grad_output.dim(1) == out_channels_ &&
                       grad_output.dim(2) == out_h_ && grad_output.dim(3) == out_w_,
                   "ConvTranspose2d grad shape " + grad_output.shape_string());

  Tensor grad_input(input_.shape());
  const std::size_t wgrad_size = in_channels_ * plan->rows;
  auto& wgrad_partials = arena_.floats(kWgradSlot);
  auto& bgrad_partials = arena_.floats(kBgradSlot);
  wgrad_partials.resize(batch * wgrad_size);
  bgrad_partials.resize(batch * out_channels_);

  math::deconv2d_backward(*plan, batch, input_.raw(), grad_output.raw(),
                          weight_.value.raw(), grad_input.raw(), wgrad_partials.data(),
                          bgrad_partials.data(), exec_, arena_);

  for (std::size_t n = 0; n < batch; ++n) {
    accumulate(weight_.grad.raw(), wgrad_partials.data() + n * wgrad_size, wgrad_size);
    accumulate(bias_.grad.raw(), bgrad_partials.data() + n * out_channels_,
               out_channels_);
  }
  return grad_input;
}

}  // namespace lithogan::nn
