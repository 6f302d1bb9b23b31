#include "nn/pooling.hpp"

#include <limits>

#include "math/conv.hpp"
#include "util/error.hpp"

namespace lithogan::nn {

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  LITHOGAN_REQUIRE(kernel >= 1 && stride >= 1, "pooling geometry");
}

Tensor MaxPool2d::forward(const Tensor& input) {
  LITHOGAN_REQUIRE(input.rank() == 4, "MaxPool2d input shape " + input.shape_string());
  const std::size_t batch = input.dim(0);
  const std::size_t channels = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t out_h = math::conv_out_size(h, kernel_, stride_, 0);
  const std::size_t out_w = math::conv_out_size(w, kernel_, stride_, 0);

  input_shape_ = input.shape();
  output_shape_ = {batch, channels, out_h, out_w};
  Tensor output(output_shape_);
  // argmax indices only route gradients; no-grad forward skips the cache.
  const bool keep_argmax = grad_enabled_;
  argmax_.assign(keep_argmax ? output.size() : 0, 0);

  std::size_t out_idx = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* plane = input.raw() + (n * channels + c) * h * w;
      const std::size_t plane_base = (n * channels + c) * h * w;
      for (std::size_t oy = 0; oy < out_h; ++oy) {
        for (std::size_t ox = 0; ox < out_w; ++ox, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::size_t iy = oy * stride_ + ky;
            if (iy >= h) break;
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::size_t ix = ox * stride_ + kx;
              if (ix >= w) break;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          output[out_idx] = best;
          if (keep_argmax) {
            argmax_[out_idx] = static_cast<std::uint32_t>(plane_base + best_idx);
          }
        }
      }
    }
  }
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  LITHOGAN_REQUIRE(!input_shape_.empty(), "MaxPool2d::backward before forward");
  LITHOGAN_REQUIRE(argmax_.size() == grad_output.size(),
                   "MaxPool2d::backward after a no-grad forward");
  LITHOGAN_REQUIRE(grad_output.shape() == output_shape_,
                   "MaxPool2d grad shape " + grad_output.shape_string());
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

}  // namespace lithogan::nn
