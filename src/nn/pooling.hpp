// Max pooling (the center CNN of the paper's Table 2 pools 2x2/stride 2
// after every convolution).
#pragma once

#include <cstdint>

#include "nn/module.hpp"

namespace lithogan::nn {

class MaxPool2d : public Module {
 public:
  explicit MaxPool2d(std::size_t kernel, std::size_t stride);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "MaxPool2d"; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }

 private:
  std::size_t kernel_;
  std::size_t stride_;
  std::vector<std::uint32_t> argmax_;  ///< flat input index of each output max
  std::vector<std::size_t> input_shape_;
  std::vector<std::size_t> output_shape_;
};

}  // namespace lithogan::nn
