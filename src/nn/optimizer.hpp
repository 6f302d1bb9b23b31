// The optimizer. The paper trains with mini-batch SGD using the Adam update
// rule, lr = 2e-4 and betas (0.5, 0.999) (Section 4).
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace lithogan::nn {

class Adam {
 public:
  Adam(std::vector<Parameter*> params, float lr = 2e-4f, float beta1 = 0.5f,
       float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies one update using the currently accumulated gradients.
  void step();

  void zero_grad() { zero_grads(params_); }

 private:
  std::vector<Parameter*> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace lithogan::nn
