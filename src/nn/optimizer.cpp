#include "nn/optimizer.hpp"

#include <cmath>

namespace lithogan::nn {

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2, float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    m_.push_back(Tensor::zeros(p->value.shape()));
    v_.push_back(Tensor::zeros(p->value.shape()));
  }
}

void Adam::step() {
  ++t_;
  const auto t = static_cast<float>(t_);
  const float bias1 = 1.0f - std::pow(beta1_, t);
  const float bias2 = 1.0f - std::pow(beta2_, t);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      const float g = p.grad[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g * g;
      const float mhat = m[j] / bias1;
      const float vhat = v[j] / bias2;
      p.value[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace lithogan::nn
