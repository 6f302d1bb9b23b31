#include "nn/tensor.hpp"

#include <numeric>
#include <sstream>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace lithogan::nn {

namespace {
std::size_t element_count(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape, float fill)
    : shape_(std::move(shape)), data_(element_count(shape_), fill) {
  for (const std::size_t d : shape_) {
    LITHOGAN_REQUIRE(d > 0, "tensor dimensions must be positive");
  }
}

Tensor Tensor::zeros(std::vector<std::size_t> shape) { return Tensor(std::move(shape), 0.0f); }

Tensor Tensor::ones(std::vector<std::size_t> shape) { return Tensor(std::move(shape), 1.0f); }

Tensor Tensor::randn(std::vector<std::size_t> shape, util::Rng& rng, float stddev,
                     float mean) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

std::size_t Tensor::dim(std::size_t i) const {
  LITHOGAN_REQUIRE(i < shape_.size(), "tensor dim index out of range");
  return shape_[i];
}

std::size_t Tensor::flat_index(std::initializer_list<std::size_t> idx) const {
  LITHOGAN_REQUIRE(idx.size() == shape_.size(), "index rank mismatch");
  std::size_t flat = 0;
  std::size_t axis = 0;
  for (const std::size_t i : idx) {
    LITHOGAN_REQUIRE(i < shape_[axis], "tensor index out of range");
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<std::size_t> idx) { return data_[flat_index(idx)]; }

float Tensor::at(std::initializer_list<std::size_t> idx) const {
  return data_[flat_index(idx)];
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
  LITHOGAN_REQUIRE(element_count(new_shape) == data_.size(),
                   "reshape must preserve element count");
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;
  return out;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Tensor::set_batch(std::size_t n) {
  LITHOGAN_REQUIRE(!shape_.empty(), "set_batch requires rank >= 1");
  LITHOGAN_REQUIRE(n > 0, "tensor dimensions must be positive");
  std::size_t per_sample = 1;
  for (std::size_t i = 1; i < shape_.size(); ++i) per_sample *= shape_[i];
  shape_[0] = n;
  data_.resize(n * per_sample);
}

void Tensor::add_scaled(const Tensor& other, float scale) {
  LITHOGAN_REQUIRE(same_shape(other), "add_scaled shape mismatch: " + shape_string() +
                                          " vs " + other.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

std::string Tensor::shape_string() const {
  std::ostringstream oss;
  oss << "(";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) oss << ", ";
    oss << shape_[i];
  }
  oss << ")";
  return oss.str();
}

}  // namespace lithogan::nn
