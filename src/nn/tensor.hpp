// Dense float32 tensor in row-major (NCHW for images) layout.
//
// The neural-network library is layer-graph based rather than general
// autodiff: tensors are plain data buffers and every Module implements its
// own backward pass. This keeps the hot path allocation-light and easy to
// verify against numeric gradients.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace lithogan::util {
class Rng;
}

namespace lithogan::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape, float fill = 0.0f);

  static Tensor zeros(std::vector<std::size_t> shape);
  static Tensor ones(std::vector<std::size_t> shape);
  /// I.i.d. normal entries with the given standard deviation.
  static Tensor randn(std::vector<std::size_t> shape, util::Rng& rng,
                      float stddev = 1.0f, float mean = 0.0f);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const;
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Multi-index access with bounds checking (debug-friendly, not hot-path).
  float& at(std::initializer_list<std::size_t> idx);
  float at(std::initializer_list<std::size_t> idx) const;

  /// Returns a copy with a new shape of identical element count.
  Tensor reshaped(std::vector<std::size_t> new_shape) const;

  /// Re-targets dim 0 of a rank >= 1 tensor to `n` samples, resizing the
  /// buffer to n * (elements per sample). Shrinking keeps the vector's
  /// capacity, so a batch tensor cycled between batch sizes never
  /// reallocates once it has seen its maximum — the serving dispatch loop
  /// relies on this for zero steady-state allocations.
  void set_batch(std::size_t n);

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Element-wise in-place helper used by optimizers and losses.
  void add_scaled(const Tensor& other, float scale);  // this += scale * other

  /// "(2, 3, 64, 64)" — for error messages.
  std::string shape_string() const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  std::size_t flat_index(std::initializer_list<std::size_t> idx) const;

  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace lithogan::nn
