// Resist models (the "resist model" stage of Figure 1).
//
// Exposure deposits acid proportional to the aerial intensity; post-exposure
// bake diffuses it (Gaussian blur); development removes resist where the
// diffused latent image exceeds a slicing threshold. Two development models
// are provided:
//   * ConstantThresholdResist — the classical CTR compact model;
//   * VariableThresholdResist — a VTR model whose local threshold depends on
//     the local image maximum and gradient, as in Randall et al. (SPIE 1999)
//     and the CNN-threshold line of work the paper builds on.
#pragma once

#include <memory>

#include "litho/optical.hpp"
#include "litho/process.hpp"

namespace lithogan::litho {

/// Gaussian blur of `field` with standard deviation `sigma_nm` (circular
/// boundary, FFT-based — consistent with the optical model's conventions).
/// A field that carries a band (FieldGrid::band_pixels = m < pixels) is
/// blurred on its m x m grid and keeps the tag: exact, since the Gaussian
/// keeps it inside the band. An untagged field, or one with m = pixels,
/// takes the full-grid blur. Throws util::InvalidArgument when band_pixels
/// is neither 0 nor a power of two <= pixels.
FieldGrid diffuse(const FieldGrid& field, double sigma_nm,
                  util::ExecContext* exec = nullptr);

/// The band blur of diffuse, from the m x m band samples of a field on
/// `grid` (OpticalModel::band_intensity: (n/m)^2 times the field at every
/// (n/m)-th pixel) straight into the blurred n x n field, which carries the
/// band m. Equals diffuse() bit for bit on a band-tagged field whose sample
/// pixels hold samples / (n/m)^2, as OpticalModel::aerial_image writes
/// them, and never needs that field. Throws util::InvalidArgument unless
/// sigma_nm > 0, m is a power of two below grid.pixels and samples holds
/// m x m values.
FieldGrid diffuse_band(const std::vector<double>& samples, std::size_t m,
                       const GridConfig& grid, double sigma_nm,
                       util::ExecContext* exec = nullptr);

class ResistModel {
 public:
  virtual ~ResistModel() = default;

  /// Latent image after exposure + post-exposure bake.
  virtual FieldGrid latent_image(const FieldGrid& aerial) const = 0;

  /// Locally varying slicing threshold for this latent image.
  virtual FieldGrid threshold_field(const FieldGrid& latent) const = 0;

  /// develop = latent - threshold; the printed pattern is develop >= 0 and
  /// printed contours are the zero iso-lines of this field.
  FieldGrid develop(const FieldGrid& aerial) const;

  /// The develop step from a latent image: latent - threshold, written into
  /// the threshold field's buffer and returned with no band (a threshold
  /// is not band-limited).
  FieldGrid develop_latent(const FieldGrid& latent) const;

  /// Attaches the execution context used by the model's grid passes (not
  /// owned; nullptr = serial). All passes are bit-identical at any thread
  /// count — only disjoint per-row/per-pixel writes are parallelized.
  void set_exec_context(util::ExecContext* exec) { exec_ = exec; }

 protected:
  util::ExecContext* exec_ = nullptr;
};

class ConstantThresholdResist : public ResistModel {
 public:
  explicit ConstantThresholdResist(const ResistConfig& config) : config_(config) {}
  FieldGrid latent_image(const FieldGrid& aerial) const override;
  FieldGrid threshold_field(const FieldGrid& latent) const override;

 private:
  ResistConfig config_;
};

class VariableThresholdResist : public ResistModel {
 public:
  explicit VariableThresholdResist(const ResistConfig& config) : config_(config) {}
  FieldGrid latent_image(const FieldGrid& aerial) const override;

  /// threshold(x) = t0 + c_max * (Imax_local(x) - Imax_ref)
  ///                   + c_slope * |grad latent|(x)
  /// where Imax_local is the latent maximum in a vtr_window_nm neighborhood.
  FieldGrid threshold_field(const FieldGrid& latent) const override;

 private:
  ResistConfig config_;
};

}  // namespace lithogan::litho
