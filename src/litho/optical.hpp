// Partially coherent aerial-image formation (the "optical model" stage of
// Figure 1 in the paper).
//
// The model is Abbe source-point integration: for each sampled illumination
// direction s the mask spectrum is filtered by the shifted pupil P(f + s)
// (with a paraxial defocus phase) and the intensities of the resulting
// coherent fields are accumulated:
//
//   I(x) = sum_s w_s | IFT[ P(f + s) * FT[m](f) ] (x) |^2
//
// which is algebraically a sum-of-coherent-systems (SOCS) with one kernel
// per source point. Intensities are normalized so that a fully open mask
// images to 1.0.
#pragma once

#include <complex>
#include <vector>

#include "geometry/primitives.hpp"
#include "litho/process.hpp"
#include "litho/source.hpp"

namespace lithogan::litho {

/// Scalar field sampled on the simulation grid (row-major, pixels^2).
/// Grid coordinates: cell (ix, iy) covers physical nm coordinates
/// [ix*dx, (ix+1)*dx) x [iy*dx, (iy+1)*dx) with dx = extent/pixels.
struct FieldGrid {
  std::size_t pixels = 0;
  double extent_nm = 0.0;
  std::vector<double> values;
  /// The imaging band the values carry: m when they are the Fourier
  /// interpolation of an m x m grid (so their spectrum lies strictly inside
  /// |q| < m/2), 0 when they carry no band. OpticalModel::aerial_image and
  /// diffuse_band set it; pointwise scaling and diffuse keep it; every
  /// other producer, develop included, leaves it 0. diffuse blurs a tagged
  /// field on its m x m grid and rejects a tag that is not 0 or a power of
  /// two <= pixels.
  std::size_t band_pixels = 0;

  double pixel_nm() const { return extent_nm / static_cast<double>(pixels); }
  double& at(std::size_t ix, std::size_t iy) { return values[iy * pixels + ix]; }
  double at(std::size_t ix, std::size_t iy) const { return values[iy * pixels + ix]; }
};

/// Rasterizes transmitting rectangles (nm coordinates, clip-local) onto the
/// simulation grid: 1 inside chrome openings, 0 elsewhere. Area-weighted
/// antialiasing at rectangle edges keeps sub-pixel geometry information.
FieldGrid rasterize_mask(const std::vector<geometry::Rect>& openings,
                         const GridConfig& grid);

class OpticalModel {
 public:
  /// Precomputes the shifted-pupil transfer functions for every source
  /// point x focus plane combination. The optional execution context
  /// parallelizes both the precompute and aerial_image; it is not owned
  /// and must outlive the model.
  OpticalModel(const OpticalConfig& optical, const GridConfig& grid,
               util::ExecContext* exec = nullptr);

  /// Summed SOCS intensity of a rasterized mask on the m x m imaging grid
  /// (m = imaging_pixels()), row-major: the aerial image's band samples.
  /// When m < n they carry (n/m)^2 times the aerial at every (n/m)-th
  /// pixel, the scaling math::fourier_interpolate expects of its input.
  /// Bit-identical at every thread count: kernel intensities are computed
  /// in parallel but accumulated in kernel order.
  std::vector<double> band_intensity(const FieldGrid& mask) const;

  /// Aerial image of a rasterized mask: band_intensity() Fourier-
  /// interpolated to the input's grid, carrying band_pixels = m when m is
  /// below the grid side (the samples themselves when it is not). Every
  /// (n/m)-th pixel holds its band sample / (n/m)^2 exactly, so a blur that
  /// resamples the aerial (diffuse) reads the band samples bit for bit.
  FieldGrid aerial_image(const FieldGrid& mask) const;

  /// Side of the band-limited grid the coherent kernels are imaged on: the
  /// smallest power of two at least twice the widest transfer-window side,
  /// capped at the simulation grid. The intensity spectrum fits inside it,
  /// so aerial_image Fourier-interpolates the summed intensity to the full
  /// grid exactly (no interpolation when it equals grid().pixels).
  std::size_t imaging_pixels() const { return imaging_pixels_; }

  /// Number of coherent kernels (source points x focus planes): the main
  /// accuracy/runtime knob (Table 4's "rigorous" uses many, compact few).
  std::size_t kernel_count() const { return windows_.size(); }

  double pixel_nm() const { return grid_.pixel_nm(); }
  const GridConfig& grid() const { return grid_; }

  /// Spatial extent of one resolution lobe of the point-spread function, in
  /// nm: grid extent divided by the smallest pupil-support width among the
  /// transfer windows (≈ λ / 2NA(1+σ_max) for the paraxial pupil). Tiling
  /// layers size their halos as a multiple of this ambit instead of
  /// hard-coding an optical reach.
  double kernel_ambit_nm() const { return kernel_ambit_nm_; }

 private:
  /// One SOCS transfer function, stored as the bounding box of the
  /// frequency bins inside its shifted pupil (rho^2 <= 1) rather than a
  /// dense pixels^2 array. Coordinates are SIGNED bin indices (the pupil
  /// disk straddles DC, which wraps around the FFT grid edges); a bin
  /// (sy0 + wy, sx0 + wx) lives at grid index ((s % g) + g) % g on a grid of
  /// side g (the simulation grid n or the imaging grid m). For
  /// typical configs the window covers a few percent of the grid, so both
  /// the storage and the per-kernel spectrum multiply shrink by ~n^2/(w*h),
  /// and the all-zero rows outside the window let the inverse FFT skip its
  /// entire first stage outside the support.
  struct TransferWindow {
    std::ptrdiff_t sx0 = 0;
    std::ptrdiff_t sy0 = 0;
    std::size_t w = 0;
    std::size_t h = 0;
    std::vector<std::complex<double>> values;  ///< h * w, zero outside the disk
  };

  GridConfig grid_;
  util::ExecContext* exec_ = nullptr;
  std::size_t imaging_pixels_ = 0;
  /// Largest |signed bin| any transfer window reaches: aerial_image
  /// transforms only this band of the mask spectrum.
  std::size_t band_ = 0;
  double kernel_ambit_nm_ = 0.0;
  /// Pupil-support windows of the transfer functions, one per
  /// (source point, focus plane).
  std::vector<TransferWindow> windows_;
  /// Per-kernel intensity weight: source weight x open-field normalization
  /// x (m/n)^2. The last factor (exact, a power of two) undoes the m-point
  /// transform scaling: (m/n)^4 for the field's inverse transform and
  /// (n/m)^2 for the interpolation's forward one.
  std::vector<double> kernel_weights_;
};

}  // namespace lithogan::litho
