#include "litho/optical.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "math/fft.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"

namespace lithogan::litho {

FieldGrid rasterize_mask(const std::vector<geometry::Rect>& openings,
                         const GridConfig& grid) {
  FieldGrid out;
  out.pixels = grid.pixels;
  out.extent_nm = grid.extent_nm;
  out.values.assign(grid.pixels * grid.pixels, 0.0);
  const double dx = grid.pixel_nm();

  for (const geometry::Rect& r : openings) {
    if (r.is_empty()) continue;
    // Pixel index range overlapped by the rectangle.
    const auto ix0 = static_cast<std::ptrdiff_t>(std::floor(r.lo.x / dx));
    const auto ix1 = static_cast<std::ptrdiff_t>(std::ceil(r.hi.x / dx));
    const auto iy0 = static_cast<std::ptrdiff_t>(std::floor(r.lo.y / dx));
    const auto iy1 = static_cast<std::ptrdiff_t>(std::ceil(r.hi.y / dx));
    const auto n = static_cast<std::ptrdiff_t>(grid.pixels);
    for (std::ptrdiff_t iy = std::max<std::ptrdiff_t>(iy0, 0);
         iy < std::min(iy1, n); ++iy) {
      const double py0 = static_cast<double>(iy) * dx;
      const double cover_y =
          std::max(0.0, std::min(r.hi.y, py0 + dx) - std::max(r.lo.y, py0)) / dx;
      if (cover_y <= 0.0) continue;
      for (std::ptrdiff_t ix = std::max<std::ptrdiff_t>(ix0, 0);
           ix < std::min(ix1, n); ++ix) {
        const double px0 = static_cast<double>(ix) * dx;
        const double cover_x =
            std::max(0.0, std::min(r.hi.x, px0 + dx) - std::max(r.lo.x, px0)) / dx;
        if (cover_x <= 0.0) continue;
        double& cell = out.values[static_cast<std::size_t>(iy) * grid.pixels +
                                  static_cast<std::size_t>(ix)];
        cell = std::min(1.0, cell + cover_x * cover_y);
      }
    }
  }
  return out;
}

namespace {

/// Signed frequency bin index -> grid index (the disk straddles DC, which
/// wraps around the FFT grid edges).
std::size_t wrap_bin(std::ptrdiff_t s, std::size_t n) {
  const auto sn = static_cast<std::ptrdiff_t>(n);
  return static_cast<std::size_t>(((s % sn) + sn) % sn);
}

/// Dispatch-cost hint for one length-n transform, as math's FFT stages
/// estimate it: n/2 · log2(n) butterflies at ~10 scalar flops each.
std::size_t fft_line_cost(std::size_t n) {
  return 5 * n * static_cast<std::size_t>(std::countr_zero(n));
}

/// The spectrum of a real n x n image on the band of signed bins
/// |sy|, |sx| <= band only: out[(sy + band) * (2 band + 1) + sx + band].
/// Bit-identical to those bins of math::fft2d_real_forward, whose stages it
/// prunes. The row stage is the same two-for-one packed transform but
/// separates only columns [0, band], into `rows` (n x (band + 1)). The
/// column stage transforms only those columns and mirrors the negative ones
/// as F(sy, -sx) = conj(F(-sy, sx)), as fft2d_real_forward does for its
/// upper half. Every line is independent, so both stages are bit-identical
/// at any thread count.
void band_spectrum(const std::vector<double>& image, std::size_t n, std::size_t band,
                   std::vector<math::Complex>& rows, std::vector<math::Complex>& out,
                   util::ExecContext* exec, util::Workspace& serial_ws) {
  const std::size_t cols = band + 1;
  const std::size_t width = 2 * band + 1;
  const std::size_t line_cost = fft_line_cost(n);
  rows.resize(n * cols);
  out.resize(width * width);

  const std::size_t pairs = n / 2;
  util::parallel_for(exec, serial_ws, 0, pairs, exec ? exec->grain_for(pairs) : pairs,
                     pairs * line_cost,
                     [&](std::size_t t0, std::size_t t1, util::Workspace& ws) {
    const math::FftPlan& plan = math::fft_plan(ws, n, /*inverse=*/false);
    auto& z = ws.complexes(0);
    z.resize(n);
    for (std::size_t t = t0; t < t1; ++t) {
      const double* e = image.data() + (2 * t) * n;
      const double* o = image.data() + (2 * t + 1) * n;
      for (std::size_t x = 0; x < n; ++x) z[x] = math::Complex(e[x], o[x]);
      math::fft(z.data(), plan);
      math::Complex* oute = rows.data() + (2 * t) * cols;
      math::Complex* outo = rows.data() + (2 * t + 1) * cols;
      oute[0] = math::Complex(z[0].real(), 0.0);
      outo[0] = math::Complex(z[0].imag(), 0.0);
      for (std::size_t c = 1; c < cols; ++c) {
        const math::Complex zk = z[c];
        const math::Complex zc = std::conj(z[n - c]);
        oute[c] = 0.5 * (zk + zc);
        const math::Complex d = zk - zc;
        outo[c] = math::Complex(0.5 * d.imag(), -0.5 * d.real());
      }
    }
  });

  util::parallel_for(exec, serial_ws, 0, cols, exec ? exec->grain_for(cols) : cols,
                     cols * line_cost,
                     [&](std::size_t c0, std::size_t c1, util::Workspace& ws) {
    const math::FftPlan& plan = math::fft_plan(ws, n, /*inverse=*/false);
    auto& column = ws.complexes(0);
    column.resize(n);
    const auto sb = static_cast<std::ptrdiff_t>(band);
    for (std::size_t c = c0; c < c1; ++c) {
      for (std::size_t r = 0; r < n; ++r) column[r] = rows[r * cols + c];
      math::fft(column.data(), plan);
      // Column n/2 is its own mirror: keep its direct transform.
      const bool mirror = c > 0 && 2 * c != n;
      for (std::ptrdiff_t sy = -sb; sy <= sb; ++sy) {
        math::Complex* row = out.data() + static_cast<std::size_t>(sy + sb) * width;
        row[band + c] = column[wrap_bin(sy, n)];
        row[band - c] = mirror ? std::conj(column[wrap_bin(-sy, n)]) : row[band + c];
      }
    }
  });
}

}  // namespace

OpticalModel::OpticalModel(const OpticalConfig& optical, const GridConfig& grid,
                           util::ExecContext* exec)
    : grid_(grid), exec_(exec) {
  LITHOGAN_REQUIRE(math::is_power_of_two(grid.pixels), "grid must be power of two");
  const std::size_t n = grid.pixels;
  const double dx = grid.pixel_nm();
  const double cutoff = optical.numerical_aperture / optical.wavelength_nm;  // 1/nm

  const auto source = sample_source(optical);

  // Frequency table, hoisted out of the per-pixel loops: sfreq[s + n/2] is
  // the frequency (cycles/nm) of SIGNED bin index s in [-n/2, n/2).
  const auto half = static_cast<std::ptrdiff_t>(n / 2);
  std::vector<double> sfreq(n);
  for (std::ptrdiff_t s = -half; s < half; ++s) {
    sfreq[static_cast<std::size_t>(s + half)] =
        static_cast<double>(s) / (static_cast<double>(n) * dx);
  }

  const std::size_t planes = std::max<std::size_t>(1, optical.focus_planes);
  const std::size_t kernels = source.size() * planes;
  windows_.assign(kernels, {});
  kernel_weights_.assign(kernels, 0.0);

  // Kernel k = (focus plane zi, source point si); every kernel's pupil is
  // computed independently, so the precompute parallelizes with no ordering
  // concerns. Each kernel stores only the bounding box of its pupil
  // support, so no dense n^2 scratch is ever allocated.
  util::Workspace serial_ws;
  util::parallel_for(exec_, serial_ws, 0, kernels, 1,
                     kernels * n * n * 4,
                     [&](std::size_t k0, std::size_t k1, util::Workspace&) {
    for (std::size_t k = k0; k < k1; ++k) {
      const std::size_t zi = k / source.size();
      const SourcePoint& s = source[k % source.size()];
      // Focus offsets symmetric around the (possibly shifted) focus center:
      // offset + {0, ±step, ±2*step, ...}.
      const double z =
          optical.focus_offset_nm +
          (static_cast<double>(zi) - static_cast<double>(planes - 1) / 2.0) *
              optical.focus_step_nm;
      // Source offset converted to absolute frequency (1/nm).
      const double sfx = s.fx * cutoff;
      const double sfy = s.fy * cutoff;

      // Pass 1: bounding box (in signed bin indices) of the pupil disk
      // (fx + sfx)^2 + (fy + sfy)^2 <= cutoff^2 on the bin lattice.
      std::ptrdiff_t x0 = half, x1 = -half - 1, y0 = half, y1 = -half - 1;
      for (std::ptrdiff_t sy = -half; sy < half; ++sy) {
        const double fy = sfreq[static_cast<std::size_t>(sy + half)] + sfy;
        if (fy * fy > cutoff * cutoff) continue;
        const double fx_max2 = cutoff * cutoff - fy * fy;
        bool row_hit = false;
        for (std::ptrdiff_t sx = -half; sx < half; ++sx) {
          const double fx = sfreq[static_cast<std::size_t>(sx + half)] + sfx;
          if (fx * fx > fx_max2) continue;
          x0 = std::min(x0, sx);
          x1 = std::max(x1, sx);
          row_hit = true;
        }
        if (row_hit) {
          y0 = std::min(y0, sy);
          y1 = std::max(y1, sy);
        }
      }

      TransferWindow win;
      if (y1 >= y0 && x1 >= x0) {
        win.sx0 = x0;
        win.sy0 = y0;
        win.w = static_cast<std::size_t>(x1 - x0 + 1);
        win.h = static_cast<std::size_t>(y1 - y0 + 1);
        win.values.assign(win.w * win.h, {0.0, 0.0});
        // Pass 2: fill the cropped window (bins inside the box but outside
        // the disk stay zero).
        for (std::size_t wy = 0; wy < win.h; ++wy) {
          const double fy =
              sfreq[static_cast<std::size_t>(win.sy0 + static_cast<std::ptrdiff_t>(wy) +
                                             half)] +
              sfy;
          for (std::size_t wx = 0; wx < win.w; ++wx) {
            const double fx =
                sfreq[static_cast<std::size_t>(win.sx0 +
                                               static_cast<std::ptrdiff_t>(wx) + half)] +
                sfx;
            const double rho2 = (fx * fx + fy * fy) / (cutoff * cutoff);
            if (rho2 > 1.0) continue;  // outside the pupil
            // Paraxial defocus phase: -pi * lambda * z * |f|^2.
            double phase = -std::numbers::pi * optical.wavelength_nm * z *
                           (fx * fx + fy * fy);
            // Residual coma (Zernike Z8/Z7): radial (3 rho^3 - 2 rho) times
            // cos/sin of the pupil azimuth, in waves.
            if (optical.coma_x_waves != 0.0 || optical.coma_y_waves != 0.0) {
              const double rho = std::sqrt(rho2);
              const double radial = 3.0 * rho * rho2 - 2.0 * rho;
              const double inv = rho > 1e-12 ? 1.0 / (rho * cutoff) : 0.0;
              const double cos_t = fx * inv;
              const double sin_t = fy * inv;
              phase += 2.0 * std::numbers::pi * radial *
                       (optical.coma_x_waves * cos_t + optical.coma_y_waves * sin_t);
            }
            win.values[wy * win.w + wx] =
                std::complex<double>(std::cos(phase), std::sin(phase));
          }
        }
      }
      windows_[k] = std::move(win);
      kernel_weights_[k] = s.weight / static_cast<double>(planes);
    }
  });

  // Normalize so a fully open mask images at intensity 1: its spectrum is a
  // DC delta, so the open-field intensity is sum_k w_k |T_k(0)|^2.
  double open_field = 0.0;
  for (std::size_t k = 0; k < windows_.size(); ++k) {
    const TransferWindow& win = windows_[k];
    // T_k(0, 0) in window coordinates, zero when DC is outside the box.
    std::complex<double> t0{0.0, 0.0};
    if (win.w > 0 && -win.sx0 >= 0 && -win.sx0 < static_cast<std::ptrdiff_t>(win.w) &&
        -win.sy0 >= 0 && -win.sy0 < static_cast<std::ptrdiff_t>(win.h)) {
      t0 = win.values[static_cast<std::size_t>(-win.sy0) * win.w +
                      static_cast<std::size_t>(-win.sx0)];
    }
    open_field += kernel_weights_[k] * std::norm(t0);
  }
  LITHOGAN_REQUIRE(open_field > 0.0, "no source point falls inside the pupil");
  const double normalization = 1.0 / open_field;

  // Spatial reach of the coherent kernels: a transfer window of support S
  // frequency bins on a grid of extent E has a point-spread main lobe of
  // E/S nm, so the narrowest window (smallest support) has the broadest,
  // slowest-decaying lobe — that lobe is the halo unit for tiling layers.
  std::size_t min_support = 0;
  for (const TransferWindow& win : windows_) {
    const std::size_t s = std::min(win.w, win.h);
    if (s == 0) continue;  // kernel entirely outside the pupil
    min_support = min_support == 0 ? s : std::min(min_support, s);
  }
  LITHOGAN_REQUIRE(min_support > 0, "all transfer windows empty");
  kernel_ambit_nm_ = grid_.extent_nm / static_cast<double>(min_support);

  // Band-limited imaging grid. Kernel k's field has its spectrum inside its
  // w x h window, so its intensity's spectrum (the window's
  // autocorrelation) lies inside |qx| <= w - 1, |qy| <= h - 1. A grid of
  // m >= 2 x the widest side holds every window without aliasing and every
  // intensity strictly inside its Nyquist band, so the SOCS sum runs on
  // m x m and is Fourier-interpolated to n x n exactly. The weights absorb
  // the (m/n)^2 transform scaling; it is a power of two, so exact, and 1
  // when m = n.
  std::size_t widest = 0;
  for (const TransferWindow& win : windows_) {
    if (win.w == 0) continue;
    widest = std::max({widest, win.w, win.h});
    const auto reach = [](std::ptrdiff_t lo, std::size_t size) {
      return static_cast<std::size_t>(
          std::max(-lo, lo + static_cast<std::ptrdiff_t>(size) - 1));
    };
    band_ = std::max({band_, reach(win.sx0, win.w), reach(win.sy0, win.h)});
  }
  imaging_pixels_ = std::min(n, math::next_power_of_two(2 * widest));
  const double ratio = static_cast<double>(imaging_pixels_) / static_cast<double>(n);
  for (double& w : kernel_weights_) w = w * normalization * (ratio * ratio);
}

std::vector<double> OpticalModel::band_intensity(const FieldGrid& mask) const {
  LITHOGAN_REQUIRE(mask.pixels == grid_.pixels, "mask grid resolution mismatch");
  const std::size_t n = grid_.pixels;
  const std::size_t m = imaging_pixels_;
  const std::size_t m2 = m * m;

  // The kernels read the mask spectrum only inside the band their windows
  // reach, so only that band is transformed. ws slot 2 holds the line stage
  // of this transform.
  util::Workspace ws;
  auto& lines = ws.complexes(2);
  const std::size_t width = 2 * band_ + 1;
  std::vector<math::Complex> spectrum;
  {
    const obs::Span span("sim.mask_spectrum");
    band_spectrum(mask.values, n, band_, lines, spectrum, exec_, ws);
  }

  // Renders kernel k's coherent field on the m x m imaging grid into ws
  // scratch and returns it. Only the pupil-support window of the spectrum
  // is multiplied, and the inverse FFT's row stage visits only the <= h
  // support rows: every other row is identically zero and transforms to
  // zero, so skipping it is bit-exact. The column stage then runs over the
  // full imaging grid. Nested parallel_for serializes inline, so all FFT
  // calls here are the serial single-line form.
  const auto sband = static_cast<std::ptrdiff_t>(band_);
  const auto render = [&](std::size_t k,
                          util::Workspace& scratch) -> const math::Complex* {
    const obs::Span span("sim.socs_kernel");
    const TransferWindow& t = windows_[k];
    auto& field = scratch.complexes(0);
    field.assign(m2, math::Complex(0.0, 0.0));
    if (t.h == 0 || t.w == 0) return field.data();
    const math::FftPlan& plan = math::fft_plan(scratch, m, /*inverse=*/true);
    for (std::size_t wy = 0; wy < t.h; ++wy) {
      const std::ptrdiff_t sy = t.sy0 + static_cast<std::ptrdiff_t>(wy);
      math::Complex* row = field.data() + wrap_bin(sy, m) * m;
      const math::Complex* srow =
          spectrum.data() + static_cast<std::size_t>(sy + sband) * width + band_;
      const std::complex<double>* trow = t.values.data() + wy * t.w;
      for (std::size_t wx = 0; wx < t.w; ++wx) {
        const std::ptrdiff_t sx = t.sx0 + static_cast<std::ptrdiff_t>(wx);
        row[wrap_bin(sx, m)] = srow[sx] * trow[wx];
      }
      math::fft(row, plan);
    }
    auto& column = scratch.complexes(1);
    column.resize(m);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t r = 0; r < m; ++r) column[r] = field[r * m + c];
      math::fft(column.data(), plan);
      for (std::size_t r = 0; r < m; ++r) field[r * m + c] = column[r];
    }
    return field.data();
  };

  // Intensity on the imaging grid, summed in kernel order.
  std::vector<double> image(m2, 0.0);
  if (exec_ == nullptr) {
    for (std::size_t k = 0; k < windows_.size(); ++k) {
      const math::Complex* field = render(k, ws);
      const double w = kernel_weights_[k];
      for (std::size_t i = 0; i < m2; ++i) image[i] += w * std::norm(field[i]);
    }
  } else {
    // SOCS fan-out: kernels are processed in windows. Within a window each
    // kernel's intensity w_k * |IFT[T_k * spectrum]|^2 lands in its own
    // slot (parallel, disjoint writes); the slots are then accumulated
    // serially in kernel order, reproducing the serial sum
    // ((0 + I_0) + I_1) + ... bit for bit at any thread count. The window
    // bounds slot memory at O(threads * m^2) instead of O(kernels * m^2).
    const std::size_t kernels = windows_.size();
    const std::size_t window =
        std::min(kernels, std::max<std::size_t>(exec_->threads(), 1) * 2);
    std::vector<double> slots(window * m2);
    for (std::size_t w0 = 0; w0 < kernels; w0 += window) {
      const std::size_t w1 = std::min(w0 + window, kernels);
      exec_->parallel_for(w0, w1, 1, (w1 - w0) * m2 * 64,
                          [&](std::size_t k0, std::size_t k1,
                              util::Workspace& worker_ws) {
        for (std::size_t k = k0; k < k1; ++k) {
          const math::Complex* field = render(k, worker_ws);
          const double w = kernel_weights_[k];
          double* slot = slots.data() + (k - w0) * m2;
          for (std::size_t i = 0; i < m2; ++i) slot[i] = w * std::norm(field[i]);
        }
      });
      const obs::Span span("sim.socs_accumulate");
      for (std::size_t k = w0; k < w1; ++k) {
        const double* slot = slots.data() + (k - w0) * m2;
        for (std::size_t i = 0; i < m2; ++i) image[i] += slot[i];
      }
    }
  }

  return image;
}

FieldGrid OpticalModel::aerial_image(const FieldGrid& mask) const {
  const std::size_t n = grid_.pixels;
  const std::size_t m = imaging_pixels_;
  std::vector<double> image = band_intensity(mask);
  FieldGrid out;
  out.pixels = n;
  out.extent_nm = grid_.extent_nm;
  if (m == n) {
    out.values = std::move(image);
    return out;
  }
  const obs::Span span("sim.band_interpolate");
  out.values.resize(n * n);
  std::vector<math::Complex> lines;
  math::fourier_interpolate(math::fft2d_real_forward(image, m, m, exec_), m, n, lines,
                            out.values.data(), exec_);
  // The interpolation meets the band samples only to rounding. Writing
  // them back exactly (the division by a power of two is exact) lets
  // diffuse's resample of this aerial read the band samples bit for bit.
  const std::size_t step = n / m;
  const double unscale = 1.0 / static_cast<double>(step * step);
  for (std::size_t y = 0; y < m; ++y) {
    double* row = out.values.data() + y * step * n;
    for (std::size_t x = 0; x < m; ++x) row[x * step] = image[y * m + x] * unscale;
  }
  out.band_pixels = m;
  return out;
}

}  // namespace lithogan::litho
