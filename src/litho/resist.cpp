#include "litho/resist.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <tuple>

#include "math/fft.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"

namespace lithogan::litho {

namespace {

/// Cached spectral attenuation table exp(-2 pi^2 sigma^2 |f|^2) on an n x n
/// grid (the band grid for a band blur), keyed on n and the exact double
/// bits of sigma and pixel size. Lookups count on fft.plan_cache.{hit,miss}.
using BlurKey = std::tuple<std::size_t, std::uint64_t, std::uint64_t>;

std::shared_ptr<const std::vector<double>> blur_table(std::size_t n, double sigma_nm,
                                                      double pixel_nm) {
  static obs::Counter& hits = obs::Registry::global().counter("fft.plan_cache.hit");
  static obs::Counter& misses = obs::Registry::global().counter("fft.plan_cache.miss");
  static std::mutex mutex;
  static std::map<BlurKey, std::shared_ptr<const std::vector<double>>> cache;
  const BlurKey key{n, std::bit_cast<std::uint64_t>(sigma_nm),
                    std::bit_cast<std::uint64_t>(pixel_nm)};
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[key];
  if (slot) {
    hits.add();
    return slot;
  }
  misses.add();
  const auto bin_freq = [&](std::size_t i) {
    const auto si = static_cast<std::ptrdiff_t>(i);
    // Bins [0, ceil(n/2)) are non-negative (bin 0 alone when n = 1).
    const auto half = static_cast<std::ptrdiff_t>((n + 1) / 2);
    const std::ptrdiff_t signed_i =
        si < half ? si : si - static_cast<std::ptrdiff_t>(n);
    return static_cast<double>(signed_i) / (static_cast<double>(n) * pixel_nm);
  };
  const double c = 2.0 * std::numbers::pi * std::numbers::pi * sigma_nm * sigma_nm;
  auto table = std::make_shared<std::vector<double>>(n * n);
  for (std::size_t iy = 0; iy < n; ++iy) {
    const double fy = bin_freq(iy);
    for (std::size_t ix = 0; ix < n; ++ix) {
      const double fx = bin_freq(ix);
      (*table)[iy * n + ix] = std::exp(-c * (fx * fx + fy * fy));
    }
  }
  slot = std::move(table);
  return slot;
}

obs::Counter& band_blur_counter() {
  static obs::Counter& c = obs::Registry::global().counter("sim.diffuse_band");
  return c;
}

/// The band blur: transforms the m x m band samples of a band-limited
/// n x n field, attenuates them by the m x m table and Fourier-interpolates
/// the result into `out` (n x n, math::fourier_interpolate). The samples'
/// spectrum is (m/n)^2 times the field's band bins and the interpolation
/// divides by n^2, so the samples carry (n/m)^2 times the field, an exact
/// power of two. The m-grid pixel (n/m) * pixel_nm is exact too, so the
/// m x m table holds the n x n table's values on the band bins.
void blur_band_samples(const std::vector<double>& samples, std::size_t m, std::size_t n,
                       double sigma_nm, double pixel_nm, double* out,
                       util::ExecContext* exec) {
  std::vector<math::Complex> spectrum = math::fft2d_real_forward(samples, m, m, exec);
  const auto table = blur_table(m, sigma_nm, pixel_nm * static_cast<double>(n / m));
  for (std::size_t i = 0; i < spectrum.size(); ++i) spectrum[i] *= (*table)[i];
  std::vector<math::Complex> rows;
  math::fourier_interpolate(spectrum, m, n, rows, out, exec);
}

/// Spectral Gaussian blur of a real n x n periodic field, in place. `m` is
/// the side of the band the field carries: a power of two <= n such that
/// the field is the Fourier interpolation of its m x m samples, or n for a
/// field with no band.
///
/// For m = n the full n x n spectrum is blurred: a real forward transform,
/// the multiply and a complex inverse. For m < n the field is sampled at
/// every (n/m)-th pixel, which is exact for band-limited periodic data, and
/// the samples take the band blur. A Gaussian only scales each bin, so the
/// blurred field keeps the band and the result equals the full-grid blur to
/// rounding, at about (m/n)^2 of its forward transform work and without the
/// n x n complex spectrum.
void gaussian_blur_2d(std::vector<double>& values, std::size_t n, std::size_t m,
                      double sigma_nm, double pixel_nm, util::ExecContext* exec) {
  LITHOGAN_REQUIRE(values.size() == n * n, "gaussian_blur_2d: size mismatch");
  LITHOGAN_REQUIRE(math::is_power_of_two(m) && m <= n,
                   "gaussian_blur_2d: band side must be a power of two <= n");
  if (m < n) {
    const std::size_t step = n / m;
    const auto scale = static_cast<double>(step * step);
    std::vector<double> samples(m * m);
    for (std::size_t y = 0; y < m; ++y) {
      const double* row = values.data() + y * step * n;
      for (std::size_t x = 0; x < m; ++x) samples[y * m + x] = row[x * step] * scale;
    }
    blur_band_samples(samples, m, n, sigma_nm, pixel_nm, values.data(), exec);
    return;
  }
  const auto table = blur_table(n, sigma_nm, pixel_nm);

  // The field is real, so the forward transform goes through the
  // Hermitian-symmetric real-to-complex path (half the 1-D FFT work).
  std::vector<math::Complex> spectrum = math::fft2d_real_forward(values, n, n, exec);
  const double* att = table->data();
  util::Workspace serial_ws;
  util::parallel_for(exec, serial_ws, 0, n, exec ? exec->grain_for(n) : n, n * n * 8,
                     [&](std::size_t y0, std::size_t y1, util::Workspace&) {
                       for (std::size_t iy = y0; iy < y1; ++iy) {
                         for (std::size_t ix = 0; ix < n; ++ix) {
                           spectrum[iy * n + ix] *= att[iy * n + ix];
                         }
                       }
                     });
  math::fft2d(spectrum, n, n, /*inverse=*/true, exec);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = spectrum[i].real();
}

}  // namespace

FieldGrid diffuse(const FieldGrid& field, double sigma_nm, util::ExecContext* exec) {
  LITHOGAN_REQUIRE(sigma_nm >= 0.0, "diffusion sigma negative");
  const std::size_t band = field.band_pixels;
  LITHOGAN_REQUIRE(band == 0 || (math::is_power_of_two(band) && band <= field.pixels),
                   "field band must be 0 or a power of two <= its pixels");
  if (sigma_nm == 0.0) return field;
  const obs::Span span("sim.diffuse");
  // Spectral Gaussian blur, on the band grid when the field carries one.
  static obs::Counter& full_blurs = obs::Registry::global().counter("sim.diffuse_full");
  const std::size_t m = band == 0 ? field.pixels : band;
  (m < field.pixels ? band_blur_counter() : full_blurs).add();
  FieldGrid out = field;
  gaussian_blur_2d(out.values, field.pixels, m, sigma_nm, field.pixel_nm(), exec);
  return out;
}

FieldGrid diffuse_band(const std::vector<double>& samples, std::size_t m,
                       const GridConfig& grid, double sigma_nm, util::ExecContext* exec) {
  const std::size_t n = grid.pixels;
  LITHOGAN_REQUIRE(sigma_nm > 0.0, "band diffusion needs a positive sigma");
  LITHOGAN_REQUIRE(math::is_power_of_two(m) && m < n && samples.size() == m * m,
                   "band samples must be m x m with m a power of two below the grid");
  const obs::Span span("sim.diffuse");
  band_blur_counter().add();
  FieldGrid out;
  out.pixels = n;
  out.extent_nm = grid.extent_nm;
  out.values.resize(n * n);
  out.band_pixels = m;
  blur_band_samples(samples, m, n, sigma_nm, out.pixel_nm(), out.values.data(), exec);
  return out;
}

FieldGrid ResistModel::develop(const FieldGrid& aerial) const {
  return develop_latent(latent_image(aerial));
}

FieldGrid ResistModel::develop_latent(const FieldGrid& latent) const {
  FieldGrid out = threshold_field(latent);
  for (std::size_t i = 0; i < out.values.size(); ++i) {
    out.values[i] = latent.values[i] - out.values[i];
  }
  out.band_pixels = 0;
  return out;
}

FieldGrid ConstantThresholdResist::latent_image(const FieldGrid& aerial) const {
  return diffuse(aerial, config_.diffusion_length_nm, exec_);
}

FieldGrid ConstantThresholdResist::threshold_field(const FieldGrid& latent) const {
  FieldGrid out;
  out.pixels = latent.pixels;
  out.extent_nm = latent.extent_nm;
  out.values.assign(latent.values.size(), config_.threshold);
  return out;
}

FieldGrid VariableThresholdResist::latent_image(const FieldGrid& aerial) const {
  return diffuse(aerial, config_.diffusion_length_nm, exec_);
}

namespace {

/// Circular sliding maximum of radius r along `lanes` lines of n samples
/// (van Herk / Gil-Werman). Sample i of lane j is src[i * step + j * pitch]
/// and dst[i * step + j * pitch] receives the maximum of samples
/// i - r .. i + r (mod n) of lane j. The lanes are unrolled circularly and
/// interleaved into `ext` (n + 2r samples of `lanes` values each, sample i
/// = source sample (i - r) mod n) and cut into blocks of k = 2r + 1. Any
/// window of k samples spans at most two blocks, so its maximum is the
/// suffix maximum of the first (h) against the prefix maximum of the
/// second: three compares per sample whatever r is, and the inner loops run
/// over contiguous lanes. `ext` and `h` must hold (n + 2r) * lanes values.
/// dst may equal src: every sample is read before any is written. Max is
/// exact, so the result equals the brute-force scan bit for bit.
void circular_window_max(const double* src, double* dst, std::size_t step,
                         std::size_t pitch, std::size_t lanes, std::size_t n,
                         std::size_t r, double* ext, double* h) {
  const std::size_t len = n + 2 * r;
  const std::size_t k = 2 * r + 1;
  if (k >= n) {
    // The window covers the whole circle: every output is the line max.
    double* best = ext;
    for (std::size_t j = 0; j < lanes; ++j) best[j] = src[j * pitch];
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t j = 0; j < lanes; ++j) {
        best[j] = std::max(best[j], src[i * step + j * pitch]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < lanes; ++j) dst[i * step + j * pitch] = best[j];
    }
    return;
  }
  // Unroll: r samples of wrap-around, the line, r samples of wrap-around
  // (r < n here, so no sample wraps twice).
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t from = i < r ? i + n - r : (i < n + r ? i - r : i - n - r);
    for (std::size_t j = 0; j < lanes; ++j) {
      ext[i * lanes + j] = src[from * step + j * pitch];
    }
  }

  // Suffix maxima within each block.
  for (std::size_t b0 = 0; b0 < len; b0 += k) {
    const std::size_t last = std::min(b0 + k, len) - 1;
    std::copy_n(ext + last * lanes, lanes, h + last * lanes);
    for (std::size_t i = last; i-- > b0;) {
      const double* e = ext + i * lanes;
      const double* next = h + (i + 1) * lanes;
      double* cur = h + i * lanes;
      for (std::size_t j = 0; j < lanes; ++j) cur[j] = std::max(e[j], next[j]);
    }
  }
  // Prefix maxima, running in place over ext, then the window ending at
  // each sample once the first window is complete.
  for (std::size_t b0 = 0; b0 < len; b0 += k) {
    const std::size_t b1 = std::min(b0 + k, len);
    for (std::size_t i = b0 + 1; i < b1; ++i) {
      const double* prev = ext + (i - 1) * lanes;
      double* cur = ext + i * lanes;
      for (std::size_t j = 0; j < lanes; ++j) cur[j] = std::max(prev[j], cur[j]);
    }
    for (std::size_t i = std::max(b0, k - 1); i < b1; ++i) {
      const std::size_t x = i - (k - 1);
      const double* g = ext + i * lanes;
      const double* suffix = h + x * lanes;
      for (std::size_t j = 0; j < lanes; ++j) {
        dst[x * step + j * pitch] = std::max(suffix[j], g[j]);
      }
    }
  }
}

// Separable sliding-window maximum with circular wraparound (consistent with
// the FFT's periodic boundary): a horizontal pass from src into dst, then a
// vertical pass in place, each over strips of rows or columns (a strip is
// unrolled into scratch before any of it is written). Strips are disjoint,
// so both passes parallelize without any numerical consequence (max is
// exact anyway). Unrolled strips live in each worker's Workspace.
void window_max(const double* src, double* dst, std::size_t n, std::size_t radius,
                util::ExecContext* exec) {
  util::Workspace serial_ws;
  const auto pass = [&](const double* in, std::size_t step, std::size_t pitch,
                        std::size_t strip) {
    const std::size_t strips = (n + strip - 1) / strip;
    util::parallel_for(
        exec, serial_ws, 0, strips, exec ? exec->grain_for(strips) : strips, n * n * 6,
        [&](std::size_t s0, std::size_t s1, util::Workspace& ws) {
          auto& ext = ws.doubles(0);
          auto& h = ws.doubles(1);
          ext.resize((n + 2 * radius) * strip);
          h.resize(ext.size());
          for (std::size_t s = s0; s < s1; ++s) {
            const std::size_t first = s * strip;
            circular_window_max(in + first * pitch, dst + first * pitch, step, pitch,
                                std::min(strip, n - first), n, radius, ext.data(),
                                h.data());
          }
        });
  };
  // Strip widths measured on a 512-px grid. A row strip gathers and
  // scatters its lines a grid row apart, and 8 such lines still share an L1
  // set without thrashing; a column strip reads whole contiguous runs.
  pass(src, /*step=*/1, /*pitch=*/n, /*strip=*/8);   // lanes are rows
  pass(dst, /*step=*/n, /*pitch=*/1, /*strip=*/32);  // lanes are columns
}

}  // namespace

FieldGrid VariableThresholdResist::threshold_field(const FieldGrid& latent) const {
  const obs::Span span("sim.threshold");
  const std::size_t n = latent.pixels;
  const double dx = latent.pixel_nm();
  const auto radius = static_cast<std::size_t>(
      std::max(1.0, std::round(config_.vtr_window_nm / (2.0 * dx))));

  // The window max lands in the output grid; the threshold formula then
  // rewrites each pixel in place.
  FieldGrid out;
  out.pixels = n;
  out.extent_nm = latent.extent_nm;
  out.values.resize(n * n);
  window_max(latent.values.data(), out.values.data(), n, radius, exec_);

  const double* in = latent.values.data();
  double* thr = out.values.data();
  util::Workspace serial_ws;
  util::parallel_for(
      exec_, serial_ws, 0, n, exec_ ? exec_->grain_for(n) : n, n * n * 12,
      [&](std::size_t y0, std::size_t y1, util::Workspace&) {
        for (std::size_t y = y0; y < y1; ++y) {
          const double* row = in + y * n;
          const double* up = in + (y + 1 < n ? y + 1 : 0) * n;
          const double* down = in + (y > 0 ? y - 1 : n - 1) * n;
          double* local = thr + y * n;  // holds the local max on entry
          for (std::size_t x = 0; x < n; ++x) {
            // Central-difference gradient magnitude (per nm), circular boundary.
            const std::size_t right = x + 1 < n ? x + 1 : 0;
            const std::size_t left = x > 0 ? x - 1 : n - 1;
            const double gx = (row[right] - row[left]) / (2.0 * dx);
            const double gy = (up[x] - down[x]) / (2.0 * dx);
            const double grad = std::sqrt(gx * gx + gy * gy);
            local[x] = config_.threshold +
                       config_.vtr_max_coeff * (local[x] - config_.vtr_reference_imax) +
                       config_.vtr_slope_coeff * grad;
          }
        }
      });
  return out;
}

}  // namespace lithogan::litho
