#include "math/fft.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"

namespace lithogan::math {

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

std::shared_ptr<const FftPlan> make_plan(std::size_t n, bool inverse) {
  auto plan = std::make_shared<FftPlan>();
  plan->n = n;
  plan->inverse = inverse;

  plan->bitrev.resize(n);
  std::size_t j = 0;
  plan->bitrev[0] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    plan->bitrev[i] = static_cast<std::uint32_t>(j);
  }

  // Stage `len` needs len/2 roots w^k = exp(sign * 2*pi*i * k / len); the
  // stages are concatenated, so stage `len` starts at offset len/2 - 1 and
  // the table holds n - 1 entries total. Each root is computed directly
  // (not by repeated multiplication as the unplanned seed kernel did), so
  // planned transforms are also slightly more accurate.
  const double sign = inverse ? 1.0 : -1.0;
  plan->twiddles.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double angle =
          sign * 2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(len);
      plan->twiddles.emplace_back(std::cos(angle), std::sin(angle));
    }
  }
  return plan;
}

/// Per-worker memo of plans already fetched from the global cache, stored in
/// Workspace plan slot 0 (see workspace.hpp for the slot namespace).
struct PlanCache {
  std::vector<std::shared_ptr<const FftPlan>> plans;
};

constexpr std::size_t kFftPlanSlot = 0;

/// Dispatch-cost hint for a stage of `count` length-`n` transforms:
/// n/2 · log2(n) butterflies at ~10 scalar flops each, plus the
/// gather/scatter traffic folded into the constant.
std::size_t fft_stage_cost(std::size_t count, std::size_t n) {
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  return count * 5 * n * std::max<std::size_t>(1, log2n);
}

}  // namespace

std::shared_ptr<const FftPlan> fft_plan(std::size_t n, bool inverse) {
  LITHOGAN_REQUIRE(is_power_of_two(n), "fft size must be a power of two");
  // Cache effectiveness counters: a miss means twiddle/bitrev tables were
  // built from scratch. Per-worker memo hits (the overload below) count as
  // hits too, so hit/miss reflects every plan lookup in the process.
  static obs::Counter& hits =
      obs::Registry::global().counter("fft.plan_cache.hit");
  static obs::Counter& misses =
      obs::Registry::global().counter("fft.plan_cache.miss");
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, bool>, std::shared_ptr<const FftPlan>> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[{n, inverse}];
  if (!slot) {
    misses.add();
    slot = make_plan(n, inverse);
  } else {
    hits.add();
  }
  return slot;
}

const FftPlan& fft_plan(util::Workspace& ws, std::size_t n, bool inverse) {
  auto& slot = ws.plan(kFftPlanSlot);
  if (!slot) slot = std::make_shared<PlanCache>();
  auto* cache = static_cast<PlanCache*>(slot.get());
  for (const auto& plan : cache->plans) {
    if (plan->n == n && plan->inverse == inverse) {
      static obs::Counter& hits =
          obs::Registry::global().counter("fft.plan_cache.hit");
      hits.add();
      return *plan;
    }
  }
  cache->plans.push_back(fft_plan(n, inverse));
  return *cache->plans.back();
}

void fft(Complex* data, const FftPlan& plan) {
  const std::size_t n = plan.n;
  if (n == 1) return;

  const std::uint32_t* rev = plan.bitrev.data();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const Complex* w = plan.twiddles.data() + (len / 2 - 1);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w[k];
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
      }
    }
  }

  if (plan.inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) data[i] *= scale;
  }
}

void fft(Complex* data, std::size_t n, bool inverse) {
  fft(data, *fft_plan(n, inverse));
}

void fft(std::vector<Complex>& data, bool inverse) {
  fft(data.data(), data.size(), inverse);
}

void fft2d(std::vector<Complex>& data, std::size_t rows, std::size_t cols, bool inverse,
           util::ExecContext* exec) {
  LITHOGAN_REQUIRE(data.size() == rows * cols, "fft2d size mismatch");
  LITHOGAN_REQUIRE(is_power_of_two(rows) && is_power_of_two(cols),
                   "fft2d dimensions must be powers of two");

  // Rows are contiguous: transform them in place, no staging buffer.
  util::Workspace serial_ws;
  util::parallel_for(exec, serial_ws, 0, rows, exec ? exec->grain_for(rows) : rows,
                     fft_stage_cost(rows, cols),
                     [&](std::size_t r0, std::size_t r1, util::Workspace& ws) {
                       const FftPlan& plan = fft_plan(ws, cols, inverse);
                       for (std::size_t r = r0; r < r1; ++r) {
                         fft(data.data() + r * cols, plan);
                       }
                     });

  // Columns gather/scatter through one scratch line per task, sized once.
  util::parallel_for(exec, serial_ws, 0, cols, exec ? exec->grain_for(cols) : cols,
                     fft_stage_cost(cols, rows),
                     [&](std::size_t c0, std::size_t c1, util::Workspace& ws) {
                       const FftPlan& plan = fft_plan(ws, rows, inverse);
                       auto& column = ws.complexes(0);
                       column.resize(rows);
                       for (std::size_t c = c0; c < c1; ++c) {
                         for (std::size_t r = 0; r < rows; ++r) {
                           column[r] = data[r * cols + c];
                         }
                         fft(column.data(), plan);
                         for (std::size_t r = 0; r < rows; ++r) {
                           data[r * cols + c] = column[r];
                         }
                       }
                     });
}

std::vector<Complex> fft2d_real_forward(const std::vector<double>& data,
                                        std::size_t rows, std::size_t cols,
                                        util::ExecContext* exec) {
  LITHOGAN_REQUIRE(data.size() == rows * cols, "fft2d size mismatch");
  LITHOGAN_REQUIRE(is_power_of_two(rows) && is_power_of_two(cols),
                   "fft2d dimensions must be powers of two");

  std::vector<Complex> out(rows * cols);
  util::Workspace serial_ws;

  // Row stage, two-for-one: rows 2t and 2t+1 are packed as re + i*im of one
  // complex transform and separated afterwards through the Hermitian
  // symmetry of real-input spectra. Each pair is independent, so the stage
  // parallelizes with no ordering concerns.
  if (rows == 1) {
    for (std::size_t jx = 0; jx < cols; ++jx) out[jx] = data[jx];
    fft(out.data(), *fft_plan(cols, /*inverse=*/false));
  } else {
    const std::size_t pairs = rows / 2;
    util::parallel_for(
        exec, serial_ws, 0, pairs, exec ? exec->grain_for(pairs) : pairs,
        fft_stage_cost(pairs, cols),
        [&](std::size_t t0, std::size_t t1, util::Workspace& ws) {
          const FftPlan& plan = fft_plan(ws, cols, /*inverse=*/false);
          auto& z = ws.complexes(0);
          z.resize(cols);
          for (std::size_t t = t0; t < t1; ++t) {
            const double* e = data.data() + (2 * t) * cols;
            const double* o = data.data() + (2 * t + 1) * cols;
            for (std::size_t jx = 0; jx < cols; ++jx) z[jx] = Complex(e[jx], o[jx]);
            fft(z.data(), plan);
            Complex* oute = out.data() + (2 * t) * cols;
            Complex* outo = out.data() + (2 * t + 1) * cols;
            oute[0] = Complex(z[0].real(), 0.0);
            outo[0] = Complex(z[0].imag(), 0.0);
            for (std::size_t jx = 1; jx < cols; ++jx) {
              const Complex zk = z[jx];
              const Complex zc = std::conj(z[cols - jx]);
              oute[jx] = 0.5 * (zk + zc);
              // (zk - zc) / (2i) without a complex divide.
              const Complex d = zk - zc;
              outo[jx] = Complex(0.5 * d.imag(), -0.5 * d.real());
            }
          }
        });
  }

  // Column stage: only columns [0, cols/2] are transformed; the rest follow
  // from F(u, v) = conj(F((rows-u) % rows, cols-v)) for real input.
  const std::size_t half = cols / 2;
  util::parallel_for(exec, serial_ws, 0, half + 1, exec ? exec->grain_for(half + 1) : half + 1,
                     fft_stage_cost(half + 1, rows),
                     [&](std::size_t c0, std::size_t c1, util::Workspace& ws) {
                       const FftPlan& plan = fft_plan(ws, rows, /*inverse=*/false);
                       auto& column = ws.complexes(0);
                       column.resize(rows);
                       for (std::size_t c = c0; c < c1; ++c) {
                         for (std::size_t r = 0; r < rows; ++r) {
                           column[r] = out[r * cols + c];
                         }
                         fft(column.data(), plan);
                         for (std::size_t r = 0; r < rows; ++r) {
                           out[r * cols + c] = column[r];
                         }
                       }
                     });
  if (half + 1 < cols) {
    util::parallel_for(
        exec, serial_ws, half + 1, cols,
        exec ? exec->grain_for(cols - half - 1) : cols - half - 1,
        (cols - half - 1) * rows * 2,  // conjugate-copy fill, ~2 ops/element
        [&](std::size_t c0, std::size_t c1, util::Workspace&) {
          for (std::size_t c = c0; c < c1; ++c) {
            const std::size_t src_c = cols - c;
            out[c] = std::conj(out[src_c]);  // u == 0 row maps to itself
            for (std::size_t r = 1; r < rows; ++r) {
              out[r * cols + c] = std::conj(out[(rows - r) * cols + src_c]);
            }
          }
        });
  }
  return out;
}

void fourier_interpolate(const std::vector<Complex>& spectrum, std::size_t m,
                         std::size_t n, std::vector<Complex>& rows, double* out,
                         util::ExecContext* exec) {
  LITHOGAN_REQUIRE(is_power_of_two(m) && is_power_of_two(n) && m < n,
                   "fourier_interpolate: sides must be powers of two with m < n");
  LITHOGAN_REQUIRE(spectrum.size() == m * m,
                   "fourier_interpolate: spectrum size mismatch");
  // Band line b < band is the signed bin b for b < half and b - band after
  // it: half = ceil(m/2) lines of q >= 0, then the negative ones. m-grid
  // bins skip the Nyquist bin m/2; on the n grid the negative half moves up
  // by n - band. For m = 1 the band is DC alone.
  const std::size_t half = (m + 1) / 2;
  const std::size_t band = 2 * half - 1;
  const auto to_m = [&](std::size_t b) { return b < half ? b : b + m - band; };
  const auto to_n = [&](std::size_t b) { return b < half ? b : b + n - band; };
  rows.resize(band * n);
  util::Workspace serial_ws;

  util::parallel_for(exec, serial_ws, 0, band, exec ? exec->grain_for(band) : band,
                     fft_stage_cost(band, n),
                     [&](std::size_t b0, std::size_t b1, util::Workspace& ws) {
    const FftPlan& plan = fft_plan(ws, n, /*inverse=*/true);
    for (std::size_t b = b0; b < b1; ++b) {
      const Complex* src = spectrum.data() + to_m(b) * m;
      Complex* row = rows.data() + b * n;
      std::fill(row, row + n, Complex(0.0, 0.0));
      for (std::size_t c = 0; c < band; ++c) row[to_n(c)] = src[to_m(c)];
      fft(row, plan);
    }
  });

  const std::size_t pairs = n / 2;
  util::parallel_for(exec, serial_ws, 0, pairs, exec ? exec->grain_for(pairs) : pairs,
                     fft_stage_cost(pairs, n),
                     [&](std::size_t p0, std::size_t p1, util::Workspace& ws) {
    const FftPlan& plan = fft_plan(ws, n, /*inverse=*/true);
    auto& line = ws.complexes(0);
    line.resize(n);
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t c = 2 * p;
      std::fill(line.begin(), line.end(), Complex(0.0, 0.0));
      for (std::size_t b = 0; b < band; ++b) {
        const Complex lo = rows[b * n + c];
        const Complex hi = rows[b * n + c + 1];
        line[to_n(b)] = Complex(lo.real() - hi.imag(), lo.imag() + hi.real());
      }
      fft(line.data(), plan);
      for (std::size_t y = 0; y < n; ++y) {
        out[y * n + c] = line[y].real();
        out[y * n + c + 1] = line[y].imag();
      }
    }
  });
}

std::vector<Complex> naive_dft(const std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle =
          sign * 2.0 * std::numbers::pi * static_cast<double>(k * t) / static_cast<double>(n);
      out[k] += data[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  if (inverse) {
    for (auto& value : out) value /= static_cast<double>(n);
  }
  return out;
}

}  // namespace lithogan::math
