// Engineering micro-benchmarks for the lithography substrate: FFT, aerial
// imaging at fast vs rigorous settings, the resist stage on the band and
// full-grid blur paths, and contour extraction. These underpin the Table 4
// runtime reproduction.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "geometry/marching_squares.hpp"
#include "litho/simulator.hpp"
#include "math/fft.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

using namespace lithogan;

static void BM_Fft2d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<math::Complex> grid(n * n);
  for (auto& v : grid) v = math::Complex(rng.uniform(-1, 1), 0.0);
  for (auto _ : state) {
    auto copy = grid;
    math::fft2d(copy, n, n, false);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_Fft2d)->Arg(128)->Arg(256);

namespace {
litho::ProcessConfig process_with(std::size_t rings, std::size_t points,
                                  std::size_t focus) {
  auto p = litho::ProcessConfig::n10();
  p.grid.pixels = 128;
  p.optical.source_rings = rings;
  p.optical.source_points_per_ring = points;
  p.optical.focus_planes = focus;
  return p;
}

std::vector<geometry::Rect> bench_mask(const litho::ProcessConfig& p) {
  const double c = p.grid.extent_nm / 2.0;
  return {geometry::Rect::from_center({c, c}, 60, 60),
          geometry::Rect::from_center({c + 140, c}, 60, 60),
          geometry::Rect::from_center({c, c + 140}, 60, 60),
          geometry::Rect::from_center({c - 90, c}, 24, 80)};
}
}  // namespace

static void BM_AerialFast(benchmark::State& state) {
  const auto p = process_with(1, 8, 1);
  litho::Simulator sim(p);
  const auto mask = bench_mask(p);
  for (auto _ : state) {
    auto aerial = sim.aerial_image(mask);
    benchmark::DoNotOptimize(aerial.values.data());
  }
}
BENCHMARK(BM_AerialFast);

static void BM_AerialRigorous(benchmark::State& state) {
  const auto p = process_with(4, 16, 3);
  litho::Simulator sim(p);
  const auto mask = bench_mask(p);
  for (auto _ : state) {
    auto aerial = sim.aerial_image(mask);
    benchmark::DoNotOptimize(aerial.values.data());
  }
}
BENCHMARK(BM_AerialRigorous);

// Simulator::run end to end. Arg 128 is a calibrated 128-px clip grid with
// 8 source points; arg 512 is the chip tile grid, 512 px over 2048 nm with
// the full N10 source, set up as BM_Develop is: run blurs its 64-px band
// intensity straight into the latent there.
static void BM_FullSimulation(benchmark::State& state) {
  auto p = process_with(1, 8, 1);
  if (state.range(0) == 512) {
    p = litho::ProcessConfig::n10();
    p.grid.pixels = 512;
    p.grid.extent_nm = 2048.0;
  }
  litho::Simulator sim(p);
  if (state.range(0) == 128) sim.calibrate_dose();
  const auto mask = bench_mask(p);
  for (auto _ : state) {
    auto result = sim.run(mask);
    benchmark::DoNotOptimize(result.contours.data());
  }
}
BENCHMARK(BM_FullSimulation)
    ->ArgName("px")
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

// The resist stage (latent blur + VTR threshold + develop) on the chip tile
// grid, 512 px over 2048 nm. Arg 1 develops the aerial as imaged, tagged
// with its band, so the blur runs on the 64-px imaging grid; arg 0 clears
// the tag and takes the full-grid blur.
static void BM_Develop(benchmark::State& state) {
  auto p = litho::ProcessConfig::n10();
  p.grid.pixels = 512;
  p.grid.extent_nm = 2048.0;
  litho::Simulator sim(p);
  auto aerial = sim.aerial_image(bench_mask(p));
  if (state.range(0) == 0) aerial.band_pixels = 0;
  for (auto _ : state) {
    auto develop = sim.develop(aerial);
    benchmark::DoNotOptimize(develop.values.data());
  }
}
BENCHMARK(BM_Develop)->ArgName("band")->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Contour extraction through a warm ContourScratch, as the chip path runs
// it. Arg 0 is a smooth 128 x 128 field: few contours over many cells, the
// golden-tile regime. Arg 1 is a seeded noisy 64 x 64 grid with about 2,000
// segments, the regime of the untrained lite generator's outputs on the
// learned path. The `segments` counter reads geometry.contour_segments per
// extraction.
static void BM_MarchingSquares(benchmark::State& state) {
  const bool noisy = state.range(0) == 1;
  const std::size_t n = noisy ? 64 : 128;
  std::vector<double> grid(n * n);
  if (noisy) {
    // A 3 x 3 box blur of (n + 2)^2 uniform noise links neighbouring
    // crossings into longer chains, as a generator's output has.
    util::Rng rng(18);
    const std::size_t m = n + 2;
    std::vector<double> raw(m * m);
    for (double& v : raw) v = rng.uniform();
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        double sum = 0.0;
        for (std::size_t k = 0; k < 9; ++k) sum += raw[(y + k / 3) * m + x + k % 3];
        grid[y * n + x] = sum / 9.0;
      }
    }
  } else {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        const double dx = static_cast<double>(x) - 64.0;
        const double dy = static_cast<double>(y) - 64.0;
        grid[y * n + x] = std::cos(dx / 6.0) * std::cos(dy / 6.0) -
                          0.3 * std::exp(-(dx * dx + dy * dy) / 900.0);
      }
    }
  }
  const double threshold = noisy ? 0.5 : 0.2;
  geometry::ContourScratch scratch;
  std::vector<geometry::Polygon> contours;
  const obs::Counter& segments =
      obs::Registry::global().counter("geometry.contour_segments");
  const std::uint64_t before = segments.value();
  for (auto _ : state) {
    const std::size_t found =
        geometry::extract_contours_into(grid, n, n, threshold, scratch, contours);
    benchmark::DoNotOptimize(found);
  }
  state.counters["segments"] = static_cast<double>(segments.value() - before) /
                               static_cast<double>(state.iterations());
}
BENCHMARK(BM_MarchingSquares)->ArgName("noisy")->Arg(0)->Arg(1);

BENCHMARK_MAIN();
