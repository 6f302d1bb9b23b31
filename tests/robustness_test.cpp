// Robustness tests: reference-implementation cross-checks and awkward
// geometries that the main suites don't cover (rectangular inputs, odd
// strides, topology edge cases).
#include <gtest/gtest.h>

#include <cmath>

#include "geometry/marching_squares.hpp"
#include "geometry/rasterize.hpp"
#include "litho/optical.hpp"
#include "math/conv.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace lithogan;

// ---------------------------------------------------------------------------
// Conv2d against a naive direct convolution
// ---------------------------------------------------------------------------

namespace {

/// Direct (no im2col) cross-correlation reference.
nn::Tensor naive_conv(const nn::Tensor& x, const nn::Tensor& w, const nn::Tensor& b,
                      std::size_t out_ch, std::size_t k, std::size_t stride,
                      std::size_t pad) {
  const std::size_t batch = x.dim(0);
  const std::size_t in_ch = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t width = x.dim(3);
  const std::size_t oh = math::conv_out_size(h, k, stride, pad);
  const std::size_t ow = math::conv_out_size(width, k, stride, pad);
  nn::Tensor y({batch, out_ch, oh, ow});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          double acc = b[oc];
          for (std::size_t ic = 0; ic < in_ch; ++ic) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              for (std::size_t kx = 0; kx < k; ++kx) {
                const auto iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                                static_cast<std::ptrdiff_t>(pad);
                const auto ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                                static_cast<std::ptrdiff_t>(pad);
                if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(h) ||
                    ix >= static_cast<std::ptrdiff_t>(width)) {
                  continue;
                }
                const float xv =
                    x[((n * in_ch + ic) * h + static_cast<std::size_t>(iy)) * width +
                      static_cast<std::size_t>(ix)];
                const float wv = w[oc * in_ch * k * k + (ic * k + ky) * k + kx];
                acc += static_cast<double>(xv) * wv;
              }
            }
          }
          y[((n * out_ch + oc) * oh + oy) * ow + ox] = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

}  // namespace

TEST(ConvReference, MatchesNaiveOnRectangularInput) {
  util::Rng rng(1);
  const std::size_t in_ch = 3;
  const std::size_t out_ch = 4;
  const std::size_t k = 3;
  nn::Conv2d conv(in_ch, out_ch, k, 2, 1, rng);
  // Rectangular spatial extent: 7 x 11.
  const auto x = nn::Tensor::randn({2, in_ch, 7, 11}, rng);
  const auto y = conv.forward(x);

  const auto params = conv.parameters();
  const auto expected = naive_conv(x, params[0]->value, params[1]->value, out_ch, k, 2, 1);
  ASSERT_TRUE(y.same_shape(expected));
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], expected[i], 1e-4f) << i;
  }
}

TEST(ConvReference, StrideLargerThanKernel) {
  util::Rng rng(2);
  nn::Conv2d conv(1, 2, 2, 3, 0, rng);  // stride 3 > kernel 2
  const auto x = nn::Tensor::randn({1, 1, 8, 8}, rng);
  const auto y = conv.forward(x);
  EXPECT_EQ(y.dim(2), 3u);  // (8 - 2)/3 + 1
  const auto params = conv.parameters();
  const auto expected = naive_conv(x, params[0]->value, params[1]->value, 2, 2, 3, 0);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], expected[i], 1e-4f);
}

TEST(ConvReference, OneByOneKernelIsChannelMix) {
  util::Rng rng(3);
  nn::Conv2d conv(3, 2, 1, 1, 0, rng);
  const auto x = nn::Tensor::randn({1, 3, 4, 4}, rng);
  const auto y = conv.forward(x);
  const auto params = conv.parameters();
  // Check one output element by hand.
  double acc = params[1]->value[0];
  for (std::size_t ic = 0; ic < 3; ++ic) {
    acc += static_cast<double>(x[(ic * 4 + 2) * 4 + 3]) * params[0]->value[ic];
  }
  EXPECT_NEAR(y[2 * 4 + 3], acc, 1e-5);
}

TEST(DeconvGeometry, OddStrideAndOutputPad) {
  util::Rng rng(4);
  // stride 3, output_pad 2: out = (in-1)*3 + k + 2 - 2*pad.
  nn::ConvTranspose2d deconv(2, 1, 3, 3, 1, 2, rng);
  const auto x = nn::Tensor::randn({1, 2, 4, 4}, rng);
  const auto y = deconv.forward(x);
  EXPECT_EQ(y.dim(2), (4u - 1) * 3 + 3 + 2 - 2);
  // Adjoint sanity: <deconv(x), g> == <x, conv-style-backward(g)>.
  const auto g = nn::Tensor::randn(y.shape(), rng);
  double lhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += static_cast<double>(y[i]) * g[i];
  const auto gx = deconv.backward(g);
  // Remove the bias contribution from lhs: <b ⊗ 1, g> term.
  const auto params = deconv.parameters();
  double bias_term = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) bias_term += g[i];
  bias_term *= params[1]->value[0];
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * gx[i];
  EXPECT_NEAR(lhs - bias_term, rhs, 1e-2);
}

// ---------------------------------------------------------------------------
// BatchNorm running statistics
// ---------------------------------------------------------------------------

TEST(BatchNormRunningStats, ConvergeForStationaryInput) {
  nn::BatchNorm2d bn(1, /*momentum=*/0.2f);
  bn.set_training(true);
  util::Rng rng(5);
  // Stationary stream with mean 3, std 2.
  for (int step = 0; step < 200; ++step) {
    bn.forward(nn::Tensor::randn({8, 1, 4, 4}, rng, 2.0f, 3.0f));
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0f, 0.15f);
  EXPECT_NEAR(bn.running_var()[0], 4.0f, 0.6f);
  // Eval output is now approximately standardized.
  bn.set_training(false);
  const auto y = bn.forward(nn::Tensor::randn({64, 1, 4, 4}, rng, 2.0f, 3.0f));
  double sum = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) sum += y[i];
  EXPECT_NEAR(sum / static_cast<double>(y.size()), 0.0, 0.1);
}

// ---------------------------------------------------------------------------
// Geometry topology edge cases
// ---------------------------------------------------------------------------

TEST(MarchingSquaresTopology, AnnulusYieldsTwoNestedContours) {
  const std::size_t n = 64;
  std::vector<double> grid(n * n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double r = std::hypot(static_cast<double>(x) - 32.0,
                                  static_cast<double>(y) - 32.0);
      // Positive in the ring 10 < r < 20.
      grid[y * n + x] = std::min(r - 10.0, 20.0 - r);
    }
  }
  const auto contours = geometry::extract_contours(grid, n, n, 0.0);
  ASSERT_EQ(contours.size(), 2u);
  const double a0 = contours[0].area();
  const double a1 = contours[1].area();
  const double inner = std::min(a0, a1);
  const double outer = std::max(a0, a1);
  EXPECT_NEAR(inner, M_PI * 100.0, M_PI * 100.0 * 0.06);
  EXPECT_NEAR(outer, M_PI * 400.0, M_PI * 400.0 * 0.06);
  // Both circles share the center.
  EXPECT_NEAR(contours[0].centroid().x, 32.0, 0.3);
  EXPECT_NEAR(contours[1].centroid().x, 32.0, 0.3);
}

TEST(MarchingSquaresTopology, SaddleCheckerboardDoesNotCrash) {
  // Alternating +/- lattice exercises the ambiguous cases densely.
  const std::size_t n = 16;
  std::vector<double> grid(n * n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      grid[y * n + x] = ((x + y) % 2 == 0) ? 1.0 : -1.0;
    }
  }
  const auto contours = geometry::extract_contours(grid, n, n, 0.0);
  EXPECT_FALSE(contours.empty());
  for (const auto& c : contours) EXPECT_GE(c.size(), 2u);
}

TEST(Rasterize, DegeneratePolygonsAreIgnored) {
  std::vector<std::uint8_t> mask(64, 0);
  geometry::rasterize_polygon(geometry::Polygon({{1.0, 1.0}, {5.0, 5.0}}), 8, 8, mask);
  for (const auto v : mask) EXPECT_EQ(v, 0);
  geometry::rasterize_polygon(geometry::Polygon{}, 8, 8, mask);
  for (const auto v : mask) EXPECT_EQ(v, 0);
}

// ---------------------------------------------------------------------------
// Optical model: quadrupole vs annular resolution behavior
// ---------------------------------------------------------------------------

TEST(Illumination, QuadrupoleImprovesDiagonalPitchContrast) {
  // Cross-quad illumination is chosen for dense contact grids; verify the
  // substrate reflects the physics qualitatively: for a dense diagonal
  // pair, the quadrupole image has at least comparable trough contrast.
  auto p = litho::ProcessConfig::n10();
  p.grid.pixels = 128;
  p.optical.source_rings = 2;
  p.optical.source_points_per_ring = 12;
  p.optical.coma_x_waves = 0.0;
  p.optical.coma_y_waves = 0.0;
  const double c = p.grid.extent_nm / 2.0;
  const std::vector<geometry::Rect> mask = {
      geometry::Rect::from_center({c, c}, 60, 60),
      geometry::Rect::from_center({c + 96, c + 96}, 60, 60),
  };

  const auto contrast = [&](litho::SourceShape shape) {
    auto cfg = p;
    cfg.optical.source_shape = shape;
    litho::OpticalModel model(cfg.optical, cfg.grid);
    const auto aerial = model.aerial_image(litho::rasterize_mask(mask, cfg.grid));
    // Peak at the contact center vs the midpoint between the two contacts.
    const auto px = [&](double nm_x, double nm_y) {
      const auto ix = static_cast<std::size_t>(nm_x / aerial.pixel_nm());
      const auto iy = static_cast<std::size_t>(nm_y / aerial.pixel_nm());
      return aerial.at(ix, iy);
    };
    const double peak = px(c, c);
    const double trough = px(c + 48, c + 48);
    return (peak - trough) / (peak + trough + 1e-12);
  };

  const double annular = contrast(litho::SourceShape::kAnnular);
  const double quad = contrast(litho::SourceShape::kQuadrupole);
  EXPECT_GT(quad, 0.0);
  EXPECT_GT(quad, annular * 0.8);  // at least comparable; typically better
}

// ---------------------------------------------------------------------------
// CLI edge cases
// ---------------------------------------------------------------------------

TEST(CliEdge, EqualsFormWithEmptyValue) {
  util::CliParser cli("t");
  cli.add_flag("name", "default", "n");
  const char* argv[] = {"prog", "--name="};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get("name"), "");
}

TEST(CliEdge, BoolFollowedByFlag) {
  util::CliParser cli("t");
  cli.add_flag("a", "false", "a").add_flag("b", "false", "b");
  const char* argv[] = {"prog", "--a", "--b"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_TRUE(cli.get_bool("a"));
  EXPECT_TRUE(cli.get_bool("b"));
}
