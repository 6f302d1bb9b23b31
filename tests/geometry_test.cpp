#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "geometry/marching_squares.hpp"
#include "geometry/polygon.hpp"
#include "geometry/primitives.hpp"
#include "geometry/rasterize.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lg = lithogan::geometry;

// ---------------------------------------------------------------------------
// Rect
// ---------------------------------------------------------------------------

TEST(Rect, BasicAccessors) {
  const lg::Rect r{{1.0, 2.0}, {4.0, 6.0}};
  EXPECT_DOUBLE_EQ(r.width(), 3.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_EQ(r.center(), (lg::Point{2.5, 4.0}));
  EXPECT_FALSE(r.is_empty());
}

TEST(Rect, FromCenter) {
  const auto r = lg::Rect::from_center({10.0, 20.0}, 4.0, 6.0);
  EXPECT_EQ(r.lo, (lg::Point{8.0, 17.0}));
  EXPECT_EQ(r.hi, (lg::Point{12.0, 23.0}));
}

TEST(Rect, ContainsIsInclusive) {
  const lg::Rect r{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_TRUE(r.contains({0.0, 0.0}));
  EXPECT_TRUE(r.contains({1.0, 1.0}));
  EXPECT_TRUE(r.contains({0.5, 0.5}));
  EXPECT_FALSE(r.contains({1.0001, 0.5}));
}

TEST(Rect, IntersectionAndUnion) {
  const lg::Rect a{{0.0, 0.0}, {2.0, 2.0}};
  const lg::Rect b{{1.0, 1.0}, {3.0, 3.0}};
  EXPECT_TRUE(a.intersects(b));
  const auto u = a.unite(b);
  EXPECT_EQ(u.lo, (lg::Point{0.0, 0.0}));
  EXPECT_EQ(u.hi, (lg::Point{3.0, 3.0}));
}

TEST(Rect, DisjointRectsDoNotIntersect) {
  const lg::Rect a{{0.0, 0.0}, {1.0, 1.0}};
  const lg::Rect b{{2.0, 2.0}, {3.0, 3.0}};
  EXPECT_FALSE(a.intersects(b));
}

TEST(Rect, EmptyIsUnionIdentity) {
  const auto e = lg::Rect::empty();
  const lg::Rect a{{1.0, 1.0}, {2.0, 2.0}};
  EXPECT_TRUE(e.is_empty());
  EXPECT_EQ(e.unite(a), a);
  EXPECT_EQ(a.unite(e), a);
  EXPECT_DOUBLE_EQ(e.area(), 0.0);
}

TEST(Rect, InflateAndTranslate) {
  const lg::Rect r{{1.0, 1.0}, {2.0, 2.0}};
  const auto g = r.inflated(0.5);
  EXPECT_EQ(g.lo, (lg::Point{0.5, 0.5}));
  EXPECT_EQ(g.hi, (lg::Point{2.5, 2.5}));
  const auto t = r.translated({1.0, -1.0});
  EXPECT_EQ(t.lo, (lg::Point{2.0, 0.0}));
}

// ---------------------------------------------------------------------------
// Polygon
// ---------------------------------------------------------------------------

TEST(Polygon, RectangleAreaAndCentroid) {
  const auto p = lg::Polygon::from_rect({{0.0, 0.0}, {4.0, 2.0}});
  EXPECT_DOUBLE_EQ(p.area(), 8.0);
  EXPECT_GT(p.signed_area(), 0.0);  // CCW construction
  const auto c = p.centroid();
  EXPECT_NEAR(c.x, 2.0, 1e-12);
  EXPECT_NEAR(c.y, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(p.perimeter(), 12.0);
}

TEST(Polygon, ReversedFlipsOrientation) {
  const auto p = lg::Polygon::from_rect({{0.0, 0.0}, {1.0, 1.0}});
  EXPECT_DOUBLE_EQ(p.signed_area(), -p.reversed().signed_area());
  EXPECT_DOUBLE_EQ(p.area(), p.reversed().area());
}

TEST(Polygon, TriangleArea) {
  const lg::Polygon t({{0.0, 0.0}, {4.0, 0.0}, {0.0, 3.0}});
  EXPECT_DOUBLE_EQ(t.area(), 6.0);
  EXPECT_DOUBLE_EQ(t.perimeter(), 12.0);
}

TEST(Polygon, ContainsConvex) {
  const auto p = lg::Polygon::from_rect({{0.0, 0.0}, {2.0, 2.0}});
  EXPECT_TRUE(p.contains({1.0, 1.0}));
  EXPECT_FALSE(p.contains({3.0, 1.0}));
  EXPECT_FALSE(p.contains({-0.1, 1.0}));
}

TEST(Polygon, ContainsConcave) {
  // L-shape: the notch at top-right is outside.
  const lg::Polygon l(
      {{0.0, 0.0}, {4.0, 0.0}, {4.0, 2.0}, {2.0, 2.0}, {2.0, 4.0}, {0.0, 4.0}});
  EXPECT_TRUE(l.contains({1.0, 3.0}));
  EXPECT_TRUE(l.contains({3.0, 1.0}));
  EXPECT_FALSE(l.contains({3.0, 3.0}));
}

TEST(Polygon, TransformsPreserveArea) {
  const auto p = lg::Polygon::from_rect({{0.0, 0.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(p.translated({10.0, -5.0}).area(), 6.0);
  EXPECT_DOUBLE_EQ(p.scaled(2.0, 0.5).area(), 6.0);
  const auto c = p.translated({10.0, -5.0}).centroid();
  EXPECT_NEAR(c.x, 11.5, 1e-12);
  EXPECT_NEAR(c.y, -4.0, 1e-12);
}

TEST(Polygon, DegenerateCentroidFallsBackToVertexMean) {
  const lg::Polygon line({{0.0, 0.0}, {2.0, 0.0}});
  const auto c = line.centroid();
  EXPECT_NEAR(c.x, 1.0, 1e-12);
  EXPECT_NEAR(c.y, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(line.area(), 0.0);
}

TEST(Polygon, BoundingBox) {
  const lg::Polygon t({{1.0, 5.0}, {4.0, 2.0}, {-2.0, 3.0}});
  const auto b = t.bounding_box();
  EXPECT_EQ(b.lo, (lg::Point{-2.0, 2.0}));
  EXPECT_EQ(b.hi, (lg::Point{4.0, 5.0}));
}

// ---------------------------------------------------------------------------
// Marching squares
// ---------------------------------------------------------------------------

namespace {
// Radially symmetric bump grid: value = R - distance from center.
std::vector<double> disc_grid(std::size_t n, double cx, double cy, double radius) {
  std::vector<double> g(n * n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double dx = static_cast<double>(x) - cx;
      const double dy = static_cast<double>(y) - cy;
      g[y * n + x] = radius - std::sqrt(dx * dx + dy * dy);
    }
  }
  return g;
}
}  // namespace

TEST(MarchingSquares, EmptyGridYieldsNoContours) {
  const std::vector<double> g(16 * 16, 0.0);
  EXPECT_TRUE(lg::extract_contours(g, 16, 16, 0.5).empty());
}

TEST(MarchingSquares, FullGridYieldsNoContours) {
  const std::vector<double> g(16 * 16, 1.0);
  EXPECT_TRUE(lg::extract_contours(g, 16, 16, 0.5).empty());
}

TEST(MarchingSquares, DiscProducesSingleClosedContour) {
  const std::size_t n = 32;
  const auto g = disc_grid(n, 15.5, 15.5, 8.0);
  const auto contours = lg::extract_contours(g, n, n, 0.0);
  ASSERT_EQ(contours.size(), 1u);
  const auto& c = contours.front();
  // Area of iso-0 contour approximates a radius-8 circle.
  EXPECT_NEAR(c.area(), M_PI * 64.0, M_PI * 64.0 * 0.05);
  const auto centroid = c.centroid();
  EXPECT_NEAR(centroid.x, 15.5, 0.1);
  EXPECT_NEAR(centroid.y, 15.5, 0.1);
}

TEST(MarchingSquares, ContourRadiusIsSubPixelAccurate) {
  const std::size_t n = 64;
  const double radius = 13.3;
  const auto g = disc_grid(n, 31.5, 31.5, radius);
  const auto contours = lg::extract_contours(g, n, n, 0.0);
  ASSERT_EQ(contours.size(), 1u);
  for (const auto& v : contours.front().vertices()) {
    const double r = lg::distance(v, {31.5, 31.5});
    EXPECT_NEAR(r, radius, 0.05);  // linear interpolation error only
  }
}

TEST(MarchingSquares, TwoBlobsGiveTwoContours) {
  const std::size_t n = 48;
  auto g = disc_grid(n, 12.0, 24.0, 6.0);
  const auto g2 = disc_grid(n, 36.0, 24.0, 6.0);
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = std::max(g[i], g2[i]);
  const auto contours = lg::extract_contours(g, n, n, 0.0);
  EXPECT_EQ(contours.size(), 2u);
}

TEST(MarchingSquares, BlobTouchingBoundaryGivesOpenChain) {
  const std::size_t n = 16;
  const auto g = disc_grid(n, 0.0, 8.0, 5.0);  // center on the left edge
  const auto contours = lg::extract_contours(g, n, n, 0.0);
  ASSERT_EQ(contours.size(), 1u);
  EXPECT_GE(contours.front().size(), 3u);
}

TEST(MarchingSquares, LargestAndAtSelectors) {
  const std::size_t n = 48;
  auto g = disc_grid(n, 12.0, 24.0, 4.0);
  const auto g2 = disc_grid(n, 36.0, 24.0, 8.0);
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = std::max(g[i], g2[i]);
  const auto contours = lg::extract_contours(g, n, n, 0.0);
  ASSERT_EQ(contours.size(), 2u);
  const auto big = lg::largest_contour(contours);
  EXPECT_NEAR(big.centroid().x, 36.0, 0.5);
  const auto at = lg::contour_at(contours, {12.0, 24.0});
  EXPECT_NEAR(at.centroid().x, 12.0, 0.5);
  EXPECT_TRUE(lg::contour_at(contours, {0.0, 0.0}).empty());
}

TEST(MarchingSquares, ThresholdShiftShrinksContour) {
  const std::size_t n = 32;
  const auto g = disc_grid(n, 15.5, 15.5, 10.0);
  const auto outer = lg::extract_contours(g, n, n, 0.0);
  const auto inner = lg::extract_contours(g, n, n, 5.0);
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_GT(outer.front().area(), inner.front().area());
}

TEST(MarchingSquares, RejectsWrappingDimensions) {
  // 2^32 x 2^32 wraps to 0, which an empty span would otherwise match.
  const std::size_t big = std::size_t{1} << 32;
  lg::ContourScratch scratch;
  std::vector<lg::Polygon> pool;
  EXPECT_THROW(lg::extract_contours({}, big, big, 0.5), lithogan::util::InvalidArgument);
  EXPECT_THROW(lg::extract_contours_into({}, big, big, 0.5, scratch, pool),
               lithogan::util::InvalidArgument);
}

TEST(MarchingSquares, RejectsGridsPastTheSegmentIndex) {
  // 32769 x 32769 has 2^30 cells, one past the int32 segment index's worst
  // case; 32768 x 32769 fits and fails only the size check.
  const auto message = [](std::size_t w, std::size_t h) -> std::string {
    try {
      lg::extract_contours({}, w, h, 0.5);
    } catch (const lithogan::util::InvalidArgument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message(32769, 32769).find("segment index"), std::string::npos);
  EXPECT_NE(message(32768, 32769).find("grid size mismatch"), std::string::npos);
}

TEST(MarchingSquares, ContourSegmentsCounterAddsSegmentCount) {
  // A vertical step crosses every cell row once: 5 segments on 8 x 6.
  const std::size_t w = 8, h = 6;
  std::vector<double> g(w * h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) g[y * w + x] = x >= 4 ? 1.0 : 0.0;
  }
  const lithogan::obs::Counter& segments =
      lithogan::obs::Registry::global().counter("geometry.contour_segments");
  const std::uint64_t before = segments.value();
  ASSERT_EQ(lg::extract_contours(g, w, h, 0.5).size(), 1u);
  EXPECT_EQ(segments.value() - before, h - 1);
  // A single raised lattice point is a closed diamond of 4 segments.
  const auto d = disc_grid(5, 2.0, 2.0, 0.5);
  const std::uint64_t mid = segments.value();
  ASSERT_EQ(lg::extract_contours(d, 5, 5, 0.0).size(), 1u);
  EXPECT_EQ(segments.value() - mid, 4u);
}

// ---------------------------------------------------------------------------
// Marching squares: scan-time links against the sorted-key linker
// ---------------------------------------------------------------------------

namespace {

// The linker that scan-time linking replaced, kept as the reference: every
// segment end is keyed by its grid edge, the (key, index) pairs are sorted
// once, and each link step finds its neighbour with lower_bound.
struct KeyedSegment {
  std::uint64_t key_a;
  std::uint64_t key_b;
  lg::Point a;
  lg::Point b;
  bool used = false;
};

std::uint64_t edge_key(std::size_t x, std::size_t y, int orientation, std::size_t width) {
  return ((static_cast<std::uint64_t>(y) * width + x) << 1) |
         static_cast<std::uint64_t>(orientation);
}

lg::Point interpolate(double x0, double y0, double v0, double x1, double y1, double v1,
                      double threshold) {
  const double denom = v1 - v0;
  const double t = std::abs(denom) < 1e-300 ? 0.5 : (threshold - v0) / denom;
  const double tc = std::clamp(t, 0.0, 1.0);
  return {x0 + tc * (x1 - x0), y0 + tc * (y1 - y0)};
}

std::vector<lg::Polygon> sorted_key_contours(const std::vector<double>& grid,
                                             std::size_t width, std::size_t height,
                                             double threshold,
                                             std::size_t& segment_count) {
  std::vector<KeyedSegment> segments;
  segment_count = 0;
  if (width < 2 || height < 2) return {};
  const auto value = [&](std::size_t x, std::size_t y) { return grid[y * width + x]; };
  for (std::size_t cy = 0; cy + 1 < height; ++cy) {
    for (std::size_t cx = 0; cx + 1 < width; ++cx) {
      const double v00 = value(cx, cy);
      const double v10 = value(cx + 1, cy);
      const double v11 = value(cx + 1, cy + 1);
      const double v01 = value(cx, cy + 1);
      int c = 0;
      if (v00 >= threshold) c |= 1;
      if (v10 >= threshold) c |= 2;
      if (v11 >= threshold) c |= 4;
      if (v01 >= threshold) c |= 8;
      if (c == 0 || c == 15) continue;
      const double x = static_cast<double>(cx);
      const double y = static_cast<double>(cy);
      const lg::Point bottom = interpolate(x, y, v00, x + 1, y, v10, threshold);
      const lg::Point right = interpolate(x + 1, y, v10, x + 1, y + 1, v11, threshold);
      const lg::Point top = interpolate(x, y + 1, v01, x + 1, y + 1, v11, threshold);
      const lg::Point left = interpolate(x, y, v00, x, y + 1, v01, threshold);
      const std::uint64_t kb = edge_key(cx, cy, 0, width);
      const std::uint64_t kr = edge_key(cx + 1, cy, 1, width);
      const std::uint64_t kt = edge_key(cx, cy + 1, 0, width);
      const std::uint64_t kl = edge_key(cx, cy, 1, width);
      const auto emit = [&](std::uint64_t ka, const lg::Point& pa, std::uint64_t kb2,
                            const lg::Point& pb) {
        segments.push_back(KeyedSegment{ka, kb2, pa, pb});
      };
      const double center = (v00 + v10 + v11 + v01) / 4.0;
      switch (c) {
        case 1: case 14: emit(kl, left, kb, bottom); break;
        case 2: case 13: emit(kb, bottom, kr, right); break;
        case 3: case 12: emit(kl, left, kr, right); break;
        case 4: case 11: emit(kr, right, kt, top); break;
        case 6: case 9: emit(kb, bottom, kt, top); break;
        case 7: case 8: emit(kl, left, kt, top); break;
        case 5:
          if (center >= threshold) {
            emit(kl, left, kt, top);
            emit(kb, bottom, kr, right);
          } else {
            emit(kl, left, kb, bottom);
            emit(kr, right, kt, top);
          }
          break;
        case 10:
          if (center >= threshold) {
            emit(kl, left, kb, bottom);
            emit(kr, right, kt, top);
          } else {
            emit(kl, left, kt, top);
            emit(kb, bottom, kr, right);
          }
          break;
        default: break;
      }
    }
  }
  segment_count = segments.size();

  std::vector<std::pair<std::uint64_t, std::int32_t>> edges;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    edges.emplace_back(segments[i].key_a, static_cast<std::int32_t>(i));
    edges.emplace_back(segments[i].key_b, static_cast<std::int32_t>(i));
  }
  std::sort(edges.begin(), edges.end());
  const auto neighbor = [&](std::uint64_t key, std::ptrdiff_t self) -> std::ptrdiff_t {
    auto it = std::lower_bound(
        edges.begin(), edges.end(), key,
        [](const std::pair<std::uint64_t, std::int32_t>& e, std::uint64_t k) {
          return e.first < k;
        });
    for (; it != edges.end() && it->first == key; ++it) {
      if (it->second != self) return it->second;
    }
    return -1;
  };

  std::vector<lg::Polygon> out;
  for (std::size_t start = 0; start < segments.size(); ++start) {
    if (segments[start].used) continue;
    std::ptrdiff_t head = static_cast<std::ptrdiff_t>(start);
    std::uint64_t head_entry = segments[start].key_a;
    while (true) {
      const std::ptrdiff_t prev = neighbor(head_entry, head);
      if (prev < 0 || segments[static_cast<std::size_t>(prev)].used) break;
      if (prev == static_cast<std::ptrdiff_t>(start)) break;
      const KeyedSegment& ps = segments[static_cast<std::size_t>(prev)];
      head_entry = (ps.key_a == head_entry) ? ps.key_b : ps.key_a;
      head = prev;
    }
    lg::Polygon poly;
    std::ptrdiff_t cur = head;
    std::uint64_t entry = head_entry;
    while (cur >= 0 && !segments[static_cast<std::size_t>(cur)].used) {
      KeyedSegment& seg = segments[static_cast<std::size_t>(cur)];
      seg.used = true;
      const bool forward = (seg.key_a == entry);
      poly.push_back(forward ? seg.a : seg.b);
      const std::uint64_t exit = forward ? seg.key_b : seg.key_a;
      const std::ptrdiff_t next = neighbor(exit, cur);
      if (next < 0) {
        poly.push_back(forward ? seg.b : seg.a);
        break;
      }
      entry = exit;
      cur = next;
    }
    if (poly.size() >= 2) out.push_back(std::move(poly));
  }
  return out;
}

// Extracts through the caller's (possibly warm) scratch and pool, and
// memcmps the contour count and every vertex against the reference.
// Returns the reference's contour and segment counts.
std::pair<std::size_t, std::size_t> expect_matches_reference(
    const std::vector<double>& grid, std::size_t w, std::size_t h, double threshold,
    lg::ContourScratch& scratch, std::vector<lg::Polygon>& pool) {
  std::size_t segments = 0;
  const auto want = sorted_key_contours(grid, w, h, threshold, segments);
  const std::size_t got = lg::extract_contours_into(grid, w, h, threshold, scratch, pool);
  EXPECT_EQ(got, want.size()) << w << "x" << h << " at " << threshold;
  for (std::size_t i = 0; i < std::min(got, want.size()); ++i) {
    const auto& a = pool[i].vertices();
    const auto& b = want[i].vertices();
    EXPECT_EQ(a.size(), b.size()) << "contour " << i << " of " << w << "x" << h;
    if (a.size() != b.size()) continue;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(lg::Point)), 0)
        << "contour " << i << " of " << w << "x" << h << " differs";
  }
  return {want.size(), segments};
}

// Row-major w x h grid of values k / levels, k uniform in [0, levels): with
// an even `levels` and threshold 0.5, an eighth or so of the values sit
// exactly on the threshold.
std::vector<double> quantized_noise(std::size_t w, std::size_t h, int levels,
                                    lithogan::util::Rng& rng) {
  std::vector<double> g(w * h);
  for (double& v : g) v = static_cast<double>(rng.uniform_int(0, levels - 1)) / levels;
  return g;
}

// Saddle cells (cases 5 and 10) whose center average lands at or above the
// threshold, and below it.
std::pair<std::size_t, std::size_t> saddles(const std::vector<double>& g, std::size_t w,
                                            std::size_t h, double t) {
  std::pair<std::size_t, std::size_t> n{0, 0};
  for (std::size_t y = 0; y + 1 < h; ++y) {
    for (std::size_t x = 0; x + 1 < w; ++x) {
      const double v00 = g[y * w + x], v10 = g[y * w + x + 1];
      const double v01 = g[(y + 1) * w + x], v11 = g[(y + 1) * w + x + 1];
      const bool a = v00 >= t, b = v10 >= t, c = v11 >= t, d = v01 >= t;
      if (a != c || b != d || a == b) continue;
      (((v00 + v10 + v11 + v01) / 4.0 >= t) ? n.first : n.second)++;
    }
  }
  return n;
}

}  // namespace

TEST(Geometry, ContoursMatchSortedKeyLinker) {
  lithogan::util::Rng rng(1801);
  lg::ContourScratch scratch;
  std::vector<lg::Polygon> pool;

  // Noise in the learned-path regime: thousands of segments, both saddle
  // resolutions, and values exactly at the threshold.
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("noise trial " + std::to_string(trial));
    const auto g = quantized_noise(64, 64, 8, rng);
    const auto [above, below] = saddles(g, 64, 64, 0.5);
    EXPECT_GT(above, 0u);
    EXPECT_GT(below, 0u);
    EXPECT_GT(std::count(g.begin(), g.end(), 0.5), 0);
    EXPECT_GE(expect_matches_reference(g, 64, 64, 0.5, scratch, pool).second, 2000u);
  }

  // Open chains: a half-disc on each border, and bands crossing the grid.
  {
    SCOPED_TRACE("borders");
    const std::size_t w = 40, h = 30;
    const double cxs[] = {0.0, 39.0, 20.0, 20.0};
    const double cys[] = {15.0, 15.0, 0.0, 29.0};
    for (int b = 0; b < 4; ++b) {
      std::vector<double> g(w * h);
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          g[y * w + x] = 8.0 - std::hypot(static_cast<double>(x) - cxs[b],
                                          static_cast<double>(y) - cys[b]);
        }
      }
      ASSERT_EQ(expect_matches_reference(g, w, h, 0.0, scratch, pool).first, 1u);
      const lg::Point front = pool[0].vertices().front();
      const lg::Point back = pool[0].vertices().back();
      const double coord_front = b < 2 ? front.x : front.y;
      const double coord_back = b < 2 ? back.x : back.y;
      const double edge = b < 2 ? cxs[b] : cys[b];
      EXPECT_EQ(coord_front, edge) << "border " << b;
      EXPECT_EQ(coord_back, edge) << "border " << b;
    }
    for (int axis = 0; axis < 2; ++axis) {
      std::vector<double> g(w * h);
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          g[y * w + x] =
              axis == 0 ? static_cast<double>(x) - 17.3 : static_cast<double>(y) - 11.6;
        }
      }
      EXPECT_EQ(expect_matches_reference(g, w, h, 0.0, scratch, pool).first, 1u);
    }
  }

  // Every 2x2 cell over corner values {0, 0.5, 1} at three thresholds: all
  // sixteen cases, saddles resolved both ways.
  {
    SCOPED_TRACE("2x2");
    const double levels[] = {0.0, 0.5, 1.0};
    std::size_t above = 0, below = 0;
    for (int code = 0; code < 81; ++code) {
      std::vector<double> g(4);
      for (int c = 0, k = code; c < 4; ++c, k /= 3) {
        g[static_cast<std::size_t>(c)] = levels[k % 3];
      }
      for (const double t : {0.25, 0.5, 0.75}) {
        const auto [a, b] = saddles(g, 2, 2, t);
        above += a;
        below += b;
        expect_matches_reference(g, 2, 2, t, scratch, pool);
      }
    }
    EXPECT_GT(above, 0u);
    EXPECT_GT(below, 0u);
  }
  for (const auto& [w, h] : std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 57}, {57, 2}, {23, 61}, {61, 23}, {3, 2}, {2, 3}}) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    expect_matches_reference(quantized_noise(w, h, 8, rng), w, h, 0.5, scratch, pool);
  }

  // A width or height of 1 (or 0) has no cells.
  for (const auto& [w, h] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 10}, {10, 1}, {1, 1}, {0, 0}, {0, 5}}) {
    const std::vector<double> g(w * h, 1.0);
    EXPECT_EQ(lg::extract_contours_into(g, w, h, 0.5, scratch, pool), 0u);
    EXPECT_EQ(expect_matches_reference(g, w, h, 0.5, scratch, pool).first, 0u);
  }

  // A smooth 512 x 512 field, the golden-tile regime: few segments, many cells.
  {
    SCOPED_TRACE("smooth 512");
    const std::size_t n = 512;
    std::vector<double> g(n * n);
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        const double dx = static_cast<double>(x) - 256.0;
        const double dy = static_cast<double>(y) - 256.0;
        g[y * n + x] = std::cos(dx / 24.0) * std::cos(dy / 24.0) -
                       0.3 * std::exp(-(dx * dx + dy * dy) / 14400.0);
      }
    }
    EXPECT_GT(expect_matches_reference(g, n, n, 0.2, scratch, pool).first, 10u);
  }

  // One warm scratch through calls whose contour count rises and falls.
  {
    SCOPED_TRACE("warm scratch");
    lg::ContourScratch warm;
    std::vector<lg::Polygon> warm_pool;
    std::vector<std::size_t> counts;
    const auto disc = disc_grid(32, 15.5, 15.5, 10.0);
    counts.push_back(expect_matches_reference(disc, 32, 32, 0.0, warm, warm_pool).first);
    const auto many = quantized_noise(64, 64, 8, rng);
    counts.push_back(expect_matches_reference(many, 64, 64, 0.5, warm, warm_pool).first);
    counts.push_back(expect_matches_reference(disc, 32, 32, 0.0, warm, warm_pool).first);
    const auto some = quantized_noise(20, 48, 4, rng);
    counts.push_back(expect_matches_reference(some, 20, 48, 0.5, warm, warm_pool).first);
    counts.push_back(expect_matches_reference(many, 64, 64, 0.5, warm, warm_pool).first);
    const std::vector<double> flat(16 * 16, 0.0);
    counts.push_back(expect_matches_reference(flat, 16, 16, 0.5, warm, warm_pool).first);
    counts.push_back(expect_matches_reference(many, 64, 64, 0.5, warm, warm_pool).first);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_GT(counts[1], counts[3]);
    EXPECT_GT(counts[3], counts[2]);
    EXPECT_EQ(counts[5], 0u);
    EXPECT_EQ(counts[6], counts[1]);
  }

  // Seeded fuzz over sizes 1-70 x 1-70: noise of random depth, or a smooth
  // field, at a threshold that is sometimes a grid value.
  for (int trial = 0; trial < 400; ++trial) {
    const auto w = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto h = static_cast<std::size_t>(rng.uniform_int(1, 70));
    std::vector<double> g;
    if (rng.bernoulli(0.5)) {
      g = quantized_noise(w, h, static_cast<int>(rng.uniform_int(2, 9)), rng);
    } else {
      g.resize(w * h);
      const double fx = rng.uniform(0.1, 1.5), fy = rng.uniform(0.1, 1.5);
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          const auto xd = static_cast<double>(x), yd = static_cast<double>(y);
          g[y * w + x] = std::sin(fx * xd) * std::cos(fy * yd);
        }
      }
    }
    const auto last = static_cast<std::int64_t>(g.size()) - 1;
    const double t = rng.bernoulli(0.5)
                         ? g[static_cast<std::size_t>(rng.uniform_int(0, last))]
                         : rng.uniform(-0.5, 1.0);
    SCOPED_TRACE("fuzz trial " + std::to_string(trial));
    expect_matches_reference(g, w, h, t, scratch, pool);
  }
}

// ---------------------------------------------------------------------------
// Rasterize
// ---------------------------------------------------------------------------

TEST(Rasterize, AxisAlignedRectFillsExactPixels) {
  const auto p = lg::Polygon::from_rect({{2.0, 3.0}, {6.0, 5.0}});
  const auto mask = lg::rasterize({p}, 10, 10);
  std::size_t set = 0;
  for (std::size_t y = 0; y < 10; ++y) {
    for (std::size_t x = 0; x < 10; ++x) {
      const bool inside = x >= 2 && x < 6 && y >= 3 && y < 5;
      EXPECT_EQ(mask[y * 10 + x] != 0, inside) << "x=" << x << " y=" << y;
      if (mask[y * 10 + x]) ++set;
    }
  }
  EXPECT_EQ(set, 8u);
}

TEST(Rasterize, PolygonOutsideGridIsClipped) {
  const auto p = lg::Polygon::from_rect({{-5.0, -5.0}, {2.0, 2.0}});
  const auto mask = lg::rasterize({p}, 4, 4);
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1 * 4 + 1], 1);
  EXPECT_EQ(mask[2 * 4 + 2], 0);
}

TEST(Rasterize, MultiplePolygonsAccumulate) {
  const auto a = lg::Polygon::from_rect({{0.0, 0.0}, {2.0, 2.0}});
  const auto b = lg::Polygon::from_rect({{3.0, 3.0}, {5.0, 5.0}});
  const auto mask = lg::rasterize({a, b}, 6, 6);
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[4 * 6 + 4], 1);
  EXPECT_EQ(mask[2 * 6 + 2], 0);
}

TEST(Rasterize, CoverageFraction) {
  const auto p = lg::Polygon::from_rect({{0.0, 0.0}, {5.0, 10.0}});
  const auto mask = lg::rasterize({p}, 10, 10);
  EXPECT_DOUBLE_EQ(lg::coverage(mask), 0.5);
}

TEST(Rasterize, RoundTripThroughMarchingSquares) {
  // Rasterize a disc contour, then re-extract it: centroid and area survive.
  const std::size_t n = 64;
  std::vector<double> g(n * n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double dx = static_cast<double>(x) - 32.0;
      const double dy = static_cast<double>(y) - 30.0;
      g[y * n + x] = 12.0 - std::sqrt(dx * dx + dy * dy);
    }
  }
  const auto contours = lg::extract_contours(g, n, n, 0.0);
  ASSERT_EQ(contours.size(), 1u);
  const auto mask = lg::rasterize(contours, n, n);
  double set = 0.0;
  double sx = 0.0;
  double sy = 0.0;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      if (mask[y * n + x]) {
        set += 1.0;
        sx += static_cast<double>(x) + 0.5;
        sy += static_cast<double>(y) + 0.5;
      }
    }
  }
  EXPECT_NEAR(set, M_PI * 144.0, M_PI * 144.0 * 0.05);
  // Pixel centers (x+0.5) of the filled set are symmetric about the disc
  // center expressed in polygon coordinates.
  EXPECT_NEAR(sx / set, 32.0, 0.2);
  EXPECT_NEAR(sy / set, 30.0, 0.2);
}

TEST(Rasterize, TriangleHalfPlane) {
  const lg::Polygon t({{0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}});
  const auto mask = lg::rasterize({t}, 8, 8);
  // Pixels clearly inside / outside the hypotenuse.
  EXPECT_EQ(mask[1 * 8 + 1], 1);
  EXPECT_EQ(mask[7 * 8 + 7], 0);
  const double cov = lg::coverage(mask);
  EXPECT_NEAR(cov, 0.5, 0.08);
}
