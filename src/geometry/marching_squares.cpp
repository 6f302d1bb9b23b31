#include "geometry/marching_squares.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace lithogan::geometry {

namespace {

constexpr std::uint32_t kNoMate = ContourScratch::kNoMate;

// A saddle cell emits two segments, and segment ends are numbered
// 2 * index + side in 32 bits, so the worst case of two segments per cell
// must fit the int32 segment index.
constexpr std::size_t kMaxCells = std::numeric_limits<std::int32_t>::max() / 2;

// Interpolated crossing on the edge from lattice point (x0,y0) (value v0) to
// (x1,y1) (value v1).
Point interpolate(double x0, double y0, double v0, double x1, double y1, double v1,
                  double threshold) {
  const double denom = v1 - v0;
  const double t = std::abs(denom) < 1e-300 ? 0.5 : (threshold - v0) / denom;
  const double tc = std::clamp(t, 0.0, 1.0);
  return {x0 + tc * (x1 - x0), y0 + tc * (y1 - y0)};
}

enum class Side { kBottom, kRight, kTop, kLeft };

}  // namespace

std::size_t extract_contours_into(std::span<const double> grid, std::size_t width,
                                  std::size_t height, double threshold,
                                  ContourScratch& scratch, std::vector<Polygon>& out) {
  LITHOGAN_REQUIRE(
      height == 0 || width <= std::numeric_limits<std::size_t>::max() / height,
      "grid dimensions overflow");
  LITHOGAN_REQUIRE(width < 2 || height < 2 || (width - 1) * (height - 1) <= kMaxCells,
                   "grid exceeds the 32-bit segment index");
  LITHOGAN_REQUIRE(grid.size() == width * height, "grid size mismatch");
  auto& segments = scratch.segments;
  segments.clear();
  if (width < 2 || height < 2) return 0;

  // Each crossed grid edge carries one segment end from each cell beside it
  // (one on the border). The scan runs rows bottom to top and cells left to
  // right, so the cell below has left its top-edge end in `column_ends[cx]`
  // and the cell to the left its right-edge end in `right_end`; a cell links
  // its bottom and left ends to those. A slot is read only when its edge is
  // crossed, which means this call already wrote it, so none is cleared.
  auto& column_ends = scratch.column_ends;
  column_ends.resize(width - 1);
  std::uint32_t right_end = kNoMate;

  const auto value = [&](std::size_t x, std::size_t y) { return grid[y * width + x]; };

  for (std::size_t cy = 0; cy + 1 < height; ++cy) {
    for (std::size_t cx = 0; cx + 1 < width; ++cx) {
      const double v00 = value(cx, cy);          // bottom-left
      const double v10 = value(cx + 1, cy);      // bottom-right
      const double v11 = value(cx + 1, cy + 1);  // top-right
      const double v01 = value(cx, cy + 1);      // top-left

      int caseIndex = 0;
      if (v00 >= threshold) caseIndex |= 1;
      if (v10 >= threshold) caseIndex |= 2;
      if (v11 >= threshold) caseIndex |= 4;
      if (v01 >= threshold) caseIndex |= 8;
      if (caseIndex == 0 || caseIndex == 15) continue;

      const double x = static_cast<double>(cx);
      const double y = static_cast<double>(cy);

      // Crossing points on the four cell edges.
      const Point bottom = interpolate(x, y, v00, x + 1, y, v10, threshold);
      const Point right = interpolate(x + 1, y, v10, x + 1, y + 1, v11, threshold);
      const Point top = interpolate(x, y + 1, v01, x + 1, y + 1, v11, threshold);
      const Point left = interpolate(x, y, v00, x, y + 1, v01, threshold);

      // Read the incoming ends before a saddle's first segment overwrites
      // the slots with this cell's own top and right ends.
      const std::uint32_t below_end = cy > 0 ? column_ends[cx] : kNoMate;
      const std::uint32_t left_end = cx > 0 ? right_end : kNoMate;

      const auto link = [&](std::uint32_t end, Side side) {
        std::uint32_t mate = kNoMate;
        switch (side) {
          case Side::kBottom: mate = below_end; break;
          case Side::kLeft: mate = left_end; break;
          case Side::kTop: column_ends[cx] = end; return;
          case Side::kRight: right_end = end; return;
        }
        if (mate == kNoMate) return;
        segments[end >> 1].mate[end & 1] = mate;
        segments[mate >> 1].mate[mate & 1] = end;
      };
      const auto emit = [&](Side sa, const Point& pa, Side sb, const Point& pb) {
        const auto end = static_cast<std::uint32_t>(2 * segments.size());
        segments.push_back(ContourScratch::Segment{{pa, pb}, {kNoMate, kNoMate}});
        link(end, sa);
        link(end + 1, sb);
      };

      switch (caseIndex) {
        case 1:
        case 14:
          emit(Side::kLeft, left, Side::kBottom, bottom);
          break;
        case 2:
        case 13:
          emit(Side::kBottom, bottom, Side::kRight, right);
          break;
        case 3:
        case 12:
          emit(Side::kLeft, left, Side::kRight, right);
          break;
        case 4:
        case 11:
          emit(Side::kRight, right, Side::kTop, top);
          break;
        case 6:
        case 9:
          emit(Side::kBottom, bottom, Side::kTop, top);
          break;
        case 7:
        case 8:
          emit(Side::kLeft, left, Side::kTop, top);
          break;
        case 5: {
          // Saddle: disambiguate with the cell-center average.
          const double center = (v00 + v10 + v11 + v01) / 4.0;
          if (center >= threshold) {
            emit(Side::kLeft, left, Side::kTop, top);
            emit(Side::kBottom, bottom, Side::kRight, right);
          } else {
            emit(Side::kLeft, left, Side::kBottom, bottom);
            emit(Side::kRight, right, Side::kTop, top);
          }
          break;
        }
        case 10: {
          const double center = (v00 + v10 + v11 + v01) / 4.0;
          if (center >= threshold) {
            emit(Side::kLeft, left, Side::kBottom, bottom);
            emit(Side::kRight, right, Side::kTop, top);
          } else {
            emit(Side::kLeft, left, Side::kTop, top);
            emit(Side::kBottom, bottom, Side::kRight, right);
          }
          break;
        }
        default:
          break;
      }
    }
  }
  static obs::Counter& emitted =
      obs::Registry::global().counter("geometry.contour_segments");
  emitted.add(segments.size());

  // Walk the links. An end id is 2 * segment + side; `e ^ 1` is the other
  // end of the same segment.
  std::size_t count = 0;
  for (std::uint32_t start = 0; start < segments.size(); ++start) {
    if (segments[start].used) continue;

    // Walk backwards first so open chains begin at a true endpoint; `head`
    // is the end the chain enters its first segment through. Links pair
    // ends one to one, so a chain is walked whole the first time any of its
    // segments is reached here, and this walk meets no used segment.
    std::uint32_t head = 2 * start;
    while (true) {
      const std::uint32_t prev = segments[head >> 1].mate[head & 1];
      if (prev == kNoMate || (prev >> 1) == start) break;  // endpoint or closed loop
      head = prev ^ 1;
    }

    // Forward walk collecting vertices into a pooled output slot.
    if (count == out.size()) out.emplace_back();
    Polygon& poly = out[count];
    poly.clear();
    for (std::uint32_t entry = head;;) {
      ContourScratch::Segment& seg = segments[entry >> 1];
      seg.used = true;
      poly.push_back(seg.point[entry & 1]);
      const std::uint32_t exit = entry ^ 1;
      const std::uint32_t next = seg.mate[exit & 1];
      if (next == kNoMate) {
        poly.push_back(seg.point[exit & 1]);  // open chain: keep last point
        break;
      }
      if (segments[next >> 1].used) break;  // closed loop
      entry = next;
    }
    ++count;  // an open chain keeps both ends, a loop has four or more vertices
  }

  return count;
}

std::vector<Polygon> extract_contours(std::span<const double> grid, std::size_t width,
                                      std::size_t height, double threshold) {
  ContourScratch scratch;
  std::vector<Polygon> out;
  const std::size_t n = extract_contours_into(grid, width, height, threshold, scratch, out);
  out.resize(n);
  return out;
}

Polygon largest_contour(const std::vector<Polygon>& contours) {
  Polygon best;
  double best_area = -1.0;
  for (const Polygon& c : contours) {
    const double a = c.area();
    if (a > best_area) {
      best_area = a;
      best = c;
    }
  }
  return best;
}

Polygon contour_at(const std::vector<Polygon>& contours, const Point& p) {
  Polygon best;
  double best_area = std::numeric_limits<double>::infinity();
  for (const Polygon& c : contours) {
    const Rect box = c.bounding_box();
    if (!box.contains(p)) continue;
    const double a = box.area();
    if (a < best_area) {
      best_area = a;
      best = c;
    }
  }
  return best;
}

}  // namespace lithogan::geometry
