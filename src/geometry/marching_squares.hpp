// Sub-pixel iso-contour extraction (marching squares).
//
// The lithography simulator produces scalar grids (aerial intensity, latent
// resist image); contour processing extracts the printed pattern as the
// threshold iso-line of that grid. Linear interpolation along cell edges
// yields sub-pixel contour accuracy, which matters because a 1-pixel error
// is ~0.5-2 nm of critical dimension.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/polygon.hpp"

namespace lithogan::geometry {

/// Extracts the iso-contours of `grid` (row-major, `width` columns by
/// `height` rows) at `threshold`. Returned polygon coordinates are in grid
/// index space: x in [0, width-1], y in [0, height-1]; callers convert to
/// physical units. Closed contours are returned as closed polygons; contours
/// that leave the grid are returned as open chains (still as Polygon).
/// Ambiguous saddle cells are resolved with the cell-center average.
/// Throws util::InvalidArgument if `width * height` overflows or differs
/// from `grid.size()`, or if the grid has more than 2^30 - 1 cells, past
/// which the worst case (two segments per cell) overflows the int32
/// segment index.
std::vector<Polygon> extract_contours(std::span<const double> grid, std::size_t width,
                                      std::size_t height, double threshold);

/// Reusable working storage for `extract_contours_into`. Buffers keep their
/// capacity across calls, so a steady-state loop that extracts contours from
/// same-sized grids (the chip tile pipeline) stops allocating once warm.
struct ContourScratch {
  /// The mate of a segment end on the grid border, which no cell shares.
  static constexpr std::uint32_t kNoMate = 0xFFFFFFFFu;
  /// One cell's piece of iso-line. Each end lies on a crossed grid edge;
  /// ends are numbered 2 * segment index + side.
  struct Segment {
    Point point[2];
    /// The end of the neighbouring cell's segment on the same grid edge as
    /// `point[side]`, or kNoMate.
    std::uint32_t mate[2];
    bool used = false;
  };
  /// Segments in scan order: rows bottom to top, cells left to right.
  std::vector<Segment> segments;
  /// Per cell column, the end that column's cell in the previous row left
  /// on its top edge, which is the bottom edge of the cell being scanned.
  /// Read only when that edge is crossed, so it is never cleared.
  std::vector<std::uint32_t> column_ends;
};

/// Allocation-free-when-warm variant of `extract_contours`: writes the
/// contours into the first `returned` slots of `out` (growing it only when
/// more contours appear than any earlier call produced; pooled polygons keep
/// their vertex capacity) and returns that count. Slots past the count hold
/// stale earlier results and must be ignored. Results are bit-identical to
/// `extract_contours`, which delegates here. Each call adds its segment
/// count to the `geometry.contour_segments` counter.
std::size_t extract_contours_into(std::span<const double> grid, std::size_t width,
                                  std::size_t height, double threshold,
                                  ContourScratch& scratch, std::vector<Polygon>& out);

/// The contour with the largest absolute enclosed area, or an empty polygon
/// if `contours` is empty.
Polygon largest_contour(const std::vector<Polygon>& contours);

/// The contour whose bounding box contains `p` with the smallest area, or an
/// empty polygon if none does. Used to pick the center contact's contour.
Polygon contour_at(const std::vector<Polygon>& contours, const Point& p);

}  // namespace lithogan::geometry
