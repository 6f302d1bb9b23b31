// Planar geometric primitives. Coordinates are nanometres throughout the
// layout and lithography modules unless a function documents otherwise.
#pragma once

#include <algorithm>
#include <cmath>

namespace lithogan::geometry {

/// 2-D point / vector (nm).
struct Point {
  double x = 0.0;
  double y = 0.0;

  Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  Point operator*(double s) const { return {x * s, y * s}; }
  bool operator==(const Point& o) const = default;
};

inline double dot(const Point& a, const Point& b) { return a.x * b.x + a.y * b.y; }
inline double cross(const Point& a, const Point& b) { return a.x * b.y - a.y * b.x; }
inline double norm(const Point& a) { return std::sqrt(dot(a, a)); }
inline double distance(const Point& a, const Point& b) { return norm(a - b); }

/// Axis-aligned rectangle, stored as inclusive lower-left / upper-right
/// corners. An "empty" rectangle has hi < lo in either axis.
struct Rect {
  Point lo;
  Point hi;

  static Rect from_center(Point center, double width, double height) {
    return {{center.x - width / 2, center.y - height / 2},
            {center.x + width / 2, center.y + height / 2}};
  }

  /// A rectangle that behaves as the identity under unite().
  static Rect empty() {
    constexpr double inf = 1e300;
    return {{inf, inf}, {-inf, -inf}};
  }

  double width() const { return hi.x - lo.x; }
  double height() const { return hi.y - lo.y; }
  double area() const { return is_empty() ? 0.0 : width() * height(); }
  Point center() const { return {(lo.x + hi.x) / 2, (lo.y + hi.y) / 2}; }
  bool is_empty() const { return hi.x < lo.x || hi.y < lo.y; }

  bool contains(const Point& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }

  bool intersects(const Rect& o) const {
    return !is_empty() && !o.is_empty() && lo.x <= o.hi.x && o.lo.x <= hi.x &&
           lo.y <= o.hi.y && o.lo.y <= hi.y;
  }

  Rect unite(const Rect& o) const {
    if (is_empty()) return o;
    if (o.is_empty()) return *this;
    return {{std::min(lo.x, o.lo.x), std::min(lo.y, o.lo.y)},
            {std::max(hi.x, o.hi.x), std::max(hi.y, o.hi.y)}};
  }

  /// Grows (or shrinks, for negative margin) by `margin` on every side.
  Rect inflated(double margin) const {
    return {{lo.x - margin, lo.y - margin}, {hi.x + margin, hi.y + margin}};
  }

  Rect translated(const Point& d) const { return {lo + d, hi + d}; }

  bool operator==(const Rect& o) const = default;
};

}  // namespace lithogan::geometry
