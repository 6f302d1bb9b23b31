#include "image/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lithogan::image {

Image crop(const Image& src, std::ptrdiff_t x0, std::ptrdiff_t y0, std::size_t height,
           std::size_t width, float fill) {
  Image out(src.channels(), height, width, fill);
  for (std::size_t c = 0; c < src.channels(); ++c) {
    for (std::size_t y = 0; y < height; ++y) {
      for (std::size_t x = 0; x < width; ++x) {
        out.at(c, y, x) = src.at_or(static_cast<std::ptrdiff_t>(c),
                                    y0 + static_cast<std::ptrdiff_t>(y),
                                    x0 + static_cast<std::ptrdiff_t>(x), fill);
      }
    }
  }
  return out;
}

Image shift(const Image& src, std::ptrdiff_t dx, std::ptrdiff_t dy, float fill) {
  return crop(src, -dx, -dy, src.height(), src.width(), fill);
}

Image shift_bilinear(const Image& src, double dx, double dy, float fill) {
  Image out;
  shift_bilinear_into(src, dx, dy, out, fill);
  return out;
}

void shift_bilinear_into(const Image& src, double dx, double dy, Image& out,
                         float fill) {
  LITHOGAN_REQUIRE(&out != &src, "shift_bilinear_into output must not alias input");
  out.resize(src.channels(), src.height(), src.width());
  for (std::size_t c = 0; c < src.channels(); ++c) {
    const auto cc = static_cast<std::ptrdiff_t>(c);
    for (std::size_t y = 0; y < src.height(); ++y) {
      const double sy = static_cast<double>(y) - dy;
      const auto y0 = static_cast<std::ptrdiff_t>(std::floor(sy));
      const double wy = sy - static_cast<double>(y0);
      for (std::size_t x = 0; x < src.width(); ++x) {
        const double sx = static_cast<double>(x) - dx;
        const auto x0 = static_cast<std::ptrdiff_t>(std::floor(sx));
        const double wx = sx - static_cast<double>(x0);
        const double v =
            (1 - wy) * ((1 - wx) * src.at_or(cc, y0, x0, fill) +
                        wx * src.at_or(cc, y0, x0 + 1, fill)) +
            wy * ((1 - wx) * src.at_or(cc, y0 + 1, x0, fill) +
                  wx * src.at_or(cc, y0 + 1, x0 + 1, fill));
        out.at(c, y, x) = static_cast<float>(v);
      }
    }
  }
}

void fill_rect(Image& img, std::size_t c, const geometry::Rect& rect, float value) {
  LITHOGAN_REQUIRE(c < img.channels(), "channel out of range");
  if (rect.is_empty()) return;
  const auto y_begin = std::max<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(std::ceil(rect.lo.y - 0.5)), 0);
  const auto y_end = std::min<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(std::floor(rect.hi.y - 0.5)),
      static_cast<std::ptrdiff_t>(img.height()) - 1);
  const auto x_begin = std::max<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(std::ceil(rect.lo.x - 0.5)), 0);
  const auto x_end = std::min<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(std::floor(rect.hi.x - 0.5)),
      static_cast<std::ptrdiff_t>(img.width()) - 1);
  for (std::ptrdiff_t y = y_begin; y <= y_end; ++y) {
    for (std::ptrdiff_t x = x_begin; x <= x_end; ++x) {
      img.at(c, static_cast<std::size_t>(y), static_cast<std::size_t>(x)) = value;
    }
  }
}

double mean_absolute_difference(const Image& a, const Image& b) {
  LITHOGAN_REQUIRE(a.channels() == b.channels() && a.height() == b.height() &&
                       a.width() == b.width(),
                   "image shape mismatch");
  if (a.data().empty()) return 0.0;
  double acc = 0.0;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    acc += std::abs(static_cast<double>(da[i]) - static_cast<double>(db[i]));
  }
  return acc / static_cast<double>(da.size());
}

}  // namespace lithogan::image
