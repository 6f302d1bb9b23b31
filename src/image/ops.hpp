// Image transforms used by the data pipeline: cropping the resist window,
// shifting patterns for the dual-learning re-centering step, and drawing
// rectangles when rendering mask clips.
#pragma once

#include "geometry/primitives.hpp"
#include "image/image.hpp"

namespace lithogan::image {

/// Copies the window starting at (x0, y0) of size height x width. Pixels
/// sampled outside `src` are `fill`. Negative origins are allowed.
Image crop(const Image& src, std::ptrdiff_t x0, std::ptrdiff_t y0, std::size_t height,
           std::size_t width, float fill = 0.0f);

/// Translates by an integer pixel offset, filling vacated pixels with `fill`.
Image shift(const Image& src, std::ptrdiff_t dx, std::ptrdiff_t dy, float fill = 0.0f);

/// Translates by a fractional pixel offset with bilinear resampling
/// (out-of-range samples read `fill`). Binary images come back with soft
/// edges; threshold at 0.5 to re-binarize. Needed because resist-pattern
/// placement errors are sub-pixel at coarse resolutions.
Image shift_bilinear(const Image& src, double dx, double dy, float fill = 0.0f);

/// shift_bilinear writing into a caller-owned output (resized to match
/// `src`; reusing the same output across same-sized calls is
/// allocation-free). `out` must not alias `src`.
void shift_bilinear_into(const Image& src, double dx, double dy, Image& out,
                         float fill = 0.0f);

/// Sets channel `c` to `value` inside `rect` (pixel coordinates; a pixel is
/// painted when its center falls inside). Other channels are untouched.
void fill_rect(Image& img, std::size_t c, const geometry::Rect& rect, float value);

/// Per-pixel |a - b| averaged over all channels and pixels.
double mean_absolute_difference(const Image& a, const Image& b);

}  // namespace lithogan::image
