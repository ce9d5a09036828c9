// Character-cell canvas used as the simulated framebuffer.
//
// The paper's figures are screenshots; this reproduction renders windows,
// decorations and the Virtual Desktop panner as deterministic ASCII art so
// the figures can be regenerated and diffed in tests.  One canvas cell
// corresponds to one simulated pixel.
//
// Drawing is span-based: every operation precomputes its clip intersection
// once (clip regions are y-x banded rect lists, so the intersection is a
// handful of rectangles) and then writes whole rows with std::fill /
// std::copy instead of testing bounds and clip per pixel.
#ifndef SRC_BASE_CANVAS_H_
#define SRC_BASE_CANVAS_H_

#include <string>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/geometry.h"
#include "src/base/region.h"

namespace xbase {

class Canvas {
 public:
  Canvas() = default;
  Canvas(int width, int height, char background = ' ');

  int width() const { return width_; }
  int height() const { return height_; }
  Size size() const { return {width_, height_}; }

  char At(int x, int y) const;
  void Put(int x, int y, char c);

  void Clear(char background = ' ');
  void FillRect(const Rect& r, char c);
  // Single-cell border drawn just inside `r` using box-drawing ASCII
  // (+, -, |); degenerate rects are skipped.
  void DrawBorder(const Rect& r, char horizontal = '-', char vertical = '|',
                  char corner = '+');
  void DrawText(int x, int y, const std::string& text);
  // Text centered horizontally within [x, x+width).
  void DrawTextCentered(int x, int width, int y, const std::string& text);
  void DrawBitmap(int x, int y, const Bitmap& bm, char on = '#');

  // Restricts all subsequent drawing to the region (canvas coordinates).
  // An empty clip means "no clipping".
  void SetClip(const Region& clip) { clip_ = clip; }
  void ClearClip() { clip_ = Region(); }

  std::string ToString() const;

 private:
  bool Clipped(int x, int y) const;
  // Row [x0, x1) × {y}, already clamped to the canvas, no clip test.
  void FillRowRaw(int x0, int x1, int y, char c);
  void CopyRowRaw(int x0, int y, const char* src, int count);
  // Applies `fn(x0, x1, y)` to every maximal span of `r` ∩ canvas ∩ clip.
  template <typename Fn>
  void ForEachSpan(const Rect& r, Fn&& fn);

  int width_ = 0;
  int height_ = 0;
  std::vector<char> cells_;
  Region clip_;
};

}  // namespace xbase

#endif  // SRC_BASE_CANVAS_H_
