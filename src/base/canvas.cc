#include "src/base/canvas.h"

#include <algorithm>

#include "src/base/logging.h"

namespace xbase {

Canvas::Canvas(int width, int height, char background) : width_(width), height_(height) {
  XB_CHECK_GE(width, 0);
  XB_CHECK_GE(height, 0);
  cells_.assign(static_cast<size_t>(width) * height, background);
}

char Canvas::At(int x, int y) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) {
    return '\0';
  }
  return cells_[static_cast<size_t>(y) * width_ + x];
}

bool Canvas::Clipped(int x, int y) const {
  return !clip_.IsEmpty() && !clip_.Contains({x, y});
}

void Canvas::Put(int x, int y, char c) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_ || Clipped(x, y)) {
    return;
  }
  cells_[static_cast<size_t>(y) * width_ + x] = c;
}

void Canvas::Clear(char background) {
  std::fill(cells_.begin(), cells_.end(), background);
}

void Canvas::FillRowRaw(int x0, int x1, int y, char c) {
  char* row = cells_.data() + static_cast<size_t>(y) * width_;
  std::fill(row + x0, row + x1, c);
}

void Canvas::CopyRowRaw(int x0, int y, const char* src, int count) {
  char* row = cells_.data() + static_cast<size_t>(y) * width_;
  std::copy(src, src + count, row + x0);
}

// The clip intersection is computed once per operation: each banded clip
// rect contributes at most one span run per row it covers, so the inner
// loops below never test bounds or clip per pixel.
template <typename Fn>
void Canvas::ForEachSpan(const Rect& r, Fn&& fn) {
  Rect clamped = r.Intersection(Rect{0, 0, width_, height_});
  if (clamped.IsEmpty()) {
    return;
  }
  if (clip_.IsEmpty()) {
    for (int y = clamped.y; y < clamped.Bottom(); ++y) {
      fn(clamped.x, clamped.Right(), y);
    }
    return;
  }
  for (const Rect& band : clip_.rects()) {
    if (band.y >= clamped.Bottom()) {
      break;  // Clip rects are sorted by y.
    }
    Rect part = band.Intersection(clamped);
    if (part.IsEmpty()) {
      continue;
    }
    for (int y = part.y; y < part.Bottom(); ++y) {
      fn(part.x, part.Right(), y);
    }
  }
}

void Canvas::FillRect(const Rect& r, char c) {
  ForEachSpan(r, [&](int x0, int x1, int y) { FillRowRaw(x0, x1, y, c); });
}

void Canvas::DrawBorder(const Rect& r, char horizontal, char vertical, char corner) {
  if (r.width < 1 || r.height < 1) {
    return;
  }
  // Same overdraw order as per-pixel drawing: horizontals, then verticals
  // (which own the column cells), then the four corner cells.
  FillRect(Rect{r.x, r.y, r.width, 1}, horizontal);
  FillRect(Rect{r.x, r.Bottom() - 1, r.width, 1}, horizontal);
  FillRect(Rect{r.x, r.y, 1, r.height}, vertical);
  FillRect(Rect{r.Right() - 1, r.y, 1, r.height}, vertical);
  Put(r.x, r.y, corner);
  Put(r.Right() - 1, r.y, corner);
  Put(r.x, r.Bottom() - 1, corner);
  Put(r.Right() - 1, r.Bottom() - 1, corner);
}

void Canvas::DrawText(int x, int y, const std::string& text) {
  Rect row{x, y, static_cast<int>(text.size()), 1};
  ForEachSpan(row, [&](int x0, int x1, int span_y) {
    CopyRowRaw(x0, span_y, text.data() + (x0 - x), x1 - x0);
  });
}

void Canvas::DrawTextCentered(int x, int width, int y, const std::string& text) {
  int tx = x + std::max(0, (width - static_cast<int>(text.size())) / 2);
  DrawText(tx, y, text);
}

void Canvas::DrawBitmap(int x, int y, const Bitmap& bm, char on) {
  Rect bounds{x, y, bm.width(), bm.height()};
  ForEachSpan(bounds, [&](int x0, int x1, int span_y) {
    char* row = cells_.data() + static_cast<size_t>(span_y) * width_;
    int by = span_y - y;
    for (int cx = x0; cx < x1; ++cx) {
      if (bm.Get(cx - x, by)) {
        row[cx] = on;
      }
    }
  });
}

std::string Canvas::ToString() const {
  std::string out;
  out.reserve(static_cast<size_t>(width_ + 1) * height_);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      out.push_back(cells_[static_cast<size_t>(y) * width_ + x]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace xbase
