#include "src/base/bitmap.h"

#include <map>
#include <sstream>

#include "src/base/logging.h"

namespace xbase {

Bitmap::Bitmap(int width, int height) : width_(width), height_(height) {
  XB_CHECK_GE(width, 0);
  XB_CHECK_GE(height, 0);
  bits_.assign(static_cast<size_t>(width) * height, 0);
}

Bitmap::Bitmap(int width, int height, std::vector<uint8_t> cells)
    : width_(width), height_(height), bits_(std::move(cells)) {
  XB_CHECK_GE(width, 0);
  XB_CHECK_GE(height, 0);
  XB_CHECK_EQ(bits_.size(), static_cast<size_t>(width) * height);
  for (uint8_t& bit : bits_) {
    bit = bit != 0 ? 1 : 0;
  }
}

std::vector<uint8_t> Bitmap::TakeCells() {
  std::vector<uint8_t> cells;
  cells.swap(bits_);
  width_ = 0;
  height_ = 0;
  return cells;
}

bool Bitmap::Get(int x, int y) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) {
    return false;
  }
  return bits_[static_cast<size_t>(y) * width_ + x] != 0;
}

void Bitmap::Set(int x, int y, bool value) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) {
    return;
  }
  bits_[static_cast<size_t>(y) * width_ + x] = value ? 1 : 0;
}

void Bitmap::Fill(bool value) {
  std::fill(bits_.begin(), bits_.end(), value ? 1 : 0);
}

void Bitmap::FillRect(const Rect& r, bool value) {
  for (int y = std::max(0, r.y); y < std::min(height_, r.Bottom()); ++y) {
    for (int x = std::max(0, r.x); x < std::min(width_, r.Right()); ++x) {
      bits_[static_cast<size_t>(y) * width_ + x] = value ? 1 : 0;
    }
  }
}

int64_t Bitmap::PopCount() const {
  int64_t n = 0;
  for (uint8_t b : bits_) {
    n += b;
  }
  return n;
}

Region Bitmap::ToRegion() const {
  // Emit one rect per maximal horizontal run; Region canonicalization bands
  // and coalesces them.
  std::vector<Rect> rects;
  for (int y = 0; y < height_; ++y) {
    int run_start = -1;
    for (int x = 0; x <= width_; ++x) {
      bool set = x < width_ && Get(x, y);
      if (set && run_start < 0) {
        run_start = x;
      } else if (!set && run_start >= 0) {
        rects.push_back(Rect{run_start, y, x - run_start, 1});
        run_start = -1;
      }
    }
  }
  return Region(std::move(rects));
}

std::optional<Bitmap> Bitmap::FromAscii(const std::string& art) {
  std::vector<std::string> rows;
  std::string row;
  std::istringstream is(art);
  while (std::getline(is, row)) {
    if (!row.empty()) {
      rows.push_back(row);
    }
  }
  if (rows.empty()) {
    return Bitmap();
  }
  size_t width = rows[0].size();
  Bitmap bm(static_cast<int>(width), static_cast<int>(rows.size()));
  for (size_t y = 0; y < rows.size(); ++y) {
    if (rows[y].size() != width) {
      return std::nullopt;
    }
    for (size_t x = 0; x < width; ++x) {
      char c = rows[y][x];
      if (c != '#' && c != '.') {
        return std::nullopt;
      }
      bm.Set(static_cast<int>(x), static_cast<int>(y), c == '#');
    }
  }
  return bm;
}

std::string Bitmap::ToAscii() const {
  std::string out;
  out.reserve(static_cast<size_t>(width_ + 1) * height_);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      out.push_back(Get(x, y) ? '#' : '.');
    }
    out.push_back('\n');
  }
  return out;
}

const Bitmap& XLogo32() {
  // A 32x32 rendition of the classic X logo: two crossing diagonal strokes.
  static const Bitmap* logo = [] {
    auto* bm = new Bitmap(32, 32);
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 32; ++x) {
        int d1 = std::abs(x - y);
        int d2 = std::abs(x + y - 31);
        if (d1 <= 3 || d2 <= 3) {
          bm->Set(x, y, true);
        }
      }
    }
    return bm;
  }();
  return *logo;
}

const Bitmap& RoundedMask16() {
  static const Bitmap* mask = [] {
    auto* bm = new Bitmap(16, 16);
    bm->Fill(true);
    // Clip the four corner pixels.
    for (int corner = 0; corner < 4; ++corner) {
      int cx = (corner & 1) ? 15 : 0;
      int cy = (corner & 2) ? 15 : 0;
      bm->Set(cx, cy, false);
      bm->Set(cx + ((corner & 1) ? -1 : 1), cy, false);
      bm->Set(cx, cy + ((corner & 2) ? -1 : 1), false);
    }
    return bm;
  }();
  return *mask;
}

const Bitmap& CircleMask(int diameter) {
  static std::map<int, Bitmap>* cache = new std::map<int, Bitmap>();
  auto it = cache->find(diameter);
  if (it != cache->end()) {
    return it->second;
  }
  Bitmap bm(diameter, diameter);
  double r = diameter / 2.0;
  for (int y = 0; y < diameter; ++y) {
    for (int x = 0; x < diameter; ++x) {
      double dx = x + 0.5 - r;
      double dy = y + 0.5 - r;
      if (dx * dx + dy * dy <= r * r) {
        bm.Set(x, y, true);
      }
    }
  }
  return cache->emplace(diameter, std::move(bm)).first->second;
}

}  // namespace xbase
