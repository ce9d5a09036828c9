// 1-bit-deep images: icon glyphs, button images and SHAPE masks.
#ifndef SRC_BASE_BITMAP_H_
#define SRC_BASE_BITMAP_H_

#include <optional>
#include <string>
#include <vector>

#include "src/base/region.h"

namespace xbase {

class Bitmap {
 public:
  Bitmap() = default;
  Bitmap(int width, int height);
  // Adopts row-major cells, one byte per pixel, width * height of them; any
  // nonzero byte is a set pixel.  The wire form of a bitmap draw.
  Bitmap(int width, int height, std::vector<uint8_t> cells);

  int width() const { return width_; }
  int height() const { return height_; }
  bool IsEmpty() const { return width_ <= 0 || height_ <= 0; }

  bool Get(int x, int y) const;
  void Set(int x, int y, bool value);

  void Fill(bool value);
  void FillRect(const Rect& r, bool value);

  // Number of set pixels.
  int64_t PopCount() const;

  // The set of set pixels as a banded region — this is how the server turns
  // a shape mask into a bounding region.
  Region ToRegion() const;

  // Parses a trivially structured ASCII art literal: rows of '#'/'.'
  // separated by '\n'; all rows must have equal length.
  static std::optional<Bitmap> FromAscii(const std::string& art);
  std::string ToAscii() const;

  // Gives up the row-major cells (0 or 1 each) and leaves the bitmap empty.
  std::vector<uint8_t> TakeCells();

  friend bool operator==(const Bitmap&, const Bitmap&) = default;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<uint8_t> bits_;  // Row-major, one byte per pixel for simplicity.
};

// Built-in images referenced by the paper / swm templates.
const Bitmap& XLogo32();        // Default icon image ("xlogo32 bitmap file").
const Bitmap& RoundedMask16();  // Small rounded-corner shape mask.
const Bitmap& CircleMask(int diameter);  // oclock-style circular shape.

}  // namespace xbase

#endif  // SRC_BASE_BITMAP_H_
