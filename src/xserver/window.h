// Server-side window record.  Internal to the server; clients see windows
// only through ids and requests.
#ifndef SRC_XSERVER_WINDOW_H_
#define SRC_XSERVER_WINDOW_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/geometry.h"
#include "src/base/region.h"
#include "src/xproto/types.h"

namespace xserver {

// A recorded drawing command.  The simulator has no pixel formats; windows
// carry a display list that the renderer replays into the ASCII canvas.
struct DrawOp {
  enum class Kind {
    kFillRect,
    kBorder,
    kText,
    kTextCentered,
    kBitmap,
  };
  Kind kind = Kind::kFillRect;
  xbase::Rect rect;       // Window-relative.
  std::string text;
  xbase::Bitmap bitmap;
  char fill = ' ';
};

struct PropertyRec {
  xproto::AtomId type = xproto::kAtomNone;
  int format = 8;  // 8, 16 or 32.
  std::vector<uint8_t> data;

  friend bool operator==(const PropertyRec&, const PropertyRec&) = default;
};

struct PassiveGrab {
  xproto::ClientId client = 0;
  int button = 0;  // 0 = AnyButton.
  uint32_t modifiers = 0;
  uint32_t event_mask = 0;
};

struct WindowRec {
  xproto::WindowId id = xproto::kNone;
  xproto::WindowId parent = xproto::kNone;
  xproto::WindowClass window_class = xproto::WindowClass::kInputOutput;

  // Geometry relative to parent (excluding the border).
  xbase::Rect geometry;
  int border_width = 0;

  bool override_redirect = false;
  bool mapped = false;

  // Children in stacking order, bottom-most first.
  std::vector<xproto::WindowId> children;

  xproto::ClientId owner = 0;

  // Per-client event selections.
  std::map<xproto::ClientId, uint32_t> selections;

  // Clients that asked for ShapeNotify on this window.
  std::map<xproto::ClientId, bool> shape_selections;

  std::map<xproto::AtomId, PropertyRec> properties;

  std::vector<PassiveGrab> passive_grabs;

  // Clients whose save-set includes this window.
  std::vector<xproto::ClientId> save_set_clients;

  // SHAPE: bounding shape in window coordinates; nullopt = rectangular.
  std::optional<xbase::Region> shape;

  // Rendering state.
  char background = ' ';
  std::vector<DrawOp> draw_ops;
  std::string cursor_name;  // Informational only.

  uint32_t AllSelections() const {
    uint32_t mask = 0;
    for (const auto& [client, m] : selections) {
      mask |= m;
    }
    return mask;
  }
};

}  // namespace xserver

#endif  // SRC_XSERVER_WINDOW_H_
