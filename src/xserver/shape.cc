// SHAPE extension: non-rectangular bounding shapes (paper §5).
#include "src/xserver/server.h"

namespace xserver {

using xproto::ClientId;
using xproto::Event;
using xproto::WindowId;

void Server::SetShapeInternal(ClientId client, WindowRec* win,
                              std::optional<xbase::Region> region) {
  (void)client;
  win->shape = std::move(region);
  Tick();
  xproto::ShapeNotifyEvent notify;
  notify.window = win->id;
  notify.shaped = win->shape.has_value();
  notify.extents = win->shape.has_value()
                       ? win->shape->Bounds()
                       : xbase::Rect{0, 0, win->geometry.width, win->geometry.height};
  for (const auto& [cid, enabled] : win->shape_selections) {
    if (enabled) {
      Enqueue(cid, Event{notify});
    }
  }
  // Input follows the bounding shape, so the shape may have moved the
  // pointer into or out of the window.
  if (CoversPointer(*win)) {
    UpdatePointerWindow();
  }
}

bool Server::ShapeSetRegion(ClientId client, WindowId window, xbase::Region region) {
  RequestGuard req(this, client, xproto::RequestCode::kShapeOp);
  if (!req.ok()) {
    return false;
  }
  if (region.rects().size() > xproto::kMaxWireRects) {
    return RaiseError(client, xproto::ErrorCode::kBadLength, window);
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, xproto::ErrorCode::kBadWindow, window);
  }
  SetShapeInternal(client, win, std::move(region));
  return true;
}

bool Server::ShapeClear(ClientId client, WindowId window) {
  RequestGuard req(this, client, xproto::RequestCode::kShapeOp);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, xproto::ErrorCode::kBadWindow, window);
  }
  SetShapeInternal(client, win, std::nullopt);
  return true;
}

bool Server::ShapeSelect(ClientId client, WindowId window, bool enable) {
  RequestGuard req(this, client, xproto::RequestCode::kShapeOp);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr || !HasClient(client)) {
    return RaiseError(client, xproto::ErrorCode::kBadWindow, window);
  }
  if (enable) {
    win->shape_selections[client] = true;
    Reference(client, window);
  } else {
    win->shape_selections.erase(client);
    Unreference(client, *win);
  }
  return true;
}

}  // namespace xserver
