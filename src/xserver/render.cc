// Screen rendering: replays window display lists into an ASCII canvas in
// stacking order, honoring borders and SHAPE regions.  This is how the
// paper's figure screenshots are regenerated.
#include <algorithm>

#include "src/xserver/server.h"

namespace xserver {

// Accounting for the drawing clients request (Server::Draw funnels every op
// through here).  "Pixels" are canvas cells the op covers before clipping:
// a stable proxy for repaint work that lets tests assert the retained
// pipeline draws strictly less than eager rendering.
void Server::RecordDraw(const DrawOp& op) {
  ++render_stats_.draw_ops;
  int64_t width = std::max(0, op.rect.width);
  int64_t height = std::max(0, op.rect.height);
  switch (op.kind) {
    case DrawOp::Kind::kFillRect:
      ++render_stats_.rects_drawn;
      render_stats_.pixels_drawn += width * height;
      break;
    case DrawOp::Kind::kBorder:
      ++render_stats_.rects_drawn;
      // Outline only: both horizontal edges plus the remaining verticals.
      render_stats_.pixels_drawn +=
          2 * width + 2 * std::max<int64_t>(0, height - 2);
      break;
    case DrawOp::Kind::kText:
    case DrawOp::Kind::kTextCentered:
      render_stats_.pixels_drawn += static_cast<int64_t>(op.text.size());
      break;
    case DrawOp::Kind::kBitmap:
      ++render_stats_.rects_drawn;
      render_stats_.pixels_drawn +=
          static_cast<int64_t>(op.bitmap.width()) * op.bitmap.height();
      break;
  }
}

void Server::RenderWindow(const WindowRec& win, const xbase::Point& origin,
                          const xbase::Region& clip, xbase::Canvas* canvas) const {
  if (!win.mapped || win.window_class == xproto::WindowClass::kInputOnly) {
    return;
  }
  xbase::Rect bounds{origin.x, origin.y, win.geometry.width, win.geometry.height};
  xbase::Region window_clip = clip.Intersect(xbase::Region(bounds));
  if (win.shape.has_value()) {
    window_clip = window_clip.Intersect(win.shape->Translated(origin.x, origin.y));
  }

  // Border is drawn outside the window area, clipped by the parent only.
  if (win.border_width > 0) {
    canvas->SetClip(clip);
    xbase::Rect border{origin.x - win.border_width, origin.y - win.border_width,
                       win.geometry.width + 2 * win.border_width,
                       win.geometry.height + 2 * win.border_width};
    canvas->DrawBorder(border, '=', '|', '#');
  }

  if (window_clip.IsEmpty()) {
    return;
  }
  canvas->SetClip(window_clip);
  // Background clear costs what the visible damage covers, not what the
  // window covers: the fill is pre-clipped to the window clip's bounding
  // box (the clip still applies, so output is unchanged).
  canvas->FillRect(bounds.Intersection(window_clip.Bounds()), win.background);
  for (const DrawOp& op : win.draw_ops) {
    xbase::Rect r = op.rect.Translated(origin.x, origin.y);
    switch (op.kind) {
      case DrawOp::Kind::kFillRect:
        canvas->FillRect(r, op.fill);
        break;
      case DrawOp::Kind::kBorder:
        canvas->DrawBorder(r, '-', '|', '+');
        break;
      case DrawOp::Kind::kText:
        canvas->DrawText(r.x, r.y, op.text);
        break;
      case DrawOp::Kind::kTextCentered:
        canvas->DrawTextCentered(r.x, r.width, r.y, op.text);
        break;
      case DrawOp::Kind::kBitmap:
        canvas->DrawBitmap(r.x, r.y, op.bitmap, op.fill == ' ' ? '#' : op.fill);
        break;
    }
  }

  for (xproto::WindowId child_id : win.children) {
    const WindowRec* child = Find(child_id);
    if (child != nullptr) {
      xbase::Point child_origin{origin.x + child->geometry.x, origin.y + child->geometry.y};
      RenderWindow(*child, child_origin, window_clip, canvas);
    }
  }
  canvas->ClearClip();
}

xbase::Canvas Server::RenderScreen(int number) const {
  const ScreenInfo& info = screen(number);
  xbase::Canvas canvas(info.size.width, info.size.height, ' ');
  const WindowRec* root = Find(info.root);
  if (root != nullptr) {
    RenderWindow(*root, {0, 0}, xbase::Region(xbase::Rect{0, 0, info.size.width,
                                                          info.size.height}),
                 &canvas);
  }
  return canvas;
}

}  // namespace xserver
