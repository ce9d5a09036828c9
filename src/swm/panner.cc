#include "src/swm/panner.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/swm/vdesk.h"
#include "src/swm/wm.h"

namespace swm {

namespace {

xserver::DrawOp Fill(const xbase::Rect& rect, char fill) {
  xserver::DrawOp op;
  op.kind = xserver::DrawOp::Kind::kFillRect;
  op.rect = rect;
  op.fill = fill;
  return op;
}

xserver::DrawOp Border(const xbase::Rect& rect) {
  xserver::DrawOp op;
  op.kind = xserver::DrawOp::Kind::kBorder;
  op.rect = rect;
  return op;
}

// True when `rect` covers a cell of `outline`'s 1-cell ring, which the
// outline op paints over any box.
bool TouchesRing(const xbase::Rect& rect, const xbase::Rect& outline) {
  xbase::Rect hit = rect.Intersection(outline);
  xbase::Rect inside{outline.x + 1, outline.y + 1, outline.width - 2, outline.height - 2};
  return !hit.IsEmpty() && !inside.Contains(hit);
}

}  // namespace

Panner::Panner(WindowManager* wm, int screen, int scale)
    : wm_(wm), screen_(screen), scale_(scale) {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  XB_CHECK(desk != nullptr);
  xbase::Size desk_size = desk->size();
  xbase::Size panner_size{std::max(4, desk_size.width / scale_),
                          std::max(3, desk_size.height / scale_)};
  xbase::Size view = wm_->display().DisplaySize(screen_);
  size_ = panner_size;

  // The panner is a client window owned by the WM's aux connection, so it
  // is reparented, decorated and manageable "just like any other client
  // window" (paper §6.1).
  xlib::ClientAppConfig config;
  config.name = "Virtual Desktop";
  config.wm_class = {"panner", "SwmPanner"};
  config.command = {};  // Internal: not session-restarted.
  config.screen = screen_;
  config.geometry = xbase::Rect{view.width - panner_size.width - 4,
                                view.height - panner_size.height - 4,
                                panner_size.width, panner_size.height};
  config.size_hint_flags = xproto::kUSPosition | xproto::kUSSize;
  app_ = std::make_unique<xlib::ClientApp>(&wm_->display().server(), config);
  wm_->RegisterInternalWindow(app_->window());

  // The WM listens for pointer interactions on the panner client window.
  wm_->display().SelectInput(app_->window(),
                             xproto::kButtonPressMask | xproto::kButtonReleaseMask |
                                 xproto::kPointerMotionMask);
}

Panner::~Panner() = default;

void Panner::Map() {
  app_->Map();
  Update();
}

xbase::Point Panner::PannerToDesktop(const xbase::Point& p) const {
  return {p.x * scale_, p.y * scale_};
}

xbase::Point Panner::DesktopToPanner(const xbase::Point& p) const {
  return {p.x / scale_, p.y / scale_};
}

void Panner::Update(xproto::WindowId window) {
  dirty_.push_back(window);
  Update();
}

void Panner::Update() {
  stale_ = true;
  if (wm_->frame_hold_depth_ == 0) {
    Reconcile();
  }
}

void Panner::Redraw() {
  full_redraw_ = true;
  Update();
}

std::optional<xbase::Rect> Panner::BoxOf(const ManagedClient& client,
                                         const VirtualDesktop& desk) const {
  // "The panner shows a miniature representation of all windows currently
  // on the Virtual Desktop."  With multiple desktops, only the active one.
  if (client.screen != screen_ || client.sticky || client.state != xproto::WmState::kNormal ||
      client.frame == nullptr || client.window == app_->window()) {
    return std::nullopt;
  }
  // Frames on other desktops hang under those desktops' windows.  A frame
  // keeps the parent BuildFrame gave it (ReDecorate rebuilds the frame
  // rather than moving it), so no QueryTree is needed.
  if (client.frame->parent_window() != desk.window()) {
    return std::nullopt;
  }
  const xbase::Rect& frame = client.frame->geometry();
  xbase::Point top_left = DesktopToPanner(frame.origin());
  return xbase::Rect{top_left.x, top_left.y, std::max(1, frame.width / scale_),
                     std::max(1, frame.height / scale_)};
}

xbase::Rect Panner::OutlineOf(const VirtualDesktop& desk) const {
  // "It also displays an outline indicating your current position."
  xbase::Point view_origin = DesktopToPanner(desk.offset());
  xbase::Size view = desk.viewport();
  return xbase::Rect{view_origin.x, view_origin.y, std::max(2, view.width / scale_),
                     std::max(2, view.height / scale_)};
}

void Panner::Reconcile() {
  if (!stale_) {
    return;
  }
  stale_ = false;
  VirtualDesktop* desk = wm_->vdesk(screen_);
  if (desk == nullptr) {
    dirty_.clear();
    return;
  }
  xbase::Rect outline = OutlineOf(*desk);
  bool full = full_redraw_ || outline != shown_outline_ || desk->window() != shown_desktop_;
  if (!full) {
    bool redraw_outline = Diff(*desk, outline);
    size_t ops = erases_.size() + draws_.size() + (redraw_outline ? 1 : 0);
    full = list_ops_ + ops > ListBound(shown_.size());
    if (!full) {
      xlib::Display& dpy = wm_->display();
      for (const xbase::Rect& rect : erases_) {
        dpy.Draw(app_->window(), Fill(rect, app_->background()));
      }
      for (const xbase::Rect& rect : draws_) {
        dpy.Draw(app_->window(), Fill(rect, 'o'));
      }
      if (redraw_outline) {
        dpy.Draw(app_->window(), Border(outline));
      }
      list_ops_ += ops;
    }
  }
  if (full) {
    SendFullRedraw(*desk, outline);
    shown_outline_ = outline;
    shown_desktop_ = desk->window();
    full_redraw_ = false;
  }
  dirty_.clear();
}

bool Panner::Diff(const VirtualDesktop& desk, const xbase::Rect& outline) {
  erases_.clear();
  draws_.clear();
  removed_.clear();
  bool touches_ring = false;
  // Window order, as a walk over clients_ would visit them.
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  for (xproto::WindowId window : dirty_) {
    const ManagedClient* client = wm_->FindClient(window);
    std::optional<xbase::Rect> box = client != nullptr ? BoxOf(*client, desk) : std::nullopt;
    auto it = std::lower_bound(
        shown_.begin(), shown_.end(), window,
        [](const Box& shown, xproto::WindowId w) { return shown.window < w; });
    if (it != shown_.end() && it->window == window) {
      if (box == it->rect) {
        continue;
      }
      removed_.push_back(it->rect);
      if (!box.has_value()) {
        shown_.erase(it);
        continue;
      }
      it->rect = *box;
    } else if (box.has_value()) {
      shown_.insert(it, Box{window, *box});
    } else {
      continue;
    }
    draws_.push_back(*box);
    touches_ring = touches_ring || TouchesRing(*box, outline);
  }
  // Erasing is X11 ClearArea done on the client side: fill with the window
  // background the part of the old rect that no box still shown covers.
  // Cells a remaining box covers already show 'o'.
  for (const xbase::Rect& old_rect : removed_) {
    cover_.Clear();
    for (const Box& box : shown_) {
      if (box.rect.Intersects(old_rect)) {
        cover_.UnionRect(box.rect.Intersection(old_rect));
      }
    }
    uncovered_.SetRect(old_rect);
    uncovered_.SubtractWith(cover_);
    for (const xbase::Rect& rect : uncovered_.rects()) {
      erases_.push_back(rect);
      touches_ring = touches_ring || TouchesRing(rect, outline);
    }
  }
  return touches_ring;
}

void Panner::SendFullRedraw(const VirtualDesktop& desk, const xbase::Rect& outline) {
  // The one walk over every client.
  shown_.clear();
  for (const auto& [window, client] : wm_->clients_) {
    if (std::optional<xbase::Rect> box = BoxOf(*client, desk)) {
      shown_.push_back(Box{window, *box});
    }
  }
  xlib::Display& dpy = wm_->display();
  dpy.ClearWindow(app_->window());
  for (const Box& box : shown_) {
    dpy.Draw(app_->window(), Fill(box.rect, 'o'));
  }
  dpy.Draw(app_->window(), Border(outline));
  list_ops_ = shown_.size() + 1;
}

bool Panner::HandleButton(const xproto::ButtonEvent& event) {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  if (desk == nullptr) {
    return false;
  }
  if (event.press) {
    if (event.button == 1) {
      // Button 1 moves the position outline: pan so the pressed point is
      // the viewport center.
      panning_ = true;
      xbase::Point desktop = PannerToDesktop(event.pos);
      xbase::Size view = desk->viewport();
      desk->PanTo({desktop.x - view.width / 2, desktop.y - view.height / 2});
      wm_->DesktopViewChanged(screen_);
      return true;
    }
    if (event.button == 2) {
      // Button 2 over a miniature window starts a move of that window.
      xbase::Point desktop = PannerToDesktop(event.pos);
      for (ManagedClient* client : wm_->Clients()) {
        if (client->screen != screen_ || client->sticky ||
            client->state != xproto::WmState::kNormal || client->frame == nullptr ||
            client->window == app_->window()) {
          continue;
        }
        if (client->frame->geometry().Contains(desktop)) {
          drag_window_ = client->window;
          drag_offset_ = {desktop.x - client->frame->geometry().x,
                          desktop.y - client->frame->geometry().y};
          return true;
        }
      }
      return true;  // Press in empty panner area: consumed, no drag.
    }
    return false;
  }

  // Releases.
  if (event.button == 1 && panning_) {
    panning_ = false;
    return true;
  }
  if (event.button == 2 && drag_window_ != xproto::kNone) {
    ManagedClient* client = wm_->FindClient(drag_window_);
    drag_window_ = xproto::kNone;
    if (client == nullptr || client->frame == nullptr) {
      return true;
    }
    // Released inside the panner: drop at the miniature position.  Released
    // outside: a full-size outline move — drop at the pointer's desktop
    // position (paper §6.1).
    if (xbase::Rect{0, 0, size_.width, size_.height}.Contains(event.pos)) {
      xbase::Point desktop = PannerToDesktop(event.pos);
      wm_->MoveFrameTo(client, {desktop.x - drag_offset_.x, desktop.y - drag_offset_.y});
    } else {
      xbase::Point desktop = desk->ScreenToDesktop(event.root_pos);
      wm_->MoveFrameTo(client, desktop);
    }
    return true;
  }
  return false;
}

bool Panner::HandleMotion(const xproto::MotionEvent& event) {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  if (desk == nullptr) {
    return false;
  }
  if (panning_) {
    xbase::Point desktop = PannerToDesktop(event.pos);
    xbase::Size view = desk->viewport();
    desk->PanTo({desktop.x - view.width / 2, desktop.y - view.height / 2});
    wm_->DesktopViewChanged(screen_);
    return true;
  }
  if (drag_window_ != xproto::kNone) {
    return true;  // Outline tracking only; the drop happens on release.
  }
  return false;
}

void Panner::OnResized(const xbase::Size& new_size) {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  if (desk == nullptr) {
    return;
  }
  size_ = new_size;
  desk->Resize({new_size.width * scale_, new_size.height * scale_});
  Redraw();
}

}  // namespace swm
