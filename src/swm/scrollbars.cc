#include "src/swm/scrollbars.h"

#include <algorithm>

#include "src/swm/vdesk.h"
#include "src/swm/wm.h"

namespace swm {

DesktopScrollbars::DesktopScrollbars(WindowManager* wm, int screen)
    : wm_(wm), screen_(screen) {
  xlib::Display& dpy = wm_->display();
  xbase::Size view = dpy.DisplaySize(screen_);
  // Children of the real root: stuck to the glass like sticky windows.
  horizontal_ = dpy.CreateWindow(dpy.RootWindow(screen_),
                                 xbase::Rect{0, view.height - 1, view.width - 1, 1});
  vertical_ = dpy.CreateWindow(dpy.RootWindow(screen_),
                               xbase::Rect{view.width - 1, 0, 1, view.height - 1});
  for (xproto::WindowId window : {horizontal_, vertical_}) {
    dpy.SetWindowBackground(window, ':');
    dpy.SelectInput(window, xproto::kButtonPressMask | xproto::kButtonReleaseMask |
                                xproto::kPointerMotionMask);
    dpy.MapWindow(window);
    dpy.RaiseWindow(window);
  }
  Update();
}

DesktopScrollbars::~DesktopScrollbars() {
  xlib::Display& dpy = wm_->display();
  for (xproto::WindowId window : {horizontal_, vertical_}) {
    if (window != xproto::kNone && dpy.GetGeometry(window).has_value()) {
      dpy.DestroyWindow(window);
    }
  }
}

void DesktopScrollbars::DrawBar(xproto::WindowId window, int track_length,
                                int desktop_extent, int viewport_extent, int offset,
                                bool horizontal) {
  xlib::Display& dpy = wm_->display();
  dpy.ClearWindow(window);
  if (desktop_extent <= 0 || track_length <= 0) {
    return;
  }
  int thumb_length =
      std::max(1, track_length * viewport_extent / desktop_extent);
  int thumb_pos = track_length * offset / desktop_extent;
  thumb_pos = std::clamp(thumb_pos, 0, std::max(0, track_length - thumb_length));
  xserver::DrawOp thumb;
  thumb.kind = xserver::DrawOp::Kind::kFillRect;
  thumb.rect = horizontal ? xbase::Rect{thumb_pos, 0, thumb_length, 1}
                          : xbase::Rect{0, thumb_pos, 1, thumb_length};
  thumb.fill = '#';
  dpy.Draw(window, thumb);
}

void DesktopScrollbars::Update() {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  if (desk == nullptr) {
    return;
  }
  xbase::Size view = desk->viewport();
  DrawBar(horizontal_, view.width - 1, desk->size().width, view.width,
          desk->offset().x, /*horizontal=*/true);
  DrawBar(vertical_, view.height - 1, desk->size().height, view.height,
          desk->offset().y, /*horizontal=*/false);
}

int DesktopScrollbars::TrackToDesktopX(int track_pos) const {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  xbase::Size view = desk->viewport();
  int track = view.width - 1;
  if (track <= 0) {
    return 0;
  }
  return track_pos * desk->size().width / track - view.width / 2;
}

int DesktopScrollbars::TrackToDesktopY(int track_pos) const {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  xbase::Size view = desk->viewport();
  int track = view.height - 1;
  if (track <= 0) {
    return 0;
  }
  return track_pos * desk->size().height / track - view.height / 2;
}

bool DesktopScrollbars::HandleButton(const xproto::ButtonEvent& event) {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  if (desk == nullptr) {
    return false;
  }
  if (event.window == horizontal_) {
    if (event.press && event.button == 1) {
      dragging_horizontal_ = true;
      desk->PanTo({TrackToDesktopX(event.pos.x), desk->offset().y});
      wm_->DesktopViewChanged(screen_);
    } else if (!event.press) {
      dragging_horizontal_ = false;
    }
    return true;
  }
  if (event.window == vertical_) {
    if (event.press && event.button == 1) {
      dragging_vertical_ = true;
      desk->PanTo({desk->offset().x, TrackToDesktopY(event.pos.y)});
      wm_->DesktopViewChanged(screen_);
    } else if (!event.press) {
      dragging_vertical_ = false;
    }
    return true;
  }
  return false;
}

bool DesktopScrollbars::HandleMotion(const xproto::MotionEvent& event) {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  if (desk == nullptr) {
    return false;
  }
  if (dragging_horizontal_ && event.window == horizontal_) {
    desk->PanTo({TrackToDesktopX(event.pos.x), desk->offset().y});
    wm_->DesktopViewChanged(screen_);
    return true;
  }
  if (dragging_vertical_ && event.window == vertical_) {
    desk->PanTo({desk->offset().x, TrackToDesktopY(event.pos.y)});
    wm_->DesktopViewChanged(screen_);
    return true;
  }
  return event.window == horizontal_ || event.window == vertical_;
}

}  // namespace swm
