#include "src/swm/panner.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/swm/vdesk.h"
#include "src/swm/wm.h"

namespace swm {

Panner::Panner(WindowManager* wm, int screen, int scale)
    : wm_(wm), screen_(screen), scale_(scale) {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  XB_CHECK(desk != nullptr);
  xbase::Size desk_size = desk->size();
  xbase::Size panner_size{std::max(4, desk_size.width / scale_),
                          std::max(3, desk_size.height / scale_)};
  xbase::Size view = wm_->display().DisplaySize(screen_);

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

void Panner::Update() {
  VirtualDesktop* desk = wm_->vdesk(screen_);
  if (desk == nullptr) {
    return;
  }
  xlib::Display& dpy = wm_->display();
  xproto::WindowId window = app_->window();
  std::optional<xbase::Rect> geometry = dpy.GetGeometry(window);
  if (!geometry.has_value()) {
    return;
  }
  dpy.ClearWindow(window);

  // "The panner shows a miniature representation of all windows currently
  // on the Virtual Desktop."  With multiple desktops, only the active one.
  for (ManagedClient* client : wm_->Clients()) {
    if (client->screen != screen_ || client->sticky ||
        client->state != xproto::WmState::kNormal || client->frame == nullptr) {
      continue;
    }
    if (client->window == app_->window()) {
      continue;
    }
    // Frames on other desktops hang under those desktops' windows.  A
    // frame keeps the parent BuildFrame gave it (ReDecorate rebuilds the
    // frame rather than moving it), so no QueryTree is needed.
    if (client->frame->parent_window() != desk->window()) {
      continue;
    }
    xbase::Rect frame = client->frame->geometry();
    xbase::Point top_left = DesktopToPanner(frame.origin());
    xserver::DrawOp box;
    box.kind = xserver::DrawOp::Kind::kFillRect;
    box.rect = xbase::Rect{top_left.x, top_left.y, std::max(1, frame.width / scale_),
                           std::max(1, frame.height / scale_)};
    box.fill = 'o';
    dpy.Draw(window, box);
  }

  // "It also displays an outline indicating your current position."
  xbase::Point view_origin = DesktopToPanner(desk->offset());
  xbase::Size view = desk->viewport();
  xserver::DrawOp outline;
  outline.kind = xserver::DrawOp::Kind::kBorder;
  outline.rect = xbase::Rect{view_origin.x, view_origin.y,
                             std::max(2, view.width / scale_),
                             std::max(2, view.height / scale_)};
  dpy.Draw(window, outline);
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
    std::optional<xbase::Rect> panner_geometry = wm_->display().GetGeometry(app_->window());
    xbase::Rect local{0, 0, panner_geometry.has_value() ? panner_geometry->width : 0,
                      panner_geometry.has_value() ? panner_geometry->height : 0};
    if (local.Contains(event.pos)) {
      xbase::Point desktop = PannerToDesktop(event.pos);
      wm_->MoveFrameTo(client, {desktop.x - drag_offset_.x, desktop.y - drag_offset_.y});
    } else {
      xbase::Point desktop = desk->ScreenToDesktop(event.root_pos);
      wm_->MoveFrameTo(client, desktop);
    }
    Update();
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
  desk->Resize({new_size.width * scale_, new_size.height * scale_});
  Update();
}

}  // namespace swm
