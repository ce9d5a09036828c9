#include "src/swm/vdesk.h"

#include <algorithm>

#include "src/base/logging.h"

namespace swm {

VirtualDesktop::VirtualDesktop(xlib::Display* display, int screen, xbase::Size size)
    : display_(display), screen_(screen) {
  xbase::Size viewport_size = display_->DisplaySize(screen);
  size_.width = std::clamp(size.width, viewport_size.width, xproto::kMaxCoordinate);
  size_.height = std::clamp(size.height, viewport_size.height, xproto::kMaxCoordinate);
  if (size.width > xproto::kMaxCoordinate || size.height > xproto::kMaxCoordinate) {
    XB_LOG(Warning) << "virtual desktop clamped to " << xproto::kMaxCoordinate
                    << " (requested " << size << ")";
  }
  window_ = display_->CreateWindow(display_->RootWindow(screen),
                                   xbase::Rect{0, 0, size_.width, size_.height});
  display_->SetWindowBackground(window_, '.');
  // Clients discover the virtual root via __SWM_VROOT.
  display_->SetWindowIdProperty(window_, xproto::kAtomSwmVroot, window_);
  display_->LowerWindow(window_);
  display_->MapWindow(window_);
}

VirtualDesktop::~VirtualDesktop() {
  if (display_->GetGeometry(window_).has_value()) {
    display_->DestroyWindow(window_);
  }
}

xbase::Size VirtualDesktop::viewport() const { return display_->DisplaySize(screen_); }

bool VirtualDesktop::PanTo(xbase::Point target) {
  xbase::Size view = viewport();
  xbase::Point clamped{std::clamp(target.x, 0, std::max(0, size_.width - view.width)),
                       std::clamp(target.y, 0, std::max(0, size_.height - view.height))};
  if (clamped == offset_) {
    return false;
  }
  offset_ = clamped;
  // Panning = moving the desktop window to the opposite offset.  Client
  // windows get no ConfigureNotify because they have not moved with respect
  // to their (virtual) root — exactly the paper's §6.3.1 situation.
  display_->MoveWindow(window_, {-offset_.x, -offset_.y});
  return true;
}

void VirtualDesktop::Resize(xbase::Size new_size) {
  xbase::Size view = viewport();
  size_.width = std::clamp(new_size.width, view.width, xproto::kMaxCoordinate);
  size_.height = std::clamp(new_size.height, view.height, xproto::kMaxCoordinate);
  display_->ResizeWindow(window_, size_);
  PanTo(offset_);  // Re-clamp the offset against the new size.
}

bool VirtualDesktop::IsVisible(const xbase::Rect& desktop_rect) const {
  xbase::Size view = viewport();
  return desktop_rect.Intersects(
      xbase::Rect{offset_.x, offset_.y, view.width, view.height});
}

}  // namespace swm
