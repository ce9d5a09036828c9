#include "src/xlib/client_app.h"

#include "src/base/bitmap.h"

namespace xlib {

ClientApp::ClientApp(xserver::Server* server, const ClientAppConfig& config)
    : display_(server, config.machine), config_(config) {
  window_ = display_.CreateWindow(display_.RootWindow(config.screen), config.geometry);
  current_parent_ = display_.RootWindow(config.screen);
  believed_root_position_ = config.geometry.origin();

  SetWmName(&display_, window_, config.name);
  SetWmIconName(&display_, window_,
                config.icon_name.empty() ? config.name : config.icon_name);
  SetWmClass(&display_, window_, config.wm_class);
  SetWmCommand(&display_, window_, config.command);
  SetWmClientMachine(&display_, window_, config.machine);

  xproto::SizeHints size_hints;
  size_hints.flags = config.size_hint_flags;
  size_hints.x = config.geometry.x;
  size_hints.y = config.geometry.y;
  size_hints.width = config.geometry.width;
  size_hints.height = config.geometry.height;
  SetWmNormalHints(&display_, window_, size_hints);

  xproto::WmHints wm_hints;
  if (config.initial_state.has_value()) {
    wm_hints.flags |= xproto::kStateHint;
    wm_hints.initial_state = *config.initial_state;
  }
  if (!config.icon_pixmap_name.empty()) {
    wm_hints.flags |= xproto::kIconPixmapHint;
    wm_hints.icon_pixmap_name = config.icon_pixmap_name;
  }
  if (wm_hints.flags != 0) {
    SetWmHints(&display_, window_, wm_hints);
  }

  if (config.shaped) {
    int diameter = std::min(config.geometry.width, config.geometry.height);
    display_.ShapeSetMask(window_, xbase::CircleMask(diameter));
  }

  display_.SelectInput(window_, xproto::kStructureNotifyMask | xproto::kPropertyChangeMask);
  display_.SetWindowBackground(window_, background());
}

void ClientApp::Map() { display_.MapWindow(window_); }

void ClientApp::Unmap() { display_.UnmapWindow(window_); }

void ClientApp::RequestIconify() {
  xlib::RequestIconify(&display_, window_, config_.screen);
}

void ClientApp::RequestMoveResize(const xbase::Rect& geometry) {
  display_.MoveResizeWindow(window_, geometry);
}

void ClientApp::ProcessEvents() {
  display_.DrainEvents([this](const xproto::Event& event) {
    if (const auto* configure = std::get_if<xproto::ConfigureNotifyEvent>(&event)) {
      if (configure->window == window_) {
        ++configure_notify_count_;
        if (configure->synthetic) {
          // Synthetic events carry root-relative coordinates directly.
          believed_root_position_ = configure->geometry.origin();
        } else {
          // Real events are parent-relative; translate like a toolkit would.
          auto translated = display_.TranslateCoordinates(
              window_, display_.RootWindow(config_.screen), {0, 0});
          if (translated.has_value()) {
            believed_root_position_ = *translated;
          }
        }
      }
    } else if (const auto* reparent = std::get_if<xproto::ReparentNotifyEvent>(&event)) {
      if (reparent->window == window_) {
        ++reparent_count_;
        current_parent_ = reparent->parent;
      }
    } else if (const auto* message = std::get_if<xproto::ClientMessageEvent>(&event)) {
      if (message->window == window_ &&
          message->message_type == display_.InternAtom(xproto::kAtomWmProtocols) &&
          message->data[0] == display_.InternAtom(xproto::kAtomWmDeleteWindow)) {
        saw_delete_window_ = true;
      }
    }
  });
}

xproto::WindowId ClientApp::EffectiveRootForPopups() {
  auto swm_root = display_.GetWindowIdProperty(window_, xproto::kAtomSwmRoot);
  if (swm_root.has_value() && display_.GetGeometry(*swm_root).has_value()) {
    return *swm_root;
  }
  return display_.RootWindow(config_.screen);
}

}  // namespace xlib
