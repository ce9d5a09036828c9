// Icons: icon appearance panels (paper §4.1.2), placement, and icon holder
// panels (§4.1.5).
#include <algorithm>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/swm/panner.h"
#include "src/swm/policy/layout_policy.h"
#include "src/swm/wm.h"
#include "src/xlib/icccm.h"

namespace swm {

namespace {

const xbase::Bitmap& NamedBitmap(const std::string& name) {
  if (name == "rounded") {
    return xbase::RoundedMask16();
  }
  if (name == "circle") {
    return xbase::CircleMask(16);
  }
  // "the iconimage button will contain the image of the xlogo32 bitmap
  // file" by default (paper §4.1.2).
  return xbase::XLogo32();
}

}  // namespace

void WindowManager::BuildIcon(ManagedClient* client) {
  if (client->icon != nullptr) {
    return;
  }
  ScreenState& state = screens_[client->screen];
  std::string icon_panel_name = "swmIcon";
  if (std::optional<std::string> configured = ClientResource(*client, "icon")) {
    icon_panel_name = xbase::TrimWhitespace(*configured);
  }
  int screen = client->screen;
  auto lookup = [this, screen](const std::string& name) {
    return PanelDefinition(screen, name);
  };
  IconHolder* holder = HolderFor(*client);
  xproto::WindowId parent =
      holder != nullptr ? holder->window() : FrameParent(client->screen, client->sticky);

  ResourcePrefix prefix = ClientPrefix(*client, /*with_transient=*/false);
  std::unique_ptr<oi::Panel> icon = state.toolkit->BuildPanelTree(
      icon_panel_name, parent, lookup, prefix.names, prefix.classes);
  if (icon == nullptr) {
    // Fallback: a bare one-button icon.
    icon = state.toolkit->CreatePanel(nullptr, parent, icon_panel_name);
    auto image = state.toolkit->CreateButton(icon.get(), icon->window(), "iconimage");
    image->SetPosition(oi::ObjectPosition{oi::HAlign::kCenter, 0, 0});
    icon->AddChild(std::move(image));
  }

  // Populate the magic objects (paper §4.1.2): `iconimage` shows the
  // client's icon pixmap, or — if the client "has specified its own icon
  // window" — that window is reparented into the slot; `iconname` shows
  // WM_ICON_NAME.
  if (oi::Object* image_obj = icon->FindDescendant("iconimage")) {
    std::optional<xbase::Rect> icon_win_geometry =
        (client->wm_hints.flags & xproto::kIconWindowHint) != 0
            ? display_.GetGeometry(client->wm_hints.icon_window)
            : std::nullopt;
    if (icon_win_geometry.has_value()) {
      image_obj->SetSizeOverride(icon_win_geometry->size());
      display_.ReparentWindow(client->wm_hints.icon_window, image_obj->window(),
                              {0, 0});
      display_.MapWindow(client->wm_hints.icon_window);
      client->uses_icon_window = true;
    } else if (image_obj->type() == oi::ObjectType::kButton) {
      std::string pixmap_name = client->wm_hints.icon_pixmap_name;
      static_cast<oi::Button*>(image_obj)->SetImage(NamedBitmap(pixmap_name));
    }
  }
  if (oi::Object* name_obj = icon->FindDescendant("iconname")) {
    if (name_obj->type() == oi::ObjectType::kButton) {
      static_cast<oi::Button*>(name_obj)->SetLabel(client->icon_name);
    } else if (name_obj->type() == oi::ObjectType::kText) {
      static_cast<oi::TextObject*>(name_obj)->SetText(client->icon_name);
    }
  }
  // Lay out the freshly built (all-dirty) icon tree: PlaceIcon's slot math
  // reads the laid-out geometry.
  state.toolkit->LayOut();
  tree_owner_[icon.get()] = client->window;
  client->icon = std::move(icon);
  client->icon_holder = holder;
}

IconHolder* WindowManager::HolderFor(const ManagedClient& client) {
  if (client.is_internal) {
    return nullptr;
  }
  ScreenState& state = screens_[client.screen];
  // Class-specific holders first, then any catch-all holder.
  for (const std::unique_ptr<IconHolder>& holder : state.icon_holders) {
    if (!holder->class_filter().empty() && holder->Accepts(client.wm_class)) {
      return holder.get();
    }
  }
  for (const std::unique_ptr<IconHolder>& holder : state.icon_holders) {
    if (holder->class_filter().empty()) {
      return holder.get();
    }
  }
  return nullptr;
}

void WindowManager::PlaceIcon(ManagedClient* client) {
  if (client->icon == nullptr) {
    return;
  }
  if (client->icon_holder != nullptr) {
    client->icon_holder->AddIcon(client);
    return;
  }
  if (!client->icon_position_set) {
    // Next free slot along the bottom of the current viewport.
    ScreenState& state = screens_[client->screen];
    xbase::Size view = display_.DisplaySize(client->screen);
    int occupied = 0;
    for (ManagedClient* other : Clients()) {
      if (other != client && other->state == xproto::WmState::kIconic &&
          other->icon_holder == nullptr && other->screen == client->screen) {
        ++occupied;
      }
    }
    int slot_width = client->icon->geometry().width + 4;
    xbase::Point viewport_pos{4 + occupied * slot_width,
                              view.height - client->icon->geometry().height - 2};
    client->icon_position = viewport_pos;
    if (!client->sticky && state.vdesk() != nullptr) {
      client->icon_position = state.vdesk()->ScreenToDesktop(viewport_pos);
    }
    client->icon_position_set = true;
  }
  client->icon->SetGeometry(xbase::Rect{client->icon_position.x, client->icon_position.y,
                                        client->icon->geometry().width,
                                        client->icon->geometry().height});
  client->icon->Show();
}

void WindowManager::Iconify(ManagedClient* client) {
  if (client == nullptr || client->state == xproto::WmState::kIconic) {
    return;
  }
  BuildIcon(client);
  if (client->frame != nullptr) {
    display_.UnmapWindow(client->frame->window());
  }
  std::optional<xserver::WindowAttributes> attrs = display_.GetWindowAttributes(client->window);
  if (attrs.has_value() && attrs->map_state != xproto::MapState::kUnmapped) {
    ++client->ignore_unmaps;
    display_.UnmapWindow(client->window);
  }
  client->state = xproto::WmState::kIconic;
  PlaceIcon(client);
  xlib::SetWmState(&display_, client->window, xproto::WmState::kIconic,
                   client->icon != nullptr ? client->icon->window() : xproto::kNone);
  if (Panner* p = panner(client->screen)) {
    p->Update(client->window);
  }
  if (!in_teardown_ && policy_ != nullptr && !client->is_internal) {
    policy_->OnIconicChange(client);
  }
}

void WindowManager::Deiconify(ManagedClient* client) {
  if (client == nullptr || client->state != xproto::WmState::kIconic) {
    return;
  }
  if (client->icon != nullptr) {
    if (client->icon_holder != nullptr) {
      client->icon_holder->RemoveIcon(client);
    } else {
      // Remember the free-floating icon's position for next time and for
      // session saving.
      client->icon_position = client->icon->geometry().origin();
      client->icon_position_set = true;
      display_.UnmapWindow(client->icon->window());
    }
  }
  client->state = xproto::WmState::kNormal;
  if (client->frame != nullptr) {
    display_.MapWindow(client->frame->window());
  }
  display_.MapWindow(client->window);
  xlib::SetWmState(&display_, client->window, xproto::WmState::kNormal, xproto::kNone);
  if (Panner* p = panner(client->screen)) {
    p->Update(client->window);
  }
  if (!in_teardown_ && policy_ != nullptr && !client->is_internal) {
    policy_->OnIconicChange(client);
  }
}

// ---- IconHolder ----------------------------------------------------------------

IconHolder::IconHolder(WindowManager* wm, int screen, std::string name)
    : wm_(wm), screen_(screen), name_(std::move(name)) {
  auto attr = [&](const std::string& resource) {
    return wm_->ScreenResource(screen_, {"iconHolder", name_}, {"IconHolder", name_},
                               resource);
  };
  if (std::optional<std::string> geometry = attr("geometry")) {
    if (std::optional<xbase::GeometrySpec> spec = xbase::ParseGeometry(
            xbase::TrimWhitespace(*geometry))) {
      configured_geometry_ = spec->Resolve(wm_->display().DisplaySize(screen_),
                                           configured_geometry_.size());
    }
  }
  if (std::optional<std::string> filter = attr("class")) {
    class_filter_ = xbase::TrimWhitespace(*filter);
  }
  auto bool_attr = [&](const std::string& resource) {
    std::optional<std::string> value = attr(resource);
    if (!value.has_value()) {
      return false;
    }
    std::string lower = xbase::ToLowerAscii(xbase::TrimWhitespace(*value));
    return lower == "true" || lower == "yes" || lower == "on";
  };
  hide_when_empty_ = bool_attr("hideWhenEmpty");
  size_to_fit_ = bool_attr("sizeToFit");

  window_ = wm_->display().CreateWindow(wm_->FrameParent(screen_, /*sticky=*/false),
                                        configured_geometry_);
  wm_->display().SetWindowBackground(window_, ':');
  if (!hide_when_empty_) {
    wm_->display().MapWindow(window_);
  }
}

IconHolder::~IconHolder() {
  if (wm_->display().GetGeometry(window_).has_value()) {
    wm_->display().DestroyWindow(window_);
  }
}

void IconHolder::ScrollBy(int dy) {
  if (size_to_fit_) {
    return;  // Size-to-fit holders show everything; nothing to scroll.
  }
  int max_scroll = std::max(0, content_height_ - configured_geometry_.height);
  scroll_offset_ = std::clamp(scroll_offset_ + dy, 0, max_scroll);
  Relayout();
}

bool IconHolder::Accepts(const xproto::WmClass& wm_class) const {
  return class_filter_.empty() || wm_class.clazz == class_filter_ ||
         wm_class.instance == class_filter_;
}

void IconHolder::AddIcon(ManagedClient* client) {
  if (std::find(icons_.begin(), icons_.end(), client) == icons_.end()) {
    icons_.push_back(client);
  }
  client->icon_holder = this;
  Relayout();
}

void IconHolder::RemoveIcon(ManagedClient* client) {
  std::erase(icons_, client);
  if (client->icon != nullptr) {
    wm_->display().UnmapWindow(client->icon->window());
  }
  client->icon_holder = nullptr;
  Relayout();
}

void IconHolder::Relayout() {
  xlib::Display& dpy = wm_->display();
  if (icons_.empty() && hide_when_empty_) {
    dpy.UnmapWindow(window_);
    return;
  }
  // Rows of icons packed inside the holder width, shifted by the scroll
  // offset (the §4.1.5 "scrolling window").
  int x = 1;
  int y = 1;
  int row_height = 0;
  int max_right = 1;
  int width = configured_geometry_.width;
  for (ManagedClient* client : icons_) {
    if (client->icon == nullptr) {
      continue;
    }
    xbase::Size size = client->icon->geometry().size();
    if (x > 1 && x + size.width + 1 > width) {
      x = 1;
      y += row_height + 1;
      row_height = 0;
    }
    client->icon->SetGeometry(
        xbase::Rect{x, y - scroll_offset_, size.width, size.height});
    client->icon->Show();
    x += size.width + 1;
    row_height = std::max(row_height, size.height);
    max_right = std::max(max_right, x);
  }
  int content_bottom = y + row_height + 1;
  content_height_ = content_bottom;
  if (size_to_fit_) {
    // "sizing to fit all the icons rather than presenting a scrolling
    // window" (paper §4.1.5).
    dpy.MoveResizeWindow(window_, xbase::Rect{configured_geometry_.x,
                                              configured_geometry_.y,
                                              std::max(width, max_right),
                                              std::max(4, content_bottom)});
  } else {
    dpy.MoveResizeWindow(window_, configured_geometry_);
  }
  dpy.MapWindow(window_);
}

}  // namespace swm
