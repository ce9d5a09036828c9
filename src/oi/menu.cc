#include "src/oi/menu.h"

#include <algorithm>

#include "src/oi/toolkit.h"

namespace oi {

Menu::Menu(Toolkit* toolkit, Panel* parent, xproto::WindowId parent_window, std::string name)
    : Object(toolkit, parent, parent_window, std::move(name), ObjectType::kMenu) {
  ApplyStandardAttributes();
}

Menu::~Menu() { items_.clear(); }

Button* Menu::AddItem(const std::string& name, const std::string& label) {
  auto item = std::make_unique<Button>(toolkit_, nullptr, window_, name);
  if (!label.empty()) {
    item->SetLabel(label);
  }
  items_.push_back(std::move(item));
  // Items are parented on the menu window but are not tree children, so
  // the fresh item's dirty bits are seeded here (it missed AddChild).
  items_.back()->Invalidate(kPaintDirty);
  DoLayout();
  Invalidate(kPaintDirty);
  return items_.back().get();
}

xbase::Size Menu::PreferredSize() const {
  xbase::Size size{4, 2};
  int height = 1;
  for (const std::unique_ptr<Button>& item : items_) {
    xbase::Size item_size = item->PreferredSize();
    size.width = std::max(size.width, item_size.width + 2);
    height += item_size.height;
  }
  size.height = height + 1;
  return size;
}

void Menu::DoLayout() {
  xbase::Size size = PreferredSize();
  SetGeometry(xbase::Rect{geometry_.x, geometry_.y, size.width, size.height});
  int y = 1;
  for (const std::unique_ptr<Button>& item : items_) {
    xbase::Size item_size = item->PreferredSize();
    item->SetGeometry(xbase::Rect{1, y, size.width - 2, item_size.height});
    y += item_size.height;
  }
}

void Menu::PopupAt(const xbase::Point& position) {
  DoLayout();
  SetGeometry(
      xbase::Rect{position.x, position.y, geometry_.width, geometry_.height});
  toolkit_->display().RaiseWindow(window_);
  Show();
  for (const std::unique_ptr<Button>& item : items_) {
    item->Show();
  }
  InvalidateTree(kPaintDirty);
  popped_up_ = true;
}

void Menu::Popdown() {
  Hide();
  popped_up_ = false;
}

void Menu::RenderSelf() {
  xlib::Display& dpy = toolkit_->display();
  dpy.ClearWindow(window_);
  xserver::DrawOp border;
  border.kind = xserver::DrawOp::Kind::kBorder;
  border.rect = xbase::Rect{0, 0, geometry_.width, geometry_.height};
  dpy.Draw(window_, border);
}

void Menu::InvalidateTree(uint8_t kinds) {
  Invalidate(kinds);
  for (const std::unique_ptr<Button>& item : items_) {
    item->InvalidateTree(kinds);
  }
}

}  // namespace oi
