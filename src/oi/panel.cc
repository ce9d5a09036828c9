#include "src/oi/panel.h"

#include <algorithm>
#include <map>

#include "src/base/logging.h"
#include "src/oi/toolkit.h"

namespace oi {

Panel::Panel(Toolkit* toolkit, Panel* parent, xproto::WindowId parent_window,
             std::string name)
    : Object(toolkit, parent, parent_window, std::move(name), ObjectType::kPanel) {
  ApplyStandardAttributes();
}

Panel::~Panel() {
  // Children must be destroyed before the base destructor destroys this
  // panel's window (their windows are its children).
  children_.clear();
}

Object* Panel::AddChild(std::unique_ptr<Object> child) {
  children_.push_back(std::move(child));
  Object* added = children_.back().get();
  // Attached now, so the layout bit reaches the tree root and covers this
  // panel; the paint bit is usually already queued by the child's factory.
  added->Invalidate(kLayoutDirty | kPaintDirty);
  return added;
}

std::unique_ptr<Object> Panel::RemoveChild(Object* child) {
  for (auto it = children_.begin(); it != children_.end(); ++it) {
    if (it->get() == child) {
      std::unique_ptr<Object> out = std::move(*it);
      children_.erase(it);
      Invalidate(kLayoutDirty);
      return out;
    }
  }
  return nullptr;
}

Object* Panel::FindDescendant(const std::string& name) {
  for (const std::unique_ptr<Object>& child : children_) {
    if (child->name() == name) {
      return child.get();
    }
    if (child->type() == ObjectType::kPanel) {
      Object* found = static_cast<Panel*>(child.get())->FindDescendant(name);
      if (found != nullptr) {
        return found;
      }
    }
  }
  return nullptr;
}

std::vector<Panel::RowLayout> Panel::ComputeRows() const {
  std::map<int, RowLayout> by_row;
  for (const std::unique_ptr<Object>& child : children_) {
    if (child->floating()) {
      continue;  // Positioned explicitly by the owner.
    }
    RowLayout& row = by_row[child->position().row];
    switch (child->position().align) {
      case HAlign::kLeft:
        row.left.push_back(child.get());
        break;
      case HAlign::kCenter:
        row.center.push_back(child.get());
        break;
      case HAlign::kRight:
        row.right.push_back(child.get());
        break;
    }
  }
  std::vector<RowLayout> rows;
  int y = 0;
  for (auto& [index, row] : by_row) {
    auto by_column = [](const Object* a, const Object* b) {
      return a->position().column < b->position().column;
    };
    std::sort(row.left.begin(), row.left.end(), by_column);
    std::sort(row.center.begin(), row.center.end(), by_column);
    std::sort(row.right.begin(), row.right.end(), by_column);
    row.height = 1;
    for (const Object* child : row.left) {
      row.height = std::max(row.height, child->EffectiveSize().height);
    }
    for (const Object* child : row.center) {
      row.height = std::max(row.height, child->EffectiveSize().height);
    }
    for (const Object* child : row.right) {
      row.height = std::max(row.height, child->EffectiveSize().height);
    }
    row.y = y;
    y += row.height;
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

int GroupWidth(const std::vector<Object*>& group) {
  int width = 0;
  for (size_t i = 0; i < group.size(); ++i) {
    if (i > 0) {
      width += Panel::kGap;
    }
    width += group[i]->EffectiveSize().width;
  }
  return width;
}

}  // namespace

xbase::Size Panel::PreferredSize() const {
  std::vector<RowLayout> rows = ComputeRows();
  xbase::Size size{1, 1};
  int height = 0;
  for (const RowLayout& row : rows) {
    int width = GroupWidth(row.left) + GroupWidth(row.center) + GroupWidth(row.right);
    int groups = (row.left.empty() ? 0 : 1) + (row.center.empty() ? 0 : 1) +
                 (row.right.empty() ? 0 : 1);
    if (groups > 1) {
      width += (groups - 1) * kGap;
    }
    size.width = std::max(size.width, width);
    height += row.height;
  }
  size.height = std::max(size.height, height);
  return size;
}

void Panel::DoLayout(const xbase::Size* forced) {
  xbase::Size size = forced != nullptr ? *forced : EffectiveSize();
  SetGeometry(xbase::Rect{geometry_.x, geometry_.y, size.width, size.height});

  std::vector<RowLayout> rows = ComputeRows();
  for (const RowLayout& row : rows) {
    // Left group packs from the left edge in column order.
    int x = 0;
    for (Object* child : row.left) {
      xbase::Size child_size = child->EffectiveSize();
      child->SetGeometry(xbase::Rect{x, row.y, child_size.width, child_size.height});
      x += child_size.width + kGap;
    }
    // Right group packs against the right edge; "-0" is the rightmost
    // column, "-1" sits to its left, and so on inward.
    int right_x = size.width;
    for (Object* child : row.right) {
      xbase::Size child_size = child->EffectiveSize();
      right_x -= child_size.width;
      child->SetGeometry(xbase::Rect{right_x, row.y, child_size.width,
                                     child_size.height});
      right_x -= kGap;
    }
    // Center group is centered as a block within the full panel width.
    int center_width = GroupWidth(row.center);
    int cx = std::max(0, (size.width - center_width) / 2);
    for (Object* child : row.center) {
      xbase::Size child_size = child->EffectiveSize();
      child->SetGeometry(xbase::Rect{cx, row.y, child_size.width, child_size.height});
      cx += child_size.width + kGap;
    }
  }
  // Nested panels lay out their own interiors at the assigned size.
  for (const std::unique_ptr<Object>& child : children_) {
    if (child->type() == ObjectType::kPanel) {
      xbase::Size assigned = child->geometry().size();
      static_cast<Panel*>(child.get())->DoLayout(&assigned);
    }
  }
}

void Panel::InvalidateTree(uint8_t kinds) {
  Invalidate(kinds);
  for (const std::unique_ptr<Object>& child : children_) {
    child->InvalidateTree(kinds);
  }
}

void Panel::RefreshAttributes() {
  Object::RefreshAttributes();
  for (const std::unique_ptr<Object>& child : children_) {
    child->RefreshAttributes();
  }
}

void Panel::ApplyShape() {
  std::optional<std::string> mask = Attribute("shapeMask");
  if (!mask.has_value() && BoolAttribute("shape")) {
    // "if a panel object is to be shaped and no shape mask is specified,
    // it is shaped to contain its children" (paper §5).
    std::vector<xbase::Rect> rects;
    for (const std::unique_ptr<Object>& child : children_) {
      rects.push_back(child->geometry());
    }
    toolkit_->display().ShapeSetRegion(window_, xbase::Region(std::move(rects)));
    return;
  }
  Object::ApplyShape();
  for (const std::unique_ptr<Object>& child : children_) {
    child->ApplyShape();
  }
}

}  // namespace oi
