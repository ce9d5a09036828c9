#include "src/oi/object.h"

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/oi/panel.h"
#include "src/oi/toolkit.h"

namespace oi {

Object::Object(Toolkit* toolkit, Panel* parent, xproto::WindowId parent_window,
               std::string name, ObjectType type_for_path)
    : toolkit_(toolkit), parent_(parent), name_(std::move(name)), parent_window_(parent_window) {
  if (parent != nullptr) {
    path_ = parent->path_;
  }
  xbase::SymbolInterner& interner = xbase::SymbolInterner::Global();
  xbase::Symbol name_symbol = interner.Intern(name_);
  path_.names.push_back(interner.Intern(ObjectTypeName(type_for_path)));
  path_.names.push_back(name_symbol);
  path_.classes.push_back(interner.Intern(ObjectTypeClass(type_for_path)));
  path_.classes.push_back(name_symbol);

  geometry_ = xbase::Rect{0, 0, 1, 1};
  window_ = toolkit_->display().CreateWindow(parent_window, geometry_);
  if (parent != nullptr) {
    // Mapped now, under its still-unmapped tree root; roots map on their own.
    toolkit_->display().MapWindow(window_);
  }
  toolkit_->display().SelectInput(
      window_, xproto::kButtonPressMask | xproto::kButtonReleaseMask |
                   xproto::kKeyPressMask | xproto::kEnterWindowMask |
                   xproto::kLeaveWindowMask | xproto::kExposureMask);
  toolkit_->Register(this);
}

Object::~Object() {
  toolkit_->Unregister(this);
  if (window_ != xproto::kNone) {
    toolkit_->display().DestroyWindow(window_);
  }
}

std::optional<std::string> Object::Attribute(const std::string& attribute) const {
  return toolkit_->QueryAttribute(*this, attribute);
}

bool Object::BoolAttribute(const std::string& attribute, bool default_value) const {
  std::optional<std::string> value = Attribute(attribute);
  if (!value.has_value()) {
    return default_value;
  }
  std::string lower = xbase::ToLowerAscii(xbase::TrimWhitespace(*value));
  return lower == "true" || lower == "yes" || lower == "on" || lower == "1";
}

void Object::SetGeometry(const xbase::Rect& geometry) {
  if (geometry == geometry_) {
    return;
  }
  bool resized = geometry.size() != geometry_.size();
  geometry_ = geometry;
  // The window moves/resizes immediately — owners read laid-out geometry
  // synchronously — but painting is deferred.  Draw lists are
  // window-relative and survive moves; only a size change goes stale.
  toolkit_->display().MoveResizeWindow(window_, geometry);
  if (resized) {
    Invalidate(kPaintDirty);
  }
}

void Object::SetSizeOverride(std::optional<xbase::Size> size) {
  if (size_override_ == size) {
    return;
  }
  size_override_ = std::move(size);
  Invalidate(kLayoutDirty);
}

void Object::SetPosition(const ObjectPosition& position) {
  if (position == position_) {
    return;
  }
  position_ = position;
  Invalidate(kLayoutDirty);
}

void Object::Invalidate(uint8_t kinds) {
  if (kinds == 0) {
    return;
  }
  toolkit_->frame_scheduler().MarkDirty(this, kinds, TreeRoot());
}

Object* Object::TreeRoot() {
  Object* cur = this;
  while (cur->parent_ != nullptr) {
    cur = cur->parent_;
  }
  return cur;
}

void Object::Paint() {
  toolkit_->frame_scheduler().NoteObjectPainted();
  RenderSelf();
}

void Object::ApplyShape() {
  std::optional<std::string> mask_name = Attribute("shapeMask");
  if (mask_name.has_value()) {
    // Shape masks are named built-in bitmaps in the simulation.
    std::string name = xbase::TrimWhitespace(*mask_name);
    if (name == "rounded") {
      toolkit_->display().ShapeSetMask(window_, xbase::RoundedMask16());
    } else if (name == "circle") {
      int diameter = std::min(geometry_.width, geometry_.height);
      toolkit_->display().ShapeSetMask(window_, xbase::CircleMask(std::max(1, diameter)));
    } else if (name == "xlogo") {
      toolkit_->display().ShapeSetMask(window_, xbase::XLogo32());
    } else {
      XB_LOG(Warning) << "object " << name_ << ": unknown shapeMask '" << name << "'";
    }
  }
}

void Object::Show() { toolkit_->display().MapWindow(window_); }

void Object::Hide() { toolkit_->display().UnmapWindow(window_); }

void Object::LoadBindings() {
  std::optional<std::string> text = Attribute("bindings");
  if (!text.has_value()) {
    bindings_.clear();
    return;
  }
  xtb::ParseResult parsed = xtb::ParseBindings(*text);
  bindings_ = std::move(parsed.bindings);
}

std::vector<const xtb::Binding*> Object::MatchBindings(const xtb::BindingEvent& event) const {
  std::vector<const xtb::Binding*> matched;
  for (const xtb::Binding& binding : bindings_) {
    const xtb::BindingEvent& want = binding.event;
    if (want.kind != event.kind || want.modifiers != event.modifiers) {
      continue;
    }
    bool detail_match = true;
    switch (want.kind) {
      case xtb::EventKind::kButtonPress:
      case xtb::EventKind::kButtonRelease:
        detail_match = want.button == event.button;
        break;
      case xtb::EventKind::kKeyPress:
        detail_match = want.keysym == event.keysym;
        break;
      default:
        break;
    }
    if (detail_match) {
      matched.push_back(&binding);
    }
  }
  return matched;
}

void Object::RefreshAttributes() { ApplyStandardAttributes(); }

void Object::ApplyStandardAttributes() {
  std::optional<std::string> background = Attribute("background");
  if (background.has_value() && !background->empty()) {
    toolkit_->display().SetWindowBackground(window_, (*background)[0]);
  }
  std::optional<std::string> cursor = Attribute("cursor");
  if (cursor.has_value()) {
    toolkit_->display().SetCursor(window_, *cursor);
  }
  std::optional<std::string> border = Attribute("borderWidth");
  if (border.has_value()) {
    std::optional<int> width = xbase::ParseInt(xbase::TrimWhitespace(*border));
    if (width.has_value() && *width >= 0) {
      xserver::ConfigureValues values;
      values.border_width = *width;
      toolkit_->display().ConfigureWindow(window_, xproto::kConfigBorderWidth, values);
    } else {
      XB_LOG(Warning) << "object " << name_ << ": bad borderWidth '" << *border << "'";
    }
  }
  LoadBindings();
}

}  // namespace oi
