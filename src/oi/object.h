// The OI-style object base class (paper §2, §4).
//
// "swm is object oriented in that it deals with four basic objects to
// implement window manager appearance and behavior. [...] once a specific
// object is created, it can be treated as a generic base class object when
// dealing with attribute settings."
//
// Every object owns one X window, queries its attributes (color, font,
// cursor, bindings, shape) from the resource database through its resource
// path, and dispatches pointer/keyboard events against its bindings.
#ifndef SRC_OI_OBJECT_H_
#define SRC_OI_OBJECT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/geometry.h"
#include "src/base/interner.h"
#include "src/oi/panel_def.h"
#include "src/xproto/events.h"
#include "src/xtb/bindings.h"

namespace oi {

class Toolkit;
class Panel;
class FrameScheduler;
struct SearchPath;

// An interned resource path: parallel name and class symbols from
// xbase::SymbolInterner::Global().
struct ResourcePath {
  std::vector<xbase::Symbol> names;
  std::vector<xbase::Symbol> classes;
};

// Dirty bits for the retained-mode frame pipeline (docs/RENDERING.md).
// kLayoutDirty bubbles to the subtree root — row layout is computed
// top-down — while kPaintDirty stays on the object whose draw list went
// stale.
enum DirtyKind : uint8_t {
  kLayoutDirty = 1u << 0,
  kPaintDirty = 1u << 1,
};

class Object {
 public:
  virtual ~Object();

  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

  Toolkit& toolkit() const { return *toolkit_; }
  xproto::WindowId window() const { return window_; }
  // The window this object's window was created under.  oi never
  // reparents an object's window, so this is its X parent for life.
  xproto::WindowId parent_window() const { return parent_window_; }
  const std::string& name() const { return name_; }
  virtual ObjectType type() const = 0;
  Panel* parent() const { return parent_; }

  // Queries the resource database for `attribute` on this object, using the
  // tree's resource context.  Generic: works identically for any derived
  // type, as the paper emphasizes.
  std::optional<std::string> Attribute(const std::string& attribute) const;
  bool BoolAttribute(const std::string& attribute, bool default_value = false) const;

  // ---- Geometry ------------------------------------------------------------
  // Geometry relative to the parent object's window.
  const xbase::Rect& geometry() const { return geometry_; }
  void SetGeometry(const xbase::Rect& geometry);
  // Natural size of the object's content.
  virtual xbase::Size PreferredSize() const = 0;
  // Hard override used e.g. for the `client` panel, sized by the client
  // window rather than by content.
  void SetSizeOverride(std::optional<xbase::Size> size);
  const std::optional<xbase::Size>& size_override() const { return size_override_; }
  xbase::Size EffectiveSize() const {
    return size_override_.has_value() ? *size_override_ : PreferredSize();
  }

  // Position within the parent panel's rows (from the panel definition).
  const ObjectPosition& position() const { return position_; }
  void SetPosition(const ObjectPosition& position);

  // Floating objects are excluded from the parent panel's row layout and
  // positioned explicitly (e.g. swm's resize-corner handles).
  bool floating() const { return floating_; }
  void SetFloating(bool floating) { floating_ = floating; }

  // ---- Invalidation (retained-mode frame pipeline; docs/RENDERING.md) -----
  // Records that this object needs the given work and registers it with the
  // toolkit's FrameScheduler, which lays out and repaints at the next flush.
  // Attribute setters self-invalidate; callers outside src/oi never invoke
  // layout or painting directly.
  void Invalidate(uint8_t kinds);
  // Invalidates this object and, for containers, every descendant.
  virtual void InvalidateTree(uint8_t kinds) { Invalidate(kinds); }
  uint8_t dirty_kinds() const { return dirty_kinds_; }
  // Root of the tree this object belongs to (decoration frame, icon tree,
  // root panel, or the object itself when parentless).
  Object* TreeRoot();

  // Recomputes this subtree's layout; containers override.
  virtual void Layout() {}

  // ---- Appearance ------------------------------------------------------------
  // This object's own draw list only, no recursion: the unit the frame
  // scheduler repaints.
  virtual void RenderSelf() {}
  // Counts (for FrameScheduler stats) and reissues this object's draw list.
  void Paint();
  // Applies the object's shape attributes (shapeMask / shape-to-children).
  virtual void ApplyShape();
  void Show();
  void Hide();

  // ---- Bindings -----------------------------------------------------------------
  const std::vector<xtb::Binding>& bindings() const { return bindings_; }
  // Dynamic rebinding: "the button object can also have its bindings
  // (functions) changed dynamically".
  void SetBindings(std::vector<xtb::Binding> bindings) { bindings_ = std::move(bindings); }
  // (Re)loads bindings from the resource database.
  void LoadBindings();

  // Re-reads standard attributes from the resource database.  Needed after
  // the tree's resource prefix changes (e.g. when a decoration tree is
  // bound to a specific client's class/instance, or stickiness toggles).
  virtual void RefreshAttributes();

  // Returns the function lists of all bindings matching the event.
  std::vector<const xtb::Binding*> MatchBindings(const xtb::BindingEvent& event) const;

 protected:
  Object(Toolkit* toolkit, Panel* parent, xproto::WindowId parent_window, std::string name,
         ObjectType type_for_path);

  // Reads standard attributes (background, cursor) and applies them.
  void ApplyStandardAttributes();

  Toolkit* toolkit_;
  Panel* parent_;
  std::string name_;
  xproto::WindowId window_ = xproto::kNone;
  xproto::WindowId parent_window_ = xproto::kNone;
  xbase::Rect geometry_;
  ObjectPosition position_;
  bool floating_ = false;
  std::optional<xbase::Size> size_override_;
  std::vector<xtb::Binding> bindings_;

 private:
  // Owned by the FrameScheduler: bits double as pending-queue membership.
  friend class FrameScheduler;
  uint8_t dirty_kinds_ = 0;

  // Resource state, read and bound by the Toolkit.
  friend class Toolkit;
  // This object's resource path within its tree, interned when the object
  // is built, as alternating (type-keyword, object-name) components — e.g.
  // for button "name" inside panel "openLook": names {panel, openLook,
  // button, name}, classes {Panel, openLook, Button, name}.
  ResourcePath path_;
  // Components between the session prefix and every object path of this
  // tree (specific resources); set on tree roots by Toolkit::SetTreePrefix.
  ResourcePath tree_prefix_;
  // The toolkit's shared entry for this object's full path.
  SearchPath* search_path_ = nullptr;
};

}  // namespace oi

#endif  // SRC_OI_OBJECT_H_
