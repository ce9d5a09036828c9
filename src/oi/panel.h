// Panel object (paper §4.1): "nothing more than a container for other
// objects.  Objects within panels are organized into rows."
#ifndef SRC_OI_PANEL_H_
#define SRC_OI_PANEL_H_

#include <memory>
#include <vector>

#include "src/oi/object.h"

namespace oi {

class Panel : public Object {
 public:
  Panel(Toolkit* toolkit, Panel* parent, xproto::WindowId parent_window, std::string name);
  ~Panel() override;

  ObjectType type() const override { return ObjectType::kPanel; }

  // Adds an already-created child (takes ownership).  Children are laid out
  // by (row, column) from their ObjectPosition.
  Object* AddChild(std::unique_ptr<Object> child);
  std::unique_ptr<Object> RemoveChild(Object* child);
  const std::vector<std::unique_ptr<Object>>& children() const { return children_; }

  // Finds a descendant by name (depth-first), e.g. the special "client"
  // panel of a decoration definition or the "name" title button.
  Object* FindDescendant(const std::string& name);

  xbase::Size PreferredSize() const override;

  // Recomputes the row layout and positions/sizes all child windows.  If
  // `forced` is non-null the panel body is made exactly that size and rows
  // are laid out inside it; otherwise the panel shrinks to content.
  void DoLayout(const xbase::Size* forced = nullptr);
  void Layout() override { DoLayout(); }

  // Panels issue no draw ops of their own; RenderSelf stays empty.
  void InvalidateTree(uint8_t kinds) override;
  void ApplyShape() override;
  void RefreshAttributes() override;  // Recurses into children.

  // Horizontal/vertical padding between objects, in cells.
  static constexpr int kGap = 1;

 private:
  struct RowLayout {
    int y = 0;
    int height = 0;
    std::vector<Object*> left;
    std::vector<Object*> center;
    std::vector<Object*> right;
  };

  std::vector<RowLayout> ComputeRows() const;

  std::vector<std::unique_ptr<Object>> children_;
};

}  // namespace oi

#endif  // SRC_OI_PANEL_H_
