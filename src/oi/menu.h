// Menu object (paper §4): a popup panel of buttons stacked vertically.
// Menus live in override-redirect windows parented on the root (or virtual
// root) and are popped up/down by window-manager functions.
#ifndef SRC_OI_MENU_H_
#define SRC_OI_MENU_H_

#include <memory>
#include <string>
#include <vector>

#include "src/oi/widgets.h"

namespace oi {

class Menu : public Object {
 public:
  Menu(Toolkit* toolkit, Panel* parent, xproto::WindowId parent_window, std::string name);
  ~Menu() override;

  ObjectType type() const override { return ObjectType::kMenu; }

  // Adds an item; the item's bindings come from the resource database like
  // any other button ("menus are just panels of buttons").
  Button* AddItem(const std::string& name, const std::string& label);
  const std::vector<std::unique_ptr<Button>>& items() const { return items_; }

  xbase::Size PreferredSize() const override;

  // Pops the menu up at the given position (relative to its parent window).
  void PopupAt(const xbase::Point& position);
  void Popdown();
  bool popped_up() const { return popped_up_; }

  void RenderSelf() override;
  void InvalidateTree(uint8_t kinds) override;
  void Layout() override { DoLayout(); }

 private:
  void DoLayout();

  std::vector<std::unique_ptr<Button>> items_;
  bool popped_up_ = false;
};

}  // namespace oi

#endif  // SRC_OI_MENU_H_
