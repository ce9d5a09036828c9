// Window manager functions (paper §4.4.1): f.* commands reachable from
// object bindings, menus and the swmcmd property channel, with the five
// invocation modes —
//   f.iconify            current window
//   f.iconify(multiple)  prompt for windows repeatedly
//   f.iconify(blob)      all windows whose class matches
//   f.iconify(#$)        the window under the pointer
//   f.iconify(#0x1234)   an explicit window id
#include <algorithm>
#include <fstream>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/swm/panner.h"
#include "src/swm/policy/layout_policy.h"
#include "src/swm/wm.h"
#include "src/xlib/icccm.h"

namespace swm {

namespace {

// Functions that operate on a window and accept a target argument.
bool IsWindowFunction(const std::string& name) {
  static const char* kNames[] = {
      "f.raise",   "f.lower",   "f.move",    "f.resize",  "f.iconify",
      "f.deiconify", "f.zoom",  "f.save",    "f.restore", "f.stick",
      "f.unstick", "f.delete",  "f.destroy", "f.identify", "f.focus",
  };
  for (const char* candidate : kNames) {
    if (name == candidate) {
      return true;
    }
  }
  return false;
}

}  // namespace

int WindowManager::ScreenOfContext(const oi::ActionContext& context) const {
  if (context.object != nullptr) {
    return ScreenOf(context.object->window());
  }
  return display_.QueryPointer().screen;
}

std::vector<ManagedClient*> WindowManager::ResolveTargets(
    const xtb::FunctionCall& function, const oi::ActionContext& context,
    bool needs_window) {
  std::vector<ManagedClient*> targets;
  if (!needs_window) {
    return targets;
  }

  if (!function.args.empty()) {
    const std::string& arg = function.args[0];
    if (arg == "multiple") {
      // Prompt for windows, repeatedly, until the root is clicked.
      pending_.active = true;
      pending_.multiple = true;
      xtb::FunctionCall pending_function = function;
      pending_function.args.clear();
      pending_.functions = {std::move(pending_function)};
      for (int screen = 0; screen < display_.ScreenCount(); ++screen) {
        display_.SetCursor(display_.RootWindow(screen), "question_arrow");
      }
      return targets;
    }
    if (arg == "#$") {
      // The window under the mouse.
      xserver::PointerState pointer = display_.QueryPointer();
      if (ManagedClient* client = FindClientByAnyWindow(pointer.window)) {
        targets.push_back(client);
      }
      return targets;
    }
    if (xbase::StartsWith(arg, "#")) {
      // A particular window id: #0x1234.
      std::optional<uint64_t> id = xbase::ParseHex(arg.substr(1));
      if (id.has_value()) {
        if (ManagedClient* client =
                FindClientByAnyWindow(static_cast<xproto::WindowId>(*id))) {
          targets.push_back(client);
        } else {
          XB_LOG(Warning) << function.name << ": no managed window " << arg;
        }
      } else {
        XB_LOG(Warning) << function.name << ": bad window id " << arg;
      }
      return targets;
    }
    // All windows whose class (or instance) matches the argument.
    for (ManagedClient* client : Clients()) {
      if (client->wm_class.clazz == arg || client->wm_class.instance == arg) {
        targets.push_back(client);
      }
    }
    return targets;
  }

  // No argument: the current window — the client owning the object the
  // binding fired on, or the client a popped-up menu belongs to.
  ManagedClient* current = nullptr;
  if (context.object != nullptr) {
    current = FindClientByAnyWindow(context.object->window());
  }
  if (current == nullptr && menu_context_client_ != nullptr) {
    current = menu_context_client_;
  }
  if (current != nullptr) {
    targets.push_back(current);
    return targets;
  }
  // No current window (root panel button, bare swmcmd): prompt — "the
  // pointer would be changed to a question mark" (paper §4.5).  Further
  // targetless functions of the same command join the pending list so all
  // of them apply to the window eventually selected.
  if (pending_.active) {
    pending_.functions.push_back(function);
  } else {
    pending_.active = true;
    pending_.multiple = false;
    pending_.functions = {function};
  }
  for (int screen = 0; screen < display_.ScreenCount(); ++screen) {
    display_.SetCursor(display_.RootWindow(screen), "question_arrow");
  }
  return targets;
}

void WindowManager::ApplyWindowFunction(const std::string& name, ManagedClient* client,
                                        const xtb::FunctionCall& function,
                                        const oi::ActionContext& context) {
  (void)function;
  if (client == nullptr) {
    return;
  }
  if (name == "f.raise") {
    RaiseClient(client);
  } else if (name == "f.lower") {
    LowerClient(client);
  } else if (name == "f.iconify") {
    if (client->state == xproto::WmState::kIconic) {
      Deiconify(client);
    } else {
      Iconify(client);
    }
  } else if (name == "f.deiconify") {
    Deiconify(client);
  } else if (name == "f.zoom") {
    Zoom(client);
  } else if (name == "f.save") {
    SaveGeometry(client);
  } else if (name == "f.restore") {
    RestoreGeometry(client);
  } else if (name == "f.stick") {
    SetSticky(client, !client->sticky);  // Interactive stick/unstick toggle.
  } else if (name == "f.unstick") {
    SetSticky(client, false);
  } else if (name == "f.move") {
    if (context.button != 0 && client->frame != nullptr) {
      drag_.mode = DragState::Mode::kMove;
      drag_.client_window = client->window;
      drag_.start_pointer = context.root_pos;
      drag_.start_frame = client->frame->geometry();
    }
  } else if (name == "f.resize") {
    if (context.button != 0 && client->frame != nullptr) {
      drag_.mode = DragState::Mode::kResize;
      drag_.client_window = client->window;
      drag_.start_pointer = context.root_pos;
      drag_.start_frame = client->frame->geometry();
    }
  } else if (name == "f.delete") {
    CloseClient(client);
  } else if (name == "f.destroy") {
    display_.DestroyWindow(client->window);
  } else if (name == "f.focus") {
    RaiseClient(client);
    if (client->state == xproto::WmState::kIconic) {
      Deiconify(client);
    }
    display_.SetInputFocus(client->window);
  } else if (name == "f.identify") {
    XB_LOG(Info) << "swm: window 0x" << std::hex << client->window << std::dec << " \""
                 << client->name << "\" class " << client->wm_class.clazz << "."
                 << client->wm_class.instance;
  }
}

void WindowManager::ExecuteFunction(const xtb::FunctionCall& function,
                                    const oi::ActionContext& context) {
  // Functions invalidate objects rather than painting; flush on every exit
  // path so direct callers (swmcmd tests, bindings outside ProcessEvents)
  // still see their effects.  Inside ProcessEvents the frame hold makes
  // this a no-op and the batch flush takes over.
  struct FlushOnExit {
    WindowManager* wm;
    ~FlushOnExit() { wm->MaybeFlushFrames(); }
  } flush_on_exit{this};
  const std::string& name = function.name;
  int screen = ScreenOfContext(context);

  if (IsWindowFunction(name)) {
    std::vector<ManagedClient*> targets =
        ResolveTargets(function, context, /*needs_window=*/true);
    for (ManagedClient* client : targets) {
      ApplyWindowFunction(name, client, function, context);
    }
    // A menu item acted: pop the menu down.
    if (menu_context_client_ != nullptr || !targets.empty()) {
      PopdownMenus(screen);
    }
    return;
  }

  if (name == "f.menu") {
    if (function.args.empty()) {
      XB_LOG(Warning) << "f.menu requires a menu name";
      return;
    }
    ManagedClient* for_client =
        context.object != nullptr ? FindClientByAnyWindow(context.object->window())
                                  : nullptr;
    PopupMenu(function.args[0], screen, context.root_pos, for_client);
    return;
  }
  if (name == "f.warpVertical" || name == "f.warpvertical") {
    int delta = function.args.empty()
                    ? 0
                    : xbase::ParseInt(function.args[0]).value_or(0);
    xserver::PointerState pointer = display_.QueryPointer();
    display_.WarpPointer(pointer.screen,
                         {pointer.root_pos.x, pointer.root_pos.y + delta});
    return;
  }
  if (name == "f.warpHorizontal" || name == "f.warphorizontal") {
    int delta = function.args.empty()
                    ? 0
                    : xbase::ParseInt(function.args[0]).value_or(0);
    xserver::PointerState pointer = display_.QueryPointer();
    display_.WarpPointer(pointer.screen,
                         {pointer.root_pos.x + delta, pointer.root_pos.y});
    return;
  }
  if (name == "f.pan") {
    if (function.args.size() == 2) {
      if (VirtualDesktop* desk = vdesk(screen)) {
        desk->PanBy(xbase::ParseInt(function.args[0]).value_or(0),
                    xbase::ParseInt(function.args[1]).value_or(0));
        DesktopViewChanged(screen);
      }
    }
    return;
  }
  if (name == "f.panTo" || name == "f.panto") {
    if (function.args.size() == 2) {
      if (VirtualDesktop* desk = vdesk(screen)) {
        desk->PanTo({xbase::ParseInt(function.args[0]).value_or(0),
                     xbase::ParseInt(function.args[1]).value_or(0)});
        DesktopViewChanged(screen);
      }
    }
    return;
  }
  if (name == "f.circleUp" || name == "f.circleup") {
    // Raise the lowest mapped frame to the top (twm-style circulation).
    xproto::WindowId parent = FrameParent(screen, /*sticky=*/false);
    std::optional<xserver::QueryTreeReply> tree = display_.QueryTree(parent);
    if (tree.has_value()) {
      for (xproto::WindowId child : tree->children) {  // Bottom-most first.
        ManagedClient* client = FindClientByAnyWindow(child);
        if (client != nullptr && client->state == xproto::WmState::kNormal &&
            !client->is_internal) {
          RaiseClient(client);
          break;
        }
      }
    }
    return;
  }
  if (name == "f.circleDown" || name == "f.circledown") {
    // Push the topmost mapped frame to the bottom.
    xproto::WindowId parent = FrameParent(screen, /*sticky=*/false);
    std::optional<xserver::QueryTreeReply> tree = display_.QueryTree(parent);
    if (tree.has_value()) {
      for (auto it = tree->children.rbegin(); it != tree->children.rend(); ++it) {
        ManagedClient* client = FindClientByAnyWindow(*it);
        if (client != nullptr && client->state == xproto::WmState::kNormal &&
            !client->is_internal) {
          LowerClient(client);
          break;
        }
      }
    }
    return;
  }
  if (name == "f.desktop") {
    if (!function.args.empty()) {
      SwitchDesktop(screen, xbase::ParseInt(function.args[0]).value_or(0));
    }
    return;
  }
  if (name == "f.nextDesktop" || name == "f.nextdesktop") {
    int count = DesktopCount(screen);
    if (count > 1) {
      SwitchDesktop(screen, (ActiveDesktop(screen) + 1) % count);
    }
    return;
  }
  if (name == "f.refresh") {
    RefreshAll();
    return;
  }
  if (name == "f.exec" || name == "!") {
    if (!function.args.empty()) {
      // The simulation records rather than spawns processes.
      executed_commands_.push_back(xbase::JoinStrings(function.args, ","));
    }
    return;
  }
  if (name == "f.places") {
    last_places_ = GeneratePlaces();
    if (!function.args.empty()) {
      std::ofstream out(function.args[0]);
      if (out) {
        out << last_places_;
      } else {
        XB_LOG(Warning) << "f.places: cannot write " << function.args[0];
      }
    }
    return;
  }
  if (name == "f.quit") {
    quit_requested_ = true;
    return;
  }
  if (name == "f.restart") {
    restart_requested_ = true;
    // The in-place half of a restart: re-read the template and user
    // resources.  Deferred to ProcessEvents — doing it here would replace
    // the bindings list the dispatcher is iterating.
    resource_reload_pending_ = true;
    return;
  }
  if (name == "f.setButtonLabel" || name == "f.setbuttonlabel") {
    // Dynamic appearance change (paper §4.2): applies to the button the
    // binding fired on.
    if (context.object != nullptr &&
        context.object->type() == oi::ObjectType::kButton && !function.args.empty()) {
      static_cast<oi::Button*>(context.object)->SetLabel(function.args[0]);
    }
    return;
  }
  if (name == "f.setButtonImage" || name == "f.setbuttonimage") {
    if (context.object != nullptr &&
        context.object->type() == oi::ObjectType::kButton && !function.args.empty()) {
      auto* button = static_cast<oi::Button*>(context.object);
      if (function.args[0] == "xlogo") {
        button->SetImage(xbase::XLogo32());
      } else if (function.args[0] == "none") {
        button->ClearImage();
      }
    }
    return;
  }
  if (name == "f.policy") {
    // Runtime layout-policy switch; the whole population re-lays out.
    const std::string requested = function.args.empty() ? "" : function.args[0];
    if (!SetLayoutPolicy(requested)) {
      XB_LOG(Warning) << "f.policy: '" << requested << "' is not a layout policy";
    }
    return;
  }
  if (name == "f.nop") {
    return;
  }
  XB_LOG(Warning) << "swm: unknown function " << name;
}

bool WindowManager::ExecuteCommandString(const std::string& text, int screen) {
  // swmcmd (paper §4.5): "By writing a special property on the root window,
  // swm interprets its contents and executes commands."
  std::string trimmed = xbase::TrimWhitespace(text);
  std::vector<std::string> words = xbase::SplitWhitespace(trimmed);
  if (!words.empty() && !xbase::StartsWith(words[0], "f.") && words[0] != "!") {
    // The function-list grammar only admits f.* names; bare layout verbs
    // ("policy tiling", xswm's "close"/"last") are routed before parsing.
    if (words[0] == "policy") {
      bool switched = words.size() == 2 && SetLayoutPolicy(words[1]);
      if (!switched) {
        XB_LOG(Warning) << "swmcmd: '" << trimmed.substr(0, 128)
                        << "' names no layout policy";
      }
      return switched;
    }
    if (policy_ != nullptr && policy_->HandleCommand(words, screen)) {
      MaybeFlushFrames();
      return true;
    }
  }
  std::optional<std::vector<xtb::FunctionCall>> functions =
      xtb::ParseFunctionList(trimmed);
  if (!functions.has_value()) {
    // A malformed-command flood (hostile swmcmd sender) repeats this line;
    // log every Nth occurrence instead of each one.
    XB_LOG_EVERY_N(Warning, "swmcmd:malformed", 16)
        << "swmcmd: malformed command '" << text.substr(0, 128) << "'";
    return false;
  }
  oi::ActionContext context;
  context.root_pos = display_.QueryPointer().root_pos;
  for (const xtb::FunctionCall& function : *functions) {
    ExecuteFunction(function, context);
  }
  return true;
}

void WindowManager::PopupMenu(const std::string& name, int screen,
                              const xbase::Point& root_pos, ManagedClient* for_client) {
  ScreenState& state = screens_[screen];
  auto it = state.menus.find(name);
  if (it == state.menus.end()) {
    std::unique_ptr<oi::Menu> menu =
        state.toolkit->CreateMenu(display_.RootWindow(screen), name);
    std::optional<std::string> items = menu->Attribute("items");
    if (!items.has_value()) {
      XB_LOG(Warning) << "f.menu: no items for menu '" << name << "'";
      return;
    }
    for (const std::string& item : xbase::SplitWhitespace(*items)) {
      menu->AddItem(item, "");
    }
    it = state.menus.emplace(name, std::move(menu)).first;
  }
  menu_context_client_ = for_client;
  it->second->PopupAt(root_pos);
}

void WindowManager::PopdownMenus(int screen) {
  if (screen < 0 || screen >= static_cast<int>(screens_.size())) {
    return;
  }
  for (auto& [name, menu] : screens_[screen].menus) {
    if (menu->popped_up()) {
      menu->Popdown();
    }
  }
  menu_context_client_ = nullptr;
}

SwmHintsRecord WindowManager::SessionRecordFor(ManagedClient* client) {
  SwmHintsRecord record;
  std::optional<xbase::Rect> geometry = display_.GetGeometry(client->window);
  xbase::Point pos = client->ClientDesktopPosition();
  record.geometry = xbase::Rect{std::max(0, pos.x), std::max(0, pos.y),
                                geometry.has_value() ? geometry->width : 1,
                                geometry.has_value() ? geometry->height : 1};
  if (client->icon_position_set || client->state == xproto::WmState::kIconic) {
    record.icon_position = client->icon_position;
  }
  record.state = client->state == xproto::WmState::kIconic ? xproto::WmState::kIconic
                                                           : xproto::WmState::kNormal;
  record.sticky = client->sticky;
  record.icon_on_root = client->icon_holder == nullptr;
  record.command = client->command;
  record.machine = client->machine;
  return record;
}

void WindowManager::PersistSessionState() {
  // One swmhints record per restartable client, appended to the same root
  // property the swmhints program uses, so a successor WindowManager on this
  // server restores geometry, icon position, iconic and sticky state
  // (docs/ROBUSTNESS.md "Restart recovery").
  for (ManagedClient* client : Clients()) {
    if (client->is_internal || client->command.empty()) {
      continue;
    }
    AppendSwmHints(&display_, client->screen, SessionRecordFor(client));
  }
  // Unconsumed records (clients that never reappeared this session) ride
  // along unchanged so they still apply after the next restart.
  for (const SwmHintsRecord& record : restart_table_.records()) {
    AppendSwmHints(&display_, 0, record);
  }
  // The active layout policy rides the same property so the successor
  // re-adopts it before managing anything.
  AppendSwmPolicy(&display_, 0, policy_->name());
}

std::string WindowManager::GeneratePlaces() {
  std::vector<SwmHintsRecord> records;
  for (ManagedClient* client : Clients()) {
    if (client->is_internal) {
      continue;
    }
    if (client->command.empty()) {
      XB_LOG(Warning) << "f.places: client \"" << client->name
                      << "\" has no WM_COMMAND and cannot be restarted";
      continue;
    }
    records.push_back(SessionRecordFor(client));
  }
  std::string remote_template;
  if (std::optional<std::string> res = ScreenResource(0, "remoteStartup")) {
    remote_template = *res;
  }
  return GeneratePlacesFile(records, remote_template);
}

}  // namespace swm
