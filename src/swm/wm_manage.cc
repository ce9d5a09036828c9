// Managing and decorating client windows: reparenting into resource-defined
// decoration panels, ICCCM state, placement on the Virtual Desktop, and the
// sticky/shaped resource-prefix machinery.
#include <algorithm>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/swm/panner.h"
#include "src/swm/policy/layout_policy.h"
#include "src/swm/wm.h"
#include "src/xlib/icccm.h"

namespace swm {

namespace {

// Chains longer than this are treated as a cycle even if the seen-set never
// repeats (a hostile client can mint fresh windows faster than we walk).
constexpr int kMaxTransientDepth = 64;

// Log-throttle key of a window's transient-cycle warning; freed at unmanage.
std::string TransientCycleLogKey(xproto::WindowId window) {
  return "swm:transient-cycle:" + std::to_string(window);
}

// The event mask swm's own connection selected on `window` (0 when gone).
uint32_t OwnSelection(const xlib::Display& display, xproto::WindowId window) {
  std::optional<xserver::WindowAttributes> attrs = display.GetWindowAttributes(window);
  return attrs.has_value() ? attrs->your_event_mask : 0;
}

}  // namespace

// A client's specific-resource prefix (paper §3): the "sticky" (§6.2) and
// "shaped" markers — "swm recognizes if a client window is shaped and adds
// the string shaped to the beginning of the resource strings" (§5) — then
// WM_CLASS class and instance.  The decoration
// tree's prefix also carries "transient" after the other markers, so
// "swm*transient*button.name.label" reaches a transient's frame objects.
// ClientResource lookups (decoration, sticky, icon) leave it out, as they
// always have: "swm*transient*decoration" does not choose a decoration.
// Icon trees take the ClientResource prefix.
WindowManager::ResourcePrefix WindowManager::ClientPrefix(const ManagedClient& client,
                                                          bool with_transient) {
  ResourcePrefix prefix;
  auto add = [&prefix](const std::string& name, const std::string& clazz) {
    prefix.names.push_back(name);
    prefix.classes.push_back(clazz);
  };
  if (client.sticky) {
    add("sticky", "Sticky");
  }
  if (client.shaped) {
    add("shaped", "Shaped");
  }
  if (with_transient && client.transient_for != xproto::kNone) {
    add("transient", "Transient");
  }
  if (!client.wm_class.clazz.empty() || !client.wm_class.instance.empty()) {
    add(client.wm_class.clazz, client.wm_class.clazz);
    add(client.wm_class.instance, client.wm_class.instance);
  }
  return prefix;
}

xproto::WindowId WindowManager::BreakTransientCycle(xproto::WindowId window,
                                                    xproto::WindowId owner) {
  if (owner == xproto::kNone) {
    return xproto::kNone;
  }
  std::set<xproto::WindowId> seen{window};
  xproto::WindowId cur = owner;
  int depth = 0;
  while (cur != xproto::kNone && depth++ < kMaxTransientDepth) {
    if (!seen.insert(cur).second) {
      // A→B→…→A (or a cycle further down the chain the walk can never
      // escape): drop the hint rather than loop forever in any consumer.
      ++display_.mutable_sanitizer_stats()->transient_cycles_broken;
      XB_LOG_EVERY_N(Warning, TransientCycleLogKey(window), 1 << 30)
          << "swm: WM_TRANSIENT_FOR cycle through window " << window
          << "; breaking";
      return xproto::kNone;
    }
    ManagedClient* next = FindClient(cur);
    cur = next != nullptr ? next->transient_for : xproto::kNone;
  }
  if (depth > kMaxTransientDepth) {
    ++display_.mutable_sanitizer_stats()->transient_cycles_broken;
    return xproto::kNone;
  }
  return owner;
}

std::optional<std::string> WindowManager::ClientResource(const ManagedClient& client,
                                                         const std::string& resource) const {
  ResourcePrefix prefix = ClientPrefix(client, /*with_transient=*/false);
  return ScreenResource(client.screen, prefix.names, prefix.classes, resource);
}

std::string WindowManager::ChooseDecoration(const ManagedClient& client) const {
  std::optional<std::string> decoration = ClientResource(client, "decoration");
  if (decoration.has_value()) {
    return xbase::TrimWhitespace(*decoration);
  }
  return "swmDefault";
}

std::unique_ptr<oi::Panel> WindowManager::BuildFrame(ManagedClient* client) {
  ScreenState& state = screens_[client->screen];
  oi::Toolkit& tk = *state.toolkit;
  int screen = client->screen;
  auto lookup = [this, screen](const std::string& name) {
    return PanelDefinition(screen, name);
  };

  ResourcePrefix prefix = ClientPrefix(*client, /*with_transient=*/true);
  xproto::WindowId parent = FrameParent(client->screen, client->sticky);
  std::unique_ptr<oi::Panel> frame;
  if (PanelDefinition(client->screen, client->decoration_name).has_value()) {
    frame = tk.BuildPanelTree(client->decoration_name, parent, lookup, prefix.names,
                              prefix.classes);
  }
  if (frame == nullptr) {
    // Undecorated fallback: a bare container holding only the client panel.
    frame = tk.CreatePanel(nullptr, parent,
                           client->decoration_name.empty() ? "clientOnly"
                                                           : client->decoration_name);
    tk.SetTreePrefix(frame.get(), prefix.names, prefix.classes);
    auto client_panel = tk.CreatePanel(frame.get(), frame->window(), "client");
    client_panel->SetPosition(oi::ObjectPosition{oi::HAlign::kLeft, 0, 0});
    frame->AddChild(std::move(client_panel));
  }

  oi::Object* client_obj = frame->FindDescendant("client");
  if (client_obj == nullptr || client_obj->type() != oi::ObjectType::kPanel) {
    // "the decoration panel must contain a panel object called client";
    // tolerate broken user definitions by appending one.
    XB_LOG(Warning) << "decoration '" << client->decoration_name
                    << "' lacks a `client` panel; appending one";
    auto client_panel = tk.CreatePanel(frame.get(), frame->window(), "client");
    client_panel->SetPosition(oi::ObjectPosition{oi::HAlign::kLeft, 0, 99});
    client_obj = frame->AddChild(std::move(client_panel));
  }
  client->client_panel = static_cast<oi::Panel*>(client_obj);
  client->name_object = frame->FindDescendant("name");
  SetupResizeCorners(client, frame.get());
  return frame;
}

void WindowManager::SetupResizeCorners(ManagedClient* client, oi::Panel* frame) {
  // "Swm*panel.openLook.resizeCorners: True" (paper §4.1.1).
  if (!frame->BoolAttribute("resizeCorners")) {
    return;
  }
  oi::Toolkit& tk = *screens_[client->screen].toolkit;
  for (const char* name : {"resizeUL", "resizeUR", "resizeLL", "resizeLR"}) {
    std::unique_ptr<oi::Button> corner = tk.CreateButton(frame, frame->window(), name);
    corner->SetFloating(true);
    corner->SetLabel("");
    if (corner->bindings().empty()) {
      corner->SetBindings(xtb::ParseBindings("<Btn1> : f.resize").bindings);
    }
    frame->AddChild(std::move(corner));
  }
}

void WindowManager::PositionResizeCorners(ManagedClient* client) {
  if (client->frame == nullptr) {
    return;
  }
  xbase::Size frame_size = client->frame->geometry().size();
  const struct {
    const char* name;
    int x;
    int y;
  } corners[] = {{"resizeUL", 0, 0},
                 {"resizeUR", frame_size.width - 1, 0},
                 {"resizeLL", 0, frame_size.height - 1},
                 {"resizeLR", frame_size.width - 1, frame_size.height - 1}};
  for (const auto& corner : corners) {
    oi::Object* handle = client->frame->FindDescendant(corner.name);
    if (handle != nullptr && handle->floating()) {
      handle->SetGeometry(xbase::Rect{corner.x, corner.y, 1, 1});
      display_.RaiseWindow(handle->window());
    }
  }
}

ManagedClient* WindowManager::ManageWindow(xproto::WindowId window, int screen) {
  if (FindClient(window) != nullptr) {
    return FindClient(window);
  }
  std::optional<xserver::WindowAttributes> attrs = display_.GetWindowAttributes(window);
  if (!attrs.has_value() || attrs->override_redirect ||
      attrs->window_class == xproto::WindowClass::kInputOnly) {
    return nullptr;
  }
  if (display_.OwnsId(window)) {
    return nullptr;  // swm's own window: a desktop, root icon, icon holder or frame.
  }
  std::optional<xbase::Rect> geometry = display_.GetGeometry(window);
  if (!geometry.has_value()) {
    return nullptr;
  }

  auto owned = std::make_unique<ManagedClient>();
  ManagedClient* client = owned.get();
  client->window = window;
  client->screen = screen;
  client->name = xlib::GetWmName(&display_, window).value_or("");
  client->icon_name = xlib::GetWmIconName(&display_, window).value_or(client->name);
  client->wm_class = xlib::GetWmClass(&display_, window).value_or(xproto::WmClass{});
  if (std::optional<std::vector<std::string>> argv = xlib::GetWmCommand(&display_, window)) {
    client->command = xbase::JoinStrings(*argv, " ");
  }
  client->machine = xlib::GetWmClientMachine(&display_, window).value_or("");
  client->size_hints =
      xlib::GetWmNormalHints(&display_, window).value_or(xproto::SizeHints{});
  client->wm_hints = xlib::GetWmHints(&display_, window).value_or(xproto::WmHints{});
  client->transient_for = BreakTransientCycle(
      window, xlib::GetTransientForHint(&display_, window).value_or(xproto::kNone));
  client->shaped = display_.IsShaped(window);
  client->is_internal = internal_windows_.count(window) != 0 || aux_display_.OwnsId(window);

  // Session restore (paper §7): match by WM_COMMAND (+ machine).
  std::optional<SwmHintsRecord> session;
  if (!client->command.empty()) {
    session = restart_table_.MatchAndConsume(client->command, client->machine);
  }
  client->restored_from_session = session.has_value();

  // Stickiness: session state, else the sticky resource by class/instance.
  if (session.has_value()) {
    client->sticky = session->sticky;
  } else {
    std::optional<std::string> sticky_res = ClientResource(*client, "sticky");
    if (sticky_res.has_value()) {
      std::string lower = xbase::ToLowerAscii(xbase::TrimWhitespace(*sticky_res));
      client->sticky = lower == "true" || lower == "yes" || lower == "on";
    }
  }

  client->decoration_name = ChooseDecoration(*client);
  client->frame = BuildFrame(client);

  // Register before touching the window again: the client may destroy it at
  // any point from here on (it owns it), and an early registration makes the
  // rollback uniform — UnmanageWindow tears down whatever exists so far.
  tree_owner_[client->frame.get()] = window;
  clients_[window] = std::move(owned);
  auto died_mid_manage = [&]() {
    if (!options_.self_heal || WindowAlive(window)) {
      return false;
    }
    XB_LOG(Warning) << "swm: window " << window
                    << " destroyed mid-manage; rolling back";
    UnmanageWindow(window, /*reparent_back=*/false);
    return true;
  };
  if (died_mid_manage()) {
    return nullptr;
  }

  // Client size: session geometry wins, then the current window size, both
  // run through WM_NORMAL_HINTS constraints.
  xbase::Size client_size = session.has_value() ? session->geometry.size()
                                                : geometry->size();
  client_size = client->size_hints.Constrain(client_size);
  bool was_viewable = attrs->map_state == xproto::MapState::kViewable;
  if (was_viewable) {
    ++client->ignore_unmaps;  // Reparent of a mapped window unmaps it once.
  }
  display_.ResizeWindow(window, client_size);
  if (died_mid_manage()) {
    return nullptr;
  }
  client->client_panel->SetSizeOverride(client_size);
  // PlaceNew reads the laid-out frame geometry, so the freshly built
  // (all-dirty) tree lays out synchronously here; the layout observer pins
  // the resize corners.
  screens_[screen].toolkit->LayOut();

  // Placement is a policy decision (docs/POLICIES.md): floating runs the
  // classic session/hints/cascade logic; slot policies claim their slot.
  xbase::Point frame_pos = policy_->PlaceNew(
      client, xbase::Rect{0, 0, client_size.width, client_size.height}, session);
  client->frame->SetGeometry(xbase::Rect{frame_pos.x, frame_pos.y,
                                         client->frame->geometry().width,
                                         client->frame->geometry().height});

  if (client->name_object != nullptr) {
    // The special `name` object displays WM_NAME (paper §4.1.1).
    if (client->name_object->type() == oi::ObjectType::kButton) {
      static_cast<oi::Button*>(client->name_object)->SetLabel(client->name);
    } else if (client->name_object->type() == oi::ObjectType::kText) {
      static_cast<oi::TextObject*>(client->name_object)->SetText(client->name);
    }
    // The label change relayouts the title row; shapes below read geometry.
    screens_[screen].toolkit->LayOut();
  }

  display_.ReparentWindow(window, client->client_panel->window(), {0, 0});
  display_.AddToSaveSet(window);
  // Preserve any selection swm already holds on this window (the panner's
  // pointer-event selection, notably).
  display_.SelectInput(window, OwnSelection(display_, window) | xproto::kStructureNotifyMask |
                                   xproto::kPropertyChangeMask);
  display_.ShapeSelect(window, true);
  // The gap just crossed (reparent → SelectInput) is the one where a client
  // destroy produces no DestroyNotify for swm — check explicitly.
  if (died_mid_manage()) {
    return nullptr;
  }
  // Hold SubstructureRedirect on the client's new parent, so its own
  // configure/map requests keep coming to swm now that it is off the root.
  uint32_t panel_mask =
      OwnSelection(display_, client->client_panel->window());
  display_.SelectInput(client->client_panel->window(),
                       panel_mask | xproto::kSubstructureRedirectMask |
                           xproto::kSubstructureNotifyMask);

  // Shaped clients shape their decoration (§5).
  client->frame->ApplyShape();
  ApplyClientShapeToFrame(client);

  // Session icon position.
  if (session.has_value() && session->icon_position.has_value()) {
    client->icon_position = *session->icon_position;
    client->icon_position_set = true;
  } else if (client->wm_hints.flags & xproto::kIconPositionHint) {
    client->icon_position = client->wm_hints.icon_position;
    client->icon_position_set = true;
  }

  UpdateSwmRootProperty(client);
  if (died_mid_manage()) {
    return nullptr;
  }

  // Initial state: session, then WM_HINTS initial_state.
  xproto::WmState initial = xproto::WmState::kNormal;
  if (session.has_value()) {
    initial = session->state;
  } else if (client->wm_hints.flags & xproto::kStateHint) {
    initial = client->wm_hints.initial_state;
  }

  if (initial == xproto::WmState::kIconic) {
    client->state = xproto::WmState::kNormal;  // Iconify() flips it.
    Iconify(client);
  } else {
    client->state = xproto::WmState::kNormal;
    display_.MapWindow(client->frame->window());
    display_.MapWindow(window);
    xlib::SetWmState(&display_, window, xproto::WmState::kNormal, xproto::kNone);
  }
  MaybeFlushFrames();
  SendSyntheticConfigure(client);
  if (died_mid_manage()) {
    return nullptr;
  }
  if (Panner* p = panner(screen)) {
    p->Update(window);
  }
  if (!client->is_internal) {
    // The policy sees the fully built client last: slot policies reflow the
    // population around it (which may resize this very window).
    policy_->OnManage(client);
    if (died_mid_manage()) {
      return nullptr;
    }
  }
  return client;
}

void WindowManager::UnmanageWindow(xproto::WindowId window, bool reparent_back) {
  auto it = clients_.find(window);
  if (it == clients_.end()) {
    return;
  }
  ManagedClient* client = it->second.get();
  if (client->icon_holder != nullptr) {
    client->icon_holder->RemoveIcon(client);
    client->icon_holder = nullptr;
  }
  if (client->icon != nullptr) {
    // Give a client-supplied icon window back before its slot is destroyed.
    if (client->uses_icon_window && WindowAlive(client->wm_hints.icon_window)) {
      display_.UnmapWindow(client->wm_hints.icon_window);
      display_.ReparentWindow(client->wm_hints.icon_window,
                              display_.RootWindow(client->screen), {0, 0});
    }
    tree_owner_.erase(client->icon.get());
    client->icon.reset();
  }
  if (client->frame != nullptr) {
    tree_owner_.erase(client->frame.get());
  }
  int screen = client->screen;
  std::optional<xbase::Point> root_pos =
      reparent_back ? RootPosition(window, client->screen) : std::nullopt;
  if (root_pos.has_value()) {
    ++client->ignore_unmaps;
    display_.ReparentWindow(window, display_.RootWindow(client->screen), *root_pos);
    display_.RemoveFromSaveSet(window);
    xlib::SetWmState(&display_, window, xproto::WmState::kWithdrawn, xproto::kNone);
  }
  bool was_internal = client->is_internal;
  client->frame.reset();  // Destroys the decoration tree windows.
  clients_.erase(it);
  events_dispatched_by_client_.erase(window);
  ledger_.Forget(window);
  quarantine_pending_configure_.erase(window);
  xbase::ForgetLogThrottle(TransientCycleLogKey(window));
  xlib::ForgetSanitizerLog(window);
  if (Panner* p = panner(screen)) {
    p->Update(window);
  }
  if (!was_internal && !in_teardown_ && policy_ != nullptr) {
    // Survivors reflow into the vacated space (slot policies); the client
    // is fully gone from the tables by now.
    policy_->OnUnmanage(window, screen);
  }
}

void WindowManager::ReDecorate(ManagedClient* client) {
  if (client->frame == nullptr || client->client_panel == nullptr) {
    return;
  }
  // Preserve the on-glass position of the *client* across the rebuild.
  std::optional<xbase::Point> screen_pos = RootPosition(client->window, client->screen);
  std::optional<xbase::Rect> client_geometry = display_.GetGeometry(client->window);
  if (!screen_pos.has_value() || !client_geometry.has_value()) {
    return;
  }
  bool was_mapped = client->state == xproto::WmState::kNormal;

  tree_owner_.erase(client->frame.get());
  // Park the client on the root while the old tree is destroyed.
  ++client->ignore_unmaps;
  display_.ReparentWindow(client->window, display_.RootWindow(client->screen), *screen_pos);
  client->frame.reset();

  client->decoration_name = ChooseDecoration(*client);
  client->frame = BuildFrame(client);
  tree_owner_[client->frame.get()] = client->window;

  client->client_panel->SetSizeOverride(client_geometry->size());
  if (client->name_object != nullptr &&
      client->name_object->type() == oi::ObjectType::kButton) {
    static_cast<oi::Button*>(client->name_object)->SetLabel(client->name);
  }
  // The repositioning below reads the laid-out frame geometry.
  screens_[client->screen].toolkit->LayOut();

  // New frame parent coordinates that keep the client at screen_pos.
  ScreenState& state = screens_[client->screen];
  xbase::Point client_offset = client->ClientOffset();
  xbase::Point parent_pos = *screen_pos;
  if (!client->sticky && state.vdesk() != nullptr) {
    parent_pos = state.vdesk()->ScreenToDesktop(*screen_pos);
  }
  client->frame->SetGeometry(xbase::Rect{parent_pos.x - client_offset.x,
                                         parent_pos.y - client_offset.y,
                                         client->frame->geometry().width,
                                         client->frame->geometry().height});
  ++client->ignore_unmaps;
  display_.ReparentWindow(client->window, client->client_panel->window(), {0, 0});
  uint32_t panel_mask =
      OwnSelection(display_, client->client_panel->window());
  display_.SelectInput(client->client_panel->window(),
                       panel_mask | xproto::kSubstructureRedirectMask |
                           xproto::kSubstructureNotifyMask);
  client->frame->ApplyShape();
  ApplyClientShapeToFrame(client);
  UpdateSwmRootProperty(client);
  if (was_mapped) {
    display_.MapWindow(client->frame->window());
    display_.MapWindow(client->window);
  }
  SendSyntheticConfigure(client);
  MaybeFlushFrames();
  if (Panner* p = panner(client->screen)) {
    p->Update(client->window);
  }
}

void WindowManager::SetSticky(ManagedClient* client, bool sticky) {
  if (client == nullptr || client->sticky == sticky) {
    return;
  }
  client->sticky = sticky;
  // The resource prefix changed ("sticky" marker), so the decoration may
  // change too — rebuild it, reparenting between root and virtual desktop.
  ReDecorate(client);
}

// ---- Root panels, root icons, icon holders ------------------------------------

void WindowManager::CreateRootPanels(int screen) {
  std::optional<std::string> list = ScreenResource(screen, "rootPanels");
  if (!list.has_value()) {
    return;
  }
  ScreenState& state = screens_[screen];
  for (const std::string& name : xbase::SplitWhitespace(*list)) {
    std::optional<std::string> definition = PanelDefinition(screen, name);
    if (!definition.has_value()) {
      XB_LOG(Warning) << "rootPanels: no panel definition '" << name << "'";
      continue;
    }
    // Root panels are treated like client windows: the content lives in a
    // toplevel owned by the aux (client-like) connection, so mapping it
    // goes through our own redirect and gets reparented/decorated.
    xproto::WindowId toplevel = aux_display_.CreateWindow(
        aux_display_.RootWindow(screen), xbase::Rect{0, 0, 10, 4});
    xlib::SetWmName(&aux_display_, toplevel, name);
    xlib::SetWmClass(&aux_display_, toplevel, {name, "SwmRootPanel"});

    auto lookup = [this, screen](const std::string& n) {
      return PanelDefinition(screen, n);
    };
    std::unique_ptr<oi::Panel> tree =
        state.toolkit->BuildPanelTree(name, toplevel, lookup);
    if (tree == nullptr) {
      aux_display_.DestroyWindow(toplevel);
      continue;
    }
    // Lay out the freshly built (all-dirty) tree: the toplevel is sized
    // from the laid-out geometry before it maps.
    state.toolkit->LayOut();
    xbase::Size size = tree->geometry().size();
    aux_display_.ResizeWindow(toplevel, size);
    tree->Show();
    aux_display_.MapWindow(toplevel);  // -> MapRequest -> managed.
    state.root_panel_trees.push_back(std::move(tree));
  }
}

void WindowManager::CreateRootIcons(int screen) {
  std::optional<std::string> list = ScreenResource(screen, "rootIcons");
  if (!list.has_value()) {
    return;
  }
  ScreenState& state = screens_[screen];
  int cascade_x = 4;
  for (const std::string& name : xbase::SplitWhitespace(*list)) {
    auto lookup = [this, screen](const std::string& n) {
      return PanelDefinition(screen, n);
    };
    // Root icons are icon-appearance panels with no client; they sit
    // directly on the desktop and cannot be deiconified (paper §4.1.3).
    std::unique_ptr<oi::Panel> tree = state.toolkit->BuildPanelTree(
        name, FrameParent(screen, /*sticky=*/false), lookup);
    if (tree == nullptr) {
      XB_LOG(Warning) << "rootIcons: no panel definition '" << name << "'";
      continue;
    }
    // Root icons have no client to supply an icon pixmap: the iconimage
    // button defaults to the xlogo32 image like client icons do.
    if (oi::Object* image_obj = tree->FindDescendant("iconimage")) {
      if (image_obj->type() == oi::ObjectType::kButton &&
          !static_cast<oi::Button*>(image_obj)->has_image()) {
        static_cast<oi::Button*>(image_obj)->SetImage(xbase::XLogo32());
      }
    }
    state.toolkit->LayOut();
    xbase::Point pos{cascade_x, 4};
    if (std::optional<std::string> geo = ScreenResource(
            screen, {"rootIcon", name}, {"RootIcon", name}, "geometry")) {
      if (std::optional<xbase::GeometrySpec> spec = xbase::ParseGeometry(*geo)) {
        pos = {spec->x.value_or(pos.x), spec->y.value_or(pos.y)};
      }
    }
    tree->SetGeometry(xbase::Rect{pos.x, pos.y, tree->geometry().width,
                                  tree->geometry().height});
    cascade_x += tree->geometry().width + 4;
    tree->Show();
    state.root_icons.push_back(std::move(tree));
  }
}

void WindowManager::CreateIconHolders(int screen) {
  std::optional<std::string> list = ScreenResource(screen, "iconHolders");
  if (!list.has_value()) {
    return;
  }
  ScreenState& state = screens_[screen];
  for (const std::string& name : xbase::SplitWhitespace(*list)) {
    state.icon_holders.push_back(std::make_unique<IconHolder>(this, screen, name));
  }
}

}  // namespace swm
