#include "src/swm/wm.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/swm/panner.h"
#include "src/swm/policy/layout_policy.h"
#include "src/swm/scrollbars.h"
#include "src/swm/templates.h"
#include "src/xlib/icccm.h"
#include "src/xproto/hints.h"

namespace swm {

xbase::Rect ManagedClient::FrameGeometry() const {
  return frame != nullptr ? frame->geometry() : xbase::Rect{};
}

xbase::Point ManagedClient::ClientOffset() const {
  xbase::Point offset{0, 0};
  for (const oi::Object* cur = client_panel; cur != nullptr && cur->parent() != nullptr;
       cur = cur->parent()) {
    offset.x += cur->geometry().x;
    offset.y += cur->geometry().y;
  }
  return offset;
}

xbase::Point ManagedClient::ClientDesktopPosition() const {
  if (frame == nullptr || client_panel == nullptr) {
    return {};
  }
  xbase::Point offset = ClientOffset();
  return {frame->geometry().x + offset.x, frame->geometry().y + offset.y};
}

WindowManager::WindowManager(xserver::Server* server, Options options)
    : display_(server, "localhost"),
      aux_display_(server, "localhost"),
      options_(std::move(options)) {
  display_.SetErrorHandler([this](const xproto::XError& error) { OnXError(error); });
  aux_display_.SetErrorHandler([this](const xproto::XError& error) { OnXError(error); });
  LoadResources();
  // Layout policy (docs/POLICIES.md): resource-selected, floating default.
  std::string policy_name = "floating";
  if (std::optional<std::string> configured =
          db_.Get("swm.layout.policy", "Swm.Layout.Policy")) {
    policy_name = xbase::TrimWhitespace(*configured);
  }
  policy_ = CreateLayoutPolicy(policy_name, this);
  if (policy_ == nullptr) {
    XB_LOG(Warning) << "swm: unknown layout policy '" << policy_name
                    << "'; using floating";
    policy_ = CreateLayoutPolicy("floating", this);
  }
}

void WindowManager::OnXError(const xproto::XError& error) {
  ++x_errors_;
  // An error flood repeats one line thousands of times; log every Nth
  // occurrence per (request, code) pair instead.
  XB_LOG_EVERY_N(Warning,
                 "swm:xerror:" + xproto::RequestCodeName(error.request) + ":" +
                     xproto::ErrorCodeName(error.code),
                 32)
      << "swm: " << xproto::ErrorText(error);
  // The handler runs synchronously inside the failed request, so it must not
  // mutate management state; it records the window for HealSuspects, which
  // the event loop runs once the stack has unwound.  Charging the ledger is
  // pure bookkeeping: a client whose windows keep raising errors drains its
  // misbehavior budget like any other flood.
  // A refused query says so itself (its answer is empty) and suspects
  // nothing: the liveness probe HealSuspects runs is such a query.
  if (error.resource_id != xproto::kNone && !xproto::RequestHasReply(error.request)) {
    if (clients_.count(error.resource_id) != 0) {
      ledger_.Charge(error.resource_id, ledger_.policy().error_cost);
    }
    if (error.code == xproto::ErrorCode::kBadWindow ||
        error.code == xproto::ErrorCode::kBadMatch) {
      suspect_windows_.push_back(error.resource_id);
    }
  }
}

void WindowManager::HealSuspects() {
  std::vector<xproto::WindowId> suspects;
  suspects.swap(suspect_windows_);
  bool any_dead = false;
  for (xproto::WindowId window : suspects) {
    if (WindowAlive(window)) {
      continue;  // Transient error (BadMatch on a live window, say).
    }
    any_dead = true;
    if (clients_.count(window) != 0) {
      XB_LOG(Warning) << "swm: healing — window " << window
                      << " died without DestroyNotify; unmanaging";
      UnmanageWindow(window, /*reparent_back=*/false);
      ++healed_count_;
    }
  }
  if (!any_dead) {
    return;
  }
  // The error may have named a frame slot or icon window rather than the
  // client window itself: sweep every managed client for liveness.
  std::vector<xproto::WindowId> dead;
  for (const auto& [window, client] : clients_) {
    if (!WindowAlive(window)) {
      dead.push_back(window);
    }
  }
  for (xproto::WindowId window : dead) {
    XB_LOG(Warning) << "swm: healing — managed window " << window
                    << " found dead during sweep; unmanaging";
    UnmanageWindow(window, /*reparent_back=*/false);
    ++healed_count_;
  }
}

WindowManager::~WindowManager() {
  in_teardown_ = true;  // Unmanaging everything must not trigger reflows.
  // Hand the session to whoever manages these clients next (restart
  // recovery, docs/ROBUSTNESS.md): the successor's TakeRestartInfo restores
  // geometry, icon position, iconic and sticky state.
  if (started_) {
    PersistSessionState();
  }
  // Withdraw management: reparent all clients back to their roots so that a
  // successor window manager finds them intact.
  std::vector<xproto::WindowId> windows;
  for (const auto& [window, client] : clients_) {
    windows.push_back(window);
  }
  for (xproto::WindowId window : windows) {
    bool exists = WindowAlive(window);
    // Re-map iconified clients: a successor's ManageExistingWindows skips
    // unmapped windows, and the restart record carries their iconic state.
    if (exists) {
      auto it = clients_.find(window);
      if (it != clients_.end() && !it->second->is_internal &&
          it->second->state == xproto::WmState::kIconic) {
        display_.MapWindow(window);
      }
    }
    UnmanageWindow(window, exists);
  }
  // Screens (toolkits, vdesks, panners) tear down before the displays
  // disconnect below.
  screens_.clear();
}

void WindowManager::LoadResources() {
  // Template under user resources: the user "can include and then override
  // defaults in a standard template file" (paper §3).
  xrdb::ResourceDatabase user;
  user.LoadFromString(options_.resources);
  std::string template_name = options_.template_name;
  if (std::optional<std::string> chosen = user.Get("swm.template", "Swm.Template")) {
    template_name = xbase::TrimWhitespace(*chosen);
  }
  std::optional<std::string> template_text = TemplateText(template_name);
  if (!template_text.has_value()) {
    XB_LOG(Warning) << "swm: unknown template '" << template_name << "', using default";
    template_text = TemplateText("default");
  }
  db_.LoadFromString(*template_text);
  // Internal defaults that templates may override.
  db_.Put("swm*SwmPanner*sticky", "True");
  db_.Put("swm*SwmPanner*decoration", "swmPannerFrame");
  db_.Put("swm*panel.swmPannerFrame", "button name +C+0 panel client +0+1");
  db_.LoadFromString(options_.resources);
}

xserver::ConnectionLimits WindowManager::TransportLimits() const {
  xserver::ConnectionLimits limits;  // Defaults: idle disabled, stall 5000ms.
  auto read_ms = [this](const char* name, const char* cls, int64_t fallback) {
    std::optional<std::string> value = db_.Get(name, cls);
    if (!value.has_value()) {
      return fallback;
    }
    std::optional<int> parsed = xbase::ParseInt(xbase::TrimWhitespace(*value));
    if (!parsed.has_value() || *parsed < 0) {
      XB_LOG(Warning) << "swm: bad " << name << " value '" << *value
                      << "', using " << fallback;
      return fallback;
    }
    return static_cast<int64_t>(*parsed);
  };
  limits.read_idle_ms = read_ms("swm.transport.idleMs", "Swm.Transport.IdleMs",
                                limits.read_idle_ms);
  limits.write_stall_ms = read_ms("swm.transport.stallMs", "Swm.Transport.StallMs",
                                  limits.write_stall_ms);
  return limits;
}

bool WindowManager::Start() {
  XB_CHECK(!started_);
  // Claim window management on every screen; failure means another window
  // manager holds SubstructureRedirect.
  for (int screen = 0; screen < display_.ScreenCount(); ++screen) {
    uint32_t mask = xproto::kSubstructureRedirectMask | xproto::kSubstructureNotifyMask |
                    xproto::kPropertyChangeMask | xproto::kButtonPressMask |
                    xproto::kButtonReleaseMask | xproto::kKeyPressMask;
    if (!display_.SelectInput(display_.RootWindow(screen), mask)) {
      XB_LOG(Error) << "swm: another window manager is running on screen " << screen;
      return false;
    }
  }
  started_ = true;
  for (int screen = 0; screen < display_.ScreenCount(); ++screen) {
    InitScreen(screen);
  }
  // Restart persistence: a predecessor's runtime policy selection rides
  // SWM_RESTART_INFO (read by InitScreen above) and outranks the
  // swm.layout.policy resource default — adopted before any client manages.
  if (restart_policy_name_.has_value()) {
    if (!SetLayoutPolicy(*restart_policy_name_)) {
      XB_LOG(Warning) << "swm: restart info names unknown layout policy '"
                      << *restart_policy_name_ << "'; keeping " << policy_->name();
    }
    restart_policy_name_.reset();
  }
  for (int screen = 0; screen < display_.ScreenCount(); ++screen) {
    ManageExistingWindows(screen);
  }
  ProcessEvents();
  return true;
}

void WindowManager::InitScreen(int screen) {
  ScreenState state;
  state.number = screen;
  state.toolkit = std::make_unique<oi::Toolkit>(&display_, &db_, screen);
  std::string screen_name = "screen" + std::to_string(screen);
  std::string visual_name = display_.IsMonochrome(screen) ? "monochrome" : "color";
  state.toolkit->SetResourcePrefix({"swm", visual_name, screen_name},
                                   {"Swm", xbase::Capitalized(visual_name),
                                    xbase::Capitalized(screen_name)});
  state.toolkit->SetActionHandler(
      [this](const xtb::FunctionCall& function, const oi::ActionContext& context) {
        ExecuteFunction(function, context);
      });
  state.toolkit->frame_scheduler().SetLayoutObserver(
      [this](oi::Object* root) { OnTreeLaidOut(root); });
  // Installed before the first ScreenResource: lookups go through its toolkit.
  screens_.push_back(std::move(state));
  ScreenState& installed = screens_.back();

  // Virtual Desktop (paper §6): resource value is "WIDTHxHEIGHT".
  std::optional<std::string> vdesk_spec = ScreenResource(screen, "virtualDesktop");
  if (vdesk_spec.has_value()) {
    std::optional<xbase::GeometrySpec> parsed = xbase::ParseGeometry(
        xbase::TrimWhitespace(*vdesk_spec));
    if (parsed.has_value() && parsed->width.has_value()) {
      int count = 1;
      if (std::optional<std::string> count_res =
              ScreenResource(screen, "virtualDesktops")) {
        count = std::clamp(
            xbase::ParseInt(xbase::TrimWhitespace(*count_res)).value_or(1), 1, 32);
      }
      // The `virtualDesktops` count creates several desktops (the paper's
      // §6.3.1 multiple-desktops extension); only the active one is mapped.
      for (int i = 0; i < count; ++i) {
        installed.vdesks.push_back(std::make_unique<VirtualDesktop>(
            &display_, screen, xbase::Size{*parsed->width, *parsed->height}));
        if (i != 0) {
          display_.UnmapWindow(installed.vdesks.back()->window());
        }
      }
    } else {
      XB_LOG(Warning) << "swm: bad virtualDesktop geometry '" << *vdesk_spec << "'";
    }
  }

  // Session restart table (paper §7): read and clear the root property.
  RestartTable table = TakeRestartInfo(&display_, screen);
  for (const SwmHintsRecord& record : table.records()) {
    restart_table_.Add(record);
  }
  if (table.policy_name().has_value()) {
    restart_policy_name_ = table.policy_name();
  }

  // Panner (paper §6.1) — requires the Virtual Desktop.
  if (installed.vdesk() != nullptr) {
    bool want_panner = true;
    if (std::optional<std::string> panner_res = ScreenResource(screen, "panner")) {
      std::string lower = xbase::ToLowerAscii(xbase::TrimWhitespace(*panner_res));
      want_panner = lower == "true" || lower == "yes" || lower == "on";
    }
    if (want_panner) {
      int scale = 16;
      if (std::optional<std::string> scale_res = ScreenResource(screen, "pannerScale")) {
        scale = xbase::ParseInt(xbase::TrimWhitespace(*scale_res)).value_or(16);
      }
      installed.panner = std::make_unique<Panner>(this, screen, std::max(1, scale));
      installed.panner->Map();
    }
  }

  // Desktop scrollbars (§6's first panning method); off by default.
  if (installed.vdesk() != nullptr) {
    if (std::optional<std::string> res = ScreenResource(screen, "scrollbars")) {
      std::string lower = xbase::ToLowerAscii(xbase::TrimWhitespace(*res));
      if (lower == "true" || lower == "yes" || lower == "on") {
        installed.scrollbars = std::make_unique<DesktopScrollbars>(this, screen);
      }
    }
  }

  CreateIconHolders(screen);
  CreateRootPanels(screen);
  CreateRootIcons(screen);
}

void WindowManager::ManageExistingWindows(int screen) {
  std::optional<xserver::QueryTreeReply> tree =
      display_.QueryTree(display_.RootWindow(screen));
  if (!tree.has_value()) {
    return;
  }
  for (xproto::WindowId child : tree->children) {
    // ManageWindow refuses swm's own windows (desktops, root icons, frames)
    // and override-redirect ones.
    std::optional<xserver::WindowAttributes> attrs = display_.GetWindowAttributes(child);
    if (attrs.has_value() && attrs->map_state != xproto::MapState::kUnmapped) {
      ManageWindow(child, screen);
    }
  }
}

// ---- Resource helpers ---------------------------------------------------------

std::optional<std::string> WindowManager::ScreenResource(int screen,
                                                         const std::string& resource) const {
  return ScreenResource(screen, {}, {}, resource);
}

std::optional<std::string> WindowManager::ScreenResource(
    int screen, const std::vector<std::string>& extra_names,
    const std::vector<std::string>& extra_classes, const std::string& resource) const {
  XB_CHECK_GE(screen, 0);
  XB_CHECK_LT(screen, static_cast<int>(screens_.size()));
  // The toolkit's session prefix is this screen's swm.<visual>.<screen>.
  return screens_[screen].toolkit->QueryAttribute(extra_names, extra_classes, resource);
}

std::optional<std::string> WindowManager::PanelDefinition(int screen,
                                                          const std::string& name) const {
  static const std::vector<std::string> kNames{"panel"};
  static const std::vector<std::string> kClasses{"Panel"};
  return ScreenResource(screen, kNames, kClasses, name);
}

// ---- Introspection -----------------------------------------------------------------

oi::Toolkit& WindowManager::toolkit(int screen) {
  XB_CHECK_GE(screen, 0);
  XB_CHECK_LT(screen, static_cast<int>(screens_.size()));
  return *screens_[screen].toolkit;
}

VirtualDesktop* WindowManager::vdesk(int screen) {
  if (screen < 0 || screen >= static_cast<int>(screens_.size())) {
    return nullptr;
  }
  return screens_[screen].vdesk();
}

int WindowManager::DesktopCount(int screen) const {
  if (screen < 0 || screen >= static_cast<int>(screens_.size())) {
    return 0;
  }
  return static_cast<int>(screens_[screen].vdesks.size());
}

int WindowManager::ActiveDesktop(int screen) const {
  if (screen < 0 || screen >= static_cast<int>(screens_.size())) {
    return 0;
  }
  return screens_[screen].active_vdesk;
}

bool WindowManager::SwitchDesktop(int screen, int index) {
  if (screen < 0 || screen >= static_cast<int>(screens_.size())) {
    return false;
  }
  ScreenState& state = screens_[screen];
  if (index < 0 || index >= static_cast<int>(state.vdesks.size()) ||
      index == state.active_vdesk) {
    return false;
  }
  // Hide the current desktop (its windows become unviewable with it), show
  // the target.  Sticky windows live on the real root and stay visible.
  display_.UnmapWindow(state.vdesks[static_cast<size_t>(state.active_vdesk)]->window());
  state.active_vdesk = index;
  VirtualDesktop* desk = state.vdesk();
  display_.MapWindow(desk->window());
  display_.LowerWindow(desk->window());
  DesktopViewChanged(screen);
  return true;
}

Panner* WindowManager::panner(int screen) {
  if (screen < 0 || screen >= static_cast<int>(screens_.size())) {
    return nullptr;
  }
  return screens_[screen].panner.get();
}

DesktopScrollbars* WindowManager::scrollbars(int screen) {
  if (screen < 0 || screen >= static_cast<int>(screens_.size())) {
    return nullptr;
  }
  return screens_[screen].scrollbars.get();
}

void WindowManager::DesktopViewChanged(int screen) {
  if (screen < 0 || screen >= static_cast<int>(screens_.size())) {
    return;
  }
  ScreenState& state = screens_[screen];
  if (state.panner != nullptr) {
    state.panner->Update();
  }
  if (state.scrollbars != nullptr) {
    state.scrollbars->Update();
  }
  // Policies react to the viewport move (slot policies keep their layout
  // glued to the visible view; floating re-anchors its cascade cursor).
  if (started_ && !in_teardown_ && policy_ != nullptr) {
    policy_->OnViewportChange(screen);
  }
}

size_t WindowManager::ClientCount() const { return clients_.size(); }

ManagedClient* WindowManager::FindClient(xproto::WindowId client_window) {
  auto it = clients_.find(client_window);
  return it == clients_.end() ? nullptr : it->second.get();
}

std::vector<ManagedClient*> WindowManager::Clients() {
  std::vector<ManagedClient*> out;
  out.reserve(clients_.size());
  for (const auto& [window, client] : clients_) {
    out.push_back(client.get());
  }
  return out;
}

std::vector<IconHolder*> WindowManager::icon_holders(int screen) {
  std::vector<IconHolder*> out;
  if (screen >= 0 && screen < static_cast<int>(screens_.size())) {
    for (const auto& holder : screens_[screen].icon_holders) {
      out.push_back(holder.get());
    }
  }
  return out;
}

ManagedClient* WindowManager::FindClientByKnownWindow(xproto::WindowId window) {
  if (ManagedClient* direct = FindClient(window)) {
    return direct;
  }
  // A decoration/icon object window?
  for (ScreenState& state : screens_) {
    if (oi::Object* object = state.toolkit->FindObject(window)) {
      auto it = tree_owner_.find(object->TreeRoot());
      return it != tree_owner_.end() ? FindClient(it->second) : nullptr;
    }
  }
  return nullptr;
}

ManagedClient* WindowManager::FindClientByAnyWindow(xproto::WindowId window) {
  if (ManagedClient* known = FindClientByKnownWindow(window)) {
    return known;
  }
  // Any other window swm made (a virtual desktop, or a decoration object
  // already destroyed) never sits inside a client.
  if (window == xproto::kNone || display_.OwnsId(window)) {
    return nullptr;
  }
  // A frame window or descendant of one (e.g. the client's own subwindows):
  // walk up the tree looking for a client window.
  xproto::WindowId cur = window;
  while (cur != xproto::kNone) {
    if (ManagedClient* client = FindClient(cur)) {
      return client;
    }
    std::optional<xserver::QueryTreeReply> tree = display_.QueryTree(cur);
    if (!tree.has_value()) {
      return nullptr;
    }
    cur = tree->parent;
  }
  return nullptr;
}

int WindowManager::ScreenOf(xproto::WindowId window) const {
  std::optional<xserver::QueryTreeReply> tree = display_.QueryTree(window);
  for (int screen = 0; tree.has_value() && screen < display_.ScreenCount(); ++screen) {
    if (display_.RootWindow(screen) == tree->root) {
      return screen;
    }
  }
  return 0;
}

xproto::WindowId WindowManager::FrameParent(int screen, bool sticky) {
  ScreenState& state = screens_[screen];
  if (!sticky && state.vdesk() != nullptr) {
    return state.vdesk()->window();
  }
  return display_.RootWindow(screen);
}

// ---- Simple window operations ------------------------------------------------------

void WindowManager::MoveFrameTo(ManagedClient* client, const xbase::Point& parent_pos) {
  if (client == nullptr || client->frame == nullptr) {
    return;
  }
  xbase::Rect geometry = client->frame->geometry();
  geometry.x = parent_pos.x;
  geometry.y = parent_pos.y;
  client->frame->SetGeometry(geometry);
  SendSyntheticConfigure(client);
  if (Panner* p = panner(client->screen)) {
    p->Update(client->window);
  }
}

void WindowManager::ResizeClient(ManagedClient* client, xbase::Size client_size) {
  if (client == nullptr || client->frame == nullptr || client->client_panel == nullptr) {
    return;
  }
  client_size = client->size_hints.Constrain(client_size);
  display_.ResizeWindow(client->window, client_size);
  client->client_panel->SetSizeOverride(client_size);
  // Shapes and the synthetic configure below read laid-out geometry, so the
  // layout is synchronous even mid-batch; the paint waits for the batch's
  // frame.  The layout observer re-pins the corners and marks the panner.
  screens_[client->screen].toolkit->LayOut();
  client->frame->ApplyShape();
  ApplyClientShapeToFrame(client);
  SendSyntheticConfigure(client);
  if (client->is_internal) {
    Panner* p = panner(client->screen);
    if (p != nullptr && client->window == p->window()) {
      p->OnResized(client_size);
    }
  }
}

void WindowManager::RaiseClient(ManagedClient* client) {
  if (client != nullptr && client->frame != nullptr) {
    display_.RaiseWindow(client->frame->window());
    if (!in_teardown_ && policy_ != nullptr && !client->is_internal) {
      policy_->OnStackingChange(client, /*raised=*/true);
    }
  }
}

void WindowManager::LowerClient(ManagedClient* client) {
  if (client != nullptr && client->frame != nullptr) {
    display_.LowerWindow(client->frame->window());
    if (!in_teardown_ && policy_ != nullptr && !client->is_internal) {
      policy_->OnStackingChange(client, /*raised=*/false);
    }
  }
}

void WindowManager::SaveGeometry(ManagedClient* client) {
  if (client != nullptr && client->frame != nullptr) {
    client->saved_frame_geometry = client->frame->geometry();
  }
}

void WindowManager::RestoreGeometry(ManagedClient* client) {
  if (client == nullptr || !client->saved_frame_geometry.has_value() ||
      client->client_panel == nullptr) {
    return;
  }
  xbase::Rect saved = *client->saved_frame_geometry;
  client->saved_frame_geometry.reset();
  // Restore the client size implied by the saved frame size.
  xbase::Size frame_size = client->frame->geometry().size();
  xbase::Size client_size = client->client_panel->geometry().size();
  xbase::Size new_client{saved.width - (frame_size.width - client_size.width),
                         saved.height - (frame_size.height - client_size.height)};
  MoveFrameTo(client, saved.origin());
  ResizeClient(client, new_client);
}

void WindowManager::Zoom(ManagedClient* client) {
  if (client == nullptr || client->frame == nullptr || client->client_panel == nullptr) {
    return;
  }
  // f.zoom expands to the full size of the screen (the visible viewport).
  ScreenState& state = screens_[client->screen];
  xbase::Size view = display_.DisplaySize(client->screen);
  xbase::Point origin{0, 0};
  if (!client->sticky && state.vdesk() != nullptr) {
    origin = state.vdesk()->offset();
  }
  xbase::Size frame_size = client->frame->geometry().size();
  xbase::Size client_size = client->client_panel->geometry().size();
  xbase::Size decoration{frame_size.width - client_size.width,
                         frame_size.height - client_size.height};
  MoveFrameTo(client, origin);
  ResizeClient(client, {view.width - decoration.width, view.height - decoration.height});
}

void WindowManager::CloseClient(ManagedClient* client) {
  if (client == nullptr) {
    return;
  }
  // Politely via WM_DELETE_WINDOW when supported, else disconnect-kill.
  std::optional<std::vector<std::string>> protocols =
      xlib::GetWmProtocols(&display_, client->window);
  bool supports_delete =
      protocols.has_value() &&
      std::find(protocols->begin(), protocols->end(),
                xproto::kAtomWmDeleteWindow) != protocols->end();
  if (supports_delete) {
    xlib::SendDeleteWindow(&display_, client->window);
  } else {
    display_.DestroyWindow(client->window);
  }
}

bool WindowManager::SetLayoutPolicy(const std::string& name) {
  std::unique_ptr<LayoutPolicy> policy = CreateLayoutPolicy(name, this);
  if (policy == nullptr) {
    return false;
  }
  policy_ = std::move(policy);
  // Full re-layout under the new regime; it and the frames run at the
  // caller's batch boundary (or right here when invoked outside
  // ProcessEvents).
  for (ScreenState& state : screens_) {
    RequestRelayout(state.number);
  }
  MaybeFlushFrames();
  return true;
}

void WindowManager::ReloadResources() {
  // Start from scratch so removed user entries really disappear; the
  // toolkits keep pointing at db_ (same object, moved-into), and the
  // generation bump from the reload's Puts invalidates their caches.
  db_ = xrdb::ResourceDatabase();
  LoadResources();
  for (const auto& [window, client] : clients_) {
    if (client->frame != nullptr) {
      client->frame->RefreshAttributes();
      client->frame->InvalidateTree(oi::kPaintDirty);
    }
    if (client->icon != nullptr) {
      client->icon->RefreshAttributes();
    }
  }
  for (ScreenState& state : screens_) {
    for (const auto& tree : state.root_panel_trees) {
      tree->RefreshAttributes();
      tree->InvalidateTree(oi::kPaintDirty);
    }
    for (const auto& icon : state.root_icons) {
      icon->RefreshAttributes();
    }
    // Menus memoize their item list at first popup; drop them so the next
    // f.menu rebuilds from the reloaded database.
    for (auto& [name, menu] : state.menus) {
      if (menu->popped_up()) {
        menu->Popdown();
      }
    }
    state.menus.clear();
  }
  MaybeFlushFrames();
}

void WindowManager::RefreshAll() {
  for (const auto& [window, client] : clients_) {
    if (client->frame != nullptr) {
      client->frame->InvalidateTree(oi::kPaintDirty);
    }
    if (client->icon != nullptr && client->state == xproto::WmState::kIconic) {
      client->icon->InvalidateTree(oi::kPaintDirty);
    }
  }
  for (ScreenState& state : screens_) {
    if (state.panner != nullptr) {
      state.panner->Redraw();
    }
    for (const auto& icon : state.root_icons) {
      icon->InvalidateTree(oi::kPaintDirty);
    }
    for (const auto& tree : state.root_panel_trees) {
      tree->InvalidateTree(oi::kPaintDirty);
    }
    for (const auto& [name, menu] : state.menus) {
      if (menu->popped_up()) {
        menu->InvalidateTree(oi::kPaintDirty);
      }
    }
  }
  MaybeFlushFrames();
}

void WindowManager::FlushFrames() {
  for (ScreenState& state : screens_) {
    state.toolkit->FlushFrame();
    // After the toolkit flush, so frames are laid out: the panner draws
    // what changed in the batch once.
    if (state.panner != nullptr) {
      state.panner->Reconcile();
    }
  }
}

void WindowManager::MaybeFlushFrames() {
  if (frame_hold_depth_ == 0) {
    FlushFrames();
  }
}

void WindowManager::OnTreeLaidOut(oi::Object* root) {
  auto it = tree_owner_.find(root);
  if (it == tree_owner_.end()) {
    return;
  }
  ManagedClient* client = FindClient(it->second);
  if (client != nullptr && client->frame.get() == root) {
    PositionResizeCorners(client);
    // Laying out may have resized the frame (a new size, a longer title).
    if (Panner* p = panner(client->screen)) {
      p->Update(client->window);
    }
  }
}

void WindowManager::SendSyntheticConfigure(ManagedClient* client) {
  if (client == nullptr || client->frame == nullptr) {
    return;
  }
  // Coordinates are relative to the client's *effective* root (the Virtual
  // Desktop for normal windows) — the companion of the SWM_ROOT property.
  std::optional<xbase::Rect> geometry = display_.GetGeometry(client->window);
  if (!geometry.has_value()) {
    return;
  }
  xbase::Point pos = client->ClientDesktopPosition();
  xlib::SendSyntheticConfigureNotify(
      &display_, client->window,
      xbase::Rect{pos.x, pos.y, geometry->width, geometry->height});
}

void WindowManager::ApplyClientShapeToFrame(ManagedClient* client) {
  if (client == nullptr || !client->shaped || client->frame == nullptr ||
      client->client_panel == nullptr) {
    return;
  }
  // Only when the decoration opted into shaping (e.g. the shapeit panel's
  // `shape: True`): the frame's shape becomes the union of its opaque
  // children with the client's own shape in place of the client rectangle.
  if (!client->frame->BoolAttribute("shape") &&
      !client->frame->Attribute("shapeMask").has_value()) {
    return;
  }
  std::optional<xbase::Region> client_shape = display_.GetShape(client->window);
  if (!client_shape.has_value()) {
    return;
  }
  xbase::Point offset = client->ClientOffset();
  xbase::Region shape = client_shape->Translated(offset.x, offset.y);
  for (const std::unique_ptr<oi::Object>& child : client->frame->children()) {
    if (child.get() == client->client_panel || child->floating()) {
      continue;
    }
    shape = shape.Union(xbase::Region(child->geometry()));
  }
  display_.ShapeSetRegion(client->frame->window(), std::move(shape));
}

void WindowManager::UpdateSwmRootProperty(ManagedClient* client) {
  // Paper §6.3.1: "When swm reparents a window it places a property on the
  // window indicating the window ID of its root window [...] updated
  // whenever the root window for a client changes."
  ScreenState& state = screens_[client->screen];
  xproto::WindowId effective_root =
      (!client->sticky && state.vdesk() != nullptr) ? state.vdesk()->window()
                                                  : display_.RootWindow(client->screen);
  display_.SetWindowIdProperty(client->window, xproto::kAtomSwmRoot, effective_root);
}

}  // namespace swm
