#include "src/xserver/server.h"

#include <algorithm>

#include "src/base/logging.h"

namespace xserver {

using xproto::AtomId;
using xproto::ClientId;
using xproto::ErrorCode;
using xproto::Event;
using xproto::EventMask;
using xproto::kNone;
using xproto::RequestCode;
using xproto::WindowId;

Server::Server(std::vector<ScreenConfig> screens) : slot_used_(xproto::kIdSlots) {
  XB_CHECK(!screens.empty());
  slot_used_[0] = true;  // The roots' slot.
  for (size_t i = 0; i < screens.size(); ++i) {
    const ScreenConfig& cfg = screens[i];
    WindowRec root;
    root.id = static_cast<WindowId>(i + 1);
    root.parent = kNone;
    root.geometry = xbase::Rect{0, 0, cfg.width, cfg.height};
    root.mapped = true;
    root.background = '.';
    windows_[root.id] = root;
    screens_.push_back(ScreenInfo{static_cast<int>(i), root.id,
                                  xbase::Size{cfg.width, cfg.height}, cfg.monochrome});
  }
  pointer_.screen = 0;
  pointer_.root_pos = {screens_[0].size.width / 2, screens_[0].size.height / 2};
  pointer_.window = screens_[0].root;
}

Server::~Server() = default;

// ---- Connections ----------------------------------------------------------

ClientId Server::Connect(const std::string& client_machine) {
  ClientId id = next_client_id_++;
  ClientRec& rec = clients_[id];
  rec.machine = client_machine;
  auto free_slot = std::find(slot_used_.begin(), slot_used_.end(), false);
  if (free_slot != slot_used_.end()) {
    *free_slot = true;
    rec.slot = static_cast<uint32_t>(free_slot - slot_used_.begin());
  }
  if (trace_recorder_ != nullptr) {
    trace_recorder_->RecordConnect(id, client_machine);
  }
  return id;
}

void Server::Disconnect(ClientId client) {
  ClientRec* rec = FindClient(client);
  if (rec == nullptr) {
    return;
  }
  if (trace_recorder_ != nullptr) {
    trace_recorder_->RecordDisconnect(client);
  }
  // Save-set processing: windows of *other* clients that this client added
  // to its save set are reparented back to their screen's root and mapped.
  std::vector<WindowId> save_set = rec->save_set;
  for (WindowId wid : save_set) {
    WindowRec* win = Find(wid);
    if (win == nullptr || win->owner == client) {
      continue;
    }
    xbase::Point root_pos = RootPosition(wid);
    ReparentWindow(client, wid, screens_[ScreenOf(*win)].root, root_pos);
    MapWindow(win->owner, wid);
  }
  // Destroy windows created by the client, ascending id (top-level first is
  // not required; DestroyRecursive handles nesting and prunes `owned`).
  std::vector<WindowId> owned(rec->owned.begin(), rec->owned.end());
  for (WindowId wid : owned) {
    if (windows_.count(wid) != 0) {
      DestroyWindow(client, wid);
    }
  }
  // Drop selections and grabs the client holds on other clients' windows
  // (its own are gone, and DestroyRecursive pruned them from `referenced`).
  for (WindowId wid : rec->referenced) {
    WindowRec* win = Find(wid);
    XB_CHECK(win != nullptr) << "window " << wid << " outlived its index entry";
    win->selections.erase(client);
    win->shape_selections.erase(client);
    std::erase_if(win->passive_grabs,
                  [client](const PassiveGrab& g) { return g.client == client; });
    std::erase(win->save_set_clients, client);
  }
  if (grab_.active && grab_.client == client) {
    grab_.active = false;
  }
  // Every window in the slot's range is gone: the next client may take it.
  if (rec->slot != 0) {
    slot_used_[rec->slot] = false;
  }
  clients_.erase(client);
}

bool Server::HasClient(ClientId client) const { return clients_.count(client) != 0; }

std::string Server::ClientMachine(ClientId client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? std::string() : it->second.machine;
}

// ---- Window ids ---------------------------------------------------------------

WindowId Server::IdBase(ClientId client) const {
  const ClientRec* rec = FindClient(client);
  return rec == nullptr ? kNone : rec->slot << xproto::kIdSlotShift;
}

xproto::IdRangeReply Server::IdRange(ClientId client) const {
  xproto::IdRangeReply best;
  WindowId base = IdBase(client);
  if (base == kNone) {
    return best;
  }
  // The gaps between the client's windows, ascending, then the tail.
  uint64_t free_from = base;
  auto consider = [&](uint64_t end) {
    if (end - free_from > best.count) {
      best.start_id = static_cast<WindowId>(free_from);
      best.count = static_cast<uint32_t>(end - free_from);
    }
  };
  for (WindowId id : FindClient(client)->owned) {
    consider(id);
    free_from = uint64_t{id} + 1;
  }
  consider(uint64_t{base} + xproto::kIdMask + 1);
  return best;
}

// ---- Screens / atoms --------------------------------------------------------

const ScreenInfo& Server::screen(int number) const {
  XB_CHECK_GE(number, 0);
  XB_CHECK_LT(number, static_cast<int>(screens_.size()));
  return screens_[number];
}

int Server::ScreenOfWindow(WindowId window) const {
  const WindowRec* win = Find(window);
  return win == nullptr ? -1 : ScreenOf(*win);
}

int Server::ScreenOf(const WindowRec& win) const {
  const WindowRec* cur = &win;
  while (cur->parent != kNone) {
    cur = Find(cur->parent);
    XB_CHECK(cur != nullptr) << "window " << win.id << " has a dead ancestor";
  }
  for (const ScreenInfo& info : screens_) {
    if (info.root == cur->id) {
      return info.number;
    }
  }
  XB_CHECK(false) << "window " << win.id << " hangs under no screen root";
  return -1;
}

AtomId Server::InternAtom(const std::string& name) {
  auto it = atoms_.find(name);
  if (it != atoms_.end()) {
    return it->second;
  }
  atom_names_.push_back(name);
  AtomId id = static_cast<AtomId>(atom_names_.size());
  atoms_[name] = id;
  return id;
}

std::optional<std::string> Server::GetAtomName(AtomId atom) const {
  if (atom == 0 || atom > atom_names_.size()) {
    return std::nullopt;
  }
  return atom_names_[atom - 1];
}

// ---- Lookup helpers ---------------------------------------------------------

WindowRec* Server::Find(WindowId window) {
  auto it = windows_.find(window);
  return it == windows_.end() ? nullptr : &it->second;
}

const WindowRec* Server::Find(WindowId window) const {
  auto it = windows_.find(window);
  return it == windows_.end() ? nullptr : &it->second;
}

Server::ClientRec* Server::FindClient(ClientId client) {
  auto it = clients_.find(client);
  return it == clients_.end() ? nullptr : &it->second;
}

const Server::ClientRec* Server::FindClient(ClientId client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? nullptr : &it->second;
}

void Server::Reference(ClientId client, WindowId window) {
  FindClient(client)->referenced.insert(window);
}

void Server::Unreference(ClientId client, const WindowRec& win) {
  ClientRec* rec = FindClient(client);
  if (rec == nullptr) {
    return;
  }
  bool holds =
      win.selections.count(client) != 0 || win.shape_selections.count(client) != 0 ||
      std::any_of(win.passive_grabs.begin(), win.passive_grabs.end(),
                  [client](const PassiveGrab& g) { return g.client == client; }) ||
      std::find(win.save_set_clients.begin(), win.save_set_clients.end(), client) !=
          win.save_set_clients.end();
  if (!holds) {
    rec->referenced.erase(win.id);
  }
}

ClientId Server::RedirectHolder(const WindowRec& win) const {
  for (const auto& [client, mask] : win.selections) {
    if (mask & xproto::kSubstructureRedirectMask) {
      return client;
    }
  }
  return 0;
}

// ---- Error channel ----------------------------------------------------------

void Server::SetErrorCallback(ClientId client, ErrorCallback callback) {
  ClientRec* rec = FindClient(client);
  if (rec != nullptr) {
    rec->on_error = std::move(callback);
  }
}

uint64_t Server::SequenceNumber(ClientId client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.sequence;
}

uint64_t Server::ErrorCount(ClientId client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.errors;
}

bool Server::RaiseError(ClientId client, xproto::ErrorCode code, uint32_t resource_id) {
  ClientRec* rec = FindClient(client);
  if (rec == nullptr) {
    return false;  // Connection already gone; nobody to notify.
  }
  xproto::XError error;
  error.code = code;
  error.request = current_request_;
  error.resource_id = resource_id;
  error.sequence = rec->sequence;
  ++rec->errors;
  if (rec->on_error) {
    // Synchronous, like an Xlib error handler invoked from _XReply.  The
    // handler may issue further (nested) requests.
    rec->on_error(error);
  }
  return false;
}

Server::RequestGuard::RequestGuard(Server* server, ClientId client,
                                   xproto::RequestCode code)
    : server_(server), ok_(true) {
  if (server_->request_depth_++ > 0) {
    return;  // Nested internal request: not a new wire request.
  }
  server_->current_request_ = code;
  server_->current_client_ = client;
  ++server_->total_requests_;
  if (ClientRec* rec = server_->FindClient(client)) {
    ++rec->sequence;
  }
  if (!server_->fault_plan_active_ || server_->in_fault_) {
    return;
  }
  ++server_->faultable_requests_;
  // A doomed window (armed at MapRequest time) dies just before this
  // request executes — the client destroyed it while the WM was working.
  if (server_->doomed_window_ != kNone && --server_->doomed_countdown_ <= 0) {
    WindowId victim = server_->doomed_window_;
    server_->doomed_window_ = kNone;
    server_->InjectDestroy(victim);
  }
  const FaultPlan& plan = server_->fault_plan_;
  if (plan.fail_request_n != 0 && server_->faultable_requests_ == plan.fail_request_n) {
    ++server_->fault_counters_.failed_requests;
    server_->RaiseError(client, plan.fail_code, 0);
    ok_ = false;
  }
}

Server::RequestGuard::~RequestGuard() {
  if (--server_->request_depth_ == 0) {
    server_->current_request_ = xproto::RequestCode::kNone;
    server_->current_client_ = 0;
  }
}

// ---- Fault injection --------------------------------------------------------

void Server::InstallFaultPlan(const FaultPlan& plan) {
  fault_plan_ = plan;
  fault_plan_active_ = true;
  fault_rng_ = FaultRng(plan.seed);
  fault_counters_ = FaultCounters{};
  faultable_requests_ = 0;
  doomed_window_ = kNone;
  doomed_countdown_ = 0;
}

void Server::ClearFaultPlan() {
  fault_plan_active_ = false;
  doomed_window_ = kNone;
  doomed_countdown_ = 0;
}

void Server::MaybeDoom(WindowId window) {
  if (!fault_plan_active_ || in_fault_ || doomed_window_ != kNone) {
    return;
  }
  if (fault_rng_.Roll(fault_plan_.destroy_on_map_permille)) {
    doomed_window_ = window;
    // Spread the death across the manage path: sometimes before the WM's
    // reparent, sometimes in the reparent→SelectInput gap, sometimes after.
    doomed_countdown_ = fault_rng_.Range(1, 6);
  }
}

void Server::InjectDestroy(WindowId window) {
  WindowRec* win = Find(window);
  if (win == nullptr || win->parent == kNone) {
    return;
  }
  in_fault_ = true;
  ++fault_counters_.destroyed_windows;
  bool covered = CoversPointer(*win);
  if (IsViewable(window)) {
    UnmapWindow(win->owner, window);
  }
  DestroyRecursive(window, /*notify_parent=*/true);
  if (covered) {
    UpdatePointerWindow();
  }
  in_fault_ = false;
}

// ---- Event delivery ---------------------------------------------------------

void Server::Enqueue(ClientId client, Event event) {
  ClientRec* rec = FindClient(client);
  if (rec == nullptr) {
    return;
  }
  if (fault_plan_active_ && !in_fault_) {
    if (fault_rng_.Roll(fault_plan_.delay_event_permille)) {
      // Hold the event back; it is released after the next event for this
      // client (adjacent reorder) or when the queue drains — never dropped.
      ++fault_counters_.delayed_events;
      rec->delayed.push_back(std::move(event));
      return;
    }
    rec->queue.push_back(event);
    if (fault_rng_.Roll(fault_plan_.duplicate_event_permille)) {
      ++fault_counters_.duplicated_events;
      rec->queue.push_back(event);
    }
    // Release anything the plan was holding, now out of order.
    while (!rec->delayed.empty()) {
      rec->queue.push_back(std::move(rec->delayed.front()));
      rec->delayed.pop_front();
    }
    return;
  }
  rec->queue.push_back(std::move(event));
}

int Server::DeliverToSelecting(WindowId window, uint32_t required_mask, const Event& event,
                               ClientId skip) {
  const WindowRec* win = Find(window);
  if (win == nullptr) {
    return 0;
  }
  int delivered = 0;
  for (const auto& [client, mask] : win->selections) {
    if (client != skip && (mask & required_mask) != 0) {
      Enqueue(client, event);
      ++delivered;
    }
  }
  return delivered;
}

bool Server::SendEvent(ClientId client, WindowId destination, uint32_t event_mask,
                       Event event) {
  RequestGuard req(this, client, RequestCode::kSendEvent);
  if (!req.ok()) {
    return false;
  }
  const WindowRec* win = Find(destination);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, destination);
  }
  if (event_mask == 0) {
    Enqueue(win->owner, std::move(event));
    return true;
  }
  DeliverToSelecting(destination, event_mask, event);
  return true;
}

std::optional<Event> Server::NextEvent(ClientId client) {
  ClientRec* rec = FindClient(client);
  if (rec == nullptr) {
    return std::nullopt;
  }
  if (rec->queue.empty() && !rec->delayed.empty()) {
    // Nothing left to reorder against: flush delayed events so none is lost.
    rec->queue.swap(rec->delayed);
  }
  if (rec->queue.empty()) {
    return std::nullopt;
  }
  Event event = std::move(rec->queue.front());
  rec->queue.pop_front();
  if (event_tap_) {
    event_tap_(client, event);
  }
  return event;
}

size_t Server::PendingEvents(ClientId client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.queue.size() + it->second.delayed.size();
}

// ---- Window lifecycle -------------------------------------------------------

WindowId Server::CreateWindow(ClientId client, WindowId window, WindowId parent,
                              const xbase::Rect& geometry, int border_width,
                              xproto::WindowClass window_class, bool override_redirect) {
  RequestGuard req(this, client, RequestCode::kCreateWindow);
  if (!req.ok()) {
    return kNone;
  }
  // The id is checked first, as X does.  A client without a slot has base
  // 0, and 0 is kNone: no id of its passes.
  WindowId base = IdBase(client);
  if (base == kNone || (window & ~xproto::kIdMask) != base || Find(window) != nullptr) {
    RaiseError(client, ErrorCode::kBadIDChoice, window);
    return kNone;
  }
  WindowRec* parent_rec = Find(parent);
  if (parent_rec == nullptr) {
    XB_LOG(Warning) << "CreateWindow: bad parent " << parent;
    RaiseError(client, ErrorCode::kBadWindow, parent);
    return kNone;
  }
  WindowRec win;
  win.id = window;
  win.parent = parent;
  win.window_class = window_class;
  win.geometry = geometry;
  win.border_width = border_width;
  win.override_redirect = override_redirect;
  win.owner = client;
  WindowId id = win.id;
  windows_.emplace(id, std::move(win));
  FindClient(client)->owned.insert(id);
  parent_rec->children.push_back(id);
  Tick();

  xproto::CreateNotifyEvent notify;
  notify.parent = parent;
  notify.window = id;
  notify.geometry = geometry;
  notify.override_redirect = override_redirect;
  DeliverToSelecting(parent, xproto::kSubstructureNotifyMask, Event{notify});
  return id;
}

void Server::RemoveFromParent(WindowRec* win) {
  WindowRec* parent = Find(win->parent);
  if (parent != nullptr) {
    std::erase(parent->children, win->id);
  }
}

void Server::DestroyRecursive(WindowId window, bool notify_parent) {
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return;
  }
  std::vector<WindowId> children = win->children;
  for (WindowId child : children) {
    DestroyRecursive(child, /*notify_parent=*/false);
  }
  Tick();
  xproto::DestroyNotifyEvent notify;
  notify.window = window;

  // StructureNotify on the window itself.
  notify.event_window = window;
  DeliverToSelecting(window, xproto::kStructureNotifyMask, Event{notify});
  // SubstructureNotify on the parent.
  if (notify_parent && win->parent != kNone) {
    notify.event_window = win->parent;
    DeliverToSelecting(win->parent, xproto::kSubstructureNotifyMask, Event{notify});
  }
  RemoveFromParent(win);
  // Drop the window from the indexes and save sets of exactly the clients
  // it names; no other client can hold it.
  auto forget = [this, window](ClientId cid) {
    ClientRec* rec = FindClient(cid);
    if (rec != nullptr) {
      rec->owned.erase(window);
      rec->referenced.erase(window);
    }
    return rec;
  };
  forget(win->owner);
  for (const auto& [cid, mask] : win->selections) {
    forget(cid);
  }
  for (const auto& [cid, enabled] : win->shape_selections) {
    forget(cid);
  }
  for (const PassiveGrab& grab : win->passive_grabs) {
    forget(grab.client);
  }
  for (ClientId cid : win->save_set_clients) {
    if (ClientRec* rec = forget(cid)) {
      std::erase(rec->save_set, window);
    }
  }
  if (grab_.active && grab_.window == window) {
    grab_.active = false;
  }
  if (pointer_.window == window) {
    pointer_.window = screens_[pointer_.screen].root;
  }
  if (focus_window_ == window) {
    focus_window_ = kNone;  // Revert to pointer-root focus.
  }
  windows_.erase(window);
}

bool Server::DestroyWindow(ClientId client, WindowId window) {
  RequestGuard req(this, client, RequestCode::kDestroyWindow);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  if (win->parent == kNone) {
    return RaiseError(client, ErrorCode::kBadMatch, window);  // Roots cannot be destroyed.
  }
  bool covered = CoversPointer(*win);
  if (IsViewable(window)) {
    UnmapWindow(client, window);
  }
  DestroyRecursive(window, /*notify_parent=*/true);
  if (covered) {
    UpdatePointerWindow();
  }
  return true;
}

bool Server::AncestorsMapped(const WindowRec& win) const {
  WindowId parent = win.parent;
  while (parent != kNone) {
    const WindowRec* p = Find(parent);
    if (p == nullptr || !p->mapped) {
      return false;
    }
    parent = p->parent;
  }
  return true;
}

void Server::SendExpose(WindowRec* win) {
  if (win->window_class == xproto::WindowClass::kInputOnly) {
    return;
  }
  xproto::ExposeEvent expose;
  expose.window = win->id;
  expose.area = xbase::Rect{0, 0, win->geometry.width, win->geometry.height};
  expose.count = 0;
  DeliverToSelecting(win->id, xproto::kExposureMask, Event{expose});
}

void Server::MapApplied(WindowRec* win) {
  win->mapped = true;
  Tick();
  xproto::MapNotifyEvent notify;
  notify.window = win->id;
  notify.override_redirect = win->override_redirect;
  notify.event_window = win->id;
  DeliverToSelecting(win->id, xproto::kStructureNotifyMask, Event{notify});
  if (win->parent != kNone) {
    notify.event_window = win->parent;
    DeliverToSelecting(win->parent, xproto::kSubstructureNotifyMask, Event{notify});
  }
  if (IsViewable(win->id)) {
    SendExpose(win);
  }
  if (CoversPointer(*win)) {
    UpdatePointerWindow();
  }
}

bool Server::MapWindow(ClientId client, WindowId window) {
  RequestGuard req(this, client, RequestCode::kMapWindow);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  if (win->mapped) {
    return true;
  }
  if (!win->override_redirect && win->parent != kNone) {
    const WindowRec* parent = Find(win->parent);
    ClientId holder = RedirectHolder(*parent);
    if (holder != 0 && holder != client) {
      Tick();
      xproto::MapRequestEvent request;
      request.parent = win->parent;
      request.window = window;
      Enqueue(holder, Event{request});
      // The WM is about to start managing this window — the fault plan may
      // decide the client destroys it somewhere along that path.
      MaybeDoom(window);
      return true;  // Redirected, not mapped.
    }
  }
  MapApplied(win);
  return true;
}

bool Server::UnmapWindow(ClientId client, WindowId window) {
  RequestGuard req(this, client, RequestCode::kUnmapWindow);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  if (!win->mapped) {
    return false;  // Unmapping an unmapped window is a no-op, not an error.
  }
  win->mapped = false;
  Tick();
  xproto::UnmapNotifyEvent notify;
  notify.window = window;
  notify.event_window = window;
  DeliverToSelecting(window, xproto::kStructureNotifyMask, Event{notify});
  if (win->parent != kNone) {
    notify.event_window = win->parent;
    DeliverToSelecting(win->parent, xproto::kSubstructureNotifyMask, Event{notify});
  }
  if (CoversPointer(*win)) {
    UpdatePointerWindow();
  }
  return true;
}

bool Server::ReparentWindow(ClientId client, WindowId window, WindowId new_parent,
                            const xbase::Point& position) {
  RequestGuard req(this, client, RequestCode::kReparentWindow);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  WindowRec* parent = Find(new_parent);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  if (parent == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, new_parent);
  }
  if (win->parent == kNone) {
    return RaiseError(client, ErrorCode::kBadMatch, window);  // Roots stay put.
  }
  if (window == new_parent || IsAncestorOrSelf(window, new_parent)) {
    return RaiseError(client, ErrorCode::kBadMatch, new_parent);  // Would create a cycle.
  }
  ClientId owner = win->owner;
  bool into_frame = parent->parent != kNone;  // Destination is not a screen root.
  bool was_mapped = win->mapped;
  if (was_mapped) {
    UnmapWindow(client, window);
  }
  WindowId old_parent = win->parent;
  RemoveFromParent(win);
  win->parent = new_parent;
  win->geometry.x = position.x;
  win->geometry.y = position.y;
  parent->children.push_back(window);
  Tick();

  xproto::ReparentNotifyEvent notify;
  notify.window = window;
  notify.parent = new_parent;
  notify.pos = position;
  notify.override_redirect = win->override_redirect;
  notify.event_window = window;
  DeliverToSelecting(window, xproto::kStructureNotifyMask, Event{notify});
  notify.event_window = old_parent;
  DeliverToSelecting(old_parent, xproto::kSubstructureNotifyMask, Event{notify});
  if (new_parent != old_parent) {
    notify.event_window = new_parent;
    DeliverToSelecting(new_parent, xproto::kSubstructureNotifyMask, Event{notify});
  }
  if (was_mapped) {
    // Re-map goes through redirect again per protocol.
    MapWindow(client, window);
  }
  // The narrowest race a WM faces: its reparent succeeded, but the client
  // destroys the window before the WM selects StructureNotify on it — no
  // DestroyNotify will ever reach the WM.
  if (fault_plan_active_ && !in_fault_ && client != owner && into_frame &&
      fault_rng_.Roll(fault_plan_.destroy_on_reparent_permille)) {
    InjectDestroy(window);
  }
  return true;
}

bool Server::ConfigureWindow(ClientId client, WindowId window, uint16_t value_mask,
                             const ConfigureValues& values) {
  RequestGuard req(this, client, RequestCode::kConfigureWindow);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  if (win->parent == kNone) {
    return RaiseError(client, ErrorCode::kBadMatch, window);  // Roots are not configurable.
  }
  WindowRec* parent = Find(win->parent);
  if (!win->override_redirect && parent != nullptr) {
    ClientId holder = RedirectHolder(*parent);
    if (holder != 0 && holder != client) {
      Tick();
      xproto::ConfigureRequestEvent request;
      request.parent = win->parent;
      request.window = window;
      request.value_mask = value_mask;
      request.geometry = values.geometry;
      request.border_width = values.border_width;
      request.sibling = values.sibling;
      request.stack_mode = values.stack_mode;
      Enqueue(holder, Event{request});
      return true;
    }
  }

  xbase::Rect old_geometry = win->geometry;
  bool covered = CoversPointer(*win);
  if (value_mask & xproto::kConfigX) {
    win->geometry.x = values.geometry.x;
  }
  if (value_mask & xproto::kConfigY) {
    win->geometry.y = values.geometry.y;
  }
  if (value_mask & xproto::kConfigWidth) {
    win->geometry.width = std::clamp(values.geometry.width, 1, xproto::kMaxCoordinate);
  }
  if (value_mask & xproto::kConfigHeight) {
    win->geometry.height = std::clamp(values.geometry.height, 1, xproto::kMaxCoordinate);
  }
  if (value_mask & xproto::kConfigBorderWidth) {
    win->border_width = values.border_width;
  }
  if ((value_mask & xproto::kConfigStackMode) && parent != nullptr) {
    auto& siblings = parent->children;
    std::erase(siblings, window);
    switch (values.stack_mode) {
      case xproto::StackMode::kAbove:
      case xproto::StackMode::kTopIf:
      case xproto::StackMode::kOpposite: {
        if ((value_mask & xproto::kConfigSibling) && values.sibling != kNone) {
          auto it = std::find(siblings.begin(), siblings.end(), values.sibling);
          if (it != siblings.end()) {
            siblings.insert(it + 1, window);
          } else {
            siblings.push_back(window);
          }
        } else {
          siblings.push_back(window);
        }
        break;
      }
      case xproto::StackMode::kBelow:
      case xproto::StackMode::kBottomIf: {
        if ((value_mask & xproto::kConfigSibling) && values.sibling != kNone) {
          auto it = std::find(siblings.begin(), siblings.end(), values.sibling);
          siblings.insert(it, window);
        } else {
          siblings.insert(siblings.begin(), window);
        }
        break;
      }
    }
  }

  Tick();
  xproto::ConfigureNotifyEvent notify;
  notify.window = window;
  notify.geometry = win->geometry;
  notify.border_width = win->border_width;
  notify.override_redirect = win->override_redirect;
  notify.event_window = window;
  DeliverToSelecting(window, xproto::kStructureNotifyMask, Event{notify});
  if (win->parent != kNone) {
    notify.event_window = win->parent;
    DeliverToSelecting(win->parent, xproto::kSubstructureNotifyMask, Event{notify});
  }
  bool resized = old_geometry.size() != win->geometry.size();
  if (resized && IsViewable(window)) {
    SendExpose(win);
  }
  if (covered || CoversPointer(*win)) {
    UpdatePointerWindow();
  }
  // Move/resize-in-progress death: the client gives up on a window the WM is
  // actively configuring.
  if (fault_plan_active_ && !in_fault_ && client != win->owner &&
      fault_rng_.Roll(fault_plan_.destroy_on_configure_permille)) {
    InjectDestroy(window);
  }
  return true;
}

bool Server::SelectInput(ClientId client, WindowId window, uint32_t event_mask) {
  RequestGuard req(this, client, RequestCode::kSelectInput);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr || !HasClient(client)) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  if (event_mask & xproto::kSubstructureRedirectMask) {
    ClientId holder = RedirectHolder(*win);
    if (holder != 0 && holder != client) {
      // Another window manager is running.
      return RaiseError(client, ErrorCode::kBadAccess, window);
    }
  }
  if (event_mask == 0) {
    win->selections.erase(client);
    Unreference(client, *win);
  } else {
    win->selections[client] = event_mask;
    Reference(client, window);
  }
  return true;
}

bool Server::ChangeSaveSet(ClientId client, WindowId window, bool add) {
  RequestGuard req(this, client, RequestCode::kChangeSaveSet);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  ClientRec* rec = FindClient(client);
  if (rec == nullptr) {
    return false;
  }
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  if (add) {
    if (std::find(rec->save_set.begin(), rec->save_set.end(), window) == rec->save_set.end()) {
      rec->save_set.push_back(window);
      win->save_set_clients.push_back(client);
      rec->referenced.insert(window);
    }
  } else {
    std::erase(rec->save_set, window);
    std::erase(win->save_set_clients, client);
    Unreference(client, *win);
  }
  return true;
}

// ---- Introspection ----------------------------------------------------------

std::optional<WindowAttributes> Server::GetWindowAttributes(WindowId window) const {
  const WindowRec* win = Find(window);
  if (win == nullptr) {
    return std::nullopt;
  }
  WindowAttributes attrs;
  attrs.window = window;
  attrs.window_class = win->window_class;
  attrs.override_redirect = win->override_redirect;
  attrs.all_event_masks = win->AllSelections();
  attrs.border_width = win->border_width;
  if (!win->mapped) {
    attrs.map_state = xproto::MapState::kUnmapped;
  } else if (AncestorsMapped(*win)) {
    attrs.map_state = xproto::MapState::kViewable;
  } else {
    attrs.map_state = xproto::MapState::kUnviewable;
  }
  return attrs;
}

std::optional<xbase::Rect> Server::GetGeometry(WindowId window) const {
  const WindowRec* win = Find(window);
  if (win == nullptr) {
    return std::nullopt;
  }
  return win->geometry;
}

std::optional<QueryTreeReply> Server::QueryTree(WindowId window) const {
  const WindowRec* win = Find(window);
  if (win == nullptr) {
    return std::nullopt;
  }
  QueryTreeReply reply;
  reply.window = window;
  reply.parent = win->parent;
  reply.children = win->children;
  reply.root = screens_[ScreenOf(*win)].root;
  return reply;
}

xbase::Point Server::RootPosition(WindowId window) const {
  xbase::Point pos;
  const WindowRec* win = Find(window);
  while (win != nullptr) {
    pos.x += win->geometry.x;
    pos.y += win->geometry.y;
    win = Find(win->parent);
  }
  return pos;
}

std::optional<xbase::Point> Server::TranslateCoordinates(WindowId src, WindowId dst,
                                                         const xbase::Point& point) const {
  const WindowRec* src_win = Find(src);
  const WindowRec* dst_win = Find(dst);
  if (src_win == nullptr || dst_win == nullptr || ScreenOf(*src_win) != ScreenOf(*dst_win)) {
    return std::nullopt;
  }
  xbase::Point src_root = RootPosition(src);
  xbase::Point dst_root = RootPosition(dst);
  return xbase::Point{point.x + src_root.x - dst_root.x, point.y + src_root.y - dst_root.y};
}

bool Server::WindowExists(WindowId window) const { return Find(window) != nullptr; }

bool Server::IsViewable(WindowId window) const {
  const WindowRec* win = Find(window);
  return win != nullptr && win->mapped && AncestorsMapped(*win);
}

bool Server::IsAncestorOrSelf(WindowId ancestor, WindowId descendant) const {
  WindowId cur = descendant;
  while (cur != kNone) {
    if (cur == ancestor) {
      return true;
    }
    const WindowRec* win = Find(cur);
    if (win == nullptr) {
      return false;
    }
    cur = win->parent;
  }
  return false;
}

// ---- Properties -------------------------------------------------------------

bool Server::ChangeProperty(ClientId client, WindowId window, AtomId property, AtomId type,
                            int format, PropMode mode, std::vector<uint8_t> data) {
  RequestGuard req(this, client, RequestCode::kChangeProperty);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  if (property == xproto::kAtomNone) {
    return RaiseError(client, ErrorCode::kBadAtom, property);
  }
  if (format != 8 && format != 16 && format != 32) {
    return RaiseError(client, ErrorCode::kBadValue, static_cast<uint32_t>(format));
  }
  PropertyRec& rec = win->properties[property];
  switch (mode) {
    case PropMode::kReplace:
      rec.type = type;
      rec.format = format;
      rec.data = std::move(data);
      break;
    case PropMode::kAppend:
      if (!rec.data.empty() && (rec.type != type || rec.format != format)) {
        return RaiseError(client, ErrorCode::kBadMatch, property);
      }
      rec.type = type;
      rec.format = format;
      rec.data.insert(rec.data.end(), data.begin(), data.end());
      break;
    case PropMode::kPrepend:
      if (!rec.data.empty() && (rec.type != type || rec.format != format)) {
        return RaiseError(client, ErrorCode::kBadMatch, property);
      }
      rec.type = type;
      rec.format = format;
      rec.data.insert(rec.data.begin(), data.begin(), data.end());
      break;
  }
  xproto::PropertyNotifyEvent notify;
  notify.window = window;
  notify.atom = property;
  notify.state = xproto::PropertyState::kNewValue;
  notify.time = Tick();
  DeliverToSelecting(window, xproto::kPropertyChangeMask, Event{notify});
  return true;
}

bool Server::DeleteProperty(ClientId client, WindowId window, AtomId property) {
  RequestGuard req(this, client, RequestCode::kDeleteProperty);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  if (win->properties.erase(property) == 0) {
    return false;  // Deleting an absent property is a no-op, not an error.
  }
  xproto::PropertyNotifyEvent notify;
  notify.window = window;
  notify.atom = property;
  notify.state = xproto::PropertyState::kDeleted;
  notify.time = Tick();
  DeliverToSelecting(window, xproto::kPropertyChangeMask, Event{notify});
  return true;
}

std::optional<PropertyRec> Server::GetProperty(WindowId window, AtomId property) const {
  const WindowRec* win = Find(window);
  if (win == nullptr) {
    return std::nullopt;
  }
  auto it = win->properties.find(property);
  if (it == win->properties.end()) {
    return std::nullopt;
  }
  if (fault_plan_active_ && !in_fault_ &&
      fault_rng_.Roll(fault_plan_.corrupt_property_permille)) {
    // Oversized garbage payload, same type/format the reader expects.
    ++fault_counters_.corrupted_properties;
    PropertyRec garbage = it->second;
    garbage.data.resize(fault_plan_.corrupt_property_bytes);
    for (uint8_t& byte : garbage.data) {
      byte = static_cast<uint8_t>(fault_rng_.Next());
    }
    return garbage;
  }
  if (fault_plan_active_ && !in_fault_ &&
      fault_rng_.Roll(fault_plan_.malform_property_permille)) {
    ++fault_counters_.malformed_properties;
    return MalformProperty(it->second);
  }
  return it->second;
}

PropertyRec Server::MalformProperty(const PropertyRec& original) const {
  // Structured malformations: the shapes hostile or buggy clients actually
  // produce, each targeting a decoder assumption.  Which shape is drawn from
  // the same seeded stream as every other fault decision.
  PropertyRec out = original;
  switch (fault_rng_.Range(0, 4)) {
    case 0:
      // Truncated mid-field: a hints array cut anywhere, including inside a
      // 32-bit field.
      if (!out.data.empty()) {
        out.data.resize(fault_rng_.Next() % out.data.size());
        break;
      }
      [[fallthrough]];
    case 1: {
      // Giant string, sprinkled with control characters and NULs.
      out.data.resize(64 * 1024 + static_cast<size_t>(fault_rng_.Range(0, 4095)));
      for (uint8_t& byte : out.data) {
        uint64_t draw = fault_rng_.Next();
        byte = (draw % 17 == 0) ? static_cast<uint8_t>(draw % 32)  // NUL/C0.
                                : static_cast<uint8_t>('!' + draw % 94);
      }
      break;
    }
    case 2: {
      // All-negative 32-bit fields: -1, INT_MIN, or a large negative, per
      // field (negative sizes, increments, coordinates).
      for (size_t i = 0; i + 4 <= out.data.size(); i += 4) {
        uint32_t value = 0;
        switch (fault_rng_.Range(0, 2)) {
          case 0: value = 0xffffffffu; break;                        // -1
          case 1: value = 0x80000000u; break;                        // INT_MIN
          default: value = 0x80000000u | static_cast<uint32_t>(fault_rng_.Next()); break;
        }
        out.data[i] = static_cast<uint8_t>(value & 0xff);
        out.data[i + 1] = static_cast<uint8_t>((value >> 8) & 0xff);
        out.data[i + 2] = static_cast<uint8_t>((value >> 16) & 0xff);
        out.data[i + 3] = static_cast<uint8_t>((value >> 24) & 0xff);
      }
      break;
    }
    case 3:
      // Wrong format tag: 32-bit data claiming to be bytes and vice versa.
      out.format = out.format == 32 ? 8 : 32;
      break;
    default:
      // All-zero payload: zero sizes, zero resize increments, state 0.
      std::fill(out.data.begin(), out.data.end(), 0);
      break;
  }
  return out;
}

std::vector<AtomId> Server::ListProperties(WindowId window) const {
  std::vector<AtomId> out;
  const WindowRec* win = Find(window);
  if (win != nullptr) {
    for (const auto& [atom, rec] : win->properties) {
      out.push_back(atom);
    }
  }
  return out;
}

// ---- Drawing ----------------------------------------------------------------

bool Server::SetWindowBackground(ClientId client, WindowId window, char background) {
  RequestGuard req(this, client, RequestCode::kSetWindowBackground);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  win->background = background;
  return true;
}

bool Server::SetCursor(ClientId client, WindowId window, const std::string& name) {
  RequestGuard req(this, client, RequestCode::kSetCursor);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  win->cursor_name = name;
  return true;
}

bool Server::ClearWindow(ClientId client, WindowId window) {
  RequestGuard req(this, client, RequestCode::kClearWindow);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  // No Expose is generated here: redraw-on-clear would make every renderer
  // that clears-then-draws in its Expose handler loop forever.
  win->draw_ops.clear();
  ++render_stats_.clears;
  return true;
}

bool Server::Draw(ClientId client, WindowId window, DrawOp op) {
  RequestGuard req(this, client, RequestCode::kDraw);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, ErrorCode::kBadWindow, window);
  }
  if (win->window_class == xproto::WindowClass::kInputOnly) {
    return RaiseError(client, ErrorCode::kBadMatch, window);
  }
  RecordDraw(op);
  win->draw_ops.push_back(std::move(op));
  return true;
}

}  // namespace xserver
