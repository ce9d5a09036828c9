// Event handling: redirect requests, client state changes, swmcmd property
// commands, interactive drags and pending target selection.
#include <algorithm>
#include <exception>
#include <map>
#include <set>
#include <tuple>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/swm/panner.h"
#include "src/swm/policy/layout_policy.h"
#include "src/swm/scrollbars.h"
#include "src/swm/wm.h"
#include "src/xlib/icccm.h"

namespace swm {

namespace {

// swmcmd flood control: anyone can append to the root property, so one
// ProcessEvents call executes at most this many commands (the rest are
// dropped with a warning) and reads at most this many bytes of payload.
constexpr int kMaxSwmCommandsPerDrain = 64;
constexpr size_t kMaxSwmCommandBytes = 4096;

// The window whose client is responsible for an event — request events name
// the client window, notify events the event window.
xproto::WindowId CulpritWindow(const xproto::Event& event) {
  if (const auto* map_request = std::get_if<xproto::MapRequestEvent>(&event)) {
    return map_request->window;
  }
  if (const auto* configure = std::get_if<xproto::ConfigureRequestEvent>(&event)) {
    return configure->window;
  }
  if (const auto* circulate = std::get_if<xproto::CirculateRequestEvent>(&event)) {
    return circulate->window;
  }
  return xproto::EventWindow(event);
}

// The barrier: one failed dispatch or reflow must not take down the WM (or
// leave the remaining queue unprocessed).  X errors don't throw — they go
// through OnXError — so this catches toolkit/dispatch/policy bugs.
template <typename Fn>
void Guarded(bool self_heal, uint64_t* errors, const char* what, Fn&& fn) {
  if (!self_heal) {
    fn();
    return;
  }
  try {
    fn();
  } catch (const std::exception& e) {
    ++*errors;
    XB_LOG(Error) << "swm: " << what << " failed (" << e.what()
                  << "); dropping it and continuing";
  } catch (...) {
    ++*errors;
    XB_LOG(Error) << "swm: " << what << " failed; dropping it and continuing";
  }
}

}  // namespace

void WindowManager::ProcessEvents() {
  swmcmd_budget_ = kMaxSwmCommandsPerDrain;
  swmcmd_budget_warned_ = false;
  // Quarantine time tick: refill misbehavior budgets, and apply the single
  // coalesced ConfigureRequest each paroled window earned during quarantine.
  for (xproto::WindowId paroled : ledger_.Tick()) {
    auto pending = quarantine_pending_configure_.find(paroled);
    if (pending != quarantine_pending_configure_.end()) {
      xproto::ConfigureRequestEvent request = pending->second;
      quarantine_pending_configure_.erase(pending);
      if (FindClient(paroled) != nullptr) {
        HandleConfigureRequest(request);
      }
    }
    if (FindClient(paroled) != nullptr) {
      // Property updates were skipped during quarantine; pick up whatever
      // values the storm settled on by replaying one notify per ICCCM atom.
      for (const char* atom : {xproto::kAtomWmName, xproto::kAtomWmIconName,
                               xproto::kAtomWmNormalHints, xproto::kAtomWmHints,
                               xproto::kAtomWmCommand}) {
        xproto::PropertyNotifyEvent notify;
        notify.window = paroled;
        notify.atom = display_.InternAtom(atom);
        notify.state = xproto::PropertyState::kNewValue;
        HandlePropertyNotify(notify);
      }
    }
  }
  // Dispatch runs under a frame hold: handlers invalidate objects instead of
  // painting, and each settle iteration flushes the accumulated damage as
  // one frame (the retained pipeline's batch boundary).
  FrameHold hold(this);
  // Events can cascade (managing a window produces more events for us), so
  // loop until the queue settles.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    ++settle_iterations_;
    // Drain the whole pending batch before dispatching anything: coalescing
    // can only spot redundant ConfigureNotify/Expose pairs across the batch.
    std::vector<xproto::Event> batch;
    while (std::optional<xproto::Event> event = display_.NextEvent()) {
      batch.push_back(std::move(*event));
    }
    CoalesceEventBatch(&batch);
    for (const xproto::Event& event : batch) {
      progressed = true;
      ++events_dispatched_;
      if (ManagedClient* culprit = FindClientByKnownWindow(CulpritWindow(event))) {
        ++events_dispatched_by_client_[culprit->window];
      }
      Guarded(options_.self_heal, &dispatch_errors_, "event dispatch",
              [&] { HandleEvent(event); });
    }
    // Slot policies reflow once per batch, whatever number of manages,
    // unmanages and denied configures asked for it, and only after the
    // batch's DestroyNotifys have left the tables.
    RunRequestedRelayouts();
    // One frame per batch: lay out dirty subtrees, paint each damaged
    // object once.  The flush's own layout may emit new ConfigureNotify /
    // Expose events; they form the next iteration's batch and settle
    // because repainting without a geometry change emits nothing.
    FlushFrames();
    if (options_.self_heal && !suspect_windows_.empty()) {
      HealSuspects();
      progressed = true;
    }
    // f.restart's resource reload runs only once no binding dispatch is on
    // the stack (it replaces every object's bindings), and its renders may
    // cascade new events — hence inside the settle loop.
    if (resource_reload_pending_) {
      resource_reload_pending_ = false;
      ReloadResources();
      progressed = true;
    }
  }
}

void WindowManager::RequestRelayout(int screen) {
  if (frame_hold_depth_ == 0) {
    policy_->Relayout(screen);
  } else {
    relayout_pending_.insert(screen);
  }
}

void WindowManager::RunRequestedRelayouts() {
  std::set<int> screens;
  screens.swap(relayout_pending_);
  for (int screen : screens) {
    Guarded(options_.self_heal, &dispatch_errors_, "policy relayout",
            [&] { policy_->Relayout(screen); });
  }
}

// Drops events the batch itself makes redundant: only the last
// ConfigureNotify per (event_window, window, synthetic) key matters — each
// carries the complete current geometry — and Expose rectangles for one
// window merge into a single event covering their bounding box.  The damage
// region keeps paints tight; coalescing keeps dispatch count low.  An
// UnmapNotify that its window's DestroyNotify follows is dropped, so the
// destroy unmanages without reparenting a dead window back.
void WindowManager::CoalesceEventBatch(std::vector<xproto::Event>* batch) {
  struct ConfigureKey {
    xproto::WindowId event_window;
    xproto::WindowId window;
    bool synthetic;
    bool operator<(const ConfigureKey& other) const {
      return std::tie(event_window, window, synthetic) <
             std::tie(other.event_window, other.window, other.synthetic);
    }
  };
  std::map<ConfigureKey, size_t> last_configure;
  std::map<xproto::WindowId, size_t> last_expose;
  std::map<xproto::WindowId, size_t> last_destroy;
  for (size_t i = 0; i < batch->size(); ++i) {
    if (const auto* configure =
            std::get_if<xproto::ConfigureNotifyEvent>(&(*batch)[i])) {
      last_configure[{configure->event_window, configure->window,
                      configure->synthetic}] = i;
    } else if (const auto* expose = std::get_if<xproto::ExposeEvent>(&(*batch)[i])) {
      last_expose[expose->window] = i;
    } else if (const auto* destroy = std::get_if<xproto::DestroyNotifyEvent>(&(*batch)[i])) {
      last_destroy[destroy->window] = i;
    }
  }

  std::map<xproto::WindowId, xbase::Rect> merged_areas;
  std::vector<xproto::Event> kept;
  kept.reserve(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    xproto::Event& event = (*batch)[i];
    if (const auto* configure = std::get_if<xproto::ConfigureNotifyEvent>(&event)) {
      ConfigureKey key{configure->event_window, configure->window,
                       configure->synthetic};
      if (last_configure[key] != i) {
        ++events_coalesced_;
        continue;
      }
    } else if (const auto* unmap = std::get_if<xproto::UnmapNotifyEvent>(&event)) {
      if (auto d = last_destroy.find(unmap->window); d != last_destroy.end() && d->second > i) {
        ++events_coalesced_;
        continue;
      }
    } else if (auto* expose = std::get_if<xproto::ExposeEvent>(&event)) {
      // Accumulate the running bounding box; only the final event survives,
      // carrying the union and count 0.
      auto [it, inserted] = merged_areas.try_emplace(expose->window, expose->area);
      if (!inserted) {
        xbase::Rect& merged = it->second;
        int right = std::max(merged.x + merged.width, expose->area.x + expose->area.width);
        int bottom =
            std::max(merged.y + merged.height, expose->area.y + expose->area.height);
        merged.x = std::min(merged.x, expose->area.x);
        merged.y = std::min(merged.y, expose->area.y);
        merged.width = right - merged.x;
        merged.height = bottom - merged.y;
      }
      if (last_expose[expose->window] != i) {
        ++events_coalesced_;
        continue;
      }
      expose->area = it->second;
      expose->count = 0;
    }
    kept.push_back(std::move(event));
  }
  *batch = std::move(kept);
}

void WindowManager::HandleEvent(const xproto::Event& event) {
  if (HandleDrag(event)) {
    return;
  }
  if (HandlePendingSelection(event)) {
    return;
  }

  // Panner interactions get first refusal on pointer events.
  if (const auto* button = std::get_if<xproto::ButtonEvent>(&event)) {
    for (ScreenState& state : screens_) {
      if (state.panner != nullptr && (button->window == state.panner->window() ||
                                      state.panner->dragging_window())) {
        if (state.panner->HandleButton(*button)) {
          return;
        }
      }
    }
  }
  if (const auto* motion = std::get_if<xproto::MotionEvent>(&event)) {
    for (ScreenState& state : screens_) {
      if (state.panner != nullptr && (motion->window == state.panner->window() ||
                                      state.panner->dragging_window())) {
        if (state.panner->HandleMotion(*motion)) {
          return;
        }
      }
    }
  }

  if (const auto* button = std::get_if<xproto::ButtonEvent>(&event)) {
    for (ScreenState& state : screens_) {
      if (state.scrollbars != nullptr && state.scrollbars->HandleButton(*button)) {
        return;
      }
    }
  }
  if (const auto* motion = std::get_if<xproto::MotionEvent>(&event)) {
    for (ScreenState& state : screens_) {
      if (state.scrollbars != nullptr && state.scrollbars->HandleMotion(*motion)) {
        return;
      }
    }
  }

  if (const auto* map_request = std::get_if<xproto::MapRequestEvent>(&event)) {
    HandleMapRequest(*map_request);
    return;
  }
  if (const auto* configure = std::get_if<xproto::ConfigureRequestEvent>(&event)) {
    HandleConfigureRequest(*configure);
    return;
  }
  if (const auto* unmap = std::get_if<xproto::UnmapNotifyEvent>(&event)) {
    HandleUnmapNotify(*unmap);
    return;
  }
  if (const auto* destroy = std::get_if<xproto::DestroyNotifyEvent>(&event)) {
    HandleDestroyNotify(*destroy);
    return;
  }
  if (const auto* property = std::get_if<xproto::PropertyNotifyEvent>(&event)) {
    HandlePropertyNotify(*property);
    return;
  }
  if (const auto* message = std::get_if<xproto::ClientMessageEvent>(&event)) {
    HandleClientMessage(*message);
    return;
  }
  if (const auto* shape = std::get_if<xproto::ShapeNotifyEvent>(&event)) {
    // A client became shaped/unshaped at runtime: re-decorate so the
    // "shaped" resource prefix applies (§5).
    if (ManagedClient* client = FindClient(shape->window)) {
      bool shaped = display_.IsShaped(shape->window);
      if (client->shaped != shaped) {
        client->shaped = shaped;
        ReDecorate(client);
      }
    }
    return;
  }

  // Everything else is toolkit-object traffic (bindings, exposure).
  for (ScreenState& state : screens_) {
    if (state.toolkit->DispatchEvent(event)) {
      return;
    }
  }
}

void WindowManager::HandleMapRequest(const xproto::MapRequestEvent& event) {
  ManagedClient* existing = FindClient(event.window);
  if (existing != nullptr) {
    // Mapping an iconified window deiconifies it (ICCCM).
    if (existing->state == xproto::WmState::kIconic) {
      Deiconify(existing);
    } else {
      display_.MapWindow(event.window);
    }
    return;
  }
  ManageWindow(event.window, ScreenOf(event.parent));
}

void WindowManager::HandleConfigureRequest(const xproto::ConfigureRequestEvent& event) {
  ManagedClient* client = FindClient(event.window);
  if (client != nullptr && !client->is_internal &&
      ledger_.Charge(event.window, ledger_.policy().configure_cost)) {
    // Quarantined: coalesce.  Only the latest request is kept; it is applied
    // once at parole, so the decoration stays intact and the flood costs the
    // rest of the desktop nothing.
    quarantine_pending_configure_[event.window] = event;
    ledger_.NoteDropped();
    return;
  }
  if (client == nullptr) {
    // Not managed (yet): forward the configuration unchanged.
    xserver::ConfigureValues values;
    values.geometry = event.geometry;
    values.border_width = event.border_width;
    values.sibling = event.sibling;
    values.stack_mode = event.stack_mode;
    display_.ConfigureWindow(event.window, event.value_mask, values);
    return;
  }
  if (!client->is_internal && policy_->OnConfigureRequest(client, event)) {
    // The layout policy owns this window's geometry and has answered the
    // request itself (typically by reasserting the slot).
    return;
  }
  // Size change: constrain and re-layout the decoration around it.
  std::optional<xbase::Rect> current = display_.GetGeometry(event.window);
  if (!current.has_value()) {
    return;
  }
  xbase::Size new_size = current->size();
  if (event.value_mask & xproto::kConfigWidth) {
    new_size.width = event.geometry.width;
  }
  if (event.value_mask & xproto::kConfigHeight) {
    new_size.height = event.geometry.height;
  }
  if (new_size != current->size()) {
    ResizeClient(client, new_size);
  }
  // Position change: requested coordinates are interpreted in the client's
  // effective-root space (desktop coordinates for non-sticky windows).
  if (event.value_mask & (xproto::kConfigX | xproto::kConfigY)) {
    xbase::Point desired = client->ClientDesktopPosition();
    if (event.value_mask & xproto::kConfigX) {
      desired.x = event.geometry.x;
    }
    if (event.value_mask & xproto::kConfigY) {
      desired.y = event.geometry.y;
    }
    xbase::Point client_offset{
        client->ClientDesktopPosition().x - client->frame->geometry().x,
        client->ClientDesktopPosition().y - client->frame->geometry().y};
    MoveFrameTo(client, {desired.x - client_offset.x, desired.y - client_offset.y});
  }
  if (event.value_mask & xproto::kConfigStackMode) {
    if (event.stack_mode == xproto::StackMode::kAbove) {
      RaiseClient(client);
    } else if (event.stack_mode == xproto::StackMode::kBelow) {
      LowerClient(client);
    }
  }
  SendSyntheticConfigure(client);
}

void WindowManager::HandleUnmapNotify(const xproto::UnmapNotifyEvent& event) {
  ManagedClient* client = FindClient(event.window);
  if (client == nullptr || event.event_window != event.window) {
    return;
  }
  if (client->ignore_unmaps > 0) {
    --client->ignore_unmaps;
    return;
  }
  // The client unmapped its own window: ICCCM withdrawal.
  UnmanageWindow(event.window, /*reparent_back=*/true);
}

void WindowManager::HandleDestroyNotify(const xproto::DestroyNotifyEvent& event) {
  if (FindClient(event.window) != nullptr) {
    UnmanageWindow(event.window, /*reparent_back=*/false);
  }
}

void WindowManager::HandlePropertyNotify(const xproto::PropertyNotifyEvent& event) {
  // swmcmd channel (paper §4.5): commands arrive as a root-window property.
  // Senders append (newline-separated) so concurrent swmcmds don't clobber
  // each other; one read drains every queued command before the delete.
  for (int screen = 0; screen < display_.ScreenCount(); ++screen) {
    if (event.window == display_.RootWindow(screen)) {
      if (event.atom == display_.InternAtom(xproto::kAtomSwmCommand) &&
          event.state == xproto::PropertyState::kNewValue) {
        std::optional<std::string> text =
            display_.GetStringProperty(event.window, xproto::kAtomSwmCommand);
        display_.DeleteProperty(event.window,
                                display_.InternAtom(xproto::kAtomSwmCommand));
        if (text.has_value()) {
          // A sender writes "command\n"; a property observed mid-write can
          // end without the newline.  Only complete (newline-terminated)
          // lines execute; an unterminated tail is buffered and prepended to
          // the next read, so a partial write never runs as a half-command.
          std::string payload = std::move(swmcmd_partial_[screen]) + *text;
          swmcmd_partial_[screen].clear();
          if (payload.size() > kMaxSwmCommandBytes) {
            XB_LOG_EVERY_N(Warning, "swm:swmcmd-payload-cap", 16)
                << "swm: SWM_COMMAND payload of " << payload.size()
                << " bytes exceeds cap; truncating to " << kMaxSwmCommandBytes;
            payload.resize(kMaxSwmCommandBytes);
          }
          size_t last_newline = payload.rfind('\n');
          if (last_newline == std::string::npos) {
            swmcmd_partial_[screen] = std::move(payload);
            return;
          }
          if (last_newline + 1 != payload.size()) {
            swmcmd_partial_[screen] = payload.substr(last_newline + 1);
            payload.resize(last_newline + 1);
          }
          for (const std::string& line : xbase::Split(payload, '\n')) {
            std::string command = xbase::TrimWhitespace(line);
            if (command.empty()) {
              continue;
            }
            if (swmcmd_budget_ <= 0) {
              if (!swmcmd_budget_warned_) {
                swmcmd_budget_warned_ = true;
                XB_LOG(Warning) << "swm: swmcmd rate limit reached; "
                                   "dropping remaining commands";
              }
              break;
            }
            --swmcmd_budget_;
            ExecuteCommandString(command, screen);
          }
        }
      }
      return;
    }
  }

  ManagedClient* client = FindClient(event.window);
  if (client == nullptr || event.state != xproto::PropertyState::kNewValue) {
    return;
  }
  if (!client->is_internal &&
      ledger_.Charge(event.window, ledger_.policy().property_cost)) {
    // Property storm from a quarantined window: skip the re-read entirely
    // (each one costs a round trip plus decoration updates).  Parole-time
    // RefreshClientProperties picks up whatever value the storm settled on.
    ledger_.NoteDropped();
    return;
  }
  std::optional<std::string> atom_name = display_.GetAtomName(event.atom);
  if (!atom_name.has_value()) {
    return;
  }
  if (*atom_name == xproto::kAtomWmName) {
    client->name = xlib::GetWmName(&display_, client->window).value_or("");
    if (client->name_object != nullptr) {
      if (client->name_object->type() == oi::ObjectType::kButton) {
        static_cast<oi::Button*>(client->name_object)->SetLabel(client->name);
      } else if (client->name_object->type() == oi::ObjectType::kText) {
        static_cast<oi::TextObject*>(client->name_object)->SetText(client->name);
      }
    }
  } else if (*atom_name == xproto::kAtomWmIconName) {
    client->icon_name =
        xlib::GetWmIconName(&display_, client->window).value_or(client->name);
    if (client->icon != nullptr) {
      oi::Object* icon_name_obj = client->icon->FindDescendant("iconname");
      if (icon_name_obj != nullptr &&
          icon_name_obj->type() == oi::ObjectType::kButton) {
        static_cast<oi::Button*>(icon_name_obj)->SetLabel(client->icon_name);
      }
    }
  } else if (*atom_name == xproto::kAtomWmNormalHints) {
    client->size_hints =
        xlib::GetWmNormalHints(&display_, client->window).value_or(xproto::SizeHints{});
  } else if (*atom_name == xproto::kAtomWmHints) {
    client->wm_hints =
        xlib::GetWmHints(&display_, client->window).value_or(xproto::WmHints{});
  } else if (*atom_name == xproto::kAtomWmCommand) {
    std::optional<std::vector<std::string>> argv =
        xlib::GetWmCommand(&display_, client->window);
    client->command = argv.has_value() ? xbase::JoinStrings(*argv, " ") : "";
  }
}

void WindowManager::HandleClientMessage(const xproto::ClientMessageEvent& event) {
  if (event.message_type == display_.InternAtom("WM_CHANGE_STATE") &&
      event.data[0] == static_cast<uint32_t>(xproto::WmState::kIconic)) {
    if (ManagedClient* client = FindClient(event.window)) {
      Iconify(client);
    }
  }
}

// ---- Interactive move/resize drags -----------------------------------------------

bool WindowManager::HandleDrag(const xproto::Event& event) {
  if (drag_.mode == DragState::Mode::kNone) {
    return false;
  }
  ManagedClient* client = FindClient(drag_.client_window);
  if (client == nullptr || client->frame == nullptr) {
    drag_.mode = DragState::Mode::kNone;
    return false;
  }
  // §6.1's reverse direction: "when the window move was started on a client
  // window and the pointer is moved into the panner", the drop lands at the
  // miniature position — i.e. anywhere on the desktop.
  auto panner_target = [&](const xbase::Point& root_pos)
      -> std::optional<xbase::Point> {
    Panner* p = panner(client->screen);
    if (p == nullptr || drag_.mode != DragState::Mode::kMove) {
      return std::nullopt;
    }
    std::optional<xserver::WindowAttributes> attrs = display_.GetWindowAttributes(p->window());
    if (!attrs.has_value() || attrs->map_state != xproto::MapState::kViewable) {
      return std::nullopt;
    }
    std::optional<xbase::Point> origin = RootPosition(p->window(), client->screen);
    std::optional<xbase::Rect> geometry = display_.GetGeometry(p->window());
    if (!origin.has_value() || !geometry.has_value()) {
      return std::nullopt;
    }
    xbase::Rect on_screen{origin->x, origin->y, geometry->width, geometry->height};
    if (!on_screen.Contains(root_pos)) {
      return std::nullopt;
    }
    return p->PannerToDesktop({root_pos.x - origin->x, root_pos.y - origin->y});
  };
  auto apply = [&](const xbase::Point& root_pos) {
    int dx = root_pos.x - drag_.start_pointer.x;
    int dy = root_pos.y - drag_.start_pointer.y;
    if (drag_.mode == DragState::Mode::kMove) {
      if (std::optional<xbase::Point> desktop = panner_target(root_pos)) {
        MoveFrameTo(client, *desktop);
        return;
      }
      MoveFrameTo(client, {drag_.start_frame.x + dx, drag_.start_frame.y + dy});
    } else {
      xbase::Size frame_size = client->frame->geometry().size();
      xbase::Size client_size = client->client_panel->geometry().size();
      xbase::Size decoration{frame_size.width - client_size.width,
                             frame_size.height - client_size.height};
      xbase::Size target{std::max(1, drag_.start_frame.width + dx - decoration.width),
                         std::max(1, drag_.start_frame.height + dy - decoration.height)};
      ResizeClient(client, target);
    }
  };
  if (const auto* motion = std::get_if<xproto::MotionEvent>(&event)) {
    apply(motion->root_pos);
    return true;
  }
  if (const auto* button = std::get_if<xproto::ButtonEvent>(&event)) {
    if (!button->press) {
      apply(button->root_pos);
      drag_.mode = DragState::Mode::kNone;
    }
    return true;
  }
  return false;
}

// ---- Pending interactive target selection -------------------------------------------

bool WindowManager::HandlePendingSelection(const xproto::Event& event) {
  if (!pending_.active) {
    return false;
  }
  const auto* button = std::get_if<xproto::ButtonEvent>(&event);
  if (button == nullptr || !button->press) {
    return false;
  }
  // A press on the root (or desktop) cancels / terminates the selection.
  xproto::WindowId target_window =
      button->subwindow != xproto::kNone ? button->subwindow : button->window;
  ManagedClient* client = FindClientByAnyWindow(target_window);
  bool on_root = false;
  for (int screen = 0; screen < display_.ScreenCount(); ++screen) {
    ScreenState& state = screens_[screen];
    if (target_window == display_.RootWindow(screen)) {
      on_root = true;
    }
    for (const auto& desk : state.vdesks) {
      if (target_window == desk->window()) {
        on_root = true;
      }
    }
  }
  if (client == nullptr) {
    if (on_root || !pending_.multiple) {
      pending_.active = false;
      for (int screen = 0; screen < display_.ScreenCount(); ++screen) {
        display_.SetCursor(display_.RootWindow(screen), "");
      }
    }
    return true;
  }
  std::vector<xtb::FunctionCall> functions = pending_.functions;
  if (!pending_.multiple) {
    pending_.active = false;
    for (int screen = 0; screen < display_.ScreenCount(); ++screen) {
      display_.SetCursor(display_.RootWindow(screen), "");
    }
  }
  oi::ActionContext context;
  context.root_pos = button->root_pos;
  context.button = button->button;
  for (const xtb::FunctionCall& function : functions) {
    ApplyWindowFunction(function.name, client, function, context);
  }
  return true;
}

}  // namespace swm
