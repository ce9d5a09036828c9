#include "src/swm/policy/maximize_policy.h"

#include <algorithm>

#include "src/swm/wm.h"

namespace swm {

xbase::Point MaximizePolicy::PlaceNew(ManagedClient* client,
                                      const xbase::Rect& client_geometry,
                                      const std::optional<SwmHintsRecord>& session) {
  if (!SlotManaged(*client)) {
    return PlaceFloating(client, client_geometry, session);
  }
  // The slot is the whole viewport; OnManage's ApplySlot refines centering.
  return ViewportOrigin(client->screen, client->sticky);
}

void MaximizePolicy::OnManage(ManagedClient* client) {
  if (!SlotManaged(*client)) {
    return;
  }
  xbase::Size view = ViewportSize(client->screen);
  ApplySlot(client, {0, 0, view.width, view.height});
  // xswm: the newest window is on top and focused (via OnStackingChange).
  wm_->RaiseClient(client);
}

void MaximizePolicy::OnUnmanage(xproto::WindowId window, int screen) {
  (void)screen;
  bool was_focused = !mru_.empty() && mru_.back() == window;
  Drop(window);
  if (was_focused && !mru_.empty()) {
    // Reveal and focus the previous window — xswm's close behaviour.
    if (ManagedClient* next = wm_->FindClient(mru_.back())) {
      wm_->RaiseClient(next);
    }
  }
}

bool MaximizePolicy::OnConfigureRequest(ManagedClient* client,
                                        const xproto::ConfigureRequestEvent& event) {
  return DenySlotConfigure(client, event);
}

void MaximizePolicy::OnViewportChange(int screen) {
  ResetCascade(screen);
  wm_->RequestRelayout(screen);  // Maximized frames follow the viewport.
}

void MaximizePolicy::OnStackingChange(ManagedClient* client, bool raised) {
  if (raised && SlotManaged(*client)) {
    Touch(client);
  }
}

void MaximizePolicy::OnIconicChange(ManagedClient* client) {
  if (client->state == xproto::WmState::kIconic) {
    bool was_focused = !mru_.empty() && mru_.back() == client->window;
    Drop(client->window);
    if (was_focused && !mru_.empty()) {
      if (ManagedClient* next = wm_->FindClient(mru_.back())) {
        wm_->RaiseClient(next);
      }
    }
  } else if (SlotManaged(*client)) {
    // Deiconified: re-assert the slot (hints may have changed while iconic)
    // and make it the focused window.
    xbase::Size view = ViewportSize(client->screen);
    ApplySlot(client, {0, 0, view.width, view.height});
    wm_->RaiseClient(client);
  }
}

void MaximizePolicy::Relayout(int screen) {
  xbase::Size view = ViewportSize(screen);
  for (ManagedClient* client : SlotClients(screen)) {
    ApplySlot(client, {0, 0, view.width, view.height});
  }
  // Adopt clients this policy has never seen (runtime switch): id order.
  for (ManagedClient* client : SlotClients(screen)) {
    if (std::find(mru_.begin(), mru_.end(), client->window) == mru_.end()) {
      mru_.push_back(client->window);
    }
  }
  if (!mru_.empty()) {
    if (ManagedClient* top = wm_->FindClient(mru_.back())) {
      wm_->RaiseClient(top);
    }
  }
}

bool MaximizePolicy::HandleCommand(const std::vector<std::string>& words,
                                   int screen) {
  (void)screen;
  if (words.size() != 1) {
    return false;
  }
  if (words[0] == "close") {
    if (ManagedClient* focused = FocusedClient()) {
      wm_->CloseClient(focused);
    }
    return true;
  }
  if (words[0] == "last") {
    if (mru_.size() >= 2) {
      if (ManagedClient* previous = wm_->FindClient(mru_[mru_.size() - 2])) {
        if (previous->state == xproto::WmState::kIconic) {
          wm_->Deiconify(previous);
        }
        wm_->RaiseClient(previous);  // → Touch: now the focused window.
      }
    }
    return true;
  }
  return false;
}

void MaximizePolicy::Touch(ManagedClient* client) {
  Drop(client->window);
  mru_.push_back(client->window);
  wm_->display().SetInputFocus(client->window);
}

void MaximizePolicy::Drop(xproto::WindowId window) {
  mru_.erase(std::remove(mru_.begin(), mru_.end(), window), mru_.end());
}

ManagedClient* MaximizePolicy::FocusedClient() {
  if (ManagedClient* focused = wm_->FindClient(wm_->display().GetInputFocus())) {
    if (SlotManaged(*focused)) {
      return focused;
    }
  }
  return mru_.empty() ? nullptr : wm_->FindClient(mru_.back());
}

}  // namespace swm
