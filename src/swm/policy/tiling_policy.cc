#include "src/swm/policy/tiling_policy.h"

#include <algorithm>

#include "src/swm/wm.h"

namespace swm {

std::vector<xbase::Rect> TilingPolicy::SplitSlots(xbase::Size view, size_t count) {
  std::vector<xbase::Rect> slots;
  slots.reserve(count);
  xbase::Rect rest{0, 0, view.width, view.height};
  bool vertical = true;  // The first cut divides the width.
  for (size_t i = 0; i < count; ++i) {
    xbase::Rect slot = rest;
    if (i + 1 < count) {
      if (vertical) {
        slot.width = std::max(1, rest.width / 2);
        rest.x += slot.width;
        rest.width = std::max(1, rest.width - slot.width);
      } else {
        slot.height = std::max(1, rest.height / 2);
        rest.y += slot.height;
        rest.height = std::max(1, rest.height - slot.height);
      }
      vertical = !vertical;
    }
    slots.push_back(slot);
  }
  return slots;
}

std::vector<ManagedClient*> TilingPolicy::OrderedClients(int screen) {
  std::vector<ManagedClient*> eligible = SlotClients(screen);
  // Keep manage order for clients we have seen; adopt the rest (runtime
  // switch, deiconify) at the end in id order; drop stale entries.
  std::vector<ManagedClient*> ordered;
  ordered.reserve(eligible.size());
  std::vector<xproto::WindowId> fresh_order;
  fresh_order.reserve(eligible.size());
  for (xproto::WindowId window : order_) {
    auto it = std::find_if(eligible.begin(), eligible.end(),
                           [&](ManagedClient* c) { return c->window == window; });
    if (it != eligible.end()) {
      ordered.push_back(*it);
      fresh_order.push_back(window);
    }
  }
  for (ManagedClient* client : eligible) {
    if (std::find(fresh_order.begin(), fresh_order.end(), client->window) ==
        fresh_order.end()) {
      ordered.push_back(client);
      fresh_order.push_back(client->window);
    }
  }
  order_ = std::move(fresh_order);
  return ordered;
}

xbase::Point TilingPolicy::PlaceNew(ManagedClient* client,
                                    const xbase::Rect& client_geometry,
                                    const std::optional<SwmHintsRecord>& session) {
  if (!SlotManaged(*client)) {
    return PlaceFloating(client, client_geometry, session);
  }
  return ViewportOrigin(client->screen, client->sticky);  // Relayout refines.
}

void TilingPolicy::OnManage(ManagedClient* client) {
  if (!SlotManaged(*client)) {
    return;
  }
  order_.push_back(client->window);
  wm_->RequestRelayout(client->screen);
}

void TilingPolicy::OnUnmanage(xproto::WindowId window, int screen) {
  order_.erase(std::remove(order_.begin(), order_.end(), window), order_.end());
  wm_->RequestRelayout(screen);
}

bool TilingPolicy::OnConfigureRequest(ManagedClient* client,
                                      const xproto::ConfigureRequestEvent& event) {
  return DenySlotConfigure(client, event);
}

void TilingPolicy::OnViewportChange(int screen) {
  ResetCascade(screen);
  wm_->RequestRelayout(screen);  // Tiles follow the viewport.
}

void TilingPolicy::OnIconicChange(ManagedClient* client) {
  // An iconified window leaves the tiling (SlotManaged excludes it); a
  // deiconified one reclaims its place.  Either way, survivors reflow.
  wm_->RequestRelayout(client->screen);
}

void TilingPolicy::Relayout(int screen) {
  std::vector<ManagedClient*> clients = OrderedClients(screen);
  if (clients.empty()) {
    return;
  }
  std::vector<xbase::Rect> slots = SplitSlots(ViewportSize(screen), clients.size());
  for (size_t i = 0; i < clients.size(); ++i) {
    ApplySlot(clients[i], slots[i]);
  }
}

}  // namespace swm
