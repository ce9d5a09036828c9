#include "src/swm/policy/layout_policy.h"

#include <algorithm>

#include "src/swm/policy/dynamic_policy.h"
#include "src/swm/policy/floating_policy.h"
#include "src/swm/policy/maximize_policy.h"
#include "src/swm/policy/tiling_policy.h"
#include "src/swm/vdesk.h"
#include "src/swm/wm.h"

namespace swm {

bool LayoutPolicy::SlotManaged(const ManagedClient& client) const {
  return !client.is_internal && !client.sticky &&
         client.transient_for == xproto::kNone &&
         client.state == xproto::WmState::kNormal && client.frame != nullptr &&
         client.client_panel != nullptr;
}

std::vector<ManagedClient*> LayoutPolicy::SlotClients(int screen) const {
  std::vector<ManagedClient*> out;
  for (ManagedClient* client : wm_->Clients()) {  // clients_ map: id order.
    if (client->screen == screen && SlotManaged(*client)) {
      out.push_back(client);
    }
  }
  return out;
}

xbase::Size LayoutPolicy::ViewportSize(int screen) const {
  return wm_->display().DisplaySize(screen);
}

xbase::Point LayoutPolicy::ViewportOrigin(int screen, bool sticky) const {
  VirtualDesktop* desk = wm_->vdesk(screen);
  if (sticky || desk == nullptr) {
    return {0, 0};
  }
  return desk->offset();
}

void LayoutPolicy::ApplySlot(ManagedClient* client, const xbase::Rect& slot) {
  if (client == nullptr || client->frame == nullptr ||
      client->client_panel == nullptr) {
    return;
  }
  xbase::Size frame_size = client->frame->geometry().size();
  xbase::Size panel_size = client->client_panel->geometry().size();
  xbase::Size decoration{frame_size.width - panel_size.width,
                         frame_size.height - panel_size.height};
  xbase::Size desired{std::max(1, slot.width - decoration.width),
                      std::max(1, slot.height - decoration.height)};
  // ResizeClient runs WM_NORMAL_HINTS Constrain (min/max/increments), lays
  // the decoration out around the result and re-shapes.
  wm_->ResizeClient(client, desired);
  // The decoration above was measured on the pre-slot frame, which a narrow
  // client pads out to the title bar's minimum width — overstating the
  // decoration and leaving the grant short.  If the client got exactly what
  // we asked for (hints did not bind), re-derive the decoration from the
  // post-resize frame and correct once.
  xbase::Size granted = client->client_panel->geometry().size();
  xbase::Size placed = client->frame->geometry().size();
  if (granted == desired &&
      (placed.width != slot.width || placed.height != slot.height)) {
    desired = {std::max(1, slot.width - (placed.width - granted.width)),
               std::max(1, slot.height - (placed.height - granted.height))};
    wm_->ResizeClient(client, desired);
  }
  // Hints may have held the client below the slot (a max-size-hinted client
  // keeps its hinted size): center the frame within its slot.
  placed = client->frame->geometry().size();
  xbase::Point origin = ViewportOrigin(client->screen, client->sticky);
  wm_->MoveFrameTo(client,
                   {origin.x + slot.x + std::max(0, (slot.width - placed.width) / 2),
                    origin.y + slot.y + std::max(0, (slot.height - placed.height) / 2)});
}

xbase::Point LayoutPolicy::PlaceFloating(
    ManagedClient* client, const xbase::Rect& client_geometry,
    const std::optional<SwmHintsRecord>& session) {
  int screen = client->screen;
  // Offset of the client panel within its frame (decoration border/title).
  xbase::Rect frame_geometry = client->FrameGeometry();
  xbase::Point desktop_pos = client->ClientDesktopPosition();
  xbase::Point client_offset{desktop_pos.x - frame_geometry.x,
                             desktop_pos.y - frame_geometry.y};
  xbase::Point desktop_offset = ViewportOrigin(screen, client->sticky);

  // Desired *client* position, in the frame parent's coordinate space
  // (desktop coordinates for normal windows, viewport for sticky ones).
  xbase::Point client_pos;
  if (session.has_value()) {
    client_pos = session->geometry.origin();
  } else if (client->size_hints.HasUserPosition()) {
    // USPosition is an absolute desktop location, "even if the coordinates
    // on the desktop are not currently visible" (§6.3.2).
    client_pos = {client->size_hints.x, client->size_hints.y};
    if (client->sticky) {
      client_pos = {client_pos.x - desktop_offset.x, client_pos.y - desktop_offset.y};
    }
  } else if (client->size_hints.HasProgramPosition()) {
    // PPosition is relative to the currently visible portion of the desktop.
    client_pos = {client->size_hints.x, client->size_hints.y};
    if (!client->sticky) {
      client_pos = {client_pos.x + desktop_offset.x, client_pos.y + desktop_offset.y};
    }
  } else {
    // Default placement: a cascade within the visible viewport.
    xbase::Size view = ViewportSize(screen);
    auto [it, inserted] = cascade_cursor_.try_emplace(screen, xbase::Point{8, 8});
    xbase::Point cursor = it->second;
    if (cursor.x + client_geometry.width > view.width ||
        cursor.y + client_geometry.height > view.height) {
      // The window doesn't fit at the cascade point (larger than what's left
      // of the viewport, or larger than the viewport itself): clamp to (8,8)
      // instead of walking it off-screen.
      cursor = {8, 8};
      it->second = cursor;
    }
    it->second.x += 24;
    it->second.y += 24;
    if (it->second.x + client_geometry.width > view.width ||
        it->second.y + client_geometry.height > view.height) {
      it->second = {8, 8};
    }
    client_pos = cursor;
    if (!client->sticky) {
      client_pos = {client_pos.x + desktop_offset.x, client_pos.y + desktop_offset.y};
    }
  }
  return {client_pos.x - client_offset.x, client_pos.y - client_offset.y};
}

bool LayoutPolicy::DenySlotConfigure(ManagedClient* client,
                                     const xproto::ConfigureRequestEvent& event) {
  if (!SlotManaged(*client)) {
    return false;  // Transients, sticky windows etc. keep floating handling.
  }
  // Stacking modes are honored — stacking is not geometry.
  if (event.value_mask & xproto::kConfigStackMode) {
    if (event.stack_mode == xproto::StackMode::kAbove) {
      wm_->RaiseClient(client);
    } else if (event.stack_mode == xproto::StackMode::kBelow) {
      wm_->LowerClient(client);
    }
  }
  // Geometry is slot-owned: re-assert the layout, which ends in a synthetic
  // ConfigureNotify telling the client its actual geometry (ICCCM denial).
  // A batch of denials shares one reflow.
  wm_->RequestRelayout(client->screen);
  return true;
}

std::unique_ptr<LayoutPolicy> CreateLayoutPolicy(const std::string& name,
                                                 WindowManager* wm) {
  if (name == "floating") {
    return std::make_unique<FloatingPolicy>(wm);
  }
  if (name == "maximize") {
    return std::make_unique<MaximizePolicy>(wm);
  }
  if (name == "tiling") {
    return std::make_unique<TilingPolicy>(wm);
  }
  if (name == "dynamic") {
    return std::make_unique<DynamicPolicy>(wm);
  }
  return nullptr;
}

const std::vector<std::string>& LayoutPolicyNames() {
  static const std::vector<std::string> kNames = {"floating", "maximize",
                                                  "tiling", "dynamic"};
  return kNames;
}

}  // namespace swm
