#include "src/swm/policy/dynamic_policy.h"

#include <vector>

#include "src/swm/wm.h"

namespace swm {

std::vector<xbase::Rect> DynamicPolicy::GridSlots(xbase::Size view, size_t count) {
  std::vector<xbase::Rect> slots;
  slots.reserve(count);
  if (count == 0) {
    return slots;
  }
  size_t cols = 1;
  while (cols * cols < count) {
    ++cols;
  }
  size_t rows = (count + cols - 1) / cols;
  for (size_t i = 0; i < count; ++i) {
    size_t row = i / cols;
    size_t col = i % cols;
    // The last row may be short: its cells widen to cover the full width.
    size_t row_cells = (row + 1 == rows) ? count - row * cols : cols;
    int x0 = static_cast<int>(col * static_cast<size_t>(view.width) / row_cells);
    int x1 = static_cast<int>((col + 1) * static_cast<size_t>(view.width) / row_cells);
    int y0 = static_cast<int>(row * static_cast<size_t>(view.height) / rows);
    int y1 = static_cast<int>((row + 1) * static_cast<size_t>(view.height) / rows);
    slots.push_back(
        {x0, y0, std::max(1, x1 - x0), std::max(1, y1 - y0)});
  }
  return slots;
}

xbase::Point DynamicPolicy::PlaceNew(ManagedClient* client,
                                     const xbase::Rect& client_geometry,
                                     const std::optional<SwmHintsRecord>& session) {
  if (!SlotManaged(*client)) {
    return PlaceFloating(client, client_geometry, session);
  }
  return ViewportOrigin(client->screen, client->sticky);  // Relayout refines.
}

void DynamicPolicy::OnManage(ManagedClient* client) {
  if (SlotManaged(*client)) {
    wm_->RequestRelayout(client->screen);
  }
}

void DynamicPolicy::OnUnmanage(xproto::WindowId window, int screen) {
  (void)window;
  wm_->RequestRelayout(screen);  // Survivors reflow into the vacated space.
}

bool DynamicPolicy::OnConfigureRequest(ManagedClient* client,
                                       const xproto::ConfigureRequestEvent& event) {
  return DenySlotConfigure(client, event);
}

void DynamicPolicy::OnViewportChange(int screen) {
  ResetCascade(screen);
  wm_->RequestRelayout(screen);  // The grid follows the viewport.
}

void DynamicPolicy::OnIconicChange(ManagedClient* client) {
  wm_->RequestRelayout(client->screen);
}

void DynamicPolicy::Relayout(int screen) {
  std::vector<ManagedClient*> clients = SlotClients(screen);
  if (clients.empty()) {
    return;
  }
  std::vector<xbase::Rect> slots = GridSlots(ViewportSize(screen), clients.size());
  for (size_t i = 0; i < clients.size(); ++i) {
    ApplySlot(clients[i], slots[i]);
  }
}

}  // namespace swm
