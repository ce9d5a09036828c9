// Pluggable layout policy (docs/POLICIES.md).
//
// swm's thesis is that the window manager is a *policy-free shell*: the
// paper keeps appearance and behaviour in the resource database, and this
// interface does the same for placement/geometry policy.  Every layout
// decision the WindowManager makes — where a new window lands, what happens
// to a client ConfigureRequest, how survivors reflow after an unmanage, how
// the population reacts to a viewport pan — is delegated to the active
// LayoutPolicy.  Policies are selected with the `swm.layout.policy`
// resource, switched at runtime with `swmcmd policy <name>` (full
// re-layout), and persisted across WM restart on SWM_RESTART_INFO.
//
// Contract:
//  - Policies express geometry exclusively through the WindowManager's
//    public mutators (ResizeClient / MoveFrameTo / Raise / Lower / Iconify).
//    Those invalidate retained-mode objects; policies never paint.
//  - swm's own windows (root panels, panner) are never policy-managed;
//    sticky windows, transients and iconified clients keep floating
//    semantics under every policy (SlotManaged below).
//  - ResizeClient runs WM_NORMAL_HINTS constraints, so a slot-granting
//    policy may get back a smaller window than the slot; ApplySlot centers
//    the frame in its slot in that case (ICCCM min/max/increment hints).
//  - Hooks never call Relayout themselves: they call
//    WindowManager::RequestRelayout(screen).  Outside ProcessEvents that
//    reflows at once; inside, the event loop reflows each requested screen
//    once per batch, before the batch's frame flush, so a burst of n
//    manages, unmanages or denied configures costs one reflow, not n.
#ifndef SRC_SWM_POLICY_LAYOUT_POLICY_H_
#define SRC_SWM_POLICY_LAYOUT_POLICY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/geometry.h"
#include "src/swm/session.h"
#include "src/xproto/events.h"
#include "src/xproto/types.h"

namespace swm {

class WindowManager;
struct ManagedClient;

class LayoutPolicy {
 public:
  explicit LayoutPolicy(WindowManager* wm) : wm_(wm) {}
  virtual ~LayoutPolicy() = default;

  LayoutPolicy(const LayoutPolicy&) = delete;
  LayoutPolicy& operator=(const LayoutPolicy&) = delete;

  virtual const char* name() const = 0;

  // Frame position (frame-parent coordinates) for a client being managed.
  // The frame tree is built and laid out; the client window is not yet
  // reparented.  `client_geometry` is the constrained client size at origin.
  virtual xbase::Point PlaceNew(ManagedClient* client,
                                const xbase::Rect& client_geometry,
                                const std::optional<SwmHintsRecord>& session) = 0;

  // A client finished managing (decorated, placed, mapped).  Slot policies
  // request a reflow here.
  virtual void OnManage(ManagedClient* client) { (void)client; }

  // A client left management (withdrawn, destroyed, healed).  The window id
  // is already gone from the WindowManager's tables.
  virtual void OnUnmanage(xproto::WindowId window, int screen) {
    (void)window;
    (void)screen;
  }

  // A managed, non-internal client sent a ConfigureRequest.  Return true to
  // consume it (the policy owns the geometry); false hands it to the default
  // floating-style handler.  Quarantine parole replays land here too.
  virtual bool OnConfigureRequest(ManagedClient* client,
                                  const xproto::ConfigureRequestEvent& event) {
    (void)client;
    (void)event;
    return false;
  }

  // The visible viewport moved (pan, scrollbars, desktop switch).
  virtual void OnViewportChange(int screen) { (void)screen; }

  // A non-internal client was raised/lowered (f.raise, f.focus,
  // ConfigureRequest stack modes).  Focus-tracking policies observe this.
  virtual void OnStackingChange(ManagedClient* client, bool raised) {
    (void)client;
    (void)raised;
  }

  // A non-internal client was iconified or deiconified (client->state holds
  // the new state); slot policies give up / reclaim the slot.
  virtual void OnIconicChange(ManagedClient* client) { (void)client; }

  // Re-applies the policy to every eligible client on `screen`.  Only the
  // WindowManager calls it, to run a reflow requested through
  // RequestRelayout (a hook above, or a runtime policy switch).
  virtual void Relayout(int screen) { (void)screen; }

  // Bare (non-"f.") swmcmd verbs, pre-split into words; return true if the
  // policy consumed the command (xswm's `close` / `last` under maximize).
  virtual bool HandleCommand(const std::vector<std::string>& words, int screen) {
    (void)words;
    (void)screen;
    return false;
  }

 protected:
  // True when this client's geometry belongs to a slot-granting policy:
  // a normal-state, non-internal, non-sticky, non-transient client.
  bool SlotManaged(const ManagedClient& client) const;
  // Eligible clients on a screen, in window-id (manage-stable) order.
  std::vector<ManagedClient*> SlotClients(int screen) const;

  // The visible viewport: size, and its origin in frame-parent coordinates
  // (the desktop offset for non-sticky clients, {0,0} otherwise).
  xbase::Size ViewportSize(int screen) const;
  xbase::Point ViewportOrigin(int screen, bool sticky) const;

  // Resizes the client toward the slot interior (decoration subtracted,
  // WM_NORMAL_HINTS constraints applied by ResizeClient) and positions the
  // frame, centered when hints held the window below the slot size.  `slot`
  // is in viewport coordinates.
  void ApplySlot(ManagedClient* client, const xbase::Rect& slot);

  // The classic swm placement: session geometry, then US/PPosition hints,
  // then a cascade across the visible viewport.  The cascade clamps windows
  // that no longer fit at the cursor back to (8,8) rather than walking them
  // off-screen, and ResetCascade() re-anchors it after a viewport change.
  xbase::Point PlaceFloating(ManagedClient* client,
                             const xbase::Rect& client_geometry,
                             const std::optional<SwmHintsRecord>& session);
  void ResetCascade(int screen) { cascade_cursor_.erase(screen); }

  // Shared ConfigureRequest treatment for slot-granting policies: honor
  // stacking modes, deny geometry by re-asserting the client's slot.
  bool DenySlotConfigure(ManagedClient* client,
                         const xproto::ConfigureRequestEvent& event);

  WindowManager* wm_;

 private:
  std::map<int, xbase::Point> cascade_cursor_;  // Per-screen, default (8,8).
};

// Factory: "floating", "maximize", "tiling", "dynamic".  Unknown → nullptr.
std::unique_ptr<LayoutPolicy> CreateLayoutPolicy(const std::string& name,
                                                 WindowManager* wm);
const std::vector<std::string>& LayoutPolicyNames();

}  // namespace swm

#endif  // SRC_SWM_POLICY_LAYOUT_POLICY_H_
