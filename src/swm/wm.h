// swm — the window manager shell (the paper's primary contribution).
//
// A policy-free reparenting window manager: decorations, icons, root panels
// and their behaviour are described entirely by resource-database panel
// definitions and Xt-syntax bindings; the Virtual Desktop makes the root
// window larger than the display; session state survives server restarts.
#ifndef SRC_SWM_WM_H_
#define SRC_SWM_WM_H_

#include <map>
#include <set>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/oi/toolkit.h"
#include "src/swm/quarantine.h"
#include "src/swm/session.h"
#include "src/swm/vdesk.h"
#include "src/xlib/display.h"
#include "src/xrdb/database.h"
#include "src/xserver/connection.h"

namespace swm {

class WindowManager;
class Panner;
class IconHolder;
class DesktopScrollbars;
class LayoutPolicy;

// Per-managed-window state.
struct ManagedClient {
  xproto::WindowId window = xproto::kNone;  // The client's window.
  int screen = 0;

  // ICCCM properties at manage time (name/icon name tracked live).
  std::string name;
  std::string icon_name;
  xproto::WmClass wm_class;
  std::string command;  // WM_COMMAND argv joined with spaces.
  std::string machine;  // WM_CLIENT_MACHINE.
  xproto::SizeHints size_hints;
  xproto::WmHints wm_hints;
  // WM_TRANSIENT_FOR owner; self-references and cycles are broken to kNone
  // at manage time (docs/ROBUSTNESS.md "Input hardening").
  xproto::WindowId transient_for = xproto::kNone;

  bool shaped = false;
  bool sticky = false;
  bool is_internal = false;  // swm's own windows (root panels, panner).
  xproto::WmState state = xproto::WmState::kNormal;

  // Decoration.
  std::string decoration_name;
  std::unique_ptr<oi::Panel> frame;      // Tree root; frame->window() is the frame.
  oi::Panel* client_panel = nullptr;     // The `client` sub-panel.
  oi::Object* name_object = nullptr;     // The `name` button/text, if any.

  // Icon state.
  std::unique_ptr<oi::Panel> icon;       // Icon appearance tree (lazy).
  xbase::Point icon_position;
  bool icon_position_set = false;
  IconHolder* icon_holder = nullptr;
  // True when the client supplied its own icon window (WM_HINTS
  // IconWindowHint); it is reparented into the iconimage slot and must be
  // given back on unmanage.
  bool uses_icon_window = false;

  // f.save / f.zoom bookkeeping (frame geometry in parent coordinates).
  std::optional<xbase::Rect> saved_frame_geometry;

  bool restored_from_session = false;
  int ignore_unmaps = 0;  // Unmaps caused by swm itself (iconify etc).

  // Frame geometry relative to its parent (vdesk for normal windows, real
  // root for sticky windows).
  xbase::Rect FrameGeometry() const;
  // Offset of the client panel's window within the frame's.
  xbase::Point ClientOffset() const;
  // Client window position in desktop coordinates (== viewport coordinates
  // for sticky windows).
  xbase::Point ClientDesktopPosition() const;
};

// An icon holder panel (paper §4.1.5): a scrolling/size-to-fit container for
// icons, optionally restricted to one client class and hidden when empty.
class IconHolder {
 public:
  IconHolder(WindowManager* wm, int screen, std::string name);
  ~IconHolder();

  const std::string& name() const { return name_; }
  xproto::WindowId window() const { return window_; }
  const std::string& class_filter() const { return class_filter_; }
  bool hide_when_empty() const { return hide_when_empty_; }
  bool size_to_fit() const { return size_to_fit_; }

  bool Accepts(const xproto::WmClass& wm_class) const;
  void AddIcon(ManagedClient* client);
  void RemoveIcon(ManagedClient* client);
  const std::vector<ManagedClient*>& icons() const { return icons_; }
  // Lays the contained icons out in rows and shows/hides/resizes itself.
  void Relayout();

  // §4.1.5's "optional scrolling window": scrolls the icon rows within a
  // fixed-size holder.  No-op for size-to-fit holders.
  void ScrollBy(int dy);
  int scroll_offset() const { return scroll_offset_; }
  int content_height() const { return content_height_; }

 private:
  WindowManager* wm_;
  int screen_;
  std::string name_;
  xproto::WindowId window_ = xproto::kNone;
  xbase::Rect configured_geometry_{0, 0, 40, 12};
  std::string class_filter_;  // Empty accepts everything.
  bool hide_when_empty_ = false;
  bool size_to_fit_ = false;
  int scroll_offset_ = 0;
  int content_height_ = 0;
  std::vector<ManagedClient*> icons_;
};

// Interactive drag state (f.move / f.resize with the pointer).
struct DragState {
  enum class Mode { kNone, kMove, kResize };
  Mode mode = Mode::kNone;
  xproto::WindowId client_window = xproto::kNone;
  xbase::Point start_pointer;       // Root coordinates at drag start.
  xbase::Rect start_frame;          // Frame geometry at drag start.
};

// Pending interactive target selection: a function executed without a
// current window changes the pointer to a question mark and applies to the
// next window clicked (f.iconify with no argument from a root panel, or a
// bare `swmcmd f.raise`).  With (multiple), stays armed until a click on
// the root.
struct PendingSelection {
  bool active = false;
  bool multiple = false;
  // All functions awaiting a target ("swmcmd f.iconify f.raise" applies
  // both to the selected window).
  std::vector<xtb::FunctionCall> functions;
};

class WindowManager {
 public:
  struct Options {
    // Extra resource text merged over the selected template.
    std::string resources;
    // Built-in template preloaded under the user resources ("default",
    // "openlook", "motif"); the resource `swm*template` in `resources`
    // overrides this choice.
    std::string template_name = "default";
    // Self-healing (docs/ROBUSTNESS.md): an error/exception barrier around
    // event dispatch, mid-manage rollback, and the suspect-window sweep
    // that unmanages clients whose windows died without a DestroyNotify.
    // Disable only to demonstrate the failure modes it prevents.
    bool self_heal = true;
    // Inert: nothing reads it; it goes once perfbench stops assigning it.
    int paint_threads = 1;
  };

  // Opens swm's two connections to `server` and keeps no other hold on it.
  WindowManager(xserver::Server* server, Options options);
  ~WindowManager();

  WindowManager(const WindowManager&) = delete;
  WindowManager& operator=(const WindowManager&) = delete;

  // Selects SubstructureRedirect on every screen's root (returns false if
  // another WM is running), builds per-screen state (virtual desktop,
  // panner, root panels, icon holders, root icons), loads the session
  // restart table, and manages pre-existing client windows.
  bool Start();

  // Drains and handles all pending events.  Call after any client activity.
  void ProcessEvents();

  // ---- Introspection ---------------------------------------------------------
  xlib::Display& display() { return display_; }
  // The auxiliary "client-like" connection owning root-panel/panner
  // toplevels (so they get reparented and managed like normal clients).
  xlib::Display& display_aux() { return aux_display_; }
  const xrdb::ResourceDatabase& resources() const { return db_; }
  // Runtime mutation hook (swmcmd experiments, tests).  Every Put bumps the
  // database generation, which makes the toolkits rebuild their search
  // lists — see docs/RESOURCES.md "Lookup precedence, interning, and caching".
  xrdb::ResourceDatabase& mutable_resources() { return db_; }
  oi::Toolkit& toolkit(int screen);
  VirtualDesktop* vdesk(int screen);
  Panner* panner(int screen);
  DesktopScrollbars* scrollbars(int screen);
  // Refreshes the panner miniature and scrollbar thumbs after the desktop
  // offset or population changed.
  void DesktopViewChanged(int screen);

  // Multiple Virtual Desktops (§6.3.1's proposed extension; resource
  // `swm*virtualDesktops: N`).  New windows land on the active desktop;
  // switching hides every desktop but the target; sticky windows are
  // visible on all of them.
  int DesktopCount(int screen) const;
  int ActiveDesktop(int screen) const;
  bool SwitchDesktop(int screen, int index);  // f.desktop(n) / f.nextDesktop.
  size_t ClientCount() const;
  ManagedClient* FindClient(xproto::WindowId client_window);
  // Resolves a client from any related window: the client window, the
  // frame, a decoration object, or an icon window.
  ManagedClient* FindClientByAnyWindow(xproto::WindowId window);
  std::vector<ManagedClient*> Clients();
  std::vector<IconHolder*> icon_holders(int screen);
  const std::vector<std::string>& executed_commands() const { return executed_commands_; }
  // ---- Out-of-process transport (docs/PROTOCOL.md) -------------------------
  // Connection deadlines for hosting remote clients over a listening socket,
  // read from the resource database:
  //   swm.transport.idleMs  (Swm.Transport.IdleMs)  — read-idle deadline in
  //       milliseconds; a connection that sends no bytes for this long is
  //       closed with CloseReason::kReadIdle.  Default 0 (disabled).
  //   swm.transport.stallMs (Swm.Transport.StallMs) — write-stall deadline in
  //       milliseconds; a peer that refuses to drain queued replies for this
  //       long is closed with CloseReason::kWriteStalled.  Default 5000.
  // Negative or unparsable values fall back to the defaults.  Feed the result
  // into xserver::WireHostOptions::limits.
  xserver::ConnectionLimits TransportLimits() const;
  // ---- Robustness counters (docs/ROBUSTNESS.md) ----------------------------
  // X errors raised against either of swm's connections.
  uint64_t x_error_count() const { return x_errors_; }
  // Clients unmanaged because their window died without a DestroyNotify.
  uint64_t healed_count() const { return healed_count_; }
  // Exceptions caught by the event-dispatch barrier.
  uint64_t dispatch_error_count() const { return dispatch_errors_; }
  // ---- Quarantine (docs/ROBUSTNESS.md "Input hardening and quarantine") ----
  // The per-client misbehavior ledger: property storms, ConfigureRequest
  // floods and error-generating clients drain a token bucket; an exhausted
  // bucket quarantines the window (requests coalesced/dropped, decoration
  // kept) until a quiet period paroles it.
  const MisbehaviorLedger& ledger() const { return ledger_; }
  // Entries in the tables keyed by client window.  Each falls back once the
  // windows it tracks are unmanaged, so a window that later reuses an id
  // starts clean.
  struct KeyedTableSizes {
    size_t clients = 0;
    size_t ledger = 0;
    size_t event_counts = 0;
    size_t pending_configures = 0;
    friend bool operator==(const KeyedTableSizes&, const KeyedTableSizes&) = default;
  };
  KeyedTableSizes keyed_table_sizes() const {
    return {clients_.size(), ledger_.tracked_count(), events_dispatched_by_client_.size(),
            quarantine_pending_configure_.size()};
  }
  bool IsQuarantined(xproto::WindowId window) const {
    return ledger_.IsQuarantined(window);
  }
  // Events dispatched that were attributable to this client's windows —
  // the fairness metric a flooding neighbor must not distort.
  uint64_t events_dispatched_for(xproto::WindowId client_window) const {
    auto it = events_dispatched_by_client_.find(client_window);
    return it == events_dispatched_by_client_.end() ? 0 : it->second;
  }
  // ---- Frame-pipeline counters (docs/RENDERING.md) -------------------------
  // Events handled, events dropped by per-batch coalescing (redundant
  // ConfigureNotify snapshots, merged Expose rectangles, unmaps of windows
  // the batch destroys), and settle iterations (one FlushFrames each).
  uint64_t events_dispatched() const { return events_dispatched_; }
  uint64_t events_coalesced() const { return events_coalesced_; }
  uint64_t settle_iterations() const { return settle_iterations_; }
  bool quit_requested() const { return quit_requested_; }
  bool restart_requested() const { return restart_requested_; }
  bool awaiting_target() const { return pending_.active; }
  RestartTable& restart_table() { return restart_table_; }

  // Marks a window as one of swm's own (panner, root panels): it is managed
  // like any client but excluded from session files and icon holders.
  void RegisterInternalWindow(xproto::WindowId window) {
    internal_windows_.insert(window);
  }

  // ---- Window management operations (also driven by bindings) -----------------
  ManagedClient* ManageWindow(xproto::WindowId window, int screen);
  // `reparent_back` restores the client to the root (withdrawal); false is
  // used when the window is already destroyed.
  void UnmanageWindow(xproto::WindowId window, bool reparent_back);
  void MoveFrameTo(ManagedClient* client, const xbase::Point& parent_pos);
  void ResizeClient(ManagedClient* client, xbase::Size client_size);
  void RaiseClient(ManagedClient* client);
  void LowerClient(ManagedClient* client);
  void Iconify(ManagedClient* client);
  void Deiconify(ManagedClient* client);
  void Zoom(ManagedClient* client);
  void SaveGeometry(ManagedClient* client);
  void RestoreGeometry(ManagedClient* client);
  void SetSticky(ManagedClient* client, bool sticky);
  // Politely closes a client: WM_DELETE_WINDOW when the client speaks the
  // protocol, destroy otherwise (f.delete and the maximize policy's `close`).
  void CloseClient(ManagedClient* client);

  // ---- Layout policy (docs/POLICIES.md) ------------------------------------
  // The active placement/geometry policy.  All layout decisions (PlaceNew,
  // ConfigureRequest treatment, reflow on manage/unmanage/viewport change)
  // delegate through it; `floating` reproduces the classic behaviour.
  LayoutPolicy& layout_policy() { return *policy_; }
  // Switches policies by name ("floating", "maximize", "tiling", "dynamic")
  // and re-lays out every screen.  False: unknown name (policy unchanged).
  // Reachable at runtime via `swmcmd policy <name>` or f.policy(name); the
  // selection persists across WM restart on SWM_RESTART_INFO.
  bool SetLayoutPolicy(const std::string& name);
  // Asks the active policy to reflow `screen`.  Outside ProcessEvents this
  // runs LayoutPolicy::Relayout at once; inside, it marks the screen and the
  // event loop reflows each marked screen once per settle iteration, just
  // before the batch's frame flush — so a burst of n manages, unmanages or
  // denied ConfigureRequests costs one reflow, not n.
  void RequestRelayout(int screen);

  // ---- Function execution ------------------------------------------------------
  // Executes one bound function in a dispatch context.
  void ExecuteFunction(const xtb::FunctionCall& function, const oi::ActionContext& context);
  // Parses and executes an swmcmd-style command string (paper §4.5).
  bool ExecuteCommandString(const std::string& text, int screen);

  // ---- Session management --------------------------------------------------------
  // f.places: the .xinitrc-replacement text for the current session.
  std::string GeneratePlaces();
  // Writes the current session (one swmhints record per restartable client,
  // plus any unconsumed restart-table entries) back to SWM_RESTART_INFO.
  // The destructor calls this so a successor WindowManager on the same
  // server re-adopts every surviving client with state intact.
  void PersistSessionState();
  // The text produced by the most recent f.places execution.
  const std::string& last_places() const { return last_places_; }

  // Repaints every frame, shown icon, root panel, popped-up menu and the panner (f.refresh).
  void RefreshAll();

  // Lays out and paints every pending invalidation on all screens: one
  // retained-mode frame per toolkit, then the panner's reconcile.  Mutating
  // operations flush at their natural boundary; the event loop flushes once
  // per drained batch.
  void FlushFrames();

  // Rebuilds the resource database from the template + user resources (the
  // in-place half of f.restart) and re-reads attributes of every live
  // decoration, icon and root panel.  Runtime Puts into
  // mutable_resources() do not survive this.  Not safe from inside a
  // binding callback (it replaces the bindings being dispatched); the
  // event loop defers it until the queue settles.
  void ReloadResources();

  // Resource helpers (public: the panner and icon holders use them).  Each
  // asks the screen's toolkit, whose session prefix is swm.<visual>.<screen>
  // (docs/RESOURCES.md): `extra_names`/`extra_classes` follow it, then the
  // resource.  So swm's lookups share the toolkit's search lists and count
  // in its query_stats().  ClientResource's extra prefix is the client's
  // sticky/shaped markers and WM_CLASS; PanelDefinition's is "panel".
  std::optional<std::string> ScreenResource(int screen, const std::string& resource) const;
  std::optional<std::string> ScreenResource(int screen,
                                            const std::vector<std::string>& extra_names,
                                            const std::vector<std::string>& extra_classes,
                                            const std::string& resource) const;
  std::optional<std::string> ClientResource(const ManagedClient& client,
                                            const std::string& resource) const;
  // Looks up a panel definition ("swm*panel.NAME") for a screen.
  std::optional<std::string> PanelDefinition(int screen, const std::string& name) const;

 private:
  friend class IconHolder;
  friend class Panner;

  struct ScreenState {
    int number = 0;
    std::unique_ptr<oi::Toolkit> toolkit;
    // One or more Virtual Desktops (the paper's §6.3.1 "multiple Virtual
    // Desktops" extension); vdesks[active_vdesk] is the mapped one.
    std::vector<std::unique_ptr<VirtualDesktop>> vdesks;
    int active_vdesk = 0;
    VirtualDesktop* vdesk() const {
      return vdesks.empty() ? nullptr : vdesks[static_cast<size_t>(active_vdesk)].get();
    }
    std::unique_ptr<Panner> panner;
    std::unique_ptr<DesktopScrollbars> scrollbars;
    std::vector<std::unique_ptr<IconHolder>> icon_holders;
    std::vector<std::unique_ptr<oi::Panel>> root_icons;
    std::vector<std::unique_ptr<oi::Panel>> root_panel_trees;
    std::map<std::string, std::unique_ptr<oi::Menu>> menus;
  };

  // ---- Startup ---------------------------------------------------------------
  void LoadResources();
  void InitScreen(int screen);
  void CreateRootPanels(int screen);
  void CreateRootIcons(int screen);
  void CreateIconHolders(int screen);
  void ManageExistingWindows(int screen);

  // ---- Manage helpers ----------------------------------------------------------
  // A client's specific-resource prefix (paper §3; wm_manage.cc).
  struct ResourcePrefix {
    std::vector<std::string> names;
    std::vector<std::string> classes;
  };
  static ResourcePrefix ClientPrefix(const ManagedClient& client, bool with_transient);
  // Liveness probe: a query on a dead window has no answer.
  bool WindowAlive(xproto::WindowId window) const {
    return display_.GetGeometry(window).has_value();
  }
  // `window`'s top-left in `screen`'s root coordinates; nullopt when gone.
  std::optional<xbase::Point> RootPosition(xproto::WindowId window, int screen) const {
    return display_.TranslateCoordinates(window, display_.RootWindow(screen), {0, 0});
  }
  std::string ChooseDecoration(const ManagedClient& client) const;
  std::unique_ptr<oi::Panel> BuildFrame(ManagedClient* client);
  // resizeCorners (paper §4.1.1): adds four floating corner handles bound
  // to f.resize, and keeps them pinned to the frame corners after layout.
  void SetupResizeCorners(ManagedClient* client, oi::Panel* frame);
  void PositionResizeCorners(ManagedClient* client);
  // For shaped clients, intersects the frame's shape with the client's own
  // shape so an oclock shows "without visible decoration" (§5).
  void ApplyClientShapeToFrame(ManagedClient* client);
  // Re-decorates in place (used when stickiness toggles: the resource
  // prefix changes, so the decoration may change; paper §6.2).
  void ReDecorate(ManagedClient* client);
  // The swmhints record describing one client's current state.
  SwmHintsRecord SessionRecordFor(ManagedClient* client);
  // Walks the transient_for chain through managed clients; returns kNone
  // (and counts transient_cycles_broken) when `owner` leads back to
  // `window` or into any cycle.
  xproto::WindowId BreakTransientCycle(xproto::WindowId window, xproto::WindowId owner);
  void UpdateSwmRootProperty(ManagedClient* client);
  void SendSyntheticConfigure(ManagedClient* client);
  // Window the frames of this client should parent on (vdesk or root).
  xproto::WindowId FrameParent(int screen, bool sticky);

  // ---- Icons ----------------------------------------------------------------------
  void BuildIcon(ManagedClient* client);
  void PlaceIcon(ManagedClient* client);
  IconHolder* HolderFor(const ManagedClient& client);

  // ---- Self-healing (docs/ROBUSTNESS.md) -----------------------------------
  // Error handler for both connections.  Runs synchronously mid-request, so
  // it only records: windows named by BadWindow/BadMatch become suspects.
  void OnXError(const xproto::XError& error);
  // Verifies each suspect's liveness and unmanages clients whose windows are
  // gone — the cleanup DestroyNotify would have triggered, had it arrived.
  void HealSuspects();

  // ---- Frame pipeline --------------------------------------------------------
  // Flushes unless an event batch holds frames for batch-end coalescing.
  void MaybeFlushFrames();
  // Runs the reflows RequestRelayout deferred, one per marked screen.
  void RunRequestedRelayouts();
  // RAII scope: while held, MaybeFlushFrames defers to the batch-end
  // FlushFrames in ProcessEvents so one frame covers the whole batch.
  struct FrameHold {
    explicit FrameHold(WindowManager* wm) : wm_(wm) { ++wm_->frame_hold_depth_; }
    ~FrameHold() { --wm_->frame_hold_depth_; }
    WindowManager* wm_;
  };
  // Per drained batch: keeps the last ConfigureNotify per window, merges
  // Expose rectangles, and drops unmaps of windows the batch destroys.
  void CoalesceEventBatch(std::vector<xproto::Event>* batch);
  // Layout observer installed on every toolkit's FrameScheduler: re-pins
  // resize corners and marks the panner after a client frame's layout.
  void OnTreeLaidOut(oi::Object* root);
  // FindClientByAnyWindow without its server queries: a client window, or
  // an object window in a client's frame or icon tree.
  ManagedClient* FindClientByKnownWindow(xproto::WindowId window);

  // ---- Event handling ----------------------------------------------------------------
  void HandleEvent(const xproto::Event& event);
  void HandleMapRequest(const xproto::MapRequestEvent& event);
  void HandleConfigureRequest(const xproto::ConfigureRequestEvent& event);
  void HandleUnmapNotify(const xproto::UnmapNotifyEvent& event);
  void HandleDestroyNotify(const xproto::DestroyNotifyEvent& event);
  void HandlePropertyNotify(const xproto::PropertyNotifyEvent& event);
  void HandleClientMessage(const xproto::ClientMessageEvent& event);
  bool HandleDrag(const xproto::Event& event);              // Returns true if consumed.
  bool HandlePendingSelection(const xproto::Event& event);  // Returns true if consumed.

  // ---- Function helpers -----------------------------------------------------------------
  std::vector<ManagedClient*> ResolveTargets(const xtb::FunctionCall& function,
                                             const oi::ActionContext& context,
                                             bool needs_window);
  void ApplyWindowFunction(const std::string& name, ManagedClient* client,
                           const xtb::FunctionCall& function,
                           const oi::ActionContext& context);
  void PopupMenu(const std::string& name, int screen, const xbase::Point& root_pos,
                 ManagedClient* for_client);
  void PopdownMenus(int screen);
  int ScreenOfContext(const oi::ActionContext& context) const;

  // The screen a managed/related window lives on.
  int ScreenOf(xproto::WindowId window) const;

  xlib::Display display_;      // The WM's own connection.
  xlib::Display aux_display_;  // "Client-like" connection owning root panels/panner
                               // toplevels so they are themselves reparented/managed.
  Options options_;
  xrdb::ResourceDatabase db_;

  std::vector<ScreenState> screens_;
  // The active layout policy (never null after construction); see
  // layout_policy() above.  `restart_policy_name_` carries a predecessor's
  // runtime selection from SWM_RESTART_INFO until Start adopts it.
  std::unique_ptr<LayoutPolicy> policy_;
  std::optional<std::string> restart_policy_name_;
  // Set for the destructor's unmanage-all sweep: policy reflow hooks are
  // skipped during teardown (each unmanage would trigger a full re-layout
  // of a population that is about to disappear anyway).
  bool in_teardown_ = false;
  std::map<xproto::WindowId, std::unique_ptr<ManagedClient>> clients_;
  std::set<xproto::WindowId> internal_windows_;
  // Maps decoration/icon tree roots to their client window.
  std::map<const oi::Object*, xproto::WindowId> tree_owner_;

  RestartTable restart_table_;
  DragState drag_;
  PendingSelection pending_;
  ManagedClient* menu_context_client_ = nullptr;
  std::vector<std::string> executed_commands_;
  std::string last_places_;
  bool quit_requested_ = false;
  bool restart_requested_ = false;
  bool resource_reload_pending_ = false;  // f.restart defers to ProcessEvents.
  bool started_ = false;
  int frame_hold_depth_ = 0;  // >0 while ProcessEvents batches invalidations.
  std::set<int> relayout_pending_;  // Screens awaiting a batch-end reflow.
  uint64_t events_dispatched_ = 0;
  uint64_t settle_iterations_ = 0;
  uint64_t events_coalesced_ = 0;

  // Quarantine state (docs/ROBUSTNESS.md).
  MisbehaviorLedger ledger_;
  // Last ConfigureRequest from each quarantined window, applied at parole
  // (coalescing: a thousand-request flood becomes one configure).
  std::map<xproto::WindowId, xproto::ConfigureRequestEvent> quarantine_pending_configure_;
  std::map<xproto::WindowId, uint64_t> events_dispatched_by_client_;

  // Self-healing state.
  std::vector<xproto::WindowId> suspect_windows_;
  uint64_t x_errors_ = 0;
  uint64_t healed_count_ = 0;
  uint64_t dispatch_errors_ = 0;
  // swmcmd flood control: commands still allowed in this ProcessEvents call.
  int swmcmd_budget_ = 0;
  bool swmcmd_budget_warned_ = false;
  // Partial swmcmd write (no trailing newline yet) buffered per screen until
  // the sender's next append completes the line.  Shares the 4KB payload cap
  // with the drain, so a sender that never sends the newline can't grow it.
  std::map<int, std::string> swmcmd_partial_;
};

}  // namespace swm

#endif  // SRC_SWM_WM_H_
