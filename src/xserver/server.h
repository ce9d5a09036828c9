// In-memory X server simulator.
//
// Substitutes for the live X11 server the paper ran against.  It implements
// the protocol semantics a window manager exercises: the window tree with
// stacking, reparenting and save-sets; per-client event selection and
// delivery including SubstructureRedirect (MapRequest / ConfigureRequest);
// properties and atoms with PropertyNotify; pointer/keyboard simulation with
// propagation, automatic and passive grabs; the SHAPE extension; and a
// display-list renderer that paints a screen into an ASCII canvas so the
// paper's figures can be regenerated deterministically.
//
// Single-threaded by design: requests are synchronous calls, events are
// queued per client connection exactly like a round-trip-free Xlib stream,
// and RenderScreen paints on the caller.
#ifndef SRC_XSERVER_SERVER_H_
#define SRC_XSERVER_SERVER_H_

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/base/canvas.h"
#include "src/xproto/error.h"
#include "src/xproto/events.h"
#include "src/xproto/trace.h"
#include "src/xproto/types.h"
#include "src/xproto/wire.h"
#include "src/xserver/faults.h"
#include "src/xserver/window.h"

namespace xserver {

struct ScreenConfig {
  int width = 1152;
  int height = 900;
  bool monochrome = false;
};

struct ScreenInfo {
  int number = 0;
  xproto::WindowId root = xproto::kNone;
  xbase::Size size;
  bool monochrome = false;
};

struct ConfigureValues {
  xbase::Rect geometry;
  int border_width = 0;
  xproto::WindowId sibling = xproto::kNone;
  xproto::StackMode stack_mode = xproto::StackMode::kAbove;
};

// The introspection results are the replies that carry them on the wire
// (src/xproto/wire.h), so every transport hands back the same value.
using WindowAttributes = xproto::AttributesReply;
using QueryTreeReply = xproto::TreeReply;
using PointerState = xproto::PointerReply;

enum class PropMode {
  kReplace,
  kAppend,
  kPrepend,
};

class Server {
 public:
  explicit Server(std::vector<ScreenConfig> screens = {ScreenConfig{}});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // ---- Connections -------------------------------------------------------
  // Client ids are never reused.  Each connection also takes the lowest free
  // window-id slot (docs/PROTOCOL.md "Window ids"); Disconnect frees it.
  xproto::ClientId Connect(const std::string& client_machine = "localhost");
  // Runs save-set processing (reparent-to-root + remap of other clients'
  // windows the disconnecting client had added), then destroys the client's
  // own windows and selections, and frees its id slot.
  void Disconnect(xproto::ClientId client);
  bool HasClient(xproto::ClientId client) const;
  std::string ClientMachine(xproto::ClientId client) const;

  // ---- Error channel -----------------------------------------------------
  // Errors for requests against dead/invalid resources are reported to the
  // issuing client's callback (its Display's XSetErrorHandler equivalent),
  // synchronously with the failing request.  The request still returns
  // false/kNone, so un-ported callers keep working.
  using ErrorCallback = std::function<void(const xproto::XError&)>;
  void SetErrorCallback(xproto::ClientId client, ErrorCallback callback);
  // Per-connection request sequence number (requests processed so far).
  uint64_t SequenceNumber(xproto::ClientId client) const;
  // Errors raised against the connection so far.
  uint64_t ErrorCount(xproto::ClientId client) const;
  // Requests processed across all connections.
  uint64_t TotalRequests() const { return total_requests_; }

  // ---- Wire dispatch (docs/PROTOCOL.md) ----------------------------------
  // Requests arriving as bytes.  Parses frame after frame out of `bytes`
  // and applies each with ApplyRequest, as an in-process Display does, so
  // the error channel, fault hooks and sequence numbers behave identically.
  // Malformed input raises a typed X error (BadRequest / BadLength /
  // BadValue) on the connection and aborts the rest of the buffer — after a
  // framing error the stream cannot be resynchronized, exactly the case
  // where a real server would kill the connection.
  struct DispatchResult {
    size_t requests_dispatched = 0;  // Frames parsed and executed.
    size_t requests_failed = 0;      // Executed but refused (X error raised).
    size_t parse_errors = 0;         // Frames rejected by the wire codec.
    std::optional<xproto::ParseError> first_parse_error;
    size_t bytes_consumed = 0;
    // Reply frames the dispatched queries emitted, drained from the
    // connection's outbound encoder (docs/PROTOCOL.md "Replies").  The
    // transport writes these back to the peer; in-process wire clients
    // decode them directly.
    std::vector<uint8_t> reply_bytes;
    size_t replies = 0;
  };
  DispatchResult DispatchBytes(xproto::ClientId client, std::span<const uint8_t> bytes);
  // Applies one typed request.  DispatchBytes runs it on every frame it
  // decodes (wire-mode and remote clients, the replayer), and an in-process
  // xlib::Display runs it on every void request it builds, so both reach
  // the server through this one dispatch.  The request is consumed: its
  // strings, lists and event move into the server.  Returns false if the
  // request failed.
  bool ApplyRequest(xproto::ClientId client, xproto::Request&& request);
  // The answer to a query (docs/PROTOCOL.md "Replies"): its reply, or the
  // error a dispatch raises instead (only code and resource_id are set).
  // Takes no sequence slot and raises nothing itself, so an in-process
  // Display asks here for free; ApplyRequest runs it under a RequestGuard
  // and emits the reply or raises the error.
  using Answered = std::variant<xproto::Reply, xproto::XError>;
  Answered Answer(xproto::ClientId client, const xproto::Request& request);
  // Wire frames rejected across all connections (parser health metric).
  uint64_t wire_parse_errors() const { return wire_parse_errors_; }

  // ---- Reply accounting (docs/PROTOCOL.md "Replies") ---------------------
  // Counters and a running FNV-1a hash over every reply frame emitted, in
  // order — the reply-direction half of the replay fingerprint.
  uint64_t replies_emitted() const { return replies_emitted_; }
  uint64_t reply_bytes_emitted() const { return reply_bytes_emitted_; }
  uint64_t reply_hash() const { return reply_hash_; }

  // ---- Trace recording (docs/PROTOCOL.md) --------------------------------
  // When a recorder is installed, the server appends every external
  // stimulus it sees — connects/disconnects, DispatchBytes buffers (exactly
  // as the parser saw them, mutations included), and simulated input — to
  // the recorder.  Not owned; caller clears before destroying the recorder.
  void SetTraceRecorder(xproto::TraceRecorder* recorder) { trace_recorder_ = recorder; }
  xproto::TraceRecorder* trace_recorder() const { return trace_recorder_; }

  // ---- Fault injection ---------------------------------------------------
  // Installs a deterministic fault plan (see faults.h) and resets the fault
  // counters.  Faults apply to requests/events processed after this call.
  void InstallFaultPlan(const FaultPlan& plan);
  void ClearFaultPlan();
  bool HasFaultPlan() const { return fault_plan_active_; }
  const FaultCounters& fault_counters() const { return fault_counters_; }

  // ---- Render accounting -------------------------------------------------
  // Counts the drawing actually requested of the server, so tests and
  // benches can assert that the retained-mode frame pipeline repaints less
  // than eager rendering for the same final framebuffer.
  struct RenderStats {
    uint64_t draw_ops = 0;      // Draw requests recorded into display lists.
    uint64_t clears = 0;        // ClearWindow requests (display list resets).
    uint64_t rects_drawn = 0;   // Rect-shaped ops (fill/border/bitmap).
    int64_t pixels_drawn = 0;   // Cells covered by the recorded ops.
  };
  const RenderStats& render_stats() const { return render_stats_; }
  void ResetRenderStats() { render_stats_ = {}; }

  // ---- Pointer accounting ------------------------------------------------
  // Windows the pointer hit test has examined, summed over every recompute
  // of the window under the pointer: a deterministic measure of how the
  // hit test scales with the window count.  Not part of the replay
  // fingerprint.
  uint64_t hit_test_visits() const { return hit_test_visits_; }

  // ---- Screens -----------------------------------------------------------
  int ScreenCount() const { return static_cast<int>(screens_.size()); }
  const ScreenInfo& screen(int number) const;
  xproto::WindowId RootWindow(int number) const { return screen(number).root; }
  // Screen a window lives on, or -1 for unknown windows.
  int ScreenOfWindow(xproto::WindowId window) const;

  // ---- Atoms -------------------------------------------------------------
  xproto::AtomId InternAtom(const std::string& name);
  std::optional<std::string> GetAtomName(xproto::AtomId atom) const;

  // ---- Window ids (docs/PROTOCOL.md "Window ids") -------------------------
  // The client's id base and mask, as X's connection setup reports them: it
  // names each window it creates base | n with n <= mask.  Both 0 for an
  // unknown client or one that connected while every slot was taken (it
  // can create no windows).
  xproto::WindowId IdBase(xproto::ClientId client) const;
  xproto::WindowId IdMask(xproto::ClientId client) const {
    return IdBase(client) == xproto::kNone ? 0 : xproto::kIdMask;
  }
  // The largest run of the client's range that none of its windows uses
  // (XC-MISC's GetXIDRange); what a client asks for once its range is spent.
  xproto::IdRangeReply IdRange(xproto::ClientId client) const;

  // ---- Window lifecycle --------------------------------------------------
  // Creates `window`, the id the client chose.  Raises BadIDChoice when the
  // id is outside the client's range or names a live window.  Returns the
  // id, or kNone when the request failed.
  xproto::WindowId CreateWindow(xproto::ClientId client, xproto::WindowId window,
                                xproto::WindowId parent, const xbase::Rect& geometry,
                                int border_width, xproto::WindowClass window_class,
                                bool override_redirect);
  bool DestroyWindow(xproto::ClientId client, xproto::WindowId window);
  bool MapWindow(xproto::ClientId client, xproto::WindowId window);
  bool UnmapWindow(xproto::ClientId client, xproto::WindowId window);
  bool ReparentWindow(xproto::ClientId client, xproto::WindowId window,
                      xproto::WindowId new_parent, const xbase::Point& position);
  bool ConfigureWindow(xproto::ClientId client, xproto::WindowId window, uint16_t value_mask,
                       const ConfigureValues& values);

  // Fails (returns false) when another client already holds
  // SubstructureRedirect on the window — "another WM is running".
  bool SelectInput(xproto::ClientId client, xproto::WindowId window, uint32_t event_mask);

  bool ChangeSaveSet(xproto::ClientId client, xproto::WindowId window, bool add);

  // ---- Introspection -----------------------------------------------------
  // The answers carry no per-client field: your_event_mask stays 0 here, and
  // Answer fills it for the asking client.
  std::optional<WindowAttributes> GetWindowAttributes(xproto::WindowId window) const;
  std::optional<xbase::Rect> GetGeometry(xproto::WindowId window) const;
  std::optional<QueryTreeReply> QueryTree(xproto::WindowId window) const;
  std::optional<xbase::Point> TranslateCoordinates(xproto::WindowId src, xproto::WindowId dst,
                                                   const xbase::Point& point) const;
  bool WindowExists(xproto::WindowId window) const;
  bool IsViewable(xproto::WindowId window) const;
  // Position of the window's top-left corner in real-root coordinates.
  xbase::Point RootPosition(xproto::WindowId window) const;

  // ---- Properties --------------------------------------------------------
  bool ChangeProperty(xproto::ClientId client, xproto::WindowId window, xproto::AtomId property,
                      xproto::AtomId type, int format, PropMode mode,
                      std::vector<uint8_t> data);
  bool DeleteProperty(xproto::ClientId client, xproto::WindowId window,
                      xproto::AtomId property);
  std::optional<PropertyRec> GetProperty(xproto::WindowId window,
                                         xproto::AtomId property) const;
  std::vector<xproto::AtomId> ListProperties(xproto::WindowId window) const;

  // ---- Events ------------------------------------------------------------
  // event_mask == 0 delivers to the window's creating client (SendEvent
  // semantics for ClientMessage).
  bool SendEvent(xproto::ClientId client, xproto::WindowId destination, uint32_t event_mask,
                 xproto::Event event);
  std::optional<xproto::Event> NextEvent(xproto::ClientId client);
  size_t PendingEvents(xproto::ClientId client) const;
  // Test-only: `tap` sees every event a client takes with NextEvent, in
  // order.  An empty function removes it.
  using EventTap = std::function<void(xproto::ClientId, const xproto::Event&)>;
  void SetEventTapForTest(EventTap tap) { event_tap_ = std::move(tap); }

  // ---- Input focus ---------------------------------------------------------
  // kNone means pointer-root focus (keys go to the window under the
  // pointer).  FocusIn/FocusOut are delivered to FocusChangeMask selectors.
  bool SetInputFocus(xproto::ClientId client, xproto::WindowId window);
  xproto::WindowId GetInputFocus() const { return focus_window_; }

  // ---- Pointer / keyboard ------------------------------------------------
  // Input simulation (recorded as a trace warp, like the motion calls).
  void WarpPointer(int screen, const xbase::Point& root_pos);
  // The WarpPointer request: `position` is relative to `dst`.
  bool WarpPointer(xproto::ClientId client, xproto::WindowId dst, const xbase::Point& position);
  PointerState QueryPointer() const { return pointer_; }
  // Moves the pointer, generating Enter/Leave and MotionNotify events.
  void SimulateMotion(const xbase::Point& root_pos);
  void SimulateButton(int button, bool press, uint32_t modifiers = 0);
  void SimulateKey(xproto::KeySym keysym, bool press, uint32_t modifiers = 0);
  bool GrabButton(xproto::ClientId client, xproto::WindowId window, int button,
                  uint32_t modifiers, uint32_t event_mask);
  bool UngrabButton(xproto::ClientId client, xproto::WindowId window, int button,
                    uint32_t modifiers);

  // ---- SHAPE extension ---------------------------------------------------
  // Refuses (BadLength) a region of more than xproto::kMaxWireRects
  // rectangles, as the wire decoder does, so every shape fits its reply.
  bool ShapeSetRegion(xproto::ClientId client, xproto::WindowId window, xbase::Region region);
  bool ShapeClear(xproto::ClientId client, xproto::WindowId window);
  bool ShapeSelect(xproto::ClientId client, xproto::WindowId window, bool enable);

  // ---- Drawing / rendering ----------------------------------------------
  bool SetWindowBackground(xproto::ClientId client, xproto::WindowId window, char background);
  bool SetCursor(xproto::ClientId client, xproto::WindowId window, const std::string& name);
  bool ClearWindow(xproto::ClientId client, xproto::WindowId window);
  bool Draw(xproto::ClientId client, xproto::WindowId window, DrawOp op);
  xbase::Canvas RenderScreen(int number) const;

  xproto::Timestamp CurrentTime() const { return time_; }

  // Test-only: the deepest viewable window under the pointer, hit-tested
  // afresh rather than read from the cached QueryPointer().window.
  xproto::WindowId HitTestPointerForTest() const { return DeepestViewableAt(pointer_.root_pos); }
  // Test-only: a client's save set (insertion order), the windows it holds
  // state on and the windows it owns (both ascending), or nullopt for
  // unknown clients.
  struct ClientIndex {
    std::vector<xproto::WindowId> save_set;
    std::vector<xproto::WindowId> referenced;
    std::vector<xproto::WindowId> owned;
  };
  std::optional<ClientIndex> ClientIndexForTest(xproto::ClientId client) const {
    const ClientRec* rec = FindClient(client);
    if (rec == nullptr) {
      return std::nullopt;
    }
    return ClientIndex{rec->save_set,
                       {rec->referenced.begin(), rec->referenced.end()},
                       {rec->owned.begin(), rec->owned.end()}};
  }

 private:
  struct ClientRec {
    std::string machine;
    std::deque<xproto::Event> queue;
    // Events a fault plan is holding back; released after the next enqueue
    // for this client (adjacent reorder) or when the queue drains.
    std::deque<xproto::Event> delayed;
    std::vector<xproto::WindowId> save_set;
    // Window-id slot (0: none was free); the client's ids are slot << shift.
    uint32_t slot = 0;
    // Ascending ids of the client's live windows, all inside its range.
    std::set<xproto::WindowId> owned;
    // Windows, whoever owns them, on which the client holds an event
    // selection, a shape selection, a passive grab or a save-set entry.
    // With `owned`, everything Disconnect must sweep, so it never walks
    // windows_.
    std::set<xproto::WindowId> referenced;
    uint64_t sequence = 0;  // Requests processed on this connection.
    uint64_t errors = 0;
    ErrorCallback on_error;
    // Per-connection outbound reply encoder; DispatchBytes drains it into
    // DispatchResult::reply_bytes.
    xproto::WireWriter outbound;
    uint64_t replies_sent = 0;
  };

  struct ActiveGrab {
    bool active = false;
    xproto::ClientId client = 0;
    xproto::WindowId window = xproto::kNone;
    int button = 0;
    uint32_t event_mask = 0;
  };

  WindowRec* Find(xproto::WindowId window);
  const WindowRec* Find(xproto::WindowId window) const;
  ClientRec* FindClient(xproto::ClientId client);
  const ClientRec* FindClient(xproto::ClientId client) const;
  // Keep ClientRec::referenced in step with the per-window client state:
  // Reference (for a connected client) after granting a selection, shape
  // selection, grab or save-set entry; Unreference after dropping one,
  // which forgets the window once the client holds nothing else on it.
  void Reference(xproto::ClientId client, xproto::WindowId window);
  void Unreference(xproto::ClientId client, const WindowRec& win);

  xproto::Timestamp Tick() { return ++time_; }

  // ---- Request bookkeeping / error channel ---------------------------------
  // Every state-changing request enters through a RequestGuard: the
  // outermost guard bumps the client's sequence number and runs the fault
  // hooks (nth-request failure, doomed-window destruction).  Nested guards
  // (requests issued internally while servicing another request, e.g. the
  // unmap inside ReparentWindow) are transparent.
  class RequestGuard {
   public:
    RequestGuard(Server* server, xproto::ClientId client, xproto::RequestCode code);
    ~RequestGuard();
    bool ok() const { return ok_; }  // False when a fault failed the request.

   private:
    Server* server_;
    bool ok_;
  };
  friend class RequestGuard;
  friend class ServerTestPeer;  // Tests read window records (tests/server_test_peer.h).

  // Raises `code` on `client`'s connection (invoking its error callback) and
  // returns false so call sites can `return RaiseError(...)`.
  bool RaiseError(xproto::ClientId client, xproto::ErrorCode code, uint32_t resource_id);

  // Destroys a window on behalf of the fault plan (full DestroyNotify
  // semantics, no redirect, no recursion into fault hooks).
  void InjectDestroy(xproto::WindowId window);
  // Rolls the doomed-window dice after a redirected MapRequest.
  void MaybeDoom(xproto::WindowId window);
  // Applies one seeded structured malformation to a GetProperty reply
  // (truncation, giant string, negative fields, wrong format, zero fill).
  PropertyRec MalformProperty(const PropertyRec& original) const;

  // Delivers `event` to every client that selected `required_mask` on
  // `window` (excluding `skip`).  Returns number of clients reached.
  int DeliverToSelecting(xproto::WindowId window, uint32_t required_mask,
                         const xproto::Event& event, xproto::ClientId skip = 0);
  void Enqueue(xproto::ClientId client, xproto::Event event);

  // The client holding SubstructureRedirect on `window`, or 0.
  xproto::ClientId RedirectHolder(const WindowRec& win) const;

  void DestroyRecursive(xproto::WindowId window, bool notify_parent);
  void MapApplied(WindowRec* win);
  void SendExpose(WindowRec* win);
  bool AncestorsMapped(const WindowRec& win) const;
  void RemoveFromParent(WindowRec* win);

  // Pointer helpers.
  xproto::WindowId DeepestViewableAt(const xbase::Point& root_pos) const;
  xproto::WindowId DeepestInWindow(const WindowRec& win, const xbase::Point& local) const;
  void UpdatePointerWindow();
  // True when the pointer lies inside `win`'s interior on `win`'s screen.
  // The hit test descends only into children whose {0,0,w,h} holds the
  // point, so a change confined to `win`'s subtree can move the pointer
  // window only then; requests run UpdatePointerWindow only in that case.
  bool CoversPointer(const WindowRec& win) const;
  // Screen number of `win`'s root.  Derived by walking ancestors, so a
  // reparent carries the whole subtree to the new screen.
  int ScreenOf(const WindowRec& win) const;
  // Child of `ancestor` on the path toward `descendant` (kNone if none).
  xproto::WindowId ChildTowards(xproto::WindowId ancestor, xproto::WindowId descendant) const;
  bool IsAncestorOrSelf(xproto::WindowId ancestor, xproto::WindowId descendant) const;

  void SetShapeInternal(xproto::ClientId client, WindowRec* win,
                        std::optional<xbase::Region> region);

  void RenderWindow(const WindowRec& win, const xbase::Point& origin,
                    const xbase::Region& clip, xbase::Canvas* canvas) const;

  std::vector<ScreenInfo> screens_;
  // Every live window, hashed by id.  Only looked up, never walked in id
  // order; nodes do not move on rehash, so a WindowRec* stays valid until
  // its own window is erased.
  std::unordered_map<xproto::WindowId, WindowRec> windows_;
  std::map<xproto::ClientId, ClientRec> clients_;
  std::map<std::string, xproto::AtomId> atoms_;
  std::vector<std::string> atom_names_;  // atom id - 1 -> name.

  // Window-id slots in use, indexed by slot; slot 0 is the server's.
  std::vector<bool> slot_used_;
  xproto::ClientId next_client_id_ = 1;
  xproto::Timestamp time_ = 0;

  EventTap event_tap_;
  PointerState pointer_;
  mutable uint64_t hit_test_visits_ = 0;  // Bumped by the const hit test.
  ActiveGrab grab_;
  xproto::WindowId focus_window_ = xproto::kNone;  // kNone = pointer-root.

  // ---- Error-channel state --------------------------------------------------
  uint64_t total_requests_ = 0;
  int request_depth_ = 0;  // >0 while servicing a request (nested calls).
  xproto::RequestCode current_request_ = xproto::RequestCode::kNone;
  xproto::ClientId current_client_ = 0;

  // ---- Fault-injection state ------------------------------------------------
  // Mutable: const read paths (GetProperty) also consume PRNG draws and
  // bump counters when corrupting replies.
  FaultPlan fault_plan_;
  bool fault_plan_active_ = false;
  bool in_fault_ = false;  // Re-entrancy guard while injecting a fault.
  mutable FaultRng fault_rng_{1};
  mutable FaultCounters fault_counters_;
  uint64_t faultable_requests_ = 0;  // Requests since plan installation.
  xproto::WindowId doomed_window_ = xproto::kNone;
  int doomed_countdown_ = 0;

  // ---- Wire dispatch state ---------------------------------------------------
  // Applies the plan's byte-level mutations to `frame` in place (dispatch.cc).
  void MutateFrame(std::vector<uint8_t>* frame, size_t frame_start);
  uint64_t wire_parse_errors_ = 0;

  // Encodes `reply` into the client's outbound writer with its current
  // sequence number, updates the reply fingerprint and records the honest
  // bytes to the trace (dispatch.cc).
  void EmitReply(xproto::ClientId client, const xproto::Reply& reply);
  uint64_t replies_emitted_ = 0;
  uint64_t reply_bytes_emitted_ = 0;
  uint64_t reply_hash_ = 1469598103934665603ull;  // FNV-1a offset basis.

  // ---- Trace recording -------------------------------------------------------
  xproto::TraceRecorder* trace_recorder_ = nullptr;

  // ---- Render accounting -----------------------------------------------------
  void RecordDraw(const DrawOp& op);  // render.cc
  RenderStats render_stats_;
};

}  // namespace xserver

#endif  // SRC_XSERVER_SERVER_H_
