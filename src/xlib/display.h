// Client-side library over the server simulator — the Xlib substitute.
//
// A Display is one client connection: it owns a client id, sends requests
// to the server — in-process or over a socket — and drains its own event
// queue.  Every request is built once as an xproto::Request and goes
// through one of two funnels, Issue for void requests and Query for
// replies, which pick the transport; see "Wire mode" below.  The call
// surface intentionally mirrors Xlib (CreateSimpleWindow, SelectInput,
// InternAtom, ChangeProperty, NextEvent, ...) so the window-manager code
// above reads like real X client code.
#ifndef SRC_XLIB_DISPLAY_H_
#define SRC_XLIB_DISPLAY_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/xproto/error.h"
#include "src/xproto/events.h"
#include "src/xproto/sanitize.h"
#include "src/xproto/transport.h"
#include "src/xproto/types.h"
#include "src/xserver/server.h"

namespace xlib {

class Display {
 public:
  // Connects to the in-process server.  `client_machine` models the host
  // this client runs on (clients "are not constrained to be run on the same
  // system that is actually running the X server", paper §1).
  explicit Display(xserver::Server* server, std::string client_machine = "localhost");

  // Connects to an out-of-process server over its listening socket
  // (docs/PROTOCOL.md "Out-of-process operation"; '@'-prefixed paths name
  // the abstract namespace).  The constructor performs the QueryScreens
  // handshake; check Connected() before use.  Every request travels the
  // wire — there is no Server pointer, so server() must not be called on a
  // remote display.
  explicit Display(const std::string& socket_path, std::string client_machine = "remote");

  // Remote display from $SWM_SOCKET (the conventional handoff from a server
  // that forked us).  nullptr when the variable is unset or the handshake
  // failed.
  static std::unique_ptr<Display> FromEnv(std::string client_machine = "remote");

  ~Display();

  Display(const Display&) = delete;
  Display& operator=(const Display&) = delete;

  xserver::Server& server() { return *server_; }
  xproto::ClientId client_id() const { return client_; }
  // True when `window` lies in this connection's id range: the server
  // accepts a CreateWindow only with an id from the creator's range
  // (docs/PROTOCOL.md "Window ids"), so such a window, while it exists, is
  // one this Display made.
  bool OwnsId(xproto::WindowId window) const {
    return id_base_ != xproto::kNone && (window & ~xproto::kIdMask) == id_base_;
  }
  const std::string& client_machine() const { return machine_; }

  // True for displays constructed over a socket (no in-process Server).
  bool remote() const { return endpoint_ != nullptr; }
  // In-process displays are always connected; remote ones only after the
  // QueryScreens handshake succeeded and while the socket stays open.
  bool Connected() const {
    return remote() ? endpoint_->open() && !screens_.empty() : true;
  }
  // Remote socket fd for poll(2)/epoll waits; -1 in-process.
  int PollFd() const { return remote() ? endpoint_->PollFd() : -1; }

  // ---- Error handling ------------------------------------------------------
  // XSetErrorHandler-style: the handler runs synchronously when the server
  // raises an error against this connection.  Returns the previous handler;
  // pass nullptr to restore the default (which logs a warning).
  using XErrorHandler = std::function<void(const xproto::XError&)>;
  XErrorHandler SetErrorHandler(XErrorHandler handler);
  // Errors raised against this connection so far.
  uint64_t ErrorCount() const {
    return remote() ? remote_errors_ : server_->ErrorCount(client_);
  }
  // Per-connection request sequence number — requests issued so far.
  uint64_t RequestCount() const {
    return remote() ? remote_sequence_ : server_->SequenceNumber(client_);
  }
  // The most recent error, if any.
  const std::optional<xproto::XError>& LastError() const { return last_error_; }

  // ---- Wire mode (docs/PROTOCOL.md) ----------------------------------------
  // Every request is built once as an xproto::Request, whatever the mode:
  // void requests go to Issue, queries to Query.  An in-process Display
  // applies a void request with Server::ApplyRequest and asks a query with
  // Server::Answer, the typed dispatch DispatchBytes runs after decoding; no
  // bytes are encoded, and queries take no sequence slot and raise no error.
  // Wire mode adds only the codec: the request is encoded to X11 wire bytes
  // and routed through Server::DispatchBytes, and a query decodes its answer
  // out of the reply frame the dispatch emitted — the full serialize →
  // parse → dispatch → encode-reply → decode-reply round trip an
  // out-of-process client exercises.  Every call has a wire encoding.  Off
  // by default.
  void set_wire_mode(bool enable) { wire_mode_ = enable; }

  struct WireStats {
    uint64_t wire_requests = 0;      // Requests encoded and byte-routed.
    uint64_t wire_replies = 0;       // Reply frames decoded back.
    uint64_t wire_fallbacks = 0;  // Inert: nothing writes it; goes once perfbench stops reading it.
    uint64_t reply_parse_errors = 0; // Reply frames that failed to decode.
  };
  const WireStats& wire_stats() const { return wire_stats_; }

  // ---- ICCCM sanitizer (docs/ROBUSTNESS.md) --------------------------------
  // What the sanitizing decoders in xlib/icccm repaired on this connection.
  // Hostile clients show up here, not as crashes.
  const xproto::SanitizerStats& sanitizer_stats() const { return sanitizer_stats_; }
  xproto::SanitizerStats* mutable_sanitizer_stats() { return &sanitizer_stats_; }

  // ---- Screens -----------------------------------------------------------
  // Answered from the screen table the QueryScreens handshake cached at
  // connection setup — screen geometry is immutable for the life of a
  // connection.
  int ScreenCount() const { return static_cast<int>(screens_.size()); }
  xproto::WindowId RootWindow(int screen = 0) const {
    return ScreenKnown(screen) ? screens_[screen].root : xproto::kNone;
  }
  xbase::Size DisplaySize(int screen = 0) const {
    return ScreenKnown(screen) ? xbase::Size{screens_[screen].width, screens_[screen].height}
                               : xbase::Size{};
  }
  bool IsMonochrome(int screen = 0) const {
    return ScreenKnown(screen) && screens_[screen].monochrome;
  }

  // ---- Windows -----------------------------------------------------------
  xproto::WindowId CreateWindow(xproto::WindowId parent, const xbase::Rect& geometry,
                                int border_width = 0, bool override_redirect = false,
                                xproto::WindowClass window_class =
                                    xproto::WindowClass::kInputOutput);
  bool DestroyWindow(xproto::WindowId window);
  bool MapWindow(xproto::WindowId window);
  bool MapRaised(xproto::WindowId window);
  bool UnmapWindow(xproto::WindowId window);
  bool ReparentWindow(xproto::WindowId window, xproto::WindowId parent,
                      const xbase::Point& position);
  bool ConfigureWindow(xproto::WindowId window, uint16_t value_mask,
                       const xserver::ConfigureValues& values);
  bool MoveWindow(xproto::WindowId window, const xbase::Point& position);
  bool ResizeWindow(xproto::WindowId window, const xbase::Size& size);
  bool MoveResizeWindow(xproto::WindowId window, const xbase::Rect& geometry);
  bool RaiseWindow(xproto::WindowId window);
  bool LowerWindow(xproto::WindowId window);
  bool SelectInput(xproto::WindowId window, uint32_t event_mask);
  bool AddToSaveSet(xproto::WindowId window);
  bool RemoveFromSaveSet(xproto::WindowId window);

  std::optional<xserver::WindowAttributes> GetWindowAttributes(xproto::WindowId window) const;
  std::optional<xbase::Rect> GetGeometry(xproto::WindowId window) const;
  std::optional<xserver::QueryTreeReply> QueryTree(xproto::WindowId window) const;
  std::optional<xbase::Point> TranslateCoordinates(xproto::WindowId src, xproto::WindowId dst,
                                                   const xbase::Point& point) const;

  // ---- Atoms & properties --------------------------------------------------
  xproto::AtomId InternAtom(const std::string& name);
  std::optional<std::string> GetAtomName(xproto::AtomId atom) const;

  bool ChangeProperty(xproto::WindowId window, xproto::AtomId property, xproto::AtomId type,
                      int format, xserver::PropMode mode, std::vector<uint8_t> data);
  std::optional<xserver::PropertyRec> GetProperty(xproto::WindowId window,
                                                  xproto::AtomId property) const;
  bool DeleteProperty(xproto::WindowId window, xproto::AtomId property);

  // Typed helpers (property names interned on the fly).
  bool SetStringProperty(xproto::WindowId window, const std::string& name,
                         const std::string& value);
  std::optional<std::string> GetStringProperty(xproto::WindowId window,
                                               const std::string& name) const;
  bool AppendStringProperty(xproto::WindowId window, const std::string& name,
                            const std::string& value);
  bool SetCardinalProperty(xproto::WindowId window, const std::string& name,
                           const std::vector<uint32_t>& values);
  std::optional<std::vector<uint32_t>> GetCardinalProperty(xproto::WindowId window,
                                                           const std::string& name) const;
  bool SetWindowIdProperty(xproto::WindowId window, const std::string& name,
                           xproto::WindowId value);
  std::optional<xproto::WindowId> GetWindowIdProperty(xproto::WindowId window,
                                                      const std::string& name) const;

  // ---- Events --------------------------------------------------------------
  bool SendEvent(xproto::WindowId destination, uint32_t event_mask, xproto::Event event);
  std::optional<xproto::Event> NextEvent();
  size_t Pending() const;
  // Drains the queue calling `handler` for each event; returns count handled.
  template <typename Handler>
  int DrainEvents(Handler&& handler) {
    int n = 0;
    while (std::optional<xproto::Event> event = NextEvent()) {
      handler(*event);
      ++n;
    }
    return n;
  }

  // ---- Focus ---------------------------------------------------------------
  bool SetInputFocus(xproto::WindowId window);
  xproto::WindowId GetInputFocus() const;

  // ---- Pointer -------------------------------------------------------------
  void WarpPointer(int screen, const xbase::Point& root_pos);
  // A default PointerState when the query failed.
  xserver::PointerState QueryPointer() const;
  bool GrabButton(xproto::WindowId window, int button, uint32_t modifiers,
                  uint32_t event_mask);
  bool UngrabButton(xproto::WindowId window, int button, uint32_t modifiers);

  // ---- SHAPE ----------------------------------------------------------------
  bool ShapeSetMask(xproto::WindowId window, const xbase::Bitmap& mask);
  bool ShapeSetRegion(xproto::WindowId window, xbase::Region region);
  bool ShapeClear(xproto::WindowId window);
  bool ShapeSelect(xproto::WindowId window, bool enable);
  bool IsShaped(xproto::WindowId window) const;
  // The bounding shape; nullopt when the window is unshaped or gone.
  std::optional<xbase::Region> GetShape(xproto::WindowId window) const;

  // ---- Drawing ---------------------------------------------------------------
  bool SetWindowBackground(xproto::WindowId window, char background);
  bool SetCursor(xproto::WindowId window, const std::string& name);
  bool ClearWindow(xproto::WindowId window);
  bool Draw(xproto::WindowId window, xserver::DrawOp op);

 private:
  // The void-request funnel: sends `request` over the socket (remote),
  // encodes and dispatches its bytes (wire mode) or applies it with
  // Server::ApplyRequest (in-process).  Returns true when the request
  // executed cleanly (remote: when it was sent).
  bool Issue(xproto::Request request);
  // Window ids (docs/PROTOCOL.md "Window ids").  MintId hands out the id
  // for the next CreateWindow from the run [next_id_, id_end_): the whole
  // range from connection setup at first, then, each time the run is spent,
  // the largest free run the server reports (GetIdRange).  kNone when no id
  // is free.  (A connection without a slot has base 0 and mask 0: its one
  // id is kNone.)
  xproto::WindowId MintId();
  void TakeIdRun(xproto::WindowId start, uint64_t count) {
    next_id_ = start;
    id_end_ = start + count;
  }
  // Connection setup: asks QueryScreens for the screen table and the id
  // range.  Failure leaves screens_ empty.
  void Setup();
  // Records `error` as the last one and hands it to the error handler.
  void ReportError(const xproto::XError& error);
  // In-process wire mode: encodes `request` and dispatches the bytes.
  xserver::Server::DispatchResult DispatchWire(const xproto::Request& request) const;
  // The query funnel: asks the server over the socket (remote), encodes,
  // dispatches and decodes the reply frame (wire mode), or reads
  // Server::Answer (in-process).  nullopt when the server refused it.
  std::optional<xproto::Reply> Query(xproto::Request request) const;
  // Query, narrowed to the reply type the request earns.
  template <typename ReplyT>
  std::optional<ReplyT> Query(xproto::Request request) const {
    std::optional<xproto::Reply> reply = Query(std::move(request));
    if (ReplyT* r = reply.has_value() ? std::get_if<ReplyT>(&*reply) : nullptr) {
      return std::move(*r);
    }
    return std::nullopt;
  }

  bool ScreenKnown(int screen) const {
    return screen >= 0 && screen < static_cast<int>(screens_.size());
  }
  // ---- Remote transport (socket-connected displays) ------------------------
  // Fire-and-forget void request: queue, flush, opportunistically drain any
  // inbound frames already waiting.  Errors surface asynchronously, as in
  // real Xlib.
  bool RemoteIssue(const xproto::Request& request);
  // Blocking (bounded) query round trip over the socket.
  std::optional<xproto::Reply> RemoteRoundTrip(const xproto::Request& request);
  // Dispatches one inbound frame: errors hit the error handler, events join
  // the local queue, a reply with sequence == want_sequence lands in
  // *reply_out.  Returns true when the frame settles the round trip
  // `want_sequence` identifies (matching reply or matching error); pass
  // want_sequence < 0 when not waiting.
  bool HandleRemoteFrame(std::span<const uint8_t> frame, int want_sequence,
                         std::optional<xproto::Reply>* reply_out);
  // Non-blocking drain of whatever the socket has (events, stray errors).
  // With `flush` it first writes every queued request, waiting (bounded) for
  // the socket as Xlib's XFlush does: a client about to wait for events
  // must not hold requests the server has not seen.
  void DrainRemote(bool flush = false);

  xserver::Server* server_;
  xproto::ClientId client_;
  std::string machine_;
  bool wire_mode_ = false;
  mutable WireStats wire_stats_;
  XErrorHandler error_handler_;
  std::optional<xproto::XError> last_error_;
  xproto::SanitizerStats sanitizer_stats_;
  xproto::WindowId id_base_ = xproto::kNone;  // Start of the connection's id range.
  uint64_t next_id_ = xproto::kNone;
  uint64_t id_end_ = xproto::kNone;

  std::vector<xproto::ScreensReply::Screen> screens_;
  // Remote-mode state (null/empty for in-process displays).
  std::unique_ptr<xproto::WireClientEndpoint> endpoint_;
  uint64_t remote_sequence_ = 0;  // Local mirror of the server's per-client count.
  uint64_t remote_errors_ = 0;
  std::deque<xproto::Event> remote_events_;
};

}  // namespace xlib

#endif  // SRC_XLIB_DISPLAY_H_
