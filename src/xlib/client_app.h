// A simulated X client application (xclock, xterm, oclock, ...).
//
// Owns a Display connection and one top-level window with the standard ICCCM
// properties set, mirroring how a toolkit-built client presents itself to a
// window manager.  Used by the examples, tests and benchmarks as the
// workload the window manager manages.
#ifndef SRC_XLIB_CLIENT_APP_H_
#define SRC_XLIB_CLIENT_APP_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/xlib/display.h"
#include "src/xlib/icccm.h"
#include "src/xproto/hints.h"

namespace xlib {

struct ClientAppConfig {
  std::string name = "xclock";              // WM_NAME.
  xproto::WmClass wm_class{"xclock", "XClock"};
  std::vector<std::string> command{"xclock"};  // WM_COMMAND (argv).
  std::string machine = "localhost";           // WM_CLIENT_MACHINE.
  int screen = 0;
  xbase::Rect geometry{0, 0, 100, 100};
  uint32_t size_hint_flags = xproto::kPSize;  // kUSPosition / kPPosition etc.
  std::optional<xproto::WmState> initial_state;
  std::string icon_name;         // WM_ICON_NAME (defaults to `name`).
  std::string icon_pixmap_name;  // Named built-in bitmap, "" = none.
  bool shaped = false;           // oclock-style circular shape.
};

class ClientApp {
 public:
  ClientApp(xserver::Server* server, const ClientAppConfig& config);
  ~ClientApp() = default;

  ClientApp(const ClientApp&) = delete;
  ClientApp& operator=(const ClientApp&) = delete;

  Display& display() { return display_; }
  xproto::WindowId window() const { return window_; }
  // The window background the constructor sets: the name's first letter.
  char background() const { return config_.name.empty() ? 'o' : config_.name[0]; }
  const ClientAppConfig& config() const { return config_; }

  // Maps the top-level window (goes through the WM's SubstructureRedirect).
  void Map();
  void Unmap();

  // Asks the WM to iconify (ICCCM WM_CHANGE_STATE client message).
  void RequestIconify();

  // Requests a configure through the WM redirect.
  void RequestMoveResize(const xbase::Rect& geometry);

  // Drains this client's event queue, tracking the synthetic/real
  // ConfigureNotify and ReparentNotify state a toolkit would track.
  void ProcessEvents();

  // What the client believes its root-relative position is, from the last
  // (synthetic or real) ConfigureNotify it processed.  This is the value
  // popup-menu placement would use (paper §6.3.1).
  xbase::Point believed_root_position() const { return believed_root_position_; }
  xproto::WindowId current_parent() const { return current_parent_; }
  int reparent_count() const { return reparent_count_; }
  int configure_notify_count() const { return configure_notify_count_; }
  bool saw_delete_window() const { return saw_delete_window_; }

  // Where the client would place a popup, per the SWM_ROOT property protocol
  // if present (OI-toolkit behaviour) or the real root otherwise.
  xproto::WindowId EffectiveRootForPopups();

 private:
  Display display_;
  ClientAppConfig config_;
  xproto::WindowId window_ = xproto::kNone;
  xbase::Point believed_root_position_;
  xproto::WindowId current_parent_ = xproto::kNone;
  int reparent_count_ = 0;
  int configure_notify_count_ = 0;
  bool saw_delete_window_ = false;
};

}  // namespace xlib

#endif  // SRC_XLIB_CLIENT_APP_H_
