// ICCCM property codecs: encode/decode the client↔WM communication
// properties (paper §6.3, §7) against the byte-valued property store.
#ifndef SRC_XLIB_ICCCM_H_
#define SRC_XLIB_ICCCM_H_

#include <optional>
#include <string>
#include <vector>

#include "src/xlib/display.h"
#include "src/xproto/hints.h"

namespace xlib {

// The getters below log a sanitized property once per (property, window),
// keyed in the log throttle as "icccm:<property>:<window>".  Frees those
// keys for `window`; the window manager calls it when it unmanages the
// window, so a long session keeps no key per window it has ever seen.
void ForgetSanitizerLog(xproto::WindowId window);

// WM_NAME / WM_ICON_NAME --------------------------------------------------
bool SetWmName(Display* dpy, xproto::WindowId window, const std::string& name);
std::optional<std::string> GetWmName(Display* dpy, xproto::WindowId window);
bool SetWmIconName(Display* dpy, xproto::WindowId window, const std::string& name);
std::optional<std::string> GetWmIconName(Display* dpy, xproto::WindowId window);

// WM_CLASS (instance NUL class NUL) ----------------------------------------
bool SetWmClass(Display* dpy, xproto::WindowId window, const xproto::WmClass& wm_class);
std::optional<xproto::WmClass> GetWmClass(Display* dpy, xproto::WindowId window);

// WM_COMMAND (argv, NUL-terminated strings) --------------------------------
bool SetWmCommand(Display* dpy, xproto::WindowId window,
                  const std::vector<std::string>& argv);
std::optional<std::vector<std::string>> GetWmCommand(Display* dpy, xproto::WindowId window);

// WM_CLIENT_MACHINE ----------------------------------------------------------
bool SetWmClientMachine(Display* dpy, xproto::WindowId window, const std::string& machine);
std::optional<std::string> GetWmClientMachine(Display* dpy, xproto::WindowId window);

// WM_TRANSIENT_FOR (ICCCM §4.1.2.6) ------------------------------------------
// The getter sanitizes self-references to kNone; deeper cycle-breaking across
// chains of transient windows is the window manager's job (it knows the set
// of managed windows).
bool SetTransientForHint(Display* dpy, xproto::WindowId window, xproto::WindowId owner);
std::optional<xproto::WindowId> GetTransientForHint(Display* dpy, xproto::WindowId window);

// WM_NORMAL_HINTS (XSizeHints) -----------------------------------------------
bool SetWmNormalHints(Display* dpy, xproto::WindowId window, const xproto::SizeHints& hints);
std::optional<xproto::SizeHints> GetWmNormalHints(Display* dpy, xproto::WindowId window);

// WM_HINTS (XWMHints) ----------------------------------------------------------
bool SetWmHints(Display* dpy, xproto::WindowId window, const xproto::WmHints& hints);
std::optional<xproto::WmHints> GetWmHints(Display* dpy, xproto::WindowId window);

// WM_STATE (set by the window manager; read by session managers) ---------------
bool SetWmState(Display* dpy, xproto::WindowId window, xproto::WmState state,
                xproto::WindowId icon_window);
struct WmStateValue {
  xproto::WmState state = xproto::WmState::kWithdrawn;
  xproto::WindowId icon_window = xproto::kNone;
};
std::optional<WmStateValue> GetWmState(Display* dpy, xproto::WindowId window);

// WM_PROTOCOLS ------------------------------------------------------------------
bool SetWmProtocols(Display* dpy, xproto::WindowId window,
                    const std::vector<std::string>& protocols);
std::optional<std::vector<std::string>> GetWmProtocols(Display* dpy, xproto::WindowId window);

// ICCCM §4.1.4 WM_CHANGE_STATE: how a client asks the WM to iconify it.
bool RequestIconify(Display* dpy, xproto::WindowId window, int screen);

// ICCCM §4.2.8 WM_DELETE_WINDOW message from WM to client.
bool SendDeleteWindow(Display* dpy, xproto::WindowId window);

// Synthetic ConfigureNotify with root-relative coordinates (ICCCM §4.1.5);
// sent by the WM when it moves a frame without resizing the client.
bool SendSyntheticConfigureNotify(Display* dpy, xproto::WindowId window,
                                  const xbase::Rect& root_relative_geometry);

}  // namespace xlib

#endif  // SRC_XLIB_ICCCM_H_
