// The Virtual Desktop panner (paper §6.1, Figure 3).
//
// "The panner shows a miniature representation of all windows currently on
// the Virtual Desktop.  It also displays an outline indicating your current
// position within the desktop."  Button 1 pans; button 2 on a miniature
// window starts a move of the real window (finishing inside or outside the
// panner); the panner itself is reparented and managed like any client, and
// resizing it resizes the underlying Virtual Desktop.
#ifndef SRC_SWM_PANNER_H_
#define SRC_SWM_PANNER_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/base/region.h"
#include "src/xlib/client_app.h"
#include "src/xlib/display.h"

namespace swm {

class VirtualDesktop;
class WindowManager;
struct ManagedClient;

class Panner {
 public:
  // `scale` is the desktop-pixels-per-panner-cell factor (resource
  // swm*panner.scale, default 16): desktop size == panner size * scale.
  Panner(WindowManager* wm, int screen, int scale);
  ~Panner();

  Panner(const Panner&) = delete;
  Panner& operator=(const Panner&) = delete;

  // A miniature window: one `kFillRect` of 'o' per non-sticky normal client
  // on the active desktop, in panner cells.
  struct Box {
    xproto::WindowId window = xproto::kNone;
    xbase::Rect rect;
    friend bool operator==(const Box&, const Box&) = default;
  };

  // The panner's client window (owned by the WM's aux connection and
  // managed/reparented like a normal client).
  xproto::WindowId window() const { return app_->window(); }
  int scale() const { return scale_; }
  int screen() const { return screen_; }

  // Maps the client window (kicks off normal management).
  void Map();

  // Marks the miniature of client `window` stale: its frame was placed,
  // laid out, resized, rebuilt, mapped, iconified or unmanaged.  Inside
  // ProcessEvents' frame hold it is brought up to date once per batch, by
  // WindowManager::FlushFrames; outside it, at once.
  void Update(xproto::WindowId window);
  // Marks the view stale (a pan or a desktop switch); a changed outline or
  // desktop redraws every box.
  void Update();
  // Like Update(), but the next reconcile clears the window and draws every
  // box and the outline from scratch (f.refresh, a panner resize).
  void Redraw();
  // Brings the window up to date if an Update() or Redraw() marked it
  // stale.  Looks up only the clients marked since the last reconcile and
  // sends the difference from what it shows: each removed or moved box is
  // erased in the window background except where a remaining box covers
  // it, new and moved boxes are drawn, and the outline is redrawn only if an
  // erase or a draw touched its ring.  A pan, a desktop switch, a panner
  // resize, or a diff that would grow the window's display list past
  // ListBound() redraws every client's box from scratch instead.
  void Reconcile();

  // What the window shows, by client window id, and the viewport outline.
  const std::vector<Box>& boxes() const { return shown_; }
  const xbase::Rect& outline() const { return shown_outline_; }
  // Ops appended to the window's display list since its last ClearWindow.
  size_t list_ops() const { return list_ops_; }
  // The bound on list_ops() for `boxes` shown boxes: a full redraw costs
  // boxes + 1 ops, so the list never holds more than about twice that.
  static constexpr size_t ListBound(size_t boxes) { return 2 * (boxes + 1) + 16; }

  // Event handling; return true when the event was consumed.
  bool HandleButton(const xproto::ButtonEvent& event);
  bool HandleMotion(const xproto::MotionEvent& event);

  // Called when the panner's client window got resized: resizes the
  // Virtual Desktop to panner-size * scale (paper: "The act of resizing
  // the panner object causes the underlying Virtual Desktop window to
  // resize").
  void OnResized(const xbase::Size& new_size);

  // Coordinate mapping between panner cells and desktop pixels.
  xbase::Point PannerToDesktop(const xbase::Point& p) const;
  xbase::Point DesktopToPanner(const xbase::Point& p) const;

  bool dragging_window() const { return drag_window_ != xproto::kNone; }

 private:
  // The box `client` shows as on `desk`, if any.
  std::optional<xbase::Rect> BoxOf(const ManagedClient& client,
                                   const VirtualDesktop& desk) const;
  xbase::Rect OutlineOf(const VirtualDesktop& desk) const;
  // Brings the box of each window in `dirty_` up to date in `shown_` and
  // fills `erases_` and `draws_` with the difference; true when one of them
  // touches the outline's ring.  The erases are sent first, so they never
  // clear a box drawn in the same pass.
  bool Diff(const VirtualDesktop& desk, const xbase::Rect& outline);
  // Rebuilds `shown_` from every client and draws it from scratch.
  void SendFullRedraw(const VirtualDesktop& desk, const xbase::Rect& outline);

  WindowManager* wm_;
  int screen_;
  int scale_;
  std::unique_ptr<xlib::ClientApp> app_;
  xbase::Size size_;  // Panner cells; from construction and OnResized.
  bool panning_ = false;
  xproto::WindowId drag_window_ = xproto::kNone;  // Miniature-move in progress.
  xbase::Point drag_offset_;  // Pointer offset inside the miniature box.

  // Retained state: what the window shows, sorted by client window id.
  bool stale_ = false;
  bool full_redraw_ = true;
  std::vector<Box> shown_;
  xbase::Rect shown_outline_;
  xproto::WindowId shown_desktop_ = xproto::kNone;
  size_t list_ops_ = 0;
  std::vector<xproto::WindowId> dirty_;  // Clients marked since the last reconcile.
  // Scratch reused across reconciles.
  std::vector<xbase::Rect> removed_;  // Old rects of removed and moved boxes.
  std::vector<xbase::Rect> erases_;  // Filled with the window background.
  std::vector<xbase::Rect> draws_;   // Filled with 'o'.
  xbase::Region cover_;
  xbase::Region uncovered_;
};

}  // namespace swm

#endif  // SRC_SWM_PANNER_H_
