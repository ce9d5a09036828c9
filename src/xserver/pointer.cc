// Pointer and keyboard simulation: propagation, Enter/Leave generation,
// automatic (button-hold) grabs and passive button grabs.
#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/xserver/server.h"

namespace xserver {

using xproto::ClientId;
using xproto::Event;
using xproto::kNone;
using xproto::WindowId;

WindowId Server::DeepestInWindow(const WindowRec& win, const xbase::Point& local) const {
  // Children are bottom-most first; hit-test from the top of the stack.
  for (auto it = win.children.rbegin(); it != win.children.rend(); ++it) {
    ++hit_test_visits_;
    const WindowRec* child = Find(*it);
    if (child == nullptr || !child->mapped) {
      continue;
    }
    xbase::Point child_local{local.x - child->geometry.x, local.y - child->geometry.y};
    xbase::Rect bounds{0, 0, child->geometry.width, child->geometry.height};
    if (!bounds.Contains(child_local)) {
      continue;
    }
    if (child->shape.has_value() && !child->shape->Contains(child_local)) {
      continue;  // SHAPE: input follows the bounding shape.
    }
    return DeepestInWindow(*child, child_local);
  }
  return win.id;
}

WindowId Server::DeepestViewableAt(const xbase::Point& root_pos) const {
  const WindowRec* root = Find(screens_[pointer_.screen].root);
  if (root == nullptr) {
    return kNone;
  }
  return DeepestInWindow(*root, root_pos);
}

WindowId Server::ChildTowards(WindowId ancestor, WindowId descendant) const {
  WindowId cur = descendant;
  WindowId prev = kNone;
  while (cur != kNone && cur != ancestor) {
    const WindowRec* win = Find(cur);
    if (win == nullptr) {
      return kNone;
    }
    prev = cur;
    cur = win->parent;
  }
  return cur == ancestor ? prev : kNone;
}

bool Server::CoversPointer(const WindowRec& win) const {
  // Translate the pointer into `win`'s coordinates on the way up to its
  // root, which also names the screen `win` is on.
  xbase::Point local = pointer_.root_pos;
  const WindowRec* cur = &win;
  while (cur->parent != kNone) {
    local.x -= cur->geometry.x;
    local.y -= cur->geometry.y;
    cur = Find(cur->parent);
    XB_CHECK(cur != nullptr) << "window " << win.id << " has a dead ancestor";
  }
  if (cur->id != screens_[pointer_.screen].root) {
    return false;
  }
  return xbase::Rect{0, 0, win.geometry.width, win.geometry.height}.Contains(local);
}

void Server::UpdatePointerWindow() {
  WindowId now_under = DeepestViewableAt(pointer_.root_pos);
  WindowId was_under = pointer_.window;
  if (now_under == was_under) {
    return;
  }
  Tick();
  if (was_under != kNone && Find(was_under) != nullptr) {
    xproto::CrossingEvent leave;
    leave.enter = false;
    leave.window = was_under;
    leave.root_pos = pointer_.root_pos;
    leave.time = time_;
    DeliverToSelecting(was_under, xproto::kLeaveWindowMask, Event{leave});
  }
  pointer_.window = now_under;
  if (now_under != kNone) {
    xproto::CrossingEvent enter;
    enter.enter = true;
    enter.window = now_under;
    enter.root_pos = pointer_.root_pos;
    xbase::Point origin = RootPosition(now_under);
    enter.pos = {pointer_.root_pos.x - origin.x, pointer_.root_pos.y - origin.y};
    enter.time = time_;
    DeliverToSelecting(now_under, xproto::kEnterWindowMask, Event{enter});
  }
}

void Server::WarpPointer(int screen, const xbase::Point& root_pos) {
  XB_CHECK_GE(screen, 0);
  XB_CHECK_LT(screen, static_cast<int>(screens_.size()));
  pointer_.screen = screen;
  if (trace_recorder_ != nullptr) {
    trace_recorder_->RecordWarp(screen, root_pos.x, root_pos.y);
  }
  // The nested motion must not also be recorded — replaying the warp record
  // re-runs it.
  xproto::TraceRecorder* recorder = trace_recorder_;
  trace_recorder_ = nullptr;
  SimulateMotion(root_pos);
  trace_recorder_ = recorder;
}

bool Server::WarpPointer(ClientId client, WindowId dst, const xbase::Point& position) {
  RequestGuard req(this, client, xproto::RequestCode::kWarpPointer);
  if (!req.ok()) {
    return false;
  }
  const WindowRec* win = Find(dst);
  if (win == nullptr) {
    return RaiseError(client, xproto::ErrorCode::kBadWindow, dst);
  }
  // The request's bytes are the trace's record of it: the warp records
  // nothing more.
  xproto::TraceRecorder* recorder = std::exchange(trace_recorder_, nullptr);
  xbase::Point origin = RootPosition(dst);
  WarpPointer(ScreenOf(*win), {origin.x + position.x, origin.y + position.y});
  trace_recorder_ = recorder;
  return true;
}

void Server::SimulateMotion(const xbase::Point& root_pos) {
  if (trace_recorder_ != nullptr) {
    trace_recorder_->RecordMotion(root_pos.x, root_pos.y);
  }
  pointer_.root_pos = root_pos;
  Tick();
  UpdatePointerWindow();

  if (grab_.active) {
    // During a grab all motion is reported relative to the grab window.
    const WindowRec* gwin = Find(grab_.window);
    if (gwin != nullptr) {
      xproto::MotionEvent motion;
      motion.window = grab_.window;
      motion.root_pos = root_pos;
      xbase::Point origin = RootPosition(grab_.window);
      motion.pos = {root_pos.x - origin.x, root_pos.y - origin.y};
      motion.time = time_;
      Enqueue(grab_.client, Event{motion});
    }
    return;
  }

  // Normal delivery: propagate from the deepest window up to the first
  // window where some client selected PointerMotion.
  WindowId target = pointer_.window;
  while (target != kNone) {
    const WindowRec* win = Find(target);
    if (win == nullptr) {
      return;
    }
    if (win->AllSelections() & xproto::kPointerMotionMask) {
      xproto::MotionEvent motion;
      motion.window = target;
      motion.subwindow = ChildTowards(target, pointer_.window);
      motion.root_pos = root_pos;
      xbase::Point origin = RootPosition(target);
      motion.pos = {root_pos.x - origin.x, root_pos.y - origin.y};
      motion.time = time_;
      DeliverToSelecting(target, xproto::kPointerMotionMask, Event{motion});
      return;
    }
    target = win->parent;
  }
}

bool Server::GrabButton(ClientId client, WindowId window, int button, uint32_t modifiers,
                        uint32_t event_mask) {
  RequestGuard req(this, client, xproto::RequestCode::kGrabButton);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr || !HasClient(client)) {
    return RaiseError(client, xproto::ErrorCode::kBadWindow, window);
  }
  // A conflicting grab (same button+modifiers by another client) fails.
  for (const PassiveGrab& grab : win->passive_grabs) {
    if (grab.button == button && grab.modifiers == modifiers && grab.client != client) {
      return RaiseError(client, xproto::ErrorCode::kBadAccess, window);
    }
  }
  win->passive_grabs.push_back(PassiveGrab{client, button, modifiers, event_mask});
  Reference(client, window);
  return true;
}

bool Server::UngrabButton(ClientId client, WindowId window, int button, uint32_t modifiers) {
  RequestGuard req(this, client, xproto::RequestCode::kUngrabButton);
  if (!req.ok()) {
    return false;
  }
  WindowRec* win = Find(window);
  if (win == nullptr) {
    return RaiseError(client, xproto::ErrorCode::kBadWindow, window);
  }
  size_t before = win->passive_grabs.size();
  std::erase_if(win->passive_grabs, [&](const PassiveGrab& g) {
    return g.client == client && g.button == button && g.modifiers == modifiers;
  });
  Unreference(client, *win);
  return win->passive_grabs.size() != before;
}

void Server::SimulateButton(int button, bool press, uint32_t modifiers) {
  XB_CHECK_GE(button, 1);
  XB_CHECK_LE(button, xproto::kMaxButton);
  if (trace_recorder_ != nullptr) {
    trace_recorder_->RecordButton(button, press, modifiers);
  }
  Tick();
  uint32_t bit = 1u << (button - 1);

  if (press) {
    pointer_.buttons_down |= bit;
  } else {
    pointer_.buttons_down &= ~bit;
  }

  xproto::ButtonEvent event;
  event.press = press;
  event.button = button;
  event.modifiers = modifiers;
  event.root_pos = pointer_.root_pos;
  event.time = time_;

  if (grab_.active) {
    // Deliver to the grabbing client relative to the grab window.
    event.window = grab_.window;
    event.subwindow = ChildTowards(grab_.window, pointer_.window);
    xbase::Point origin = RootPosition(grab_.window);
    event.pos = {pointer_.root_pos.x - origin.x, pointer_.root_pos.y - origin.y};
    Enqueue(grab_.client, Event{event});
    if (!press && pointer_.buttons_down == 0) {
      grab_.active = false;
    }
    return;
  }
  if (!press) {
    return;  // Release with no grab in progress: nothing selected it.
  }

  // Passive grabs: checked from the root down toward the pointer window, as
  // in the protocol's grab-window search order.
  std::vector<WindowId> chain;
  for (WindowId cur = pointer_.window; cur != kNone;) {
    chain.push_back(cur);
    const WindowRec* win = Find(cur);
    cur = win == nullptr ? kNone : win->parent;
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const WindowRec* win = Find(*it);
    if (win == nullptr) {
      continue;
    }
    for (const PassiveGrab& grab : win->passive_grabs) {
      bool button_match = grab.button == 0 || grab.button == button;
      bool mods_match = grab.modifiers == modifiers;
      if (button_match && mods_match) {
        grab_.active = true;
        grab_.client = grab.client;
        grab_.window = *it;
        grab_.button = button;
        grab_.event_mask = grab.event_mask;
        event.window = *it;
        event.subwindow = ChildTowards(*it, pointer_.window);
        xbase::Point origin = RootPosition(*it);
        event.pos = {pointer_.root_pos.x - origin.x, pointer_.root_pos.y - origin.y};
        Enqueue(grab.client, Event{event});
        return;
      }
    }
  }

  // Normal delivery with upward propagation; the first window with a
  // selecting client receives the event and starts an automatic grab for
  // the first such client.
  for (WindowId target : chain) {
    const WindowRec* win = Find(target);
    if (win == nullptr) {
      continue;
    }
    if ((win->AllSelections() & xproto::kButtonPressMask) != 0) {
      event.window = target;
      event.subwindow = ChildTowards(target, pointer_.window);
      xbase::Point origin = RootPosition(target);
      event.pos = {pointer_.root_pos.x - origin.x, pointer_.root_pos.y - origin.y};
      ClientId first = 0;
      for (const auto& [client, mask] : win->selections) {
        if (mask & xproto::kButtonPressMask) {
          if (first == 0) {
            first = client;
          }
          Enqueue(client, Event{event});
        }
      }
      if (first != 0) {
        grab_.active = true;
        grab_.client = first;
        grab_.window = target;
        grab_.button = button;
        grab_.event_mask = win->selections.at(first);
      }
      return;
    }
  }
}

bool Server::SetInputFocus(ClientId client, WindowId window) {
  RequestGuard req(this, client, xproto::RequestCode::kSetInputFocus);
  if (!req.ok()) {
    return false;
  }
  if (window != xproto::kNone) {
    if (Find(window) == nullptr) {
      return RaiseError(client, xproto::ErrorCode::kBadWindow, window);
    }
    if (!IsViewable(window)) {
      return RaiseError(client, xproto::ErrorCode::kBadMatch, window);
    }
  }
  if (window == focus_window_) {
    return true;
  }
  Tick();
  if (focus_window_ != xproto::kNone && Find(focus_window_) != nullptr) {
    xproto::FocusEvent out;
    out.in = false;
    out.window = focus_window_;
    DeliverToSelecting(focus_window_, xproto::kFocusChangeMask, Event{out});
  }
  focus_window_ = window;
  if (focus_window_ != xproto::kNone) {
    xproto::FocusEvent in;
    in.in = true;
    in.window = focus_window_;
    DeliverToSelecting(focus_window_, xproto::kFocusChangeMask, Event{in});
  }
  return true;
}

void Server::SimulateKey(xproto::KeySym keysym, bool press, uint32_t modifiers) {
  if (trace_recorder_ != nullptr) {
    trace_recorder_->RecordKey(keysym, press, modifiers);
  }
  Tick();
  xproto::KeyEvent event;
  event.press = press;
  event.keysym = keysym;
  event.modifiers = modifiers;
  event.root_pos = pointer_.root_pos;
  event.time = time_;
  uint32_t mask = press ? xproto::kKeyPressMask : xproto::kKeyReleaseMask;

  // Explicit focus wins; otherwise pointer-root focus: deliver to the
  // window under the pointer, propagating upward (matches swm's "key while
  // the pointer is in the object" binding semantics).
  if (focus_window_ != xproto::kNone && Find(focus_window_) == nullptr) {
    focus_window_ = xproto::kNone;  // Focus window died.
  }
  WindowId target = focus_window_ != xproto::kNone ? focus_window_ : pointer_.window;
  while (target != kNone) {
    const WindowRec* win = Find(target);
    if (win == nullptr) {
      return;
    }
    if ((win->AllSelections() & mask) != 0) {
      event.window = target;
      xbase::Point origin = RootPosition(target);
      event.pos = {pointer_.root_pos.x - origin.x, pointer_.root_pos.y - origin.y};
      DeliverToSelecting(target, mask, Event{event});
      return;
    }
    target = win->parent;
  }
}

}  // namespace xserver
