#include "src/xserver/server.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "tests/server_test_peer.h"

namespace xserver {
namespace {

using xproto::Event;
using xproto::kNone;
using xproto::WindowId;

// A free id in `client`'s range for its next CreateWindow: the start of the
// largest free run, as a client whose range is spent would ask for.
WindowId NewId(const Server& server, xproto::ClientId client) {
  return server.IdRange(client).start_id;
}

constexpr uint16_t kMoveResize =
    xproto::kConfigX | xproto::kConfigY | xproto::kConfigWidth | xproto::kConfigHeight;

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : server_({ScreenConfig{200, 100, false}}) {
    client_ = server_.Connect("hostA");
    wm_ = server_.Connect("wmhost");
  }

  // Drains one client's queue into a vector.
  std::vector<Event> Drain(xproto::ClientId client) {
    std::vector<Event> events;
    while (auto event = server_.NextEvent(client)) {
      events.push_back(std::move(*event));
    }
    return events;
  }

  template <typename T>
  std::vector<T> DrainOf(xproto::ClientId client) {
    std::vector<T> out;
    for (Event& event : Drain(client)) {
      if (T* typed = std::get_if<T>(&event)) {
        out.push_back(*typed);
      }
    }
    return out;
  }

  // A window's bounding shape, as its record holds it.
  std::optional<xbase::Region> Shape(WindowId window) const {
    return ServerTestPeer::FindWindow(server_, window)->shape;
  }

  Server server_;
  xproto::ClientId client_ = 0;
  xproto::ClientId wm_ = 0;
};

TEST_F(ServerTest, ScreenSetup) {
  EXPECT_EQ(server_.ScreenCount(), 1);
  EXPECT_NE(server_.RootWindow(0), kNone);
  EXPECT_EQ(server_.screen(0).size, (xbase::Size{200, 100}));
  EXPECT_TRUE(server_.IsViewable(server_.RootWindow(0)));
}

TEST_F(ServerTest, MultiScreen) {
  Server multi({ScreenConfig{100, 100, false}, ScreenConfig{50, 50, true}});
  EXPECT_EQ(multi.ScreenCount(), 2);
  EXPECT_NE(multi.RootWindow(0), multi.RootWindow(1));
  EXPECT_TRUE(multi.screen(1).monochrome);
  EXPECT_EQ(multi.ScreenOfWindow(multi.RootWindow(1)), 1);
}

TEST_F(ServerTest, CreateDestroyWindow) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0),
                                      {10, 10, 50, 40}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  ASSERT_NE(win, kNone);
  EXPECT_TRUE(server_.WindowExists(win));
  EXPECT_EQ(server_.GetGeometry(win), (xbase::Rect{10, 10, 50, 40}));
  EXPECT_FALSE(server_.IsViewable(win));  // Not mapped yet.
  EXPECT_TRUE(server_.DestroyWindow(client_, win));
  EXPECT_FALSE(server_.WindowExists(win));
}

// ---- Window ids (docs/PROTOCOL.md "Window ids") ------------------------------

TEST_F(ServerTest, EachClientNamesWindowsInItsOwnSlot) {
  EXPECT_EQ(server_.RootWindow(0), 1u);  // Slot 0 is the server's.
  EXPECT_EQ(server_.IdBase(client_), WindowId{1} << xproto::kIdSlotShift);
  EXPECT_EQ(server_.IdBase(wm_), WindowId{2} << xproto::kIdSlotShift);
  EXPECT_EQ(server_.IdMask(client_), xproto::kIdMask);
  EXPECT_EQ(server_.IdBase(999), kNone);
  EXPECT_EQ(server_.IdMask(999), 0u);
}

TEST_F(ServerTest, CreateWindowRaisesBadIdChoice) {
  std::vector<xproto::XError> errors;
  server_.SetErrorCallback(client_,
                           [&](const xproto::XError& error) { errors.push_back(error); });
  const WindowId root = server_.RootWindow(0);
  const WindowId base = server_.IdBase(client_);
  auto create = [&](WindowId id) {
    return server_.CreateWindow(client_, id, root, {0, 0, 10, 10}, 0,
                                xproto::WindowClass::kInputOutput, false);
  };
  ASSERT_EQ(create(base | 5), base | 5);
  const struct {
    const char* what;
    WindowId id;
  } cases[] = {
      {"zero", kNone},
      {"another client's range", server_.IdBase(wm_) | 5},
      {"in use", base | 5},
      {"past the mask", base + xproto::kIdMask + 1},
      {"a root", root},
  };
  for (const auto& c : cases) {
    errors.clear();
    EXPECT_EQ(create(c.id), kNone) << c.what;
    ASSERT_EQ(errors.size(), 1u) << c.what;
    EXPECT_EQ(errors[0].code, xproto::ErrorCode::kBadIDChoice) << c.what;
    EXPECT_EQ(errors[0].request, xproto::RequestCode::kCreateWindow) << c.what;
    EXPECT_EQ(errors[0].resource_id, c.id) << c.what;
  }
  EXPECT_EQ(server_.QueryTree(root)->children, std::vector<WindowId>{base | 5});
  // The id is checked before the parent, as in X.
  errors.clear();
  EXPECT_EQ(server_.CreateWindow(client_, kNone, 12345, {0, 0, 1, 1}, 0,
                                 xproto::WindowClass::kInputOutput, false),
            kNone);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, xproto::ErrorCode::kBadIDChoice);
}

TEST_F(ServerTest, IdRangeIsTheLargestFreeRun) {
  const WindowId root = server_.RootWindow(0);
  const WindowId base = server_.IdBase(client_);
  auto create = [&](WindowId id) {
    return server_.CreateWindow(client_, id, root, {0, 0, 10, 10}, 0,
                                xproto::WindowClass::kInputOutput, false);
  };
  EXPECT_EQ(server_.IdRange(client_),
            (xproto::IdRangeReply{.start_id = base, .count = xproto::kIdMask + 1}));
  ASSERT_NE(create(base), kNone);
  ASSERT_NE(create(base | 1000), kNone);
  ASSERT_NE(create(base | (xproto::kIdMask - 10)), kNone);
  EXPECT_EQ(server_.IdRange(client_),
            (xproto::IdRangeReply{.start_id = base | 1001,
                                  .count = xproto::kIdMask - 10 - 1001}));
  ASSERT_TRUE(server_.DestroyWindow(client_, base | 1000));
  EXPECT_EQ(server_.IdRange(client_),
            (xproto::IdRangeReply{.start_id = base | 1, .count = xproto::kIdMask - 10 - 1}));
  // Another client's windows do not count against this range.
  EXPECT_EQ(server_.IdRange(wm_).count, xproto::kIdMask + 1);
  EXPECT_EQ(server_.IdRange(999), xproto::IdRangeReply{});
}

TEST_F(ServerTest, DisconnectFreesTheSlotForTheNextClient) {
  xproto::ClientId third = server_.Connect("c");
  const WindowId base = server_.IdBase(third);
  EXPECT_EQ(base, WindowId{3} << xproto::kIdSlotShift);
  ASSERT_NE(server_.CreateWindow(third, base, server_.RootWindow(0), {0, 0, 4, 4}, 0,
                                 xproto::WindowClass::kInputOutput, false),
            kNone);
  server_.Disconnect(third);
  xproto::ClientId fourth = server_.Connect("d");
  EXPECT_GT(fourth, third);  // Client ids are never reused; slots are.
  EXPECT_EQ(server_.IdBase(fourth), base);
  EXPECT_NE(server_.CreateWindow(fourth, base, server_.RootWindow(0), {0, 0, 4, 4}, 0,
                                 xproto::WindowClass::kInputOutput, false),
            kNone);
  // The lowest free slot is taken first.
  server_.Disconnect(client_);
  EXPECT_EQ(server_.IdBase(server_.Connect("e")), WindowId{1} << xproto::kIdSlotShift);
}

TEST(ServerSlotTest, ClientsPastTheLastSlotCreateNothing) {
  Server server;
  std::vector<xproto::ClientId> clients;
  std::set<WindowId> bases;
  for (uint32_t i = 1; i < xproto::kIdSlots; ++i) {
    clients.push_back(server.Connect());
    bases.insert(server.IdBase(clients.back()));
  }
  EXPECT_EQ(bases.size(), xproto::kIdSlots - 1);
  EXPECT_EQ(bases.count(kNone), 0u);

  xproto::ClientId late = server.Connect("late");
  EXPECT_EQ(server.IdBase(late), kNone);
  EXPECT_EQ(server.IdMask(late), 0u);
  EXPECT_EQ(server.IdRange(late).count, 0u);
  EXPECT_EQ(server.CreateWindow(late, 1u << xproto::kIdSlotShift, server.RootWindow(0),
                                {0, 0, 4, 4}, 0, xproto::WindowClass::kInputOutput, false),
            kNone);
  EXPECT_EQ(server.ErrorCount(late), 1u);

  server.Disconnect(clients[41]);
  EXPECT_EQ(server.IdBase(server.Connect("next")), WindowId{42} << xproto::kIdSlotShift);
}

TEST_F(ServerTest, RootCannotBeDestroyed) {
  EXPECT_FALSE(server_.DestroyWindow(client_, server_.RootWindow(0)));
}

TEST_F(ServerTest, DestroyRecursesAndNotifies) {
  WindowId parent = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 50, 50},
                                         0, xproto::WindowClass::kInputOutput, false);
  WindowId child = server_.CreateWindow(client_, NewId(server_, client_), parent, {5, 5, 10, 10}, 0,
                                        xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, child, xproto::kStructureNotifyMask);
  server_.DestroyWindow(client_, parent);
  EXPECT_FALSE(server_.WindowExists(child));
  auto destroys = DrainOf<xproto::DestroyNotifyEvent>(client_);
  bool saw_child = false;
  for (const auto& event : destroys) {
    if (event.window == child) {
      saw_child = true;
    }
  }
  EXPECT_TRUE(saw_child);
}

TEST_F(ServerTest, MapUnmapNotifications) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, win,
                      xproto::kStructureNotifyMask | xproto::kExposureMask);
  server_.MapWindow(client_, win);
  EXPECT_TRUE(server_.IsViewable(win));
  bool saw_map = false;
  bool saw_expose = false;
  for (Event& event : Drain(client_)) {
    if (std::get_if<xproto::MapNotifyEvent>(&event) != nullptr) {
      saw_map = true;
    }
    if (std::get_if<xproto::ExposeEvent>(&event) != nullptr) {
      saw_expose = true;
    }
  }
  EXPECT_TRUE(saw_map);
  EXPECT_TRUE(saw_expose);

  server_.UnmapWindow(client_, win);
  EXPECT_FALSE(server_.IsViewable(win));
  EXPECT_FALSE(DrainOf<xproto::UnmapNotifyEvent>(client_).empty());
}

TEST_F(ServerTest, ViewabilityRequiresAncestorsMapped) {
  WindowId parent = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 50, 50},
                                         0, xproto::WindowClass::kInputOutput, false);
  WindowId child = server_.CreateWindow(client_, NewId(server_, client_), parent, {0, 0, 10, 10}, 0,
                                        xproto::WindowClass::kInputOutput, false);
  server_.MapWindow(client_, child);
  EXPECT_FALSE(server_.IsViewable(child));
  EXPECT_EQ(server_.GetWindowAttributes(child)->map_state, xproto::MapState::kUnviewable);
  server_.MapWindow(client_, parent);
  EXPECT_TRUE(server_.IsViewable(child));
}

TEST_F(ServerTest, SubstructureRedirectRoutesMapRequest) {
  ASSERT_TRUE(
      server_.SelectInput(wm_, server_.RootWindow(0), xproto::kSubstructureRedirectMask));
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.MapWindow(client_, win);
  // Not mapped: redirected to the WM.
  EXPECT_FALSE(server_.IsViewable(win));
  auto requests = DrainOf<xproto::MapRequestEvent>(wm_);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].window, win);
  EXPECT_EQ(requests[0].parent, server_.RootWindow(0));
  // The WM itself mapping the window succeeds.
  server_.MapWindow(wm_, win);
  EXPECT_TRUE(server_.IsViewable(win));
}

TEST_F(ServerTest, OverrideRedirectBypassesWm) {
  server_.SelectInput(wm_, server_.RootWindow(0), xproto::kSubstructureRedirectMask);
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, true);
  server_.MapWindow(client_, win);
  EXPECT_TRUE(server_.IsViewable(win));
  EXPECT_TRUE(DrainOf<xproto::MapRequestEvent>(wm_).empty());
}

TEST_F(ServerTest, SecondRedirectSelectionFails) {
  EXPECT_TRUE(
      server_.SelectInput(wm_, server_.RootWindow(0), xproto::kSubstructureRedirectMask));
  EXPECT_FALSE(server_.SelectInput(client_, server_.RootWindow(0),
                                   xproto::kSubstructureRedirectMask));
  // Same client may re-select.
  EXPECT_TRUE(
      server_.SelectInput(wm_, server_.RootWindow(0),
                          xproto::kSubstructureRedirectMask | xproto::kButtonPressMask));
}

TEST_F(ServerTest, ConfigureRequestRedirected) {
  server_.SelectInput(wm_, server_.RootWindow(0), xproto::kSubstructureRedirectMask);
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  ConfigureValues values;
  values.geometry = {5, 6, 70, 80};
  server_.ConfigureWindow(client_, win, kMoveResize, values);
  EXPECT_EQ(server_.GetGeometry(win), (xbase::Rect{0, 0, 10, 10}));  // Unchanged.
  auto requests = DrainOf<xproto::ConfigureRequestEvent>(wm_);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].geometry, (xbase::Rect{5, 6, 70, 80}));
  EXPECT_EQ(requests[0].value_mask & (xproto::kConfigWidth | xproto::kConfigHeight),
            xproto::kConfigWidth | xproto::kConfigHeight);
}

TEST_F(ServerTest, ConfigureMovesResizesNotifies) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, win, xproto::kStructureNotifyMask);
  ConfigureValues values;
  values.geometry = {30, 40, 50, 60};
  server_.ConfigureWindow(client_, win, kMoveResize, values);
  EXPECT_EQ(server_.GetGeometry(win), (xbase::Rect{30, 40, 50, 60}));
  auto notifies = DrainOf<xproto::ConfigureNotifyEvent>(client_);
  ASSERT_FALSE(notifies.empty());
  EXPECT_EQ(notifies.back().geometry, (xbase::Rect{30, 40, 50, 60}));
  EXPECT_FALSE(notifies.back().synthetic);
}

TEST_F(ServerTest, StackingOrderRaiseLower) {
  WindowId root = server_.RootWindow(0);
  WindowId a = server_.CreateWindow(client_, NewId(server_, client_), root, {0, 0, 10, 10}, 0,
                                    xproto::WindowClass::kInputOutput, false);
  WindowId b = server_.CreateWindow(client_, NewId(server_, client_), root, {0, 0, 10, 10}, 0,
                                    xproto::WindowClass::kInputOutput, false);
  WindowId c = server_.CreateWindow(client_, NewId(server_, client_), root, {0, 0, 10, 10}, 0,
                                    xproto::WindowClass::kInputOutput, false);
  auto order = [&]() { return server_.QueryTree(root)->children; };
  EXPECT_EQ(order(), (std::vector<WindowId>{a, b, c}));
  ConfigureValues values;
  values.stack_mode = xproto::StackMode::kAbove;
  server_.ConfigureWindow(client_, a, xproto::kConfigStackMode, values);
  EXPECT_EQ(order(), (std::vector<WindowId>{b, c, a}));
  values.stack_mode = xproto::StackMode::kBelow;
  server_.ConfigureWindow(client_, c, xproto::kConfigStackMode, values);
  EXPECT_EQ(order(), (std::vector<WindowId>{c, b, a}));
  // Stack above a specific sibling.
  values.sibling = c;
  values.stack_mode = xproto::StackMode::kAbove;
  server_.ConfigureWindow(client_, a, xproto::kConfigSibling | xproto::kConfigStackMode,
                          values);
  EXPECT_EQ(order(), (std::vector<WindowId>{c, a, b}));
}

TEST_F(ServerTest, ReparentPreservesSubtreeAndNotifies) {
  WindowId root = server_.RootWindow(0);
  WindowId new_parent = server_.CreateWindow(client_, NewId(server_, client_), root, {50, 50, 100, 50}, 0,
                                             xproto::WindowClass::kInputOutput, false);
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), root, {10, 10, 20, 20}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  WindowId grandchild = server_.CreateWindow(client_, NewId(server_, client_), win, {1, 1, 5, 5}, 0,
                                             xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, win, xproto::kStructureNotifyMask);
  server_.MapWindow(client_, new_parent);
  server_.MapWindow(client_, win);
  Drain(client_);

  EXPECT_TRUE(server_.ReparentWindow(client_, win, new_parent, {3, 4}));
  EXPECT_EQ(server_.QueryTree(win)->parent, new_parent);
  EXPECT_EQ(server_.GetGeometry(win)->origin(), (xbase::Point{3, 4}));
  EXPECT_EQ(server_.QueryTree(grandchild)->parent, win);
  // Still mapped after reparent (unmap/remap round trip).
  EXPECT_TRUE(server_.IsViewable(win));

  bool saw_reparent = false;
  bool saw_unmap = false;
  bool saw_map = false;
  for (Event& event : Drain(client_)) {
    if (auto* reparent = std::get_if<xproto::ReparentNotifyEvent>(&event)) {
      saw_reparent = true;
      EXPECT_EQ(reparent->parent, new_parent);
    }
    saw_unmap |= std::get_if<xproto::UnmapNotifyEvent>(&event) != nullptr;
    saw_map |= std::get_if<xproto::MapNotifyEvent>(&event) != nullptr;
  }
  EXPECT_TRUE(saw_reparent);
  EXPECT_TRUE(saw_unmap);
  EXPECT_TRUE(saw_map);
}

TEST_F(ServerTest, ReparentRejectsCycles) {
  WindowId root = server_.RootWindow(0);
  WindowId a = server_.CreateWindow(client_, NewId(server_, client_), root, {0, 0, 10, 10}, 0,
                                    xproto::WindowClass::kInputOutput, false);
  WindowId b = server_.CreateWindow(client_, NewId(server_, client_), a, {0, 0, 5, 5}, 0,
                                    xproto::WindowClass::kInputOutput, false);
  EXPECT_FALSE(server_.ReparentWindow(client_, a, b, {0, 0}));
  EXPECT_FALSE(server_.ReparentWindow(client_, a, a, {0, 0}));
}

// A reparent to another screen's root carries the whole subtree: the
// reparented window's descendants, and windows created under them later,
// are on the new screen and render there.
TEST_F(ServerTest, CrossScreenReparentMovesSubtree) {
  Server multi({ScreenConfig{60, 40, false}, ScreenConfig{60, 40, false}});
  xproto::ClientId client = multi.Connect("hostA");
  WindowId top = multi.CreateWindow(client, NewId(multi, client), multi.RootWindow(0), {5, 5, 30, 20}, 0,
                                    xproto::WindowClass::kInputOutput, false);
  WindowId child = multi.CreateWindow(client, NewId(multi, client), top, {2, 2, 20, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  ASSERT_EQ(multi.ScreenOfWindow(child), 0);

  ASSERT_TRUE(multi.ReparentWindow(client, top, multi.RootWindow(1), {10, 10}));
  WindowId grandchild = multi.CreateWindow(client, NewId(multi, client), child, {1, 1, 4, 3}, 0,
                                           xproto::WindowClass::kInputOutput, false);
  for (WindowId window : {top, child, grandchild}) {
    EXPECT_EQ(multi.ScreenOfWindow(window), 1) << window;
    EXPECT_EQ(multi.QueryTree(window)->root, multi.RootWindow(1)) << window;
  }
  EXPECT_EQ(multi.TranslateCoordinates(grandchild, multi.RootWindow(1), {0, 0}),
            (xbase::Point{13, 13}));
  EXPECT_FALSE(multi.TranslateCoordinates(grandchild, multi.RootWindow(0), {0, 0}));

  DrawOp mark;
  mark.rect = {0, 0, 4, 3};
  mark.fill = 'G';
  ASSERT_TRUE(multi.Draw(client, grandchild, mark));
  for (WindowId window : {top, child, grandchild}) {
    multi.MapWindow(client, window);
  }
  EXPECT_EQ(multi.RenderScreen(1).At(13, 13), 'G');
  EXPECT_EQ(multi.RenderScreen(0).ToString().find('G'), std::string::npos);
}

TEST_F(ServerTest, TranslateCoordinates) {
  WindowId root = server_.RootWindow(0);
  WindowId a = server_.CreateWindow(client_, NewId(server_, client_), root, {10, 20, 50, 50}, 0,
                                    xproto::WindowClass::kInputOutput, false);
  WindowId b = server_.CreateWindow(client_, NewId(server_, client_), a, {5, 5, 20, 20}, 0,
                                    xproto::WindowClass::kInputOutput, false);
  EXPECT_EQ(server_.TranslateCoordinates(b, root, {0, 0}), (xbase::Point{15, 25}));
  EXPECT_EQ(server_.TranslateCoordinates(root, b, {15, 25}), (xbase::Point{0, 0}));
  EXPECT_EQ(server_.RootPosition(b), (xbase::Point{15, 25}));
}

TEST_F(ServerTest, PropertiesRoundTripAndNotify) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(wm_, win, xproto::kPropertyChangeMask);
  xproto::AtomId prop = server_.InternAtom("WM_NAME");
  xproto::AtomId type = server_.InternAtom("STRING");
  EXPECT_EQ(server_.InternAtom("WM_NAME"), prop);  // Idempotent.
  EXPECT_EQ(server_.GetAtomName(prop), "WM_NAME");

  std::vector<uint8_t> data{'h', 'i'};
  EXPECT_TRUE(server_.ChangeProperty(client_, win, prop, type, 8, PropMode::kReplace, data));
  auto rec = server_.GetProperty(win, prop);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->data, data);
  EXPECT_EQ(rec->format, 8);

  // Append mode grows the value; type mismatch fails.
  EXPECT_TRUE(server_.ChangeProperty(client_, win, prop, type, 8, PropMode::kAppend,
                                     {'!', '!'}));
  EXPECT_EQ(server_.GetProperty(win, prop)->data.size(), 4u);
  EXPECT_FALSE(server_.ChangeProperty(client_, win, prop, server_.InternAtom("CARDINAL"),
                                      32, PropMode::kAppend, {0, 0, 0, 0}));

  auto notifies = DrainOf<xproto::PropertyNotifyEvent>(wm_);
  ASSERT_EQ(notifies.size(), 2u);
  EXPECT_EQ(notifies[0].atom, prop);
  EXPECT_EQ(notifies[0].state, xproto::PropertyState::kNewValue);

  EXPECT_TRUE(server_.DeleteProperty(client_, win, prop));
  EXPECT_FALSE(server_.GetProperty(win, prop).has_value());
  notifies = DrainOf<xproto::PropertyNotifyEvent>(wm_);
  ASSERT_EQ(notifies.size(), 1u);
  EXPECT_EQ(notifies[0].state, xproto::PropertyState::kDeleted);
  EXPECT_FALSE(server_.DeleteProperty(client_, win, prop));  // Already gone.
}

TEST_F(ServerTest, SaveSetReparentsOnDisconnect) {
  // The WM reparents the client's window into a frame and adds it to its
  // save set; when the WM dies, the window must return to the root and be
  // remapped — this is what lets a WM crash without losing windows.
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {7, 8, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.MapWindow(client_, win);
  WindowId frame = server_.CreateWindow(wm_, NewId(server_, wm_), server_.RootWindow(0), {20, 20, 14, 14}, 0,
                                        xproto::WindowClass::kInputOutput, false);
  server_.MapWindow(wm_, frame);
  server_.ReparentWindow(wm_, win, frame, {2, 2});
  server_.ChangeSaveSet(wm_, win, true);
  ASSERT_EQ(server_.QueryTree(win)->parent, frame);

  server_.Disconnect(wm_);
  EXPECT_TRUE(server_.WindowExists(win));           // Client window survives.
  EXPECT_FALSE(server_.WindowExists(frame));        // WM's own window is gone.
  EXPECT_EQ(server_.QueryTree(win)->parent, server_.RootWindow(0));
  EXPECT_TRUE(server_.IsViewable(win));
  // Position preserved at its old root coordinates.
  EXPECT_EQ(server_.GetGeometry(win)->origin(), (xbase::Point{22, 22}));
}

TEST_F(ServerTest, DisconnectDestroysOwnedWindows) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.Disconnect(client_);
  EXPECT_FALSE(server_.WindowExists(win));
  EXPECT_FALSE(server_.HasClient(client_));
}

TEST_F(ServerTest, DisconnectDropsStateOnOtherClientsWindows) {
  // One kind of state per window, so each must be found on its own.
  auto make = [&] {
    return server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                xproto::WindowClass::kInputOutput, false);
  };
  WindowId selected = make();
  WindowId grabbed = make();
  WindowId shaped = make();
  ASSERT_TRUE(server_.SelectInput(wm_, selected,
                                  xproto::kButtonPressMask | xproto::kStructureNotifyMask));
  ASSERT_TRUE(server_.GrabButton(wm_, grabbed, 1, 0, xproto::kButtonPressMask));
  ASSERT_TRUE(server_.ShapeSelect(wm_, shaped, true));
  xproto::ClientId other = server_.Connect("hostB");
  EXPECT_FALSE(server_.GrabButton(other, grabbed, 1, 0, xproto::kButtonPressMask));  // Held.

  server_.Disconnect(wm_);
  EXPECT_EQ(ServerTestPeer::FindWindow(server_, selected)->selections.count(wm_), 0u);
  // The departed client's passive grab no longer conflicts.
  EXPECT_TRUE(server_.GrabButton(other, grabbed, 1, 0, xproto::kButtonPressMask));
  EXPECT_TRUE(xserver::ServerTestPeer::FindWindow(server_, shaped)->shape_selections.empty());
  EXPECT_EQ(server_.ClientIndexForTest(client_)->owned,
            (std::vector<WindowId>{selected, grabbed, shaped}));
}

TEST_F(ServerTest, DestroyedWindowLeavesNoSaveSetEntry) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  ASSERT_TRUE(server_.ChangeSaveSet(wm_, win, true));
  ASSERT_TRUE(server_.SelectInput(wm_, win, xproto::kStructureNotifyMask));
  ASSERT_EQ(server_.ClientIndexForTest(wm_)->save_set, std::vector<WindowId>{win});

  ASSERT_TRUE(server_.DestroyWindow(client_, win));
  std::optional<Server::ClientIndex> index = server_.ClientIndexForTest(wm_);
  ASSERT_TRUE(index.has_value());
  EXPECT_TRUE(index->save_set.empty());
  EXPECT_TRUE(index->referenced.empty());
  EXPECT_TRUE(server_.ClientIndexForTest(client_)->owned.empty());
}

TEST_F(ServerTest, SendEventWithMaskZeroGoesToOwner) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  xproto::ClientMessageEvent message;
  message.window = win;
  message.message_type = server_.InternAtom("TEST");
  EXPECT_TRUE(server_.SendEvent(wm_, win, 0, Event{message}));
  EXPECT_EQ(server_.PendingEvents(client_), 1u);
  EXPECT_EQ(server_.PendingEvents(wm_), 0u);
}

TEST_F(ServerTest, ClampToProtocolLimit) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 10, 10}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  ConfigureValues values;
  values.geometry.width = 100000;
  values.geometry.height = 5;
  server_.ConfigureWindow(client_, win, xproto::kConfigWidth | xproto::kConfigHeight, values);
  EXPECT_EQ(server_.GetGeometry(win)->width, xproto::kMaxCoordinate);
}

// ---- Pointer, buttons, grabs ---------------------------------------------------

class PointerTest : public ServerTest {};

TEST_F(PointerTest, EnterLeaveOnMotion) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {10, 10, 20, 20},
                                      0, xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, win,
                      xproto::kEnterWindowMask | xproto::kLeaveWindowMask);
  server_.MapWindow(client_, win);
  Drain(client_);

  server_.SimulateMotion({15, 15});
  auto crossings = DrainOf<xproto::CrossingEvent>(client_);
  ASSERT_EQ(crossings.size(), 1u);
  EXPECT_TRUE(crossings[0].enter);
  EXPECT_EQ(crossings[0].pos, (xbase::Point{5, 5}));

  server_.SimulateMotion({50, 50});
  crossings = DrainOf<xproto::CrossingEvent>(client_);
  ASSERT_EQ(crossings.size(), 1u);
  EXPECT_FALSE(crossings[0].enter);
}

TEST_F(PointerTest, ButtonPropagatesToFirstSelectingAncestor) {
  WindowId outer = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 100, 100},
                                        0, xproto::WindowClass::kInputOutput, false);
  WindowId inner = server_.CreateWindow(client_, NewId(server_, client_), outer, {10, 10, 20, 20}, 0,
                                        xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, outer, xproto::kButtonPressMask);
  server_.MapWindow(client_, outer);
  server_.MapWindow(client_, inner);
  server_.SimulateMotion({15, 15});  // Inside inner.
  Drain(client_);

  server_.SimulateButton(1, true);
  auto buttons = DrainOf<xproto::ButtonEvent>(client_);
  ASSERT_EQ(buttons.size(), 1u);
  EXPECT_EQ(buttons[0].window, outer);    // Propagated up.
  EXPECT_EQ(buttons[0].subwindow, inner);
  EXPECT_EQ(buttons[0].pos, (xbase::Point{15, 15}));
  server_.SimulateButton(1, false);
}

TEST_F(PointerTest, AutomaticGrabDeliversMotionAndRelease) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 50, 50}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, win,
                      xproto::kButtonPressMask | xproto::kButtonReleaseMask);
  server_.MapWindow(client_, win);
  server_.SimulateMotion({5, 5});
  Drain(client_);

  server_.SimulateButton(1, true);
  // Move outside the window: the grab still routes events to it.
  server_.SimulateMotion({150, 90});
  server_.SimulateButton(1, false);

  auto events = Drain(client_);
  int presses = 0;
  int motions = 0;
  int releases = 0;
  for (Event& event : events) {
    if (auto* button = std::get_if<xproto::ButtonEvent>(&event)) {
      (button->press ? presses : releases) += 1;
      EXPECT_EQ(button->window, win);
    }
    if (auto* motion = std::get_if<xproto::MotionEvent>(&event)) {
      ++motions;
      EXPECT_EQ(motion->window, win);
      EXPECT_EQ(motion->pos, (xbase::Point{150, 90}));
    }
  }
  EXPECT_EQ(presses, 1);
  EXPECT_EQ(motions, 1);
  EXPECT_EQ(releases, 1);
}

TEST_F(PointerTest, PassiveGrabInterceptsDescendantClicks) {
  WindowId frame = server_.CreateWindow(wm_, NewId(server_, wm_), server_.RootWindow(0), {0, 0, 60, 60}, 0,
                                        xproto::WindowClass::kInputOutput, false);
  WindowId inner = server_.CreateWindow(client_, NewId(server_, client_), frame, {5, 5, 40, 40}, 0,
                                        xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, inner, xproto::kButtonPressMask);
  server_.MapWindow(wm_, frame);
  server_.MapWindow(client_, inner);
  ASSERT_TRUE(server_.GrabButton(wm_, frame, 1, 0, xproto::kButtonPressMask));
  server_.SimulateMotion({10, 10});
  Drain(client_);
  Drain(wm_);

  server_.SimulateButton(1, true, 0);
  // The grab fires for the WM; the inner window does not see the press.
  auto wm_buttons = DrainOf<xproto::ButtonEvent>(wm_);
  ASSERT_EQ(wm_buttons.size(), 1u);
  EXPECT_EQ(wm_buttons[0].window, frame);
  EXPECT_EQ(wm_buttons[0].subwindow, inner);
  EXPECT_TRUE(DrainOf<xproto::ButtonEvent>(client_).empty());
  server_.SimulateButton(1, false, 0);
  // The release is also routed to the grabbing client; drain it.
  EXPECT_EQ(DrainOf<xproto::ButtonEvent>(wm_).size(), 1u);

  // Different modifiers bypass the grab.
  server_.SimulateButton(1, true, static_cast<uint32_t>(xproto::ModifierMask::kShift));
  EXPECT_TRUE(DrainOf<xproto::ButtonEvent>(wm_).empty());
  EXPECT_EQ(DrainOf<xproto::ButtonEvent>(client_).size(), 1u);
  server_.SimulateButton(1, false, static_cast<uint32_t>(xproto::ModifierMask::kShift));

  EXPECT_TRUE(server_.UngrabButton(wm_, frame, 1, 0));
  EXPECT_FALSE(server_.UngrabButton(wm_, frame, 1, 0));
}

TEST_F(PointerTest, KeyDeliveredToWindowUnderPointer) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 50, 50}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, win, xproto::kKeyPressMask);
  server_.MapWindow(client_, win);
  server_.SimulateMotion({10, 10});
  Drain(client_);
  server_.SimulateKey(42, true, 0);
  auto keys = DrainOf<xproto::KeyEvent>(client_);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].keysym, 42u);
  EXPECT_EQ(keys[0].window, win);
}

TEST_F(PointerTest, InputFollowsShape) {
  // A shaped window only receives pointer events within its shape.
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 20, 20}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, win, xproto::kButtonPressMask);
  server_.MapWindow(client_, win);
  server_.ShapeSetRegion(client_, win, xbase::Region(xbase::Rect{0, 0, 10, 10}));
  Drain(client_);

  server_.SimulateMotion({5, 5});  // Inside the shape.
  server_.SimulateButton(1, true);
  server_.SimulateButton(1, false);
  EXPECT_EQ(DrainOf<xproto::ButtonEvent>(client_).size(), 2u);

  server_.SimulateMotion({15, 15});  // Inside bounds, outside shape.
  server_.SimulateButton(1, true);
  server_.SimulateButton(1, false);
  EXPECT_TRUE(DrainOf<xproto::ButtonEvent>(client_).empty());
}

TEST_F(PointerTest, ShapeChangeUnderPointerCrosses) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 20, 20}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, win, xproto::kEnterWindowMask | xproto::kLeaveWindowMask);
  server_.MapWindow(client_, win);
  server_.SimulateMotion({15, 15});
  Drain(client_);

  // Cutting the pointer's cell out of the shape leaves the window at once.
  server_.ShapeSetRegion(client_, win, xbase::Region(xbase::Rect{0, 0, 10, 10}));
  auto crossings = DrainOf<xproto::CrossingEvent>(client_);
  ASSERT_EQ(crossings.size(), 1u);
  EXPECT_FALSE(crossings[0].enter);
  EXPECT_EQ(server_.QueryPointer().window, server_.RootWindow(0));

  server_.ShapeClear(client_, win);
  crossings = DrainOf<xproto::CrossingEvent>(client_);
  ASSERT_EQ(crossings.size(), 1u);
  EXPECT_TRUE(crossings[0].enter);
  EXPECT_EQ(server_.QueryPointer().window, win);
}

// ---- Pointer recompute guard ---------------------------------------------------
//
// Requests recompute the window under the pointer only when the changed window
// covers the pointer.  `standing` mapped top-levels share one corner of the
// screen, clear of the pointer, so a full hit test walks all of them.

constexpr uint32_t kCrossingMask = xproto::kEnterWindowMask | xproto::kLeaveWindowMask;
constexpr xbase::Point kPointer{100, 50};

struct GuardedServer {
  explicit GuardedServer(int standing) : server({ScreenConfig{200, 100, false}}) {
    client = server.Connect("c");
    root = server.RootWindow(0);
    server.SelectInput(client, root, kCrossingMask);
    for (int i = 0; i < standing; ++i) {
      server.MapWindow(client, Create({0, 0, 10, 10}));
    }
    server.SimulateMotion(kPointer);
    Crossings();
  }

  WindowId Create(const xbase::Rect& geometry) {
    WindowId window = server.CreateWindow(client, NewId(server, client), root, geometry, 0,
                                          xproto::WindowClass::kInputOutput, false);
    server.SelectInput(client, window, kCrossingMask);
    return window;
  }

  void Configure(WindowId window, uint16_t mask, const xbase::Rect& geometry,
                 xproto::StackMode mode = xproto::StackMode::kAbove) {
    ConfigureValues values;
    values.geometry = geometry;
    values.stack_mode = mode;
    server.ConfigureWindow(client, window, mask, values);
  }

  // Crossing events since the last call, as (window, enter) in order.
  std::vector<std::pair<WindowId, bool>> Crossings() {
    std::vector<std::pair<WindowId, bool>> out;
    while (auto event = server.NextEvent(client)) {
      if (auto* crossing = std::get_if<xproto::CrossingEvent>(&*event)) {
        out.emplace_back(crossing->window, crossing->enter);
      }
    }
    return out;
  }

  Server server;
  xproto::ClientId client = 0;
  WindowId root = kNone;
};

TEST_F(PointerTest, RequestsAwayFromPointerSkipTheHitTest) {
  std::map<int, uint64_t> visits;
  for (int standing : {16, 1024}) {
    GuardedServer g(standing);
    uint64_t before = g.server.hit_test_visits();
    WindowId win = g.Create({150, 70, 20, 20});
    g.server.MapWindow(g.client, win);
    g.Configure(win, xproto::kConfigX | xproto::kConfigY, {170, 80, 0, 0});
    g.Configure(win, xproto::kConfigStackMode, {}, xproto::StackMode::kBelow);
    g.Configure(win, xproto::kConfigStackMode, {}, xproto::StackMode::kAbove);
    g.server.UnmapWindow(g.client, win);
    g.server.MapWindow(g.client, win);
    g.server.DestroyWindow(g.client, win);
    visits[standing] = g.server.hit_test_visits() - before;
    EXPECT_TRUE(g.Crossings().empty()) << standing << " standing";
    EXPECT_EQ(g.server.QueryPointer().window, g.root);

    // Motion still hit-tests every time, past every standing window.
    before = g.server.hit_test_visits();
    g.server.SimulateMotion({kPointer.x + 1, kPointer.y});
    EXPECT_GE(g.server.hit_test_visits() - before, static_cast<uint64_t>(standing));
  }
  EXPECT_LE(visits[1024], 2 * visits[16]);
}

TEST_F(PointerTest, RequestsUnderPointerCross) {
  using Crossing = std::pair<WindowId, bool>;
  GuardedServer g(1024);
  WindowId win = g.Create({90, 40, 20, 20});
  WindowId cover = g.Create({95, 45, 10, 10});

  g.server.MapWindow(g.client, win);
  EXPECT_EQ(g.Crossings(), (std::vector<Crossing>{{g.root, false}, {win, true}}));
  g.server.MapWindow(g.client, cover);
  EXPECT_EQ(g.Crossings(), (std::vector<Crossing>{{win, false}, {cover, true}}));
  g.Configure(win, xproto::kConfigStackMode, {});
  EXPECT_EQ(g.Crossings(), (std::vector<Crossing>{{cover, false}, {win, true}}));
  g.Configure(win, xproto::kConfigX | xproto::kConfigY, {120, 40, 0, 0});
  EXPECT_EQ(g.Crossings(), (std::vector<Crossing>{{win, false}, {cover, true}}));
  g.Configure(win, xproto::kConfigX | xproto::kConfigY, {90, 40, 0, 0});
  EXPECT_EQ(g.Crossings(), (std::vector<Crossing>{{cover, false}, {win, true}}));
  g.server.UnmapWindow(g.client, win);
  EXPECT_EQ(g.Crossings(), (std::vector<Crossing>{{win, false}, {cover, true}}));
  g.server.MapWindow(g.client, win);
  EXPECT_EQ(g.Crossings(), (std::vector<Crossing>{{cover, false}, {win, true}}));
  g.server.DestroyWindow(g.client, win);
  EXPECT_EQ(g.Crossings(), (std::vector<Crossing>{{win, false}, {cover, true}}));
  g.server.DestroyWindow(g.client, cover);
  EXPECT_EQ(g.Crossings(), (std::vector<Crossing>{{cover, false}, {g.root, true}}));
  EXPECT_EQ(g.server.QueryPointer().window, g.root);
}

// ---- Input focus ---------------------------------------------------------------

TEST_F(ServerTest, InputFocusLifecycle) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 20, 20}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.SelectInput(client_, win,
                      xproto::kFocusChangeMask | xproto::kKeyPressMask);
  // Unviewable windows cannot take focus.
  EXPECT_FALSE(server_.SetInputFocus(client_, win));
  server_.MapWindow(client_, win);
  Drain(client_);

  EXPECT_TRUE(server_.SetInputFocus(client_, win));
  EXPECT_EQ(server_.GetInputFocus(), win);
  auto focus_events = DrainOf<xproto::FocusEvent>(client_);
  ASSERT_EQ(focus_events.size(), 1u);
  EXPECT_TRUE(focus_events[0].in);

  // Keys now go to the focus window even with the pointer elsewhere.
  server_.SimulateMotion({150, 90});
  Drain(client_);
  server_.SimulateKey(7, true);
  auto keys = DrainOf<xproto::KeyEvent>(client_);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].window, win);

  // Reverting to pointer-root sends FocusOut.
  EXPECT_TRUE(server_.SetInputFocus(client_, xproto::kNone));
  focus_events = DrainOf<xproto::FocusEvent>(client_);
  ASSERT_EQ(focus_events.size(), 1u);
  EXPECT_FALSE(focus_events[0].in);

  // Destroying a focused window reverts focus.
  server_.MapWindow(client_, win);
  server_.SetInputFocus(client_, win);
  server_.DestroyWindow(client_, win);
  EXPECT_EQ(server_.GetInputFocus(), xproto::kNone);
}

TEST_F(ServerTest, FocusOnBogusWindowRejected) {
  EXPECT_FALSE(server_.SetInputFocus(client_, 424242));
  EXPECT_EQ(server_.GetInputFocus(), xproto::kNone);
}

// ---- SHAPE ------------------------------------------------------------------------

TEST_F(ServerTest, ShapeSetQueryClearNotify) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 16, 16}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.ShapeSelect(wm_, win, true);
  EXPECT_FALSE(Shape(win).has_value());

  server_.ShapeSetRegion(client_, win, xbase::CircleMask(16).ToRegion());
  EXPECT_TRUE(Shape(win).has_value());
  auto shape = Shape(win);
  ASSERT_TRUE(shape.has_value());
  EXPECT_EQ(shape->Area(), xbase::CircleMask(16).PopCount());

  auto notifies = DrainOf<xproto::ShapeNotifyEvent>(wm_);
  ASSERT_EQ(notifies.size(), 1u);
  EXPECT_TRUE(notifies[0].shaped);

  server_.ShapeClear(client_, win);
  EXPECT_FALSE(Shape(win).has_value());
  notifies = DrainOf<xproto::ShapeNotifyEvent>(wm_);
  ASSERT_EQ(notifies.size(), 1u);
  EXPECT_FALSE(notifies[0].shaped);
}

// ---- Rendering ------------------------------------------------------------------

TEST_F(ServerTest, RenderRespectsStackingAndClipping) {
  WindowId root = server_.RootWindow(0);
  WindowId below = server_.CreateWindow(client_, NewId(server_, client_), root, {0, 0, 20, 20}, 0,
                                        xproto::WindowClass::kInputOutput, false);
  WindowId above = server_.CreateWindow(client_, NewId(server_, client_), root, {10, 10, 20, 20}, 0,
                                        xproto::WindowClass::kInputOutput, false);
  server_.SetWindowBackground(client_, below, 'b');
  server_.SetWindowBackground(client_, above, 'a');
  server_.MapWindow(client_, below);
  server_.MapWindow(client_, above);
  xbase::Canvas canvas = server_.RenderScreen(0);
  EXPECT_EQ(canvas.At(5, 5), 'b');
  EXPECT_EQ(canvas.At(15, 15), 'a');  // Above wins in the overlap.
  EXPECT_EQ(canvas.At(50, 50), '.');  // Root background elsewhere.

  ConfigureValues raise;
  raise.stack_mode = xproto::StackMode::kAbove;
  server_.ConfigureWindow(client_, below, xproto::kConfigStackMode, raise);
  canvas = server_.RenderScreen(0);
  EXPECT_EQ(canvas.At(15, 15), 'b');
}

TEST_F(ServerTest, RenderClipsChildrenToParent) {
  WindowId parent = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 20, 20},
                                         0, xproto::WindowClass::kInputOutput, false);
  WindowId child = server_.CreateWindow(client_, NewId(server_, client_), parent, {15, 15, 20, 20}, 0,
                                        xproto::WindowClass::kInputOutput, false);
  server_.SetWindowBackground(client_, parent, 'p');
  server_.SetWindowBackground(client_, child, 'c');
  server_.MapWindow(client_, parent);
  server_.MapWindow(client_, child);
  xbase::Canvas canvas = server_.RenderScreen(0);
  EXPECT_EQ(canvas.At(16, 16), 'c');
  EXPECT_EQ(canvas.At(25, 25), '.');  // Child clipped at parent boundary.
}

TEST_F(ServerTest, RenderHonorsShape) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {0, 0, 16, 16}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.SetWindowBackground(client_, win, 'w');
  server_.MapWindow(client_, win);
  server_.ShapeSetRegion(client_, win, xbase::Region(xbase::Rect{0, 0, 8, 8}));
  xbase::Canvas canvas = server_.RenderScreen(0);
  EXPECT_EQ(canvas.At(4, 4), 'w');
  EXPECT_EQ(canvas.At(12, 12), '.');  // Outside the shape shows the root.
}

TEST_F(ServerTest, RenderDrawOps) {
  WindowId win = server_.CreateWindow(client_, NewId(server_, client_), server_.RootWindow(0), {2, 2, 20, 5}, 0,
                                      xproto::WindowClass::kInputOutput, false);
  server_.MapWindow(client_, win);
  DrawOp text;
  text.kind = DrawOp::Kind::kText;
  text.rect = {1, 1, 0, 0};
  text.text = "hello";
  server_.Draw(client_, win, text);
  xbase::Canvas canvas = server_.RenderScreen(0);
  EXPECT_EQ(canvas.At(3, 3), 'h');
  EXPECT_EQ(canvas.At(7, 3), 'o');
}

}  // namespace
}  // namespace xserver
