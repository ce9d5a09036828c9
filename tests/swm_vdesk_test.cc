// The Virtual Desktop, sticky windows, panner and ICCCM positioning
// (paper §6).
#include <random>

#include "src/swm/policy/layout_policy.h"
#include "src/xlib/icccm.h"
#include "src/xproto/hints.h"
#include "tests/server_test_peer.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using swm::ManagedClient;
using swm::Panner;
using swm::VirtualDesktop;

constexpr char kVdeskResources[] =
    "swm*virtualDesktop: 800x400\n"
    "swm*panner: False\n";

class VdeskTest : public SwmTest {};

TEST_F(VdeskTest, DesktopCreatedWithVrootProperty) {
  StartWm(kVdeskResources);
  VirtualDesktop* desk = wm_->vdesk(0);
  ASSERT_NE(desk, nullptr);
  EXPECT_EQ(desk->size(), (xbase::Size{800, 400}));
  EXPECT_EQ(desk->offset(), (xbase::Point{0, 0}));
  // Clients can discover the virtual root via __SWM_VROOT.
  EXPECT_EQ(wm_->display().GetWindowIdProperty(desk->window(), xproto::kAtomSwmVroot),
            desk->window());
  // The desktop window is a mapped child of the real root.
  EXPECT_TRUE(server_->IsViewable(desk->window()));
  EXPECT_EQ(server_->QueryTree(desk->window())->parent, server_->RootWindow(0));
}

TEST_F(VdeskTest, NoVdeskWithoutResource) {
  StartWm();
  EXPECT_EQ(wm_->vdesk(0), nullptr);
}

TEST_F(VdeskTest, SizeClampedToProtocolLimit) {
  // "the size of the Virtual Desktop is limited only by the usable area of
  // an X window, 32767 x 32767 pixels" (§6.1).
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  StartWm("swm*virtualDesktop: 99999x99999\nswm*panner: False\n");
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  ASSERT_NE(wm_->vdesk(0), nullptr);
  EXPECT_EQ(wm_->vdesk(0)->size(), (xbase::Size{32767, 32767}));
}

TEST_F(VdeskTest, PanClampsToEdges) {
  StartWm(kVdeskResources);
  VirtualDesktop* desk = wm_->vdesk(0);
  EXPECT_TRUE(desk->PanTo({100, 50}));
  EXPECT_EQ(desk->offset(), (xbase::Point{100, 50}));
  // Beyond the far edge clamps to size - viewport (800-200, 400-100).
  desk->PanTo({10000, 10000});
  EXPECT_EQ(desk->offset(), (xbase::Point{600, 300}));
  desk->PanTo({-50, -50});
  EXPECT_EQ(desk->offset(), (xbase::Point{0, 0}));
  EXPECT_FALSE(desk->PanTo({0, 0}));  // No change.
}

TEST_F(VdeskTest, PanningMovesDesktopWindowNotClients) {
  StartWm(kVdeskResources);
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  xbase::Point desktop_pos = client->ClientDesktopPosition();
  int notify_count_before = app->configure_notify_count();

  wm_->ExecuteCommandString("f.panTo(100, 50)", 0);
  wm_->ProcessEvents();
  app->ProcessEvents();

  // The client did not move with respect to its (virtual) root: no
  // ConfigureNotify, same desktop position (§6.3.1).
  EXPECT_EQ(client->ClientDesktopPosition(), desktop_pos);
  EXPECT_EQ(app->configure_notify_count(), notify_count_before);
  // But its real-root position shifted by the pan.
  EXPECT_EQ(server_->RootPosition(app->window()),
            (xbase::Point{desktop_pos.x - 100, desktop_pos.y - 50}));
}

TEST_F(VdeskTest, SwmRootPropertyOnClients) {
  StartWm(kVdeskResources);
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  // §6.3.1: swm places a property naming the effective root.
  EXPECT_EQ(app->display().GetWindowIdProperty(app->window(), xproto::kAtomSwmRoot),
            wm_->vdesk(0)->window());
  EXPECT_EQ(app->EffectiveRootForPopups(), wm_->vdesk(0)->window());
}

TEST_F(VdeskTest, StickyWindowStaysOnGlass) {
  // §6.2: sticky windows appear stuck to the glass; panning leaves them.
  StartWm(std::string(kVdeskResources) + "swm*XClock*sticky: True\n");
  auto clock = Spawn("xclock", {"xclock", "XClock"});
  auto term = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* sticky = Managed(*clock);
  ManagedClient* normal = Managed(*term);
  ASSERT_TRUE(sticky->sticky);
  ASSERT_FALSE(normal->sticky);
  // Sticky frames are children of the real root.
  EXPECT_EQ(server_->QueryTree(sticky->frame->window())->parent, server_->RootWindow(0));
  EXPECT_EQ(server_->QueryTree(normal->frame->window())->parent,
            wm_->vdesk(0)->window());
  // Sticky clients' SWM_ROOT names the real root.
  EXPECT_EQ(clock->display().GetWindowIdProperty(clock->window(), xproto::kAtomSwmRoot),
            server_->RootWindow(0));

  xbase::Point sticky_screen = server_->RootPosition(clock->window());
  xbase::Point normal_screen = server_->RootPosition(term->window());
  wm_->ExecuteCommandString("f.pan(120, 60)", 0);
  wm_->ProcessEvents();
  EXPECT_EQ(server_->RootPosition(clock->window()), sticky_screen);
  EXPECT_EQ(server_->RootPosition(term->window()),
            (xbase::Point{normal_screen.x - 120, normal_screen.y - 60}));
}

TEST_F(VdeskTest, StickyDependentDecoration) {
  // §6.2: "decorations can be dependent on whether or not the client window
  // is sticky".
  StartWm(std::string(kVdeskResources) +
          "swm*XClock*sticky: True\n"
          "swm*sticky*decoration: shapeit\n");
  auto clock = Spawn("xclock", {"xclock", "XClock"});
  auto term = Spawn("xterm", {"xterm", "XTerm"});
  EXPECT_EQ(Managed(*clock)->decoration_name, "shapeit");
  EXPECT_EQ(Managed(*term)->decoration_name, "openLook");
}

TEST_F(VdeskTest, InteractiveStickToggleReparentsAndKeepsScreenPosition) {
  StartWm(kVdeskResources);
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  wm_->vdesk(0)->PanTo({50, 20});
  ManagedClient* client = Managed(*app);
  xbase::Point screen_before = server_->RootPosition(app->window());

  wm_->SetSticky(client, true);
  wm_->ProcessEvents();
  client = wm_->FindClient(app->window());
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->sticky);
  EXPECT_EQ(server_->QueryTree(client->frame->window())->parent,
            server_->RootWindow(0));
  EXPECT_EQ(server_->RootPosition(app->window()), screen_before);
  EXPECT_EQ(app->display().GetWindowIdProperty(app->window(), xproto::kAtomSwmRoot),
            server_->RootWindow(0));

  // Pan: the stuck window must not move on screen.
  wm_->vdesk(0)->PanTo({150, 80});
  EXPECT_EQ(server_->RootPosition(app->window()), screen_before);

  wm_->SetSticky(client, false);
  wm_->ProcessEvents();
  client = wm_->FindClient(app->window());
  EXPECT_FALSE(client->sticky);
  EXPECT_EQ(server_->QueryTree(client->frame->window())->parent,
            wm_->vdesk(0)->window());
  EXPECT_EQ(server_->RootPosition(app->window()), screen_before);
  EXPECT_EQ(app->display().GetWindowIdProperty(app->window(), xproto::kAtomSwmRoot),
            wm_->vdesk(0)->window());
}

TEST_F(VdeskTest, NailButtonTogglesSticky) {
  StartWm(kVdeskResources);
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  oi::Object* nail = Managed(*app)->frame->FindDescendant("nail");
  ASSERT_NE(nail, nullptr);
  xbase::Point pos = ObjectRootPos(nail);
  Click({pos.x + 1, pos.y + 1});
  EXPECT_TRUE(wm_->FindClient(app->window())->sticky);
}

TEST_F(VdeskTest, UsPositionIsDesktopAbsolute) {
  // §6.3.2: "If USPosition hints are specified, the window is placed at the
  // absolute location requested ... even if the coordinates on the desktop
  // are not currently visible."
  StartWm(kVdeskResources);
  wm_->vdesk(0)->PanTo({100, 50});
  auto app = Spawn("xterm", {"xterm", "XTerm"}, {500, 300, 30, 10},
                   xproto::kUSPosition | xproto::kUSSize);
  EXPECT_EQ(Managed(*app)->ClientDesktopPosition(), (xbase::Point{500, 300}));
}

TEST_F(VdeskTest, PPositionIsViewportRelative) {
  // §6.3.2: "If PPosition hints are specified, the window coordinates are
  // assumed to be relative to the current visible portion".  The paper's
  // example: desktop at 1000,1000; +100+100 -> 1100,1100.
  StartWm("swm*virtualDesktop: 2000x2000\nswm*panner: False\n");
  wm_->vdesk(0)->PanTo({1000, 1000});
  auto app = Spawn("xterm", {"xterm", "XTerm"}, {100, 100, 30, 10},
                   xproto::kPPosition | xproto::kPSize);
  EXPECT_EQ(Managed(*app)->ClientDesktopPosition(), (xbase::Point{1100, 1100}));
  // And a USPosition window at +100+100 lands at 100,100.
  auto app2 = Spawn("xclock", {"xclock", "XClock"}, {100, 100, 30, 10},
                    xproto::kUSPosition | xproto::kUSSize);
  EXPECT_EQ(Managed(*app2)->ClientDesktopPosition(), (xbase::Point{100, 100}));
}

TEST_F(VdeskTest, OffscreenUsPositionWindowIsNotVisible) {
  StartWm(kVdeskResources);
  auto app = Spawn("faraway", {"faraway", "FarAway"}, {600, 300, 30, 10},
                   xproto::kUSPosition | xproto::kUSSize);
  ManagedClient* client = Managed(*app);
  EXPECT_FALSE(wm_->vdesk(0)->IsVisible(client->FrameGeometry()));
  // Panning there makes it visible.
  wm_->vdesk(0)->PanTo({500, 250});
  EXPECT_TRUE(wm_->vdesk(0)->IsVisible(client->FrameGeometry()));
}

TEST_F(VdeskTest, DesktopResizeReclampsOffset) {
  StartWm(kVdeskResources);
  VirtualDesktop* desk = wm_->vdesk(0);
  desk->PanTo({600, 300});
  desk->Resize({400, 200});
  EXPECT_EQ(desk->size(), (xbase::Size{400, 200}));
  EXPECT_EQ(desk->offset(), (xbase::Point{200, 100}));
}

// ---- Property-style sweep: panning invariants -------------------------------------

struct PanCase {
  int x;
  int y;
};

class PanInvariantTest : public SwmTest,
                         public ::testing::WithParamInterface<PanCase> {};

TEST_P(PanInvariantTest, StickyScreenFixedNormalDesktopFixed) {
  StartWm(std::string(kVdeskResources) + "swm*XClock*sticky: True\n");
  auto clock = Spawn("xclock", {"xclock", "XClock"});
  auto term = Spawn("xterm", {"xterm", "XTerm"});
  xbase::Point sticky_screen = server_->RootPosition(clock->window());
  xbase::Point normal_desktop = Managed(*term)->ClientDesktopPosition();

  wm_->vdesk(0)->PanTo({GetParam().x, GetParam().y});
  xbase::Point offset = wm_->vdesk(0)->offset();

  // Invariant 1: sticky windows' screen position never changes.
  EXPECT_EQ(server_->RootPosition(clock->window()), sticky_screen);
  // Invariant 2: normal windows' desktop position never changes.
  EXPECT_EQ(Managed(*term)->ClientDesktopPosition(), normal_desktop);
  // Invariant 3: screen position == desktop position - offset.
  EXPECT_EQ(server_->RootPosition(term->window()),
            (xbase::Point{normal_desktop.x - offset.x, normal_desktop.y - offset.y}));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PanInvariantTest,
                         ::testing::Values(PanCase{0, 0}, PanCase{1, 1},
                                           PanCase{100, 50}, PanCase{600, 300},
                                           PanCase{9999, 9999}, PanCase{333, 17}));

// ---- Panner ----------------------------------------------------------------------

class PannerTest : public SwmTest {
 protected:
  void StartWithPanner() {
    StartWm(
        "swm*virtualDesktop: 800x400\n"
        "swm*panner: True\n"
        "swm*pannerScale: 10\n");
    panner_ = wm_->panner(0);
    ASSERT_NE(panner_, nullptr);
    wm_->ProcessEvents();
  }

  Panner* panner_ = nullptr;
};

TEST_F(PannerTest, PannerIsManagedAndSticky) {
  StartWithPanner();
  // "The panner is reparented so it can be moved, iconified, and resized
  // just like any other client window" (§6.1) — and it must be sticky so it
  // does not scroll off the display.
  ManagedClient* client = wm_->FindClient(panner_->window());
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->sticky);
  EXPECT_TRUE(client->is_internal);
  EXPECT_EQ(server_->QueryTree(client->frame->window())->parent,
            server_->RootWindow(0));
  xbase::Point screen_pos = server_->RootPosition(panner_->window());
  wm_->vdesk(0)->PanTo({200, 100});
  EXPECT_EQ(server_->RootPosition(panner_->window()), screen_pos);
}

TEST_F(PannerTest, Button1PansDesktop) {
  StartWithPanner();
  xbase::Point origin = server_->RootPosition(panner_->window());
  // Click near the middle of the panner: the viewport centers there.
  Click({origin.x + 40, origin.y + 20});
  xbase::Point offset = wm_->vdesk(0)->offset();
  // Desktop point (400,200) centered: offset = (400-100, 200-50).
  EXPECT_EQ(offset, (xbase::Point{300, 150}));
}

TEST_F(PannerTest, Button2MovesMiniatureWindow) {
  StartWithPanner();
  auto app = Spawn("xterm", {"xterm", "XTerm"}, {0, 0, 60, 30});
  ManagedClient* client = Managed(*app);
  wm_->MoveFrameTo(client, {100, 100});
  wm_->ProcessEvents();

  xbase::Point origin = server_->RootPosition(panner_->window());
  // Press on the miniature at desktop(100,100) -> panner cell (10,10).
  server_->SimulateMotion({origin.x + 10, origin.y + 10});
  wm_->ProcessEvents();
  server_->SimulateButton(2, true);
  wm_->ProcessEvents();
  EXPECT_TRUE(panner_->dragging_window());
  // Release at cell (40, 20) -> desktop (400, 200).
  server_->SimulateMotion({origin.x + 40, origin.y + 20});
  wm_->ProcessEvents();
  server_->SimulateButton(2, false);
  wm_->ProcessEvents();
  EXPECT_FALSE(panner_->dragging_window());
  EXPECT_EQ(client->FrameGeometry().origin(), (xbase::Point{400, 200}));
}

TEST_F(PannerTest, ResizingPannerResizesDesktop) {
  StartWithPanner();
  ManagedClient* client = wm_->FindClient(panner_->window());
  ASSERT_NE(client, nullptr);
  // Resize the panner client to 100x60 cells => desktop 1000x600.
  wm_->ResizeClient(client, {100, 60});
  wm_->ProcessEvents();
  EXPECT_EQ(wm_->vdesk(0)->size(), (xbase::Size{1000, 600}));
}

TEST_F(PannerTest, MiniatureReflectsWindows) {
  StartWithPanner();
  auto app = Spawn("xterm", {"xterm", "XTerm"}, {0, 0, 60, 30});
  wm_->MoveFrameTo(Managed(*app), {100, 100});
  wm_->ProcessEvents();
  // The panner's draw list contains a box at (10,10) (scale 10).
  const xserver::WindowRec* rec = xserver::ServerTestPeer::FindWindow(*server_, panner_->window());
  ASSERT_NE(rec, nullptr);
  bool found = false;
  for (const xserver::DrawOp& op : rec->draw_ops) {
    if (op.kind == xserver::DrawOp::Kind::kFillRect && op.rect.x == 10 &&
        op.rect.y == 10) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// A client that becomes shaped is re-decorated; the rebuilt frame keeps the
// client where it was on glass, so the frame itself moves, and its miniature
// must follow.
TEST_F(PannerTest, RuntimeShapeMovesTheMiniature) {
  StartWithPanner();
  auto app = Spawn("xeyes", {"xeyes", "XEyes"}, {0, 0, 60, 60});
  ManagedClient* client = Managed(*app);
  wm_->MoveFrameTo(client, {8, 8});
  wm_->ProcessEvents();
  xbase::Rect before = client->FrameGeometry();

  app->display().ShapeSetMask(app->window(), xbase::CircleMask(60));
  wm_->ProcessEvents();
  client = Managed(*app);
  ASSERT_TRUE(client->shaped);
  xbase::Rect after = client->FrameGeometry();
  ASSERT_NE(after, before);
  std::vector<Panner::Box> expected{
      {app->window(), {after.x / 10, after.y / 10, after.width / 10, after.height / 10}}};
  EXPECT_EQ(panner_->boxes(), expected);
  std::string incremental = server_->RenderScreen(0).ToString();
  panner_->Redraw();
  EXPECT_EQ(panner_->boxes(), expected);
  EXPECT_EQ(server_->RenderScreen(0).ToString(), incremental);
}

// One box per normal, non-sticky client on the active desktop, plus the
// viewport outline: nothing for sticky windows (the panner included),
// icons, or clients on the other desktop.
TEST_F(PannerTest, DrawsOneBoxPerClientOnTheActiveDesktop) {
  StartWm(
      "swm*virtualDesktop: 800x400\n"
      "swm*virtualDesktops: 2\n"
      "swm*panner: True\n"
      "swm*pannerScale: 10\n"
      "swm*XClock*sticky: True\n");
  panner_ = wm_->panner(0);
  ASSERT_NE(panner_, nullptr);
  wm_->ProcessEvents();
  // {boxes, outlines} the panner shows.  What it drew so far must render
  // the same screen as a forced full redraw.
  auto drawn = [&] {
    std::string incremental = server_->RenderScreen(0).ToString();
    panner_->Redraw();
    EXPECT_EQ(server_->RenderScreen(0).ToString(), incremental);
    return std::pair<int, int>{static_cast<int>(panner_->boxes().size()),
                               panner_->outline().IsEmpty() ? 0 : 1};
  };

  auto editor = Spawn("editor", {"editor", "Editor"}, {0, 0, 60, 30});
  auto mail = Spawn("mail", {"mail", "Mail"}, {0, 0, 60, 30});
  auto clock = Spawn("xclock", {"xclock", "XClock"}, {0, 0, 30, 30});
  auto notes = Spawn("notes", {"notes", "Notes"}, {0, 0, 60, 30});
  ASSERT_TRUE(Managed(*clock)->sticky);
  wm_->Iconify(Managed(*notes));
  wm_->ProcessEvents();
  ASSERT_EQ(Managed(*notes)->state, xproto::WmState::kIconic);
  EXPECT_EQ(drawn(), (std::pair<int, int>{2, 1}));  // editor, mail.

  ASSERT_TRUE(wm_->SwitchDesktop(0, 1));
  wm_->ProcessEvents();
  EXPECT_EQ(drawn(), (std::pair<int, int>{0, 1}));
  auto term = Spawn("term", {"term", "Term"}, {0, 0, 60, 30});
  EXPECT_EQ(drawn(), (std::pair<int, int>{1, 1}));

  ASSERT_TRUE(wm_->SwitchDesktop(0, 0));
  wm_->ProcessEvents();
  EXPECT_EQ(drawn(), (std::pair<int, int>{2, 1}));
}

// Draw ops of one launch (map a client, let swm manage it, close it) do not
// depend on how many clients stand on the desktop: the panner draws the new
// box and erases it, and redraws nothing else.
class PannerLaunchTest : public SwmTest {
 protected:
  std::vector<uint64_t> DrawOpsPerLaunch(int standing) {
    StartWm("swm*virtualDesktop: 3456x2700\nswm*panner: True\n");
    std::vector<std::unique_ptr<xlib::ClientApp>> apps;
    for (int i = 0; i < standing; ++i) {
      // A grid in the lower half of the desktop, away from the launches.
      apps.push_back(MakeApp("standing" + std::to_string(i),
                             {(i % 32) * 100, 1400 + (i / 32) * 36, 90, 30}));
      apps.back()->Map();
    }
    wm_->ProcessEvents();
    EXPECT_EQ(wm_->panner(0)->boxes().size(), static_cast<size_t>(standing));
    // Start from a compacted display list, so no launch below redraws it all.
    wm_->panner(0)->Redraw();
    std::vector<uint64_t> per_launch;
    for (int i = 0; i < 4; ++i) {
      uint64_t before = server_->render_stats().draw_ops;
      auto app = MakeApp("launch", {300 + 40 * i, 200, 200, 100});
      app->Map();
      wm_->ProcessEvents();
      app.reset();
      wm_->ProcessEvents();
      per_launch.push_back(server_->render_stats().draw_ops - before);
    }
    return per_launch;
  }

  std::unique_ptr<xlib::ClientApp> MakeApp(const std::string& name, const xbase::Rect& geometry) {
    xlib::ClientAppConfig config;
    config.name = name;
    config.wm_class = {name, "Launch"};
    config.geometry = geometry;
    config.size_hint_flags = xproto::kUSPosition | xproto::kUSSize;
    return std::make_unique<xlib::ClientApp>(server_.get(), config);
  }
};

TEST_F(PannerLaunchTest, DrawOpsPerLaunchDoNotGrowWithStandingClients) {
  std::vector<uint64_t> few = DrawOpsPerLaunch(16);
  std::vector<uint64_t> many = DrawOpsPerLaunch(1024);
  EXPECT_EQ(few, many);
  for (uint64_t ops : many) {
    EXPECT_LT(ops, 32u);
  }
}

// ---- Panner reconcile property test -------------------------------------------
//
// Two identical WM stacks run the same seeded steps.  The second forces a
// full redraw of the panner after every step; the first keeps only what the
// reconcile sent.  Their screens and boxes must match after every step, and
// the first panner's display list must stay within Panner::ListBound.

struct PannerStack {
  PannerStack() {
    server = std::make_unique<xserver::Server>(
        std::vector<xserver::ScreenConfig>{xserver::ScreenConfig{400, 240, false}});
    swm::WindowManager::Options options;
    options.resources =
        "swm*virtualDesktop: 1600x800\n"
        "swm*virtualDesktops: 2\n"
        "swm*panner: True\n"
        "swm*pannerScale: 20\n";
    wm = std::make_unique<swm::WindowManager>(server.get(), options);
    EXPECT_TRUE(wm->Start());
    wm->ProcessEvents();
    // Room for the panner to grow on screen.
    wm->MoveFrameTo(PannerClient(), {8, 110});
    wm->ProcessEvents();
  }

  Panner* panner() { return wm->panner(0); }
  ManagedClient* PannerClient() { return wm->FindClient(panner()->window()); }

  // The screen with the panner raised, so no sticky window hides it.
  std::string Screen() {
    wm->RaiseClient(PannerClient());
    wm->ProcessEvents();
    return server->RenderScreen(0).ToString();
  }

  std::unique_ptr<xserver::Server> server;
  std::unique_ptr<swm::WindowManager> wm;
  std::vector<std::unique_ptr<xlib::ClientApp>> apps;
  int spawned = 0;
};

struct PannerStep {
  enum Kind {
    kManage,
    kUnmanage,
    kMove,
    kRequestMoves,
    kResize,
    kIconToggle,
    kStickyToggle,
    kPan,
    kSwitchDesktop,
    kPannerResize,
    kShapeToggle,
    kRetitle,
    kDestroy,
    kPolicySwitch,
  };
  Kind kind = kManage;
  size_t target = 0;
  xbase::Rect geometry;
};

void ApplyStep(const PannerStep& step, PannerStack* stack) {
  swm::WindowManager& wm = *stack->wm;
  std::vector<std::unique_ptr<xlib::ClientApp>>& apps = stack->apps;
  ManagedClient* client =
      apps.empty() ? nullptr : wm.FindClient(apps[step.target % apps.size()]->window());
  switch (step.kind) {
    case PannerStep::kManage: {
      xlib::ClientAppConfig config;
      config.name = "app" + std::to_string(stack->spawned++);
      config.wm_class = {config.name, "App"};
      config.geometry = step.geometry;
      // Half placed by the user on the desktop, half cascaded by swm.
      config.size_hint_flags =
          step.target % 2 == 0 ? xproto::kUSPosition | xproto::kUSSize : xproto::kPSize;
      apps.push_back(std::make_unique<xlib::ClientApp>(stack->server.get(), config));
      apps.back()->Map();
      break;
    }
    case PannerStep::kUnmanage:
      if (!apps.empty()) {
        apps.erase(apps.begin() + static_cast<std::ptrdiff_t>(step.target % apps.size()));
      }
      break;
    case PannerStep::kMove:
      wm.MoveFrameTo(client, step.geometry.origin());
      break;
    case PannerStep::kRequestMoves:
      // Several clients move themselves in one batch: one reconcile.
      for (size_t i = 0; i < apps.size() && i < 3; ++i) {
        apps[(step.target + i) % apps.size()]->RequestMoveResize(
            step.geometry.Translated(static_cast<int>(i) * 90, static_cast<int>(i) * 40));
      }
      break;
    case PannerStep::kResize:
      wm.ResizeClient(client, step.geometry.size());
      break;
    case PannerStep::kIconToggle:
      if (client != nullptr && client->state == xproto::WmState::kIconic) {
        wm.Deiconify(client);
      } else {
        wm.Iconify(client);
      }
      break;
    case PannerStep::kStickyToggle:
      if (client != nullptr) {
        wm.SetSticky(client, !client->sticky);
      }
      break;
    case PannerStep::kPan:
      wm.ExecuteCommandString("f.panTo(" + std::to_string(step.geometry.x) + ", " +
                                  std::to_string(step.geometry.y) + ")",
                              0);
      break;
    case PannerStep::kSwitchDesktop:
      wm.SwitchDesktop(0, 1 - wm.ActiveDesktop(0));
      break;
    case PannerStep::kPannerResize:
      wm.ResizeClient(stack->PannerClient(),
                      {20 + step.geometry.width % 80, 10 + step.geometry.height % 40});
      break;
    case PannerStep::kShapeToggle:
      // The runtime ShapeNotify re-decorates, which moves the frame.
      if (client != nullptr) {
        xlib::ClientApp& app = *apps[step.target % apps.size()];
        if (client->shaped) {
          app.display().ShapeClear(app.window());
        } else {
          app.display().ShapeSetMask(app.window(), xbase::CircleMask(step.geometry.width));
        }
      }
      break;
    case PannerStep::kRetitle:
      // A title wider than the client widens the frame in its relayout.
      if (client != nullptr) {
        xlib::ClientApp& app = *apps[step.target % apps.size()];
        xlib::SetWmName(&app.display(), app.window(),
                        std::string(static_cast<size_t>(step.geometry.width % 60), 'w'));
      }
      break;
    case PannerStep::kDestroy:
      // The client destroys its window without unmapping it first.
      if (!apps.empty()) {
        size_t index = step.target % apps.size();
        apps[index]->display().DestroyWindow(apps[index]->window());
        wm.ProcessEvents();
        apps.erase(apps.begin() + static_cast<std::ptrdiff_t>(index));
      }
      break;
    case PannerStep::kPolicySwitch:
      // One relayout moves and resizes many frames in one batch.
      wm.SetLayoutPolicy(std::string(wm.layout_policy().name()) == "tiling" ? "floating"
                                                                            : "tiling");
      break;
  }
  wm.ProcessEvents();
}

class PannerReconcileTest : public ::testing::TestWithParam<int> {};

TEST_P(PannerReconcileTest, IncrementalScreenMatchesFullRedraw) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()));
  PannerStack incremental;
  PannerStack full;
  ASSERT_EQ(incremental.Screen(), full.Screen());
  // Placement and window mutations weigh most; views change now and then.
  std::discrete_distribution<int> kind({8, 4, 6, 4, 4, 2, 2, 1, 1, 1, 2, 2, 1, 1});
  std::uniform_int_distribution<int> x(-100, 1600);
  std::uniform_int_distribution<int> y(-60, 800);
  std::uniform_int_distribution<int> width(20, 300);
  std::uniform_int_distribution<int> height(20, 200);
  std::uniform_int_distribution<size_t> target(0, 1000);
  for (int i = 0; i < 300; ++i) {
    PannerStep step;
    step.kind = static_cast<PannerStep::Kind>(kind(rng));
    if (step.kind == PannerStep::kManage && incremental.apps.size() >= 16) {
      step.kind = PannerStep::kUnmanage;
    }
    step.target = target(rng);
    step.geometry = {x(rng), y(rng), width(rng), height(rng)};
    ApplyStep(step, &incremental);
    ApplyStep(step, &full);
    full.panner()->Redraw();

    ASSERT_EQ(incremental.Screen(), full.Screen())
        << "step " << i << " kind " << step.kind << " seed " << GetParam();
    Panner* panner = incremental.panner();
    ASSERT_EQ(panner->boxes(), full.panner()->boxes())
        << "step " << i << " kind " << step.kind << " seed " << GetParam();
    const xserver::WindowRec* rec =
        xserver::ServerTestPeer::FindWindow(*incremental.server, panner->window());
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->draw_ops.size(), panner->list_ops());
    ASSERT_LE(panner->list_ops(), Panner::ListBound(panner->boxes().size()))
        << "step " << i << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PannerReconcileTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace swm_test
