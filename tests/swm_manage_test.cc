// Managing, decorating and unmanaging clients (paper §4.1.1, §3).
#include "tests/swm_test_util.h"

#include "src/xlib/icccm.h"

namespace swm_test {
namespace {

using swm::ManagedClient;

TEST_F(SwmTest, SecondWindowManagerIsRejected) {
  StartWm();
  swm::WindowManager::Options options;
  swm::WindowManager second(server_.get(), options);
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  EXPECT_FALSE(second.Start());
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
}

TEST_F(SwmTest, MapRequestLeadsToReparentedDecoratedClient) {
  StartWm();
  auto app = Spawn("xclock", {"xclock", "XClock"});
  ManagedClient* client = Managed(*app);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->name, "xclock");
  EXPECT_EQ(client->decoration_name, "openLook");  // From the template.
  ASSERT_NE(client->frame, nullptr);
  ASSERT_NE(client->client_panel, nullptr);

  // The client window is now a child of the `client` panel, viewable, and
  // its WM_STATE is Normal.
  EXPECT_EQ(server_->QueryTree(app->window())->parent, client->client_panel->window());
  EXPECT_TRUE(server_->IsViewable(app->window()));
  auto state = xlib::GetWmState(&app->display(), app->window());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->state, xproto::WmState::kNormal);

  // The decoration has the paper's four objects.
  EXPECT_NE(client->frame->FindDescendant("pulldown"), nullptr);
  EXPECT_NE(client->frame->FindDescendant("nail"), nullptr);
  ASSERT_NE(client->name_object, nullptr);
  EXPECT_EQ(static_cast<oi::Button*>(client->name_object)->label(), "xclock");

  // Client saw exactly one reparent.
  EXPECT_EQ(app->reparent_count(), 1);
}

TEST_F(SwmTest, OverrideRedirectWindowsAreNotManaged) {
  StartWm();
  xlib::Display popup_owner(server_.get(), "p");
  xproto::WindowId popup = popup_owner.CreateWindow(
      popup_owner.RootWindow(0), {0, 0, 10, 10}, 0, /*override_redirect=*/true);
  popup_owner.MapWindow(popup);
  wm_->ProcessEvents();
  EXPECT_EQ(wm_->FindClient(popup), nullptr);
  EXPECT_TRUE(server_->IsViewable(popup));
}

TEST_F(SwmTest, SpecificDecorationResource) {
  // "swm.color.screen0.XClock.xclock.decoration: shapeit" — per-class
  // decoration via specific resources (§3).
  StartWm("swm.color.screen0.XClock.xclock.decoration: shapeit\n");
  auto clock = Spawn("xclock", {"xclock", "XClock"});
  auto term = Spawn("xterm", {"xterm", "XTerm"});
  EXPECT_EQ(Managed(*clock)->decoration_name, "shapeit");
  EXPECT_EQ(Managed(*term)->decoration_name, "openLook");
}

TEST_F(SwmTest, DecorationNoneFallsBackToBareContainer) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  StartWm("swm*XTerm*decoration: noSuchPanel\n");
  auto term = Spawn("xterm", {"xterm", "XTerm"});
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  ManagedClient* client = Managed(*term);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(client->client_panel, nullptr);
  EXPECT_TRUE(server_->IsViewable(term->window()));
}

TEST_F(SwmTest, BrokenDecorationWithoutClientPanelGetsOne) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  StartWm(
      "swm*XTerm*decoration: broken\n"
      "swm*panel.broken: button name +C+0\n");
  auto term = Spawn("xterm", {"xterm", "XTerm"});
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  ManagedClient* client = Managed(*term);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(client->client_panel, nullptr);
  EXPECT_EQ(server_->QueryTree(term->window())->parent, client->client_panel->window());
}

TEST_F(SwmTest, ShapedClientGetsShapedDecoration) {
  // §5: "swm*shaped*decoration: shapeit" lets oclock run without visible
  // decoration.
  StartWm();
  xlib::ClientAppConfig config;
  config.name = "oclock";
  config.wm_class = {"oclock", "Clock"};
  config.command = {"oclock"};
  config.geometry = {0, 0, 20, 20};
  config.shaped = true;
  xlib::ClientApp oclock(server_.get(), config);
  oclock.Map();
  wm_->ProcessEvents();

  ManagedClient* client = wm_->FindClient(oclock.window());
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->shaped);
  EXPECT_EQ(client->decoration_name, "shapeit");
  // The frame is shaped to its children (just the client panel).
  EXPECT_TRUE(wm_->display().IsShaped(client->frame->window()));
}

TEST_F(SwmTest, BecomingShapedAtRuntimeRedecorates) {
  StartWm();
  auto app = Spawn("xeyes", {"xeyes", "XEyes"}, {0, 0, 20, 20});
  EXPECT_EQ(Managed(*app)->decoration_name, "openLook");
  app->display().ShapeSetMask(app->window(), xbase::CircleMask(20));
  wm_->ProcessEvents();
  ManagedClient* client = Managed(*app);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->shaped);
  EXPECT_EQ(client->decoration_name, "shapeit");
}

TEST_F(SwmTest, WmNameChangeUpdatesTitle) {
  StartWm();
  auto app = Spawn("ed", {"ed", "Editor"});
  xlib::SetWmName(&app->display(), app->window(), "ed: main.c");
  wm_->ProcessEvents();
  ManagedClient* client = Managed(*app);
  EXPECT_EQ(client->name, "ed: main.c");
  EXPECT_EQ(static_cast<oi::Button*>(client->name_object)->label(), "ed: main.c");
}

TEST_F(SwmTest, ConfigureRequestResizesThroughDecoration) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"}, {0, 0, 40, 12});
  ManagedClient* client = Managed(*app);
  xbase::Rect before = client->FrameGeometry();

  app->RequestMoveResize({0, 0, 60, 20});
  wm_->ProcessEvents();
  app->ProcessEvents();

  EXPECT_EQ(server_->GetGeometry(app->window())->size(), (xbase::Size{60, 20}));
  xbase::Rect after = client->FrameGeometry();
  EXPECT_EQ(after.width - before.width, 20);
  EXPECT_EQ(after.height - before.height, 8);
  // The client panel matches the client.
  EXPECT_EQ(client->client_panel->geometry().size(), (xbase::Size{60, 20}));
}

TEST_F(SwmTest, ConfigureRequestMovesInDesktopCoordinates) {
  StartWm("swm*virtualDesktop: 600x300\nswm*panner: False\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  app->RequestMoveResize({123, 45, 30, 10});
  wm_->ProcessEvents();
  EXPECT_EQ(client->ClientDesktopPosition(), (xbase::Point{123, 45}));
}

TEST_F(SwmTest, SizeHintsConstrainClientSize) {
  StartWm();
  xlib::ClientAppConfig config;
  config.name = "xterm";
  config.wm_class = {"xterm", "XTerm"};
  config.geometry = {0, 0, 41, 17};
  xlib::ClientApp app(server_.get(), config);
  xproto::SizeHints hints;
  hints.flags = xproto::kPMinSize | xproto::kPResizeInc;
  hints.min_width = 10;
  hints.min_height = 10;
  hints.width_inc = 10;
  hints.height_inc = 5;
  xlib::SetWmNormalHints(&app.display(), app.window(), hints);
  app.Map();
  wm_->ProcessEvents();
  // 41x17 snaps to 40x15 (base 10 + increments).
  EXPECT_EQ(server_->GetGeometry(app.window())->size(), (xbase::Size{40, 15}));
}

TEST_F(SwmTest, WithdrawUnmanagesAndReparentsBack) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ASSERT_NE(Managed(*app), nullptr);
  app->Unmap();  // ICCCM withdrawal.
  wm_->ProcessEvents();
  EXPECT_EQ(Managed(*app), nullptr);
  EXPECT_EQ(server_->QueryTree(app->window())->parent, server_->RootWindow(0));
  auto state = xlib::GetWmState(&app->display(), app->window());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->state, xproto::WmState::kWithdrawn);
  // Re-mapping manages it again.
  app->Map();
  wm_->ProcessEvents();
  EXPECT_NE(Managed(*app), nullptr);
}

TEST_F(SwmTest, ClientDestructionCleansUp) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  xproto::WindowId window = app->window();
  ManagedClient* client = Managed(*app);
  xproto::WindowId frame = client->frame->window();
  app->display().DestroyWindow(window);
  wm_->ProcessEvents();
  EXPECT_EQ(wm_->FindClient(window), nullptr);
  EXPECT_FALSE(server_->WindowExists(frame));
  EXPECT_EQ(wm_->ClientCount(), 0u);
}

TEST_F(SwmTest, UnmanageForgetsPerWindowEventCount) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  xlib::SetWmName(&app->display(), app->window(), "busy");
  wm_->ProcessEvents();
  ASSERT_GT(wm_->events_dispatched_for(app->window()), 0u);
  app->Unmap();  // ICCCM withdrawal: swm unmanages the window.
  wm_->ProcessEvents();
  ASSERT_EQ(Managed(*app), nullptr);
  EXPECT_EQ(wm_->events_dispatched_for(app->window()), 0u)
      << "per-window state must not outlive the managed client";
}

TEST_F(SwmTest, WmShutdownReparentsClientsBack) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ASSERT_NE(Managed(*app), nullptr);
  wm_.reset();  // WM exits cleanly.
  EXPECT_EQ(server_->QueryTree(app->window())->parent, server_->RootWindow(0));
  EXPECT_TRUE(server_->WindowExists(app->window()));
}

TEST_F(SwmTest, ExistingWindowsManagedAtStartup) {
  // Clients running before the WM starts get managed by Start().
  server_ = std::make_unique<xserver::Server>(
      std::vector<xserver::ScreenConfig>{xserver::ScreenConfig{200, 100, false}});
  xlib::ClientAppConfig config;
  config.name = "early";
  config.wm_class = {"early", "Early"};
  auto app = std::make_unique<xlib::ClientApp>(server_.get(), config);
  app->Map();  // No WM yet: maps directly.
  ASSERT_TRUE(server_->IsViewable(app->window()));

  swm::WindowManager::Options options;
  options.template_name = "openlook";
  wm_ = std::make_unique<swm::WindowManager>(server_.get(), options);
  ASSERT_TRUE(wm_->Start());
  ManagedClient* client = wm_->FindClient(app->window());
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(server_->IsViewable(app->window()));
  EXPECT_NE(server_->QueryTree(app->window())->parent, server_->RootWindow(0));
}

TEST_F(SwmTest, OwnWindowsAreNeverManaged) {
  // swm knows its own windows by their ids: its connection's id range.  A
  // root icon is a mapped child of the root when Start() adopts the
  // windows already there; it must be skipped, and the early client taken.
  server_ = std::make_unique<xserver::Server>(
      std::vector<xserver::ScreenConfig>{xserver::ScreenConfig{200, 100, false}});
  xlib::ClientAppConfig config;
  config.name = "early";
  config.wm_class = {"early", "Early"};
  auto app = std::make_unique<xlib::ClientApp>(server_.get(), config);
  app->Map();
  swm::WindowManager::Options options;
  options.template_name = "openlook";
  options.resources =
      "swm*rootIcons: trash\n"
      "swm*panel.trash: button iconimage +C+0\n";
  wm_ = std::make_unique<swm::WindowManager>(server_.get(), options);
  ASSERT_TRUE(wm_->Start());
  std::vector<xproto::WindowId> own_mapped;
  std::optional<xserver::QueryTreeReply> tree = server_->QueryTree(server_->RootWindow(0));
  ASSERT_TRUE(tree.has_value());
  for (xproto::WindowId child : tree->children) {
    if (server_->IsViewable(child)) {
      own_mapped.push_back(child);
    }
  }
  ASSERT_FALSE(own_mapped.empty());  // The root icon and the early client's frame.
  for (xproto::WindowId window : own_mapped) {
    EXPECT_EQ(wm_->FindClient(window), nullptr);
    // Handing one to ManageWindow directly is refused as well.
    EXPECT_EQ(wm_->ManageWindow(window, 0), nullptr);
  }
  ASSERT_NE(Managed(*app), nullptr);
  EXPECT_EQ(wm_->ClientCount(), 1u);
}

TEST_F(SwmTest, SyntheticConfigureTellsClientItsDesktopPosition) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  wm_->MoveFrameTo(client, {50, 30});
  wm_->ProcessEvents();
  app->ProcessEvents();
  EXPECT_EQ(app->believed_root_position(), client->ClientDesktopPosition());
}

TEST_F(SwmTest, MultiScreenManagement) {
  StartWm("", "openlook",
          {xserver::ScreenConfig{200, 100, false}, xserver::ScreenConfig{100, 80, true}});
  xlib::ClientAppConfig config;
  config.name = "s1app";
  config.wm_class = {"s1app", "S1App"};
  config.screen = 1;
  xlib::ClientApp app(server_.get(), config);
  app.Map();
  wm_->ProcessEvents();
  ManagedClient* client = wm_->FindClient(app.window());
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->screen, 1);
  // Frame lives on screen 1's tree.
  EXPECT_EQ(server_->ScreenOfWindow(client->frame->window()), 1);
}

TEST_F(SwmTest, PerScreenResources) {
  // §3: per-screen configuration — different decorations per screen.
  StartWm(
      "swm.color.screen0*decoration: openLook\n"
      "swm.monochrome.screen1*decoration: shapeit\n",
      "openlook",
      {xserver::ScreenConfig{200, 100, false}, xserver::ScreenConfig{100, 80, true}});
  auto app0 = Spawn("a", {"a", "A"});
  xlib::ClientAppConfig config;
  config.name = "b";
  config.wm_class = {"b", "B"};
  config.screen = 1;
  xlib::ClientApp app1(server_.get(), config);
  app1.Map();
  wm_->ProcessEvents();
  EXPECT_EQ(Managed(*app0)->decoration_name, "openLook");
  EXPECT_EQ(wm_->FindClient(app1.window())->decoration_name, "shapeit");
}

TEST_F(SwmTest, TemplateSelectionMotif) {
  StartWm("", "motif");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  EXPECT_EQ(client->decoration_name, "motif");
  EXPECT_NE(client->frame->FindDescendant("minimize"), nullptr);
  EXPECT_NE(client->frame->FindDescendant("maximize"), nullptr);
}

TEST_F(SwmTest, TemplateResourceOverridesOption) {
  StartWm("swm*template: motif\n", "openlook");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  EXPECT_EQ(Managed(*app)->decoration_name, "motif");
}

TEST_F(SwmTest, UserResourceOverridesTemplate) {
  StartWm("Swm*button.nail.label: S\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  oi::Object* nail = Managed(*app)->frame->FindDescendant("nail");
  ASSERT_NE(nail, nullptr);
  EXPECT_EQ(static_cast<oi::Button*>(nail)->label(), "S");
}

TEST_F(SwmTest, DefaultPlacementCascades) {
  StartWm();
  auto a = Spawn("a", {"a", "A"});
  auto b = Spawn("b", {"b", "B"});
  xbase::Rect ga = Managed(*a)->FrameGeometry();
  xbase::Rect gb = Managed(*b)->FrameGeometry();
  EXPECT_NE(ga.origin(), gb.origin());
  EXPECT_EQ(gb.x - ga.x, 24);
  EXPECT_EQ(gb.y - ga.y, 24);
}

}  // namespace
}  // namespace swm_test
