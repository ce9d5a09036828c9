// End-to-end scenarios spanning server, xlib, toolkit and swm: the rooms
// workflow the paper motivates, figure renderings, and cross-feature
// interactions.
#include "src/swm/swmcmd.h"
#include "src/swm/templates.h"
#include "src/xlib/icccm.h"
#include "src/xserver/replay.h"
#include "tests/swm_test_util.h"
#include "tests/transcript.h"

namespace swm_test {
namespace {

using swm::ManagedClient;

TEST_F(SwmTest, RoomsWorkflowOnVirtualDesktop) {
  // The paper's §6 motivation: group windows into quadrants of the desktop
  // ("a rooms like environment") and pan between them, with sticky tools
  // visible everywhere.
  StartWm(
      "swm*virtualDesktop: 400x200\n"
      "swm*panner: False\n"
      "swm*XClock*sticky: True\n");
  // Room 1 (top-left): an editor. Room 2 (top-right): mail.
  auto editor = Spawn("editor", {"editor", "Editor"}, {0, 0, 40, 12});
  auto mail = Spawn("mail", {"mail", "Mail"}, {0, 0, 40, 12});
  auto clock = Spawn("xclock", {"xclock", "XClock"}, {0, 0, 12, 5});
  wm_->MoveFrameTo(Managed(*editor), {10, 10});
  wm_->MoveFrameTo(Managed(*mail), {210, 10});
  wm_->ProcessEvents();

  // Room 1 visible: editor on screen, mail not.
  auto* desk = wm_->vdesk(0);
  EXPECT_TRUE(desk->IsVisible(Managed(*editor)->FrameGeometry()));
  EXPECT_FALSE(desk->IsVisible(Managed(*mail)->FrameGeometry()));
  EXPECT_TRUE(server_->IsViewable(clock->window()));

  // Pan to room 2.
  wm_->ExecuteCommandString("f.panTo(200, 0)", 0);
  wm_->ProcessEvents();
  EXPECT_FALSE(desk->IsVisible(Managed(*editor)->FrameGeometry()));
  EXPECT_TRUE(desk->IsVisible(Managed(*mail)->FrameGeometry()));
  // The sticky clock is still on the glass at the same place.
  xbase::Point clock_pos = server_->RootPosition(clock->window());
  EXPECT_TRUE(
      (xbase::Rect{0, 0, 200, 100}).Contains(clock_pos));

  // The rendered screen shows the mail window's title, not the editor's.
  std::string screen = server_->RenderScreen(0).ToString();
  EXPECT_NE(screen.find("mail"), std::string::npos);
  EXPECT_EQ(screen.find("editor"), std::string::npos);
  EXPECT_NE(screen.find("xclock"), std::string::npos);
}

TEST_F(SwmTest, Figure1DecorationRendering) {
  // Figure 1: the OpenLook+ decoration around a client.
  StartWm();
  auto app = Spawn("xclock", {"xclock", "XClock"}, {0, 0, 30, 8});
  std::string screen = server_->RenderScreen(0).ToString();
  // Title row: pulldown glyph, centered name, nail glyph.
  EXPECT_NE(screen.find("v"), std::string::npos);
  EXPECT_NE(screen.find("xclock"), std::string::npos);
  EXPECT_NE(screen.find("@"), std::string::npos);
  // The client area is filled with the client's background.
  ManagedClient* client = Managed(*app);
  xbase::Point client_pos = server_->RootPosition(app->window());
  xbase::Canvas canvas = server_->RenderScreen(0);
  EXPECT_EQ(canvas.At(client_pos.x + 3, client_pos.y + 3), 'x');
  (void)client;
}

TEST_F(SwmTest, Figure2RootPanelRendering) {
  // Figure 2: the 8-button, 2-row root panel, reparented.
  StartWm("swm*rootPanels: RootPanel\n");
  std::string screen = server_->RenderScreen(0).ToString();
  for (const char* label : {"quit", "restart", "iconify", "deiconify", "move",
                            "resize", "raise", "lower"}) {
    EXPECT_NE(screen.find(label), std::string::npos) << label;
  }
}

TEST_F(SwmTest, Figure3PannerRendering) {
  // Figure 3: the panner miniature with windows and the position outline.
  StartWm(
      "swm*virtualDesktop: 800x400\n"
      "swm*panner: True\n"
      "swm*pannerScale: 10\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"}, {0, 0, 60, 30});
  wm_->MoveFrameTo(Managed(*app), {400, 200});
  wm_->ProcessEvents();
  swm::Panner* panner = wm_->panner(0);
  ASSERT_NE(panner, nullptr);
  xbase::Point origin = server_->RootPosition(panner->window());
  xbase::Canvas canvas = server_->RenderScreen(0);
  // The miniature box at panner cell (40,20).
  EXPECT_EQ(canvas.At(origin.x + 41, origin.y + 21), 'o');
  // The viewport outline at the top-left corner of the panner.
  EXPECT_EQ(canvas.At(origin.x, origin.y), '+');
}

TEST_F(SwmTest, PopupPlacementViaSwmRootProperty) {
  // §6.3.1's whole point: a toolkit placing a popup relative to SWM_ROOT
  // ends up at the right screen position even after panning.
  StartWm("swm*virtualDesktop: 800x400\nswm*panner: False\n");
  auto app = Spawn("editor", {"editor", "Editor"}, {0, 0, 40, 12});
  wm_->ExecuteCommandString("f.panTo(100, 50)", 0);
  wm_->ProcessEvents();
  app->ProcessEvents();

  // The client wants a popup at its own top-left corner.  The naive
  // root-relative answer and the SWM_ROOT-relative answer differ by the pan
  // offset; only the latter is correct.
  xproto::WindowId popup_parent = app->EffectiveRootForPopups();
  EXPECT_EQ(popup_parent, wm_->vdesk(0)->window());
  xbase::Point desktop_pos = app->believed_root_position();
  xproto::WindowId popup = app->display().CreateWindow(
      popup_parent, {desktop_pos.x, desktop_pos.y + 3, 20, 4}, 0,
      /*override_redirect=*/true);
  app->display().MapWindow(popup);
  wm_->ProcessEvents();
  // The popup really is where the client is on the glass.
  EXPECT_EQ(server_->RootPosition(popup).x, server_->RootPosition(app->window()).x);
}

TEST_F(SwmTest, SwmcmdChangesButtonAppearanceRemotely) {
  // §4.5: "This interface could also be used for things such as changing
  // the shape of a button to indicate the status of a process."  We use
  // the pending-selection path: swmcmd f.iconify, then pick the window.
  StartWm();
  auto app = Spawn("builder", {"builder", "Builder"});
  xlib::Display shell(server_.get(), "shell");
  swm::SendSwmCommand(&shell, 0, "f.iconify f.raise");
  wm_->ProcessEvents();
  EXPECT_TRUE(wm_->awaiting_target());
  xbase::Point pos = server_->RootPosition(app->window());
  Click({pos.x + 1, pos.y + 1});
  EXPECT_EQ(Managed(*app)->state, xproto::WmState::kIconic);
}

TEST_F(SwmTest, TemplatesAllLoadAndDecorate) {
  for (const std::string& name : swm::TemplateNames()) {
    StartWm("", name);
    {
      auto app = Spawn("probe", {"probe", "Probe"});
      ManagedClient* client = Managed(*app);
      ASSERT_NE(client, nullptr) << name;
      ASSERT_NE(client->frame, nullptr) << name;
      EXPECT_NE(client->name_object, nullptr) << name;
      EXPECT_TRUE(server_->IsViewable(app->window())) << name;
      // The app's connection must close before the server goes away.
    }
    wm_->ProcessEvents();
    wm_.reset();
    server_.reset();
  }
}

TEST_F(SwmTest, TemplateFilesWriteAndLoadBack) {
  std::string dir = ::testing::TempDir() + "/swm_templates";
  EXPECT_EQ(swm::WriteTemplateFiles(dir), 3);
  xrdb::ResourceDatabase db;
  EXPECT_GT(db.LoadFromFile(dir + "/openlook.ad"), 10);
  EXPECT_TRUE(db.Get("swm.a.panel.openLook", "Swm.A.Panel.OpenLook").has_value());
}

TEST_F(SwmTest, StressManyClientsLifecycle) {
  StartWm("swm*virtualDesktop: 1000x500\nswm*panner: True\n");
  std::vector<std::unique_ptr<xlib::ClientApp>> apps;
  for (int i = 0; i < 40; ++i) {
    apps.push_back(Spawn("app" + std::to_string(i),
                         {"app" + std::to_string(i), i % 2 == 0 ? "Even" : "Odd"}));
  }
  EXPECT_EQ(wm_->ClientCount(), 41u);  // 40 apps + panner.

  wm_->ExecuteCommandString("f.iconify(Even)", 0);
  wm_->ProcessEvents();
  int iconic = 0;
  for (ManagedClient* client : wm_->Clients()) {
    if (client->state == xproto::WmState::kIconic) {
      ++iconic;
    }
  }
  EXPECT_EQ(iconic, 20);

  wm_->ExecuteCommandString("f.pan(300, 200) f.deiconify(Even)", 0);
  wm_->ProcessEvents();
  for (ManagedClient* client : wm_->Clients()) {
    EXPECT_EQ(client->state, xproto::WmState::kNormal);
  }

  // Destroy half the clients; the WM must stay consistent.
  for (int i = 0; i < 20; ++i) {
    apps[i]->display().DestroyWindow(apps[i]->window());
  }
  wm_->ProcessEvents();
  EXPECT_EQ(wm_->ClientCount(), 21u);
  // And a full teardown reparents the remaining windows back.
  wm_.reset();
  for (int i = 20; i < 40; ++i) {
    EXPECT_EQ(server_->QueryTree(apps[i]->window())->parent, server_->RootWindow(0));
  }
}

TEST_F(SwmTest, WmCrashRecoveryViaSaveSet) {
  // If swm dies without cleanup, the server's save-set must rescue clients.
  StartWm();
  auto app = Spawn("survivor", {"survivor", "Survivor"});
  ASSERT_NE(Managed(*app), nullptr);
  // Simulate a crash: disconnect the WM connections without unmanaging.
  server_->Disconnect(wm_->display().client_id());
  EXPECT_EQ(server_->QueryTree(app->window())->parent, server_->RootWindow(0));
  EXPECT_TRUE(server_->IsViewable(app->window()));
  // Intentionally leak the WM object's state by resetting with the
  // connection already gone; the destructor must tolerate it.
  wm_.reset();
}

// ---- swm over the codec (docs/PROTOCOL.md "Wire mode") ----------------------

class SwmWireTest : public SwmTest {
 protected:
  // Puts both of swm's connections in wire mode before it starts: every
  // request it sends is encoded and dispatched from bytes, and every query
  // decodes its reply frame.
  void UseWire() {
    on_wm_created_ = [](swm::WindowManager* wm) {
      wm->display().set_wire_mode(true);
      wm->display_aux().set_wire_mode(true);
    };
  }

  struct Session {
    xserver::ServerFingerprint fp;
    uint64_t transcript_hash = 0;
    size_t events = 0;
    xbase::Point pointer;
    uint64_t wm_wire_requests = 0;
    uint64_t x_errors = 0;
  };

  // Manage, move, resize, iconify, deiconify, a shaped client, f.stick and
  // f.warpVertical, with a transcript of every event every client took.
  Session RunScript() {
    Transcript transcript;
    on_server_created_ = [&transcript](xserver::Server* server) { transcript.Tap(server); };
    StartWm("swm*virtualDesktop: 400x300\n");
    auto term = Spawn("xterm", {"xterm", "XTerm"}, {0, 0, 30, 10});
    xlib::ClientAppConfig config;
    config.name = "oclock";
    config.wm_class = {"oclock", "Clock"};
    config.command = {"oclock"};
    config.geometry = {0, 0, 16, 16};
    config.shaped = true;
    auto clock = std::make_unique<xlib::ClientApp>(server_.get(), config);
    clock->Map();
    wm_->ProcessEvents();

    term->RequestMoveResize({40, 20, 36, 12});
    wm_->ProcessEvents();
    term->RequestIconify();
    wm_->ProcessEvents();
    term->Map();
    wm_->ProcessEvents();
    wm_->ExecuteCommandString("f.stick(XTerm)", 0);
    server_->SimulateMotion({50, 50});
    wm_->ProcessEvents();
    wm_->ExecuteCommandString("f.warpVertical(10)", 0);
    for (xlib::ClientApp* app : {term.get(), clock.get()}) {
      app->ProcessEvents();
    }
    wm_->ProcessEvents();

    server_->SetEventTapForTest({});
    Session session;
    session.fp = xserver::FingerprintServer(*server_);
    session.transcript_hash = transcript.hash();
    session.events = transcript.events();
    session.pointer = server_->QueryPointer().root_pos;
    session.wm_wire_requests = wm_->display().wire_stats().wire_requests;
    session.x_errors = wm_->x_error_count();
    EXPECT_NE(Managed(*clock), nullptr);
    EXPECT_TRUE(Managed(*clock)->shaped);
    EXPECT_TRUE(Managed(*term)->sticky);
    EXPECT_EQ(Managed(*term)->state, xproto::WmState::kNormal);
    return session;
  }
};

TEST_F(SwmWireTest, SessionOverTheCodecMatchesTheInProcessOne) {
  Session direct = RunScript();
  UseWire();
  Session wire = RunScript();
  EXPECT_EQ(wire.fp.screen_hash, direct.fp.screen_hash);
  EXPECT_EQ(wire.fp.draw_ops, direct.fp.draw_ops);
  EXPECT_EQ(wire.fp.pixels_drawn, direct.fp.pixels_drawn);
  EXPECT_EQ(wire.events, direct.events);
  EXPECT_EQ(wire.transcript_hash, direct.transcript_hash);
  EXPECT_EQ(wire.pointer, direct.pointer);
  EXPECT_EQ(direct.pointer, (xbase::Point{50, 60}));  // The warp moved it.
  EXPECT_EQ(direct.wm_wire_requests, 0u);
  EXPECT_GT(wire.wm_wire_requests, 0u);
  // Events for swm's own dead windows (a destroyed frame object's, say) are
  // never traced up the tree: over the codec such a query would raise
  // BadWindow.
  EXPECT_EQ(direct.x_errors, 0u);
  EXPECT_EQ(wire.x_errors, 0u);
}

// A client that exits with its window mapped leaves an UnmapNotify and a
// DestroyNotify in one batch.  swm unmanages without reparenting the dead
// window back and attributes the events without walking the tree, so over
// the codec it asks the server nothing about the dead window.
TEST_F(SwmWireTest, ClientExitingWithItsWindowMappedRaisesNoError) {
  UseWire();
  StartWm("swm*virtualDesktop: 400x300\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ASSERT_NE(Managed(*app), nullptr);
  xproto::WindowId window = app->window();
  app.reset();  // Disconnects, which destroys the mapped window.
  wm_->ProcessEvents();
  EXPECT_EQ(wm_->FindClient(window), nullptr);
  EXPECT_EQ(wm_->x_error_count(), 0u);
}

// Over the codec a query on a dead window raises BadWindow, which must not
// make the window a suspect again: HealSuspects' own liveness probe is such
// a query, and the event loop would never settle.
TEST_F(SwmWireTest, ClientDyingBehindSwmsBackIsUnmanaged) {
  UseWire();
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  ASSERT_NE(client, nullptr);

  // The client's window dies the moment swm configures it.
  xserver::FaultPlan plan;
  plan.destroy_on_configure_permille = 1000;
  server_->InstallFaultPlan(plan);
  wm_->ResizeClient(client, {50, 40});
  server_->ClearFaultPlan();
  wm_->ProcessEvents();

  EXPECT_FALSE(server_->WindowExists(app->window()));
  EXPECT_EQ(Managed(*app), nullptr);
  EXPECT_EQ(wm_->ClientCount(), 0u);
  EXPECT_GT(wm_->x_error_count(), 0u);
}

}  // namespace
}  // namespace swm_test
