// Extensions beyond the core: desktop scrollbars (paper §6's first panning
// method), resizeCorners handles (§4.1.1), and multiple Virtual Desktops
// (the §6.3.1 proposal).
#include "src/swm/scrollbars.h"
#include "tests/server_test_peer.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using swm::DesktopScrollbars;
using swm::ManagedClient;

class ScrollbarTest : public SwmTest {
 protected:
  void StartWithScrollbars() {
    StartWm(
        "swm*virtualDesktop: 800x400\n"
        "swm*panner: False\n"
        "swm*scrollbars: True\n");
    bars_ = wm_->scrollbars(0);
    ASSERT_NE(bars_, nullptr);
  }

  DesktopScrollbars* bars_ = nullptr;
};

TEST_F(ScrollbarTest, BarsCreatedAlongEdges) {
  StartWithScrollbars();
  auto hgeo = server_->GetGeometry(bars_->horizontal());
  auto vgeo = server_->GetGeometry(bars_->vertical());
  ASSERT_TRUE(hgeo.has_value());
  ASSERT_TRUE(vgeo.has_value());
  EXPECT_EQ(hgeo->y, 99);  // Bottom edge of the 200x100 screen.
  EXPECT_EQ(vgeo->x, 199);
  EXPECT_TRUE(server_->IsViewable(bars_->horizontal()));
  // They are children of the real root: stuck to the glass.
  EXPECT_EQ(server_->QueryTree(bars_->horizontal())->parent, server_->RootWindow(0));
}

TEST_F(ScrollbarTest, NoBarsWithoutResourceOrDesktop) {
  StartWm("swm*virtualDesktop: 800x400\nswm*panner: False\n");
  EXPECT_EQ(wm_->scrollbars(0), nullptr);
}

TEST_F(ScrollbarTest, ThumbReflectsOffset) {
  StartWithScrollbars();
  wm_->ExecuteCommandString("f.panTo(400, 0)", 0);
  wm_->ProcessEvents();
  // Desktop 800 wide, track 199 cells: thumb at 199*400/800 = 99.
  const xserver::WindowRec* rec =
      xserver::ServerTestPeer::FindWindow(*server_, bars_->horizontal());
  ASSERT_FALSE(rec->draw_ops.empty());
  EXPECT_EQ(rec->draw_ops.back().rect.x, 199 * 400 / 800);
}

TEST_F(ScrollbarTest, ClickPansHorizontally) {
  StartWithScrollbars();
  // Click near the end of the horizontal track: pan toward the right edge.
  Click({150, 99});
  int expected = bars_->TrackToDesktopX(150);
  EXPECT_EQ(wm_->vdesk(0)->offset().x,
            std::clamp(expected, 0, 800 - 200));
  EXPECT_EQ(wm_->vdesk(0)->offset().y, 0);
}

TEST_F(ScrollbarTest, DragPansVertically) {
  StartWithScrollbars();
  server_->SimulateMotion({199, 20});
  wm_->ProcessEvents();
  server_->SimulateButton(1, true);
  wm_->ProcessEvents();
  int after_press = wm_->vdesk(0)->offset().y;
  server_->SimulateMotion({199, 80});
  wm_->ProcessEvents();
  int after_drag = wm_->vdesk(0)->offset().y;
  server_->SimulateButton(1, false);
  wm_->ProcessEvents();
  EXPECT_GT(after_drag, after_press);
  EXPECT_EQ(wm_->vdesk(0)->offset().x, 0);
}

TEST_F(SwmTest, ResizeCornersCreatedWhenConfigured) {
  // The openlook template ships "Swm*panel.openLook.resizeCorners: True".
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  for (const char* name : {"resizeUL", "resizeUR", "resizeLL", "resizeLR"}) {
    oi::Object* corner = client->frame->FindDescendant(name);
    ASSERT_NE(corner, nullptr) << name;
    EXPECT_TRUE(corner->floating());
  }
  // Pinned to the frame corners.
  xbase::Size frame = client->FrameGeometry().size();
  EXPECT_EQ(client->frame->FindDescendant("resizeUL")->geometry().origin(),
            (xbase::Point{0, 0}));
  EXPECT_EQ(client->frame->FindDescendant("resizeLR")->geometry().origin(),
            (xbase::Point{frame.width - 1, frame.height - 1}));
}

TEST_F(SwmTest, ResizeCornersAbsentWhenDisabled) {
  StartWm("Swm*panel.openLook.resizeCorners: False\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  EXPECT_EQ(Managed(*app)->frame->FindDescendant("resizeLR"), nullptr);
}

TEST_F(SwmTest, ResizeCornerDragResizes) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"}, {0, 0, 40, 12});
  ManagedClient* client = Managed(*app);
  oi::Object* corner = client->frame->FindDescendant("resizeLR");
  ASSERT_NE(corner, nullptr);
  xbase::Point pos = ObjectRootPos(corner);
  server_->SimulateMotion(pos);
  wm_->ProcessEvents();
  server_->SimulateButton(1, true);
  wm_->ProcessEvents();
  server_->SimulateMotion({pos.x + 10, pos.y + 6});
  wm_->ProcessEvents();
  server_->SimulateButton(1, false);
  wm_->ProcessEvents();
  EXPECT_EQ(server_->GetGeometry(app->window())->size(), (xbase::Size{50, 18}));
  // The corners followed the resize.
  xbase::Size frame = client->FrameGeometry().size();
  EXPECT_EQ(client->frame->FindDescendant("resizeLR")->geometry().origin(),
            (xbase::Point{frame.width - 1, frame.height - 1}));
}

class MultiDesktopTest : public SwmTest {
 protected:
  void StartWithDesktops(int count) {
    StartWm(
        "swm*virtualDesktop: 800x400\n"
        "swm*virtualDesktops: " + std::to_string(count) + "\n"
        "swm*panner: False\n"
        "swm*XClock*sticky: True\n");
  }
};

TEST_F(MultiDesktopTest, DesktopsCreatedOnlyActiveMapped) {
  StartWithDesktops(3);
  EXPECT_EQ(wm_->DesktopCount(0), 3);
  EXPECT_EQ(wm_->ActiveDesktop(0), 0);
  EXPECT_TRUE(server_->IsViewable(wm_->vdesk(0)->window()));
}

TEST_F(MultiDesktopTest, SwitchHidesOtherDesktopsWindows) {
  StartWithDesktops(2);
  auto app0 = Spawn("editor", {"editor", "Editor"});
  ASSERT_TRUE(server_->IsViewable(app0->window()));
  xproto::WindowId desk0 = wm_->vdesk(0)->window();

  ASSERT_TRUE(wm_->SwitchDesktop(0, 1));
  wm_->ProcessEvents();
  EXPECT_EQ(wm_->ActiveDesktop(0), 1);
  // editor lives on desktop 0: hidden now, but still mapped on its desktop.
  EXPECT_FALSE(server_->IsViewable(app0->window()));
  EXPECT_NE(wm_->vdesk(0)->window(), desk0);

  // A client spawned now lands on desktop 1.
  auto app1 = Spawn("mail", {"mail", "Mail"});
  EXPECT_TRUE(server_->IsViewable(app1->window()));
  EXPECT_EQ(server_->QueryTree(wm_->FindClient(app1->window())->frame->window())->parent,
            wm_->vdesk(0)->window());

  // Back to desktop 0: editor returns, mail hides.
  ASSERT_TRUE(wm_->SwitchDesktop(0, 0));
  EXPECT_TRUE(server_->IsViewable(app0->window()));
  EXPECT_FALSE(server_->IsViewable(app1->window()));
}

TEST_F(MultiDesktopTest, StickyWindowsVisibleOnAllDesktops) {
  StartWithDesktops(2);
  auto clock = Spawn("xclock", {"xclock", "XClock"});
  ASSERT_TRUE(Managed(*clock)->sticky);
  EXPECT_TRUE(server_->IsViewable(clock->window()));
  wm_->SwitchDesktop(0, 1);
  EXPECT_TRUE(server_->IsViewable(clock->window()));
}

TEST_F(MultiDesktopTest, FunctionsDriveSwitching) {
  StartWithDesktops(3);
  wm_->ExecuteCommandString("f.desktop(2)", 0);
  EXPECT_EQ(wm_->ActiveDesktop(0), 2);
  wm_->ExecuteCommandString("f.nextDesktop", 0);
  EXPECT_EQ(wm_->ActiveDesktop(0), 0);  // Wraps around.
  wm_->ExecuteCommandString("f.desktop(99)", 0);  // Out of range: ignored.
  EXPECT_EQ(wm_->ActiveDesktop(0), 0);
}

TEST_F(MultiDesktopTest, EachDesktopPansIndependently) {
  StartWithDesktops(2);
  wm_->ExecuteCommandString("f.panTo(300, 100)", 0);
  EXPECT_EQ(wm_->vdesk(0)->offset(), (xbase::Point{300, 100}));
  wm_->SwitchDesktop(0, 1);
  EXPECT_EQ(wm_->vdesk(0)->offset(), (xbase::Point{0, 0}));
  wm_->SwitchDesktop(0, 0);
  EXPECT_EQ(wm_->vdesk(0)->offset(), (xbase::Point{300, 100}));
}

TEST_F(MultiDesktopTest, SwmRootNamesTheClientsOwnDesktop) {
  StartWithDesktops(2);
  auto app0 = Spawn("editor", {"editor", "Editor"});
  xproto::WindowId desk0 = wm_->vdesk(0)->window();
  wm_->SwitchDesktop(0, 1);
  auto app1 = Spawn("mail", {"mail", "Mail"});
  EXPECT_EQ(app0->display().GetWindowIdProperty(app0->window(), xproto::kAtomSwmRoot),
            desk0);
  EXPECT_EQ(app1->display().GetWindowIdProperty(app1->window(), xproto::kAtomSwmRoot),
            wm_->vdesk(0)->window());
}

TEST_F(SwmTest, FocusFunctionSetsInputFocus) {
  StartWm();
  auto a = Spawn("alpha", {"alpha", "Alpha"});
  auto b = Spawn("beta", {"beta", "Beta"});
  EXPECT_EQ(server_->GetInputFocus(), xproto::kNone);  // Pointer-root default.
  wm_->ExecuteCommandString("f.focus(Alpha)", 0);
  wm_->ProcessEvents();
  EXPECT_EQ(server_->GetInputFocus(), a->window());
  // f.focus deiconifies and raises too.
  wm_->Iconify(Managed(*b));
  wm_->ExecuteCommandString("f.focus(Beta)", 0);
  wm_->ProcessEvents();
  EXPECT_EQ(Managed(*b)->state, xproto::WmState::kNormal);
  EXPECT_EQ(server_->GetInputFocus(), b->window());
  // Destroying the focused window reverts to pointer-root.
  b->display().DestroyWindow(b->window());
  wm_->ProcessEvents();
  EXPECT_EQ(server_->GetInputFocus(), xproto::kNone);
}

TEST_F(SwmTest, FocusedWindowReceivesKeysRegardlessOfPointer) {
  StartWm();
  auto app = Spawn("ed", {"ed", "Editor"});
  app->display().SelectInput(app->window(), xproto::kStructureNotifyMask |
                                                xproto::kKeyPressMask);
  wm_->ExecuteCommandString("f.focus(Editor)", 0);
  wm_->ProcessEvents();
  server_->SimulateMotion({199, 99});  // Pointer far from the window.
  wm_->ProcessEvents();
  server_->SimulateKey(xtb::InternKeySym("a"), true);
  bool got_key = false;
  app->display().DrainEvents([&](const xproto::Event& event) {
    if (const auto* key = std::get_if<xproto::KeyEvent>(&event)) {
      got_key = key->window == app->window();
    }
  });
  EXPECT_TRUE(got_key);
}

TEST_F(SwmTest, CirculateFunctions) {
  StartWm();
  auto a = Spawn("a", {"a", "A"});
  auto b = Spawn("b", {"b", "B"});
  auto c = Spawn("c", {"c", "C"});
  auto order = [&]() {
    std::vector<xproto::WindowId> out;
    xserver::QueryTreeReply tree = *server_->QueryTree(server_->RootWindow(0));
    for (xproto::WindowId w : tree.children) {
      if (swm::ManagedClient* client = wm_->FindClientByAnyWindow(w)) {
        out.push_back(client->window);
      }
    }
    return out;
  };
  ASSERT_EQ(order(), (std::vector<xproto::WindowId>{a->window(), b->window(),
                                                    c->window()}));
  wm_->ExecuteCommandString("f.circleUp", 0);  // Lowest (a) goes to top.
  EXPECT_EQ(order(), (std::vector<xproto::WindowId>{b->window(), c->window(),
                                                    a->window()}));
  wm_->ExecuteCommandString("f.circleDown", 0);  // Topmost (a) goes back down.
  EXPECT_EQ(order(), (std::vector<xproto::WindowId>{a->window(), b->window(),
                                                    c->window()}));
}

TEST_F(SwmTest, ClientIconWindowIsReparentedIntoIcon) {
  // §4.1.2: "or has specified its own icon window, that image is displayed
  // in the iconimage button."
  StartWm();
  xlib::ClientAppConfig config;
  config.name = "fancy";
  config.wm_class = {"fancy", "Fancy"};
  xlib::ClientApp app(server_.get(), config);
  xproto::WindowId icon_win =
      app.display().CreateWindow(app.display().RootWindow(0), {0, 0, 12, 6});
  app.display().SetWindowBackground(icon_win, 'I');
  xproto::WmHints hints;
  hints.flags = xproto::kIconWindowHint;
  hints.icon_window = icon_win;
  xlib::SetWmHints(&app.display(), app.window(), hints);
  app.Map();
  wm_->ProcessEvents();
  ManagedClient* client = wm_->FindClient(app.window());
  wm_->Iconify(client);
  wm_->ProcessEvents();

  ASSERT_TRUE(client->uses_icon_window);
  oi::Object* slot = client->icon->FindDescendant("iconimage");
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(server_->QueryTree(icon_win)->parent, slot->window());
  EXPECT_TRUE(server_->IsViewable(icon_win));
  // The slot adopted the icon window's size.
  EXPECT_EQ(slot->geometry().size(), (xbase::Size{12, 6}));

  // Unmanaging returns the icon window to the client on the root.
  app.display().DestroyWindow(app.window());
  wm_->ProcessEvents();
  ASSERT_TRUE(server_->WindowExists(icon_win));
  EXPECT_EQ(server_->QueryTree(icon_win)->parent, server_->RootWindow(0));
}

TEST_F(SwmTest, DragIntoPannerDropsAtMiniaturePosition) {
  // §6.1's reverse flow: a move started on the client window, finished
  // inside the panner, drops the window anywhere on the desktop.
  StartWm(
      "swm*virtualDesktop: 800x400\n"
      "swm*panner: True\n"
      "swm*pannerScale: 10\n"
      "Swm*button.name.bindings: <Btn1> : f.move\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"}, {0, 0, 40, 12});
  ManagedClient* client = Managed(*app);
  swm::Panner* panner = wm_->panner(0);
  ASSERT_NE(panner, nullptr);

  // Start the move on the title button...
  xbase::Point title = ObjectRootPos(client->name_object);
  server_->SimulateMotion({title.x + 1, title.y + 1});
  wm_->ProcessEvents();
  server_->SimulateButton(1, true);
  wm_->ProcessEvents();
  // ...drag into the panner and release at cell (50, 25).
  xbase::Point porigin = server_->RootPosition(panner->window());
  server_->SimulateMotion({porigin.x + 50, porigin.y + 25});
  wm_->ProcessEvents();
  server_->SimulateButton(1, false);
  wm_->ProcessEvents();

  EXPECT_EQ(client->FrameGeometry().origin(), (xbase::Point{500, 250}));
}

TEST_F(SwmTest, BorderWidthAttribute) {
  StartWm("Swm*button.name.borderWidth: 2\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  const xserver::WindowRec* rec =
      xserver::ServerTestPeer::FindWindow(*server_, Managed(*app)->name_object->window());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->border_width, 2);
}

TEST_F(SwmTest, IconHolderScrolls) {
  StartWm(
      "swm*iconHolders: box\n"
      "swm*iconHolder.box.geometry: 46x20+100+4\n");
  swm::IconHolder* box = wm_->icon_holders(0)[0];
  auto a = Spawn("a", {"a", "A"});
  auto b = Spawn("b", {"b", "B"});
  wm_->Iconify(Managed(*a));
  wm_->Iconify(Managed(*b));
  wm_->ProcessEvents();
  // Two xlogo icons stacked: content much taller than the 20-cell holder.
  ASSERT_GT(box->content_height(), 20);
  int a_y = Managed(*a)->icon->geometry().y;
  box->ScrollBy(15);
  EXPECT_EQ(box->scroll_offset(), 15);
  EXPECT_EQ(Managed(*a)->icon->geometry().y, a_y - 15);
  // Clamped at the content bottom and at zero.
  box->ScrollBy(100000);
  EXPECT_EQ(box->scroll_offset(), box->content_height() - 20);
  box->ScrollBy(-100000);
  EXPECT_EQ(box->scroll_offset(), 0);
}

}  // namespace
}  // namespace swm_test
