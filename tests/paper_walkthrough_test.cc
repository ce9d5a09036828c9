// Executable walkthrough of the paper, section by section: one continuous
// session exercising every §'s headline behaviour in order.  Serves as
// living documentation tying the reproduction back to the text.
#include "src/swm/swmcmd.h"
#include "src/swm/templates.h"
#include "src/xlib/icccm.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using swm::ManagedClient;

TEST_F(SwmTest, PaperWalkthrough) {
  // ---- §3 Configuration: everything through the resource database, with
  // a template included and then overridden.
  StartWm(
      "swm*template: openlook\n"
      "Swm*button.nail.label: S\n"              // User override of a template entry.
      "swm*virtualDesktop: 800x400\n"           // §6.
      "swm*panner: True\n"
      "swm*pannerScale: 10\n"
      "swm*XClock*sticky: True\n"               // §6.2 class-based stickiness.
      "swm*iconHolders: termBox\n"              // §4.1.5.
      "swm*iconHolder.termBox.geometry: 60x40+130+4\n"
      "swm*iconHolder.termBox.class: XTerm\n");

  // ---- §4.1.1 Decoration panels: an xclock gets the openLook decoration
  // with the pulldown / name / nail objects, and the user's override shows.
  auto xclock = Spawn("xclock", {"xclock", "XClock"}, {0, 0, 20, 6});
  ManagedClient* clock = Managed(*xclock);
  ASSERT_NE(clock, nullptr);
  EXPECT_EQ(clock->decoration_name, "openLook");
  EXPECT_NE(clock->frame->FindDescendant("pulldown"), nullptr);
  auto* nail = static_cast<oi::Button*>(clock->frame->FindDescendant("nail"));
  ASSERT_NE(nail, nullptr);
  EXPECT_EQ(nail->label(), "S");
  // The class-sticky resource applied: the clock is on the glass.
  EXPECT_TRUE(clock->sticky);

  // ---- §4.2 Buttons change appearance and behaviour dynamically.
  auto* name_button = static_cast<oi::Button*>(clock->name_object);
  name_button->SetLabel("it is noon");
  EXPECT_EQ(name_button->label(), "it is noon");
  name_button->SetBindings(xtb::ParseBindings("<Btn1> : f.lower").bindings);
  EXPECT_EQ(name_button->bindings()[0].functions[0].name, "f.lower");

  // ---- §4.4 Bindings + functions: a binding fires a function list.
  auto xterm = Spawn("xterm", {"xterm", "XTerm"}, {0, 0, 40, 12});
  ManagedClient* term = Managed(*xterm);
  EXPECT_FALSE(term->sticky);
  xbase::Rect before_zoom = term->FrameGeometry();
  xbase::Point title = ObjectRootPos(term->name_object);
  Click({title.x + 1, title.y + 1}, 2);  // Template: <Btn2> : f.save f.zoom.
  EXPECT_NE(term->FrameGeometry(), before_zoom);
  wm_->ExecuteCommandString("f.restore(XTerm)", 0);
  wm_->ProcessEvents();
  EXPECT_EQ(term->FrameGeometry(), before_zoom);

  // ---- §4.4.1 All five invocation modes, via §4.5's swmcmd channel.
  xlib::Display shell(server_.get(), "shellhost");
  swm::SendSwmCommand(&shell, 0, "f.iconify(XTerm)");  // Class mode.
  wm_->ProcessEvents();
  EXPECT_EQ(term->state, xproto::WmState::kIconic);
  // The xterm's icon landed in the class-filtered holder (§4.1.5).
  EXPECT_NE(term->icon_holder, nullptr);
  EXPECT_EQ(term->icon_holder->name(), "termBox");

  swm::SendSwmCommand(&shell, 0, "f.deiconify(XTerm)");
  wm_->ProcessEvents();
  EXPECT_EQ(term->state, xproto::WmState::kNormal);

  char by_id[48];
  std::snprintf(by_id, sizeof(by_id), "f.lower(#0x%x)", xterm->window());
  swm::SendSwmCommand(&shell, 0, by_id);  // Window-id mode.
  wm_->ProcessEvents();

  xbase::Point over = server_->RootPosition(xterm->window());
  server_->SimulateMotion({over.x + 1, over.y + 1});
  swm::SendSwmCommand(&shell, 0, "f.raise(#$)");  // Under-pointer mode.
  wm_->ProcessEvents();

  swm::SendSwmCommand(&shell, 0, "f.raise");  // Prompt mode.
  wm_->ProcessEvents();
  EXPECT_TRUE(wm_->awaiting_target());
  Click({over.x + 1, over.y + 1});
  EXPECT_FALSE(wm_->awaiting_target());

  // ---- §5 SHAPE: a shaped oclock arrives and gets the shaped decoration.
  xlib::ClientAppConfig oconfig;
  oconfig.name = "oclock";
  oconfig.wm_class = {"oclock", "Clock"};
  oconfig.command = {"oclock"};
  oconfig.geometry = {0, 0, 14, 14};
  oconfig.shaped = true;
  xlib::ClientApp oclock(server_.get(), oconfig);
  oclock.Map();
  wm_->ProcessEvents();
  ManagedClient* shaped = wm_->FindClient(oclock.window());
  EXPECT_EQ(shaped->decoration_name, "shapeit");
  EXPECT_TRUE(wm_->display().IsShaped(shaped->frame->window()));

  // ---- §6 The Virtual Desktop: pan; the sticky clock stays, others move.
  xbase::Point clock_screen = server_->RootPosition(xclock->window());
  xbase::Point term_desktop = term->ClientDesktopPosition();
  wm_->ExecuteCommandString("f.panTo(200, 100)", 0);
  wm_->ProcessEvents();
  EXPECT_EQ(server_->RootPosition(xclock->window()), clock_screen);
  EXPECT_EQ(term->ClientDesktopPosition(), term_desktop);

  // ---- §6.1 The panner: reparented, sticky, drives panning.
  swm::Panner* panner = wm_->panner(0);
  ASSERT_NE(panner, nullptr);
  ManagedClient* panner_client = wm_->FindClient(panner->window());
  ASSERT_NE(panner_client, nullptr);
  EXPECT_TRUE(panner_client->sticky);
  xbase::Point porigin = server_->RootPosition(panner->window());
  Click({porigin.x + 10, porigin.y + 10});
  // Clicked panner cell (10,10) = desktop (100,100), centered in the
  // 200x100 viewport: offset clamps to (0, 50).
  EXPECT_EQ(wm_->vdesk(0)->offset(), (xbase::Point{0, 50}));

  // ---- §6.3.1 The SWM_ROOT property solves popup placement.
  EXPECT_EQ(xterm->EffectiveRootForPopups(), wm_->vdesk(0)->window());
  xterm->ProcessEvents();
  EXPECT_EQ(xterm->believed_root_position(), term->ClientDesktopPosition());

  // ---- §6.3.2 USPosition absolute, PPosition viewport-relative.
  wm_->vdesk(0)->PanTo({100, 100});
  auto us_app = Spawn("usw", {"usw", "UsW"}, {300, 200, 10, 5},
                      xproto::kUSPosition | xproto::kUSSize);
  auto pp_app = Spawn("ppw", {"ppw", "PpW"}, {30, 20, 10, 5},
                      xproto::kPPosition | xproto::kPSize);
  EXPECT_EQ(Managed(*us_app)->ClientDesktopPosition(), (xbase::Point{300, 200}));
  EXPECT_EQ(Managed(*pp_app)->ClientDesktopPosition(), (xbase::Point{130, 120}));

  // ---- §7 Session management: f.places captures the whole session.
  wm_->ExecuteCommandString("f.places", 0);
  const std::string& places = wm_->last_places();
  for (const char* needle :
       {"xclock", "xterm", "oclock", "-sticky", "exec swm", "swmhints -geometry"}) {
    EXPECT_NE(places.find(needle), std::string::npos) << needle;
  }
  // The panner (internal) is not in the session file.
  EXPECT_EQ(places.find("SwmPanner"), std::string::npos);

  // ---- §8/§9: swm adapts; policy comes from data.  Switch look-and-feel
  // on a *new* WM instance over the same server state.
  us_app.reset();
  pp_app.reset();
  wm_.reset();  // Everything reparents back to the roots.
  EXPECT_EQ(server_->QueryTree(xterm->window())->parent, server_->RootWindow(0));

  swm::WindowManager::Options motif_options;
  motif_options.template_name = "motif";
  wm_ = std::make_unique<swm::WindowManager>(server_.get(), motif_options);
  ASSERT_TRUE(wm_->Start());  // Manages the surviving windows.
  ManagedClient* term_again = wm_->FindClient(xterm->window());
  ASSERT_NE(term_again, nullptr);
  EXPECT_EQ(term_again->decoration_name, "motif");
  EXPECT_NE(term_again->frame->FindDescendant("minimize"), nullptr);
}

}  // namespace
}  // namespace swm_test
