// Golden-screen tests: the decoration renderings are deterministic, so the
// paper's figures can be asserted byte-for-byte.
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

// Extracts rows [top, bottom) x cols [left, right) of the screen.
std::string Crop(const xbase::Canvas& canvas, int left, int top, int right, int bottom) {
  std::string out;
  for (int y = top; y < bottom; ++y) {
    for (int x = left; x < right; ++x) {
      out.push_back(canvas.At(x, y));
    }
    out.push_back('\n');
  }
  return out;
}

TEST_F(SwmTest, GoldenOpenLookDecoration) {
  StartWm();
  xlib::ClientAppConfig config;
  config.name = "xclock";
  config.wm_class = {"xclock", "XClock"};
  config.command = {"xclock"};
  config.geometry = {0, 0, 36, 4};
  xlib::ClientApp app(server_.get(), config);
  app.Map();
  wm_->ProcessEvents();
  swm::ManagedClient* client = wm_->FindClient(app.window());
  wm_->MoveFrameTo(client, {0, 0});
  wm_->ProcessEvents();
  wm_->RefreshAll();

  // The Figure 1 anatomy, cropped to the frame.
  const char* kGolden =
      "+---+        +--------+        +---@\n"
      "| v |        | xclock |        | @ |\n"
      "+---+        +--------+        +--+@\n"
      "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n"
      "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n"
      "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n";
  xbase::Rect frame = client->FrameGeometry();
  std::string rendered = Crop(server_->RenderScreen(0), frame.x, frame.y,
                              frame.x + frame.width, frame.y + frame.height - 1);
  // Corner handles overwrite single cells ('+' at 1x1 corners); normalize
  // by comparing with the handles' own rendering accounted for:
  // resizeUL/UR/LL/LR draw '+' at the four frame corners.
  EXPECT_EQ(rendered.size(), std::string(kGolden).size());
  int diff = 0;
  for (size_t i = 0; i < rendered.size(); ++i) {
    if (rendered[i] != kGolden[i]) {
      ++diff;
    }
  }
  EXPECT_LE(diff, 4) << rendered;  // At most the four corner cells differ.
  // Structural anchors that must match exactly.
  EXPECT_NE(rendered.find("| v |"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("| xclock |"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("| @ |"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("xxxxxxxx"), std::string::npos) << rendered;
}

TEST_F(SwmTest, GoldenRootPanelLayout) {
  StartWm("swm*rootPanels: RootPanel\n");
  // Find the root panel content tree via its buttons.
  oi::Object* quit = nullptr;
  for (xproto::WindowId wid : AllWindows()) {
    oi::Object* candidate = wm_->toolkit(0).FindObject(wid);
    if (candidate != nullptr && candidate->name() == "quit" && quit == nullptr) {
      quit = candidate;
    }
  }
  ASSERT_NE(quit, nullptr);
  // Two rows of four buttons: quit/restart/iconify/deiconify then
  // move/resize/raise/lower — verify relative geometry, Figure 2's shape.
  oi::Panel* panel = quit->parent();
  ASSERT_NE(panel, nullptr);
  auto geometry_of = [&](const std::string& name) {
    oi::Object* object = panel->FindDescendant(name);
    EXPECT_NE(object, nullptr) << name;
    return object != nullptr ? object->geometry() : xbase::Rect{};
  };
  xbase::Rect quit_g = geometry_of("quit");
  xbase::Rect restart_g = geometry_of("restart");
  xbase::Rect iconify_g = geometry_of("iconify");
  xbase::Rect deiconify_g = geometry_of("deiconify");
  xbase::Rect move_g = geometry_of("move");
  xbase::Rect lower_g = geometry_of("lower");
  // Row 0 ordering.
  EXPECT_LT(quit_g.x, restart_g.x);
  EXPECT_LT(restart_g.x, iconify_g.x);
  EXPECT_LT(iconify_g.x, deiconify_g.x);
  EXPECT_EQ(quit_g.y, deiconify_g.y);
  // Row 1 below row 0, same column starts.
  EXPECT_GT(move_g.y, quit_g.y);
  EXPECT_EQ(move_g.x, quit_g.x);
  EXPECT_EQ(lower_g.y, move_g.y);
}

TEST_F(SwmTest, GoldenShapedClientHasNoVisibleDecoration) {
  // §5: oclock "displayed without visible decoration".
  StartWm();
  xlib::ClientAppConfig config;
  config.name = "oclock";
  config.wm_class = {"oclock", "Clock"};
  config.command = {"oclock"};
  config.geometry = {0, 0, 16, 16};
  config.shaped = true;
  xlib::ClientApp oclock(server_.get(), config);
  oclock.Map();
  wm_->ProcessEvents();
  swm::ManagedClient* client = wm_->FindClient(oclock.window());
  wm_->MoveFrameTo(client, {20, 20});
  wm_->ProcessEvents();
  wm_->RefreshAll();

  xbase::Canvas canvas = server_->RenderScreen(0);
  // Inside the circle: the client's own background.
  EXPECT_EQ(canvas.At(28, 28), 'o');
  // Just outside the circle but inside the bounding box: the desktop shows
  // through — no frame pixels.
  EXPECT_EQ(canvas.At(20, 20), '.');
  EXPECT_EQ(canvas.At(35, 20), '.');
  // No titlebar row above.
  EXPECT_EQ(canvas.At(28, 18), '.');
}

TEST_F(SwmTest, GoldenMotifDecorationAnatomy) {
  StartWm("", "motif");
  auto app = Spawn("xedit", {"xedit", "XEdit"}, {0, 0, 30, 6});
  wm_->RefreshAll();
  std::string screen = server_->RenderScreen(0).ToString();
  EXPECT_NE(screen.find("| = |"), std::string::npos);   // menub
  EXPECT_NE(screen.find("| xedit |"), std::string::npos);
  EXPECT_NE(screen.find("| _ |"), std::string::npos);   // minimize
  EXPECT_NE(screen.find("| ^ |"), std::string::npos);   // maximize
}

TEST_F(SwmTest, RenderingIsDeterministic) {
  for (int round = 0; round < 2; ++round) {
    StartWm("swm*virtualDesktop: 400x200\nswm*panner: True\nswm*pannerScale: 8\n");
    auto a = Spawn("alpha", {"alpha", "Alpha"});
    auto b = Spawn("beta", {"beta", "Beta"});
    wm_->Iconify(Managed(*b));
    wm_->ExecuteCommandString("f.pan(40, 20)", 0);
    wm_->ProcessEvents();
    wm_->RefreshAll();
    static std::string first;
    std::string rendered = server_->RenderScreen(0).ToString();
    if (round == 0) {
      first = rendered;
    } else {
      EXPECT_EQ(rendered, first);
    }
    // Clients disconnect before the server dies.
    a.reset();
    b.reset();
    wm_.reset();
    server_.reset();
  }
}

}  // namespace
}  // namespace swm_test
