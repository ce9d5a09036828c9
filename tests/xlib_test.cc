#include <gtest/gtest.h>

#include "src/xlib/client_app.h"
#include "src/xlib/display.h"
#include "src/xlib/icccm.h"
#include "src/xserver/server.h"

namespace xlib {
namespace {

class XlibTest : public ::testing::Test {
 protected:
  XlibTest() : server_({xserver::ScreenConfig{300, 200, false}}), dpy_(&server_, "hostX") {
    win_ = dpy_.CreateWindow(dpy_.RootWindow(0), {10, 10, 50, 40});
  }

  xserver::Server server_;
  Display dpy_;
  xproto::WindowId win_ = xproto::kNone;
};

TEST_F(XlibTest, ConnectionLifecycle) {
  EXPECT_TRUE(server_.HasClient(dpy_.client_id()));
  EXPECT_EQ(dpy_.client_machine(), "hostX");
  {
    Display temp(&server_, "temp");
    EXPECT_TRUE(server_.HasClient(temp.client_id()));
    xproto::ClientId id = temp.client_id();
    (void)id;
  }
  // Destructor disconnects.
  EXPECT_EQ(server_.ClientMachine(3), "");
}

TEST_F(XlibTest, OwnsIdCoversOnlyTheConnectionsOwnRange) {
  Display other(&server_, "other");
  xproto::WindowId theirs = other.CreateWindow(other.RootWindow(0), {0, 0, 5, 5});
  EXPECT_TRUE(dpy_.OwnsId(win_));
  EXPECT_FALSE(dpy_.OwnsId(theirs));
  EXPECT_TRUE(other.OwnsId(theirs));
  EXPECT_FALSE(other.OwnsId(win_));
  EXPECT_FALSE(dpy_.OwnsId(dpy_.RootWindow(0)));  // Slot 0 is the server's.
}

TEST_F(XlibTest, TypedStringProperty) {
  EXPECT_TRUE(dpy_.SetStringProperty(win_, "MY_PROP", "value"));
  EXPECT_EQ(dpy_.GetStringProperty(win_, "MY_PROP"), "value");
  EXPECT_FALSE(dpy_.GetStringProperty(win_, "NO_SUCH").has_value());
  dpy_.AppendStringProperty(win_, "MY_PROP", "+more");
  EXPECT_EQ(dpy_.GetStringProperty(win_, "MY_PROP"), "value+more");
}

TEST_F(XlibTest, CardinalAndWindowProperties) {
  dpy_.SetCardinalProperty(win_, "NUMS", {1, 2, 70000});
  EXPECT_EQ(dpy_.GetCardinalProperty(win_, "NUMS"),
            (std::vector<uint32_t>{1, 2, 70000}));
  dpy_.SetWindowIdProperty(win_, "TARGET", win_);
  EXPECT_EQ(dpy_.GetWindowIdProperty(win_, "TARGET"), win_);
}

TEST_F(XlibTest, WmNameAndIconName) {
  SetWmName(&dpy_, win_, "my window");
  EXPECT_EQ(GetWmName(&dpy_, win_), "my window");
  SetWmIconName(&dpy_, win_, "mini");
  EXPECT_EQ(GetWmIconName(&dpy_, win_), "mini");
}

TEST_F(XlibTest, WmClassRoundTrip) {
  SetWmClass(&dpy_, win_, {"xclock", "XClock"});
  auto wm_class = GetWmClass(&dpy_, win_);
  ASSERT_TRUE(wm_class.has_value());
  EXPECT_EQ(wm_class->instance, "xclock");
  EXPECT_EQ(wm_class->clazz, "XClock");
}

TEST_F(XlibTest, WmCommandRoundTrip) {
  std::vector<std::string> argv{"oclock", "-geom", "100x100"};
  SetWmCommand(&dpy_, win_, argv);
  EXPECT_EQ(GetWmCommand(&dpy_, win_), argv);
}

TEST_F(XlibTest, WmClientMachine) {
  SetWmClientMachine(&dpy_, win_, "remotehost");
  EXPECT_EQ(GetWmClientMachine(&dpy_, win_), "remotehost");
}

TEST_F(XlibTest, NormalHintsRoundTrip) {
  xproto::SizeHints hints;
  hints.flags = xproto::kUSPosition | xproto::kPSize | xproto::kPMinSize;
  hints.x = -5;
  hints.y = 1200;
  hints.width = 300;
  hints.height = 200;
  hints.min_width = 50;
  hints.min_height = 40;
  SetWmNormalHints(&dpy_, win_, hints);
  auto read = GetWmNormalHints(&dpy_, win_);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, hints);
  EXPECT_TRUE(read->HasUserPosition());
  EXPECT_FALSE(read->HasProgramPosition());
}

TEST_F(XlibTest, WmHintsRoundTrip) {
  xproto::WmHints hints;
  hints.flags = xproto::kStateHint | xproto::kIconPositionHint | xproto::kIconPixmapHint;
  hints.initial_state = xproto::WmState::kIconic;
  hints.icon_position = {12, -3};
  hints.icon_pixmap_name = "xlogo";
  SetWmHints(&dpy_, win_, hints);
  auto read = GetWmHints(&dpy_, win_);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, hints);
}

TEST_F(XlibTest, WmStateRoundTrip) {
  SetWmState(&dpy_, win_, xproto::WmState::kIconic, 77);
  auto state = GetWmState(&dpy_, win_);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->state, xproto::WmState::kIconic);
  EXPECT_EQ(state->icon_window, 77u);
}

TEST_F(XlibTest, WmProtocolsRoundTrip) {
  SetWmProtocols(&dpy_, win_, {"WM_DELETE_WINDOW", "WM_TAKE_FOCUS"});
  auto protocols = GetWmProtocols(&dpy_, win_);
  ASSERT_TRUE(protocols.has_value());
  EXPECT_EQ(*protocols,
            (std::vector<std::string>{"WM_DELETE_WINDOW", "WM_TAKE_FOCUS"}));
}

TEST_F(XlibTest, SizeHintConstraints) {
  xproto::SizeHints hints;
  hints.flags = xproto::kPMinSize | xproto::kPMaxSize | xproto::kPResizeInc;
  hints.min_width = 20;
  hints.min_height = 10;
  hints.max_width = 100;
  hints.max_height = 60;
  hints.width_inc = 7;
  hints.height_inc = 5;
  EXPECT_EQ(hints.Constrain({5, 5}), (xbase::Size{20, 10}));
  EXPECT_EQ(hints.Constrain({500, 500}), (xbase::Size{97, 60}));
  // 50 = 20 + 4*7 + 2 -> snaps down to 48; 33 = 10 + 4*5 + 3 -> 30.
  EXPECT_EQ(hints.Constrain({50, 33}), (xbase::Size{48, 30}));
}

TEST_F(XlibTest, RequestIconifyReachesRedirectHolder) {
  Display wm(&server_, "wm");
  ASSERT_TRUE(wm.SelectInput(wm.RootWindow(0), xproto::kSubstructureRedirectMask));
  RequestIconify(&dpy_, win_, 0);
  auto event = wm.NextEvent();
  ASSERT_TRUE(event.has_value());
  auto* message = std::get_if<xproto::ClientMessageEvent>(&*event);
  ASSERT_NE(message, nullptr);
  EXPECT_EQ(message->window, win_);
  EXPECT_EQ(message->data[0], static_cast<uint32_t>(xproto::WmState::kIconic));
}

TEST_F(XlibTest, SyntheticConfigureNotify) {
  dpy_.SelectInput(win_, xproto::kStructureNotifyMask);
  Display wm(&server_, "wm");
  SendSyntheticConfigureNotify(&wm, win_, {500, 600, 50, 40});
  auto event = dpy_.NextEvent();
  ASSERT_TRUE(event.has_value());
  auto* configure = std::get_if<xproto::ConfigureNotifyEvent>(&*event);
  ASSERT_NE(configure, nullptr);
  EXPECT_TRUE(configure->synthetic);
  EXPECT_EQ(configure->geometry.origin(), (xbase::Point{500, 600}));
}

TEST_F(XlibTest, ClientAppSetsAllIcccmProperties) {
  ClientAppConfig config;
  config.name = "xterm";
  config.wm_class = {"xterm", "XTerm"};
  config.command = {"xterm", "-e", "vi"};
  config.machine = "farhost";
  config.geometry = {5, 6, 80, 25};
  config.initial_state = xproto::WmState::kIconic;
  config.icon_pixmap_name = "xlogo";
  ClientApp app(&server_, config);

  Display reader(&server_, "reader");
  EXPECT_EQ(GetWmName(&reader, app.window()), "xterm");
  EXPECT_EQ(GetWmClass(&reader, app.window())->clazz, "XTerm");
  EXPECT_EQ(GetWmCommand(&reader, app.window()),
            (std::vector<std::string>{"xterm", "-e", "vi"}));
  EXPECT_EQ(GetWmClientMachine(&reader, app.window()), "farhost");
  EXPECT_EQ(GetWmHints(&reader, app.window())->initial_state, xproto::WmState::kIconic);
  EXPECT_EQ(GetWmNormalHints(&reader, app.window())->width, 80);
}

TEST_F(XlibTest, ShapedClientAppIsShaped) {
  ClientAppConfig config;
  config.name = "oclock";
  config.wm_class = {"oclock", "Clock"};
  config.geometry = {0, 0, 30, 30};
  config.shaped = true;
  ClientApp app(&server_, config);
  EXPECT_TRUE(app.display().IsShaped(app.window()));
}

TEST_F(XlibTest, ClientAppTracksSyntheticConfigure) {
  ClientApp app(&server_, ClientAppConfig{});
  app.Map();
  Display wm(&server_, "wm");
  SendSyntheticConfigureNotify(&wm, app.window(), {321, 123, 100, 100});
  app.ProcessEvents();
  EXPECT_EQ(app.believed_root_position(), (xbase::Point{321, 123}));
}

TEST_F(XlibTest, ClientAppSeesDeleteWindow) {
  ClientApp app(&server_, ClientAppConfig{});
  SetWmProtocols(&app.display(), app.window(), {"WM_DELETE_WINDOW"});
  Display wm(&server_, "wm");
  SendDeleteWindow(&wm, app.window());
  app.ProcessEvents();
  EXPECT_TRUE(app.saw_delete_window());
}

TEST_F(XlibTest, EffectiveRootForPopupsPrefersSwmRoot) {
  ClientApp app(&server_, ClientAppConfig{});
  EXPECT_EQ(app.EffectiveRootForPopups(), dpy_.RootWindow(0));
  Display wm(&server_, "wm");
  xproto::WindowId vroot = wm.CreateWindow(wm.RootWindow(0), {0, 0, 200, 200});
  wm.SetWindowIdProperty(app.window(), xproto::kAtomSwmRoot, vroot);
  EXPECT_EQ(app.EffectiveRootForPopups(), vroot);
}

}  // namespace
}  // namespace xlib
