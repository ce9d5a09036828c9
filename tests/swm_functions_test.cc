// Window manager functions, invocation modes, bindings and swmcmd
// (paper §4.4, §4.5).
#include "src/swm/swmcmd.h"
#include "src/xlib/icccm.h"
#include "tests/server_test_peer.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using swm::ManagedClient;

class FunctionsTest : public SwmTest {
 protected:
  // Executes a function the way a binding dispatch would, with no object
  // context (swmcmd-style) unless one is given.
  void Execute(const std::string& command) {
    ASSERT_TRUE(wm_->ExecuteCommandString(command, 0));
    wm_->ProcessEvents();
  }

  // Stacking order of top-level frames (bottom first).
  std::vector<xproto::WindowId> FrameOrder(xproto::WindowId parent) {
    return server_->QueryTree(parent)->children;
  }
};

TEST_F(FunctionsTest, RaiseAndLowerByClass) {
  StartWm();
  auto a = Spawn("alpha", {"alpha", "Alpha"});
  auto b = Spawn("beta", {"beta", "Beta"});
  xproto::WindowId root = server_->RootWindow(0);
  xproto::WindowId frame_a = Managed(*a)->frame->window();
  xproto::WindowId frame_b = Managed(*b)->frame->window();

  auto order = FrameOrder(root);
  EXPECT_LT(std::find(order.begin(), order.end(), frame_a),
            std::find(order.begin(), order.end(), frame_b));

  Execute("f.raise(Alpha)");
  order = FrameOrder(root);
  EXPECT_GT(std::find(order.begin(), order.end(), frame_a),
            std::find(order.begin(), order.end(), frame_b));

  Execute("f.lower(Alpha)");
  order = FrameOrder(root);
  EXPECT_LT(std::find(order.begin(), order.end(), frame_a),
            std::find(order.begin(), order.end(), frame_b));
}

TEST_F(FunctionsTest, IconifyByWindowId) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  char command[64];
  std::snprintf(command, sizeof(command), "f.iconify(#0x%x)", app->window());
  Execute(command);
  EXPECT_EQ(Managed(*app)->state, xproto::WmState::kIconic);
  // f.iconify toggles (paper's templates bind it on icons to restore).
  Execute(command);
  EXPECT_EQ(Managed(*app)->state, xproto::WmState::kNormal);
}

TEST_F(FunctionsTest, IconifyUnderPointer) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  // Park the pointer over the client window.
  xbase::Point pos = server_->RootPosition(app->window());
  server_->SimulateMotion({pos.x + 2, pos.y + 2});
  Execute("f.iconify(#$)");
  EXPECT_EQ(client->state, xproto::WmState::kIconic);
}

TEST_F(FunctionsTest, ClassMatchAppliesToAllInstances) {
  StartWm();
  auto a = Spawn("xterm1", {"xterm", "XTerm"});
  auto b = Spawn("xterm2", {"xterm", "XTerm"});
  auto c = Spawn("xclock", {"xclock", "XClock"});
  Execute("f.iconify(XTerm)");
  EXPECT_EQ(Managed(*a)->state, xproto::WmState::kIconic);
  EXPECT_EQ(Managed(*b)->state, xproto::WmState::kIconic);
  EXPECT_EQ(Managed(*c)->state, xproto::WmState::kNormal);
}

TEST_F(FunctionsTest, UnknownWindowIdIsDiagnosedNotFatal) {
  StartWm();
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  Execute("f.raise(#0xdead)");
  Execute("f.raise(#0xzz)");
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
}

TEST_F(FunctionsTest, MalformedSwmcmdRejected) {
  StartWm();
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  EXPECT_FALSE(wm_->ExecuteCommandString("not a function", 0));
  EXPECT_FALSE(wm_->ExecuteCommandString("", 0));
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
}

TEST_F(FunctionsTest, SwmcmdPropertyChannel) {
  // The actual §4.5 protocol: a client writes SWM_COMMAND on the root.
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  xlib::Display shell(server_.get(), "shellhost");
  ASSERT_TRUE(swm::SendSwmCommand(&shell, 0, "f.iconify(XTerm)"));
  wm_->ProcessEvents();
  EXPECT_EQ(Managed(*app)->state, xproto::WmState::kIconic);
  // The property is consumed.
  EXPECT_FALSE(shell.GetStringProperty(shell.RootWindow(0), "SWM_COMMAND").has_value());
}

TEST_F(FunctionsTest, SwmcmdPartialWriteIsBufferedUntilNewline) {
  // A shell that lands mid-line (partial write, no trailing newline) must not
  // have its fragment executed or dropped: swm buffers it until the newline
  // arrives, then runs the reassembled command.
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  xlib::Display shell(server_.get(), "shellhost");
  xproto::WindowId root = shell.RootWindow(0);

  shell.SetStringProperty(root, "SWM_COMMAND", "f.iconify");
  wm_->ProcessEvents();
  EXPECT_EQ(Managed(*app)->state, xproto::WmState::kNormal)
      << "fragment without newline must not execute";
  // The property is still consumed (the fragment now lives in swm's buffer).
  EXPECT_FALSE(shell.GetStringProperty(root, "SWM_COMMAND").has_value());

  shell.SetStringProperty(root, "SWM_COMMAND", "(XTerm)\n");
  wm_->ProcessEvents();
  EXPECT_EQ(Managed(*app)->state, xproto::WmState::kIconic)
      << "completed line runs as one command";
}

TEST_F(FunctionsTest, SwmcmdWithoutTargetPromptsLikeThePaper) {
  // "swmcmd f.raise — the pointer would be changed to a question mark
  // prompting you to select a window to be raised."
  StartWm();
  auto a = Spawn("alpha", {"alpha", "Alpha"});
  auto b = Spawn("beta", {"beta", "Beta"});
  xlib::Display shell(server_.get(), "shellhost");
  swm::SendSwmCommand(&shell, 0, "f.raise");
  wm_->ProcessEvents();
  EXPECT_TRUE(wm_->awaiting_target());
  EXPECT_EQ(xserver::ServerTestPeer::FindWindow(*server_, server_->RootWindow(0))->cursor_name,
            "question_arrow");

  // Click on alpha's frame: it gets raised, prompt ends.
  xbase::Point pos = server_->RootPosition(a->window());
  Click({pos.x + 1, pos.y + 1});
  EXPECT_FALSE(wm_->awaiting_target());
  auto order = FrameOrder(server_->RootWindow(0));
  xproto::WindowId frame_a = Managed(*a)->frame->window();
  xproto::WindowId frame_b = Managed(*b)->frame->window();
  EXPECT_GT(std::find(order.begin(), order.end(), frame_a),
            std::find(order.begin(), order.end(), frame_b));
}

TEST_F(FunctionsTest, MultipleModePromptsUntilRootClick) {
  StartWm();
  auto a = Spawn("alpha", {"alpha", "Alpha"});
  auto b = Spawn("beta", {"beta", "Beta"});
  Execute("f.iconify(multiple)");
  EXPECT_TRUE(wm_->awaiting_target());

  xbase::Point pa = server_->RootPosition(a->window());
  Click({pa.x + 1, pa.y + 1});
  EXPECT_TRUE(wm_->awaiting_target());  // Still armed.
  EXPECT_EQ(Managed(*a)->state, xproto::WmState::kIconic);

  xbase::Point pb = server_->RootPosition(b->window());
  Click({pb.x + 1, pb.y + 1});
  EXPECT_EQ(Managed(*b)->state, xproto::WmState::kIconic);

  Click({199, 99});  // Root click terminates.
  EXPECT_FALSE(wm_->awaiting_target());
}

TEST_F(FunctionsTest, BindingOnTitleButtonRaises) {
  StartWm();
  auto a = Spawn("alpha", {"alpha", "Alpha"});
  auto b = Spawn("beta", {"beta", "Beta"});
  wm_->LowerClient(Managed(*a));
  // Click button 1 on alpha's name button -> template binding f.raise.
  oi::Object* name = Managed(*a)->name_object;
  xbase::Point pos = ObjectRootPos(name);
  Click({pos.x + 1, pos.y + 1});
  auto order = FrameOrder(server_->RootWindow(0));
  xproto::WindowId frame_a = Managed(*a)->frame->window();
  xproto::WindowId frame_b = Managed(*b)->frame->window();
  EXPECT_GT(std::find(order.begin(), order.end(), frame_a),
            std::find(order.begin(), order.end(), frame_b));
}

TEST_F(FunctionsTest, SaveZoomRestoreCycle) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"}, {0, 0, 40, 12});
  ManagedClient* client = Managed(*app);
  xbase::Rect original = client->FrameGeometry();

  // The openlook template binds Btn2 on the name button to "f.save f.zoom".
  xbase::Point pos = ObjectRootPos(client->name_object);
  Click({pos.x + 1, pos.y + 1}, 2);
  xbase::Rect zoomed = client->FrameGeometry();
  EXPECT_EQ(zoomed.size(),
            (xbase::Size{200, 100}));  // Full screen including decoration.
  EXPECT_NE(zoomed, original);

  Execute("f.restore(XTerm)");
  EXPECT_EQ(client->FrameGeometry(), original);
}

TEST_F(FunctionsTest, InteractiveMoveDrag) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  xbase::Rect before = client->FrameGeometry();

  // Btn3 on the name button starts f.move (openlook template).
  xbase::Point pos = ObjectRootPos(client->name_object);
  server_->SimulateMotion({pos.x + 1, pos.y + 1});
  wm_->ProcessEvents();
  server_->SimulateButton(3, true);
  wm_->ProcessEvents();
  server_->SimulateMotion({pos.x + 31, pos.y + 16});
  wm_->ProcessEvents();
  server_->SimulateButton(3, false);
  wm_->ProcessEvents();

  xbase::Rect after = client->FrameGeometry();
  EXPECT_EQ(after.x - before.x, 30);
  EXPECT_EQ(after.y - before.y, 15);
  EXPECT_EQ(after.size(), before.size());
}

TEST_F(FunctionsTest, InteractiveResizeDrag) {
  // Bind Btn1 on the nail button to f.resize and drive a real drag.
  StartWm("Swm*button.nail.bindings: <Btn1> : f.resize\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"}, {0, 0, 40, 12});
  ManagedClient* client = Managed(*app);
  oi::Object* nail = client->frame->FindDescendant("nail");
  ASSERT_NE(nail, nullptr);
  xbase::Point pos = ObjectRootPos(nail);

  server_->SimulateMotion({pos.x + 1, pos.y + 1});
  wm_->ProcessEvents();
  server_->SimulateButton(1, true);
  wm_->ProcessEvents();
  server_->SimulateMotion({pos.x + 21, pos.y + 9});  // +20, +8.
  wm_->ProcessEvents();
  server_->SimulateButton(1, false);
  wm_->ProcessEvents();
  EXPECT_EQ(server_->GetGeometry(app->window())->size(), (xbase::Size{60, 20}));
}

TEST_F(FunctionsTest, WarpVerticalMovesPointer) {
  StartWm();
  server_->SimulateMotion({100, 50});
  Execute("f.warpVertical(-20)");
  EXPECT_EQ(server_->QueryPointer().root_pos, (xbase::Point{100, 30}));
  Execute("f.warpHorizontal(15)");
  EXPECT_EQ(server_->QueryPointer().root_pos, (xbase::Point{115, 30}));
}

TEST_F(FunctionsTest, KeyBindingWarpsPointer) {
  // "<Key>Up : f.warpVertical(-50)" from the template, with the pointer
  // over the name button (paper §4.4 example).
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  xbase::Point pos = ObjectRootPos(Managed(*app)->name_object);
  server_->SimulateMotion({pos.x + 1, pos.y + 1});
  wm_->ProcessEvents();
  xbase::Point before = server_->QueryPointer().root_pos;
  server_->SimulateKey(xtb::InternKeySym("Up"), true);
  wm_->ProcessEvents();
  EXPECT_EQ(server_->QueryPointer().root_pos.y, before.y - 50);
}

TEST_F(FunctionsTest, DeleteSendsProtocolMessageWhenSupported) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  xlib::SetWmProtocols(&app->display(), app->window(), {"WM_DELETE_WINDOW"});
  Execute("f.delete(XTerm)");
  app->ProcessEvents();
  EXPECT_TRUE(app->saw_delete_window());
  EXPECT_TRUE(server_->WindowExists(app->window()));  // Politeness: not killed.
}

TEST_F(FunctionsTest, DeleteDestroysWithoutProtocol) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  Execute("f.delete(XTerm)");
  EXPECT_FALSE(server_->WindowExists(app->window()));
  EXPECT_EQ(wm_->ClientCount(), 0u);
}

TEST_F(FunctionsTest, QuitRestartFlagsAndExec) {
  StartWm();
  EXPECT_FALSE(wm_->quit_requested());
  Execute("f.exec(xterm)");
  EXPECT_EQ(wm_->executed_commands(), (std::vector<std::string>{"xterm"}));
  Execute("f.restart");
  EXPECT_TRUE(wm_->restart_requested());
  Execute("f.quit");
  EXPECT_TRUE(wm_->quit_requested());
}

TEST_F(FunctionsTest, RuntimePutIsLiveAndRestartRevertsIt) {
  StartWm("swm*button.name.myMarker: from-user\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  oi::Object* name = Managed(*app)->name_object;
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->Attribute("myMarker"), "from-user");
  // A runtime Put (the swmcmd configuration channel) is visible on the
  // very next query: the toolkit's search lists are rebuilt when the
  // database generation moves, which the Put does.
  wm_->mutable_resources().Put("swm*button.name.myMarker", "runtime");
  EXPECT_EQ(name->Attribute("myMarker"), "runtime");
  // f.restart rebuilds the database from template + user resources once
  // dispatch settles; runtime Puts do not survive the reload.
  Execute("f.restart");
  oi::Object* reloaded = Managed(*app)->name_object;
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->Attribute("myMarker"), "from-user");
}

TEST_F(FunctionsTest, RestartReloadRedecoratesFromTemplate) {
  // A template attribute overridden at runtime (the f.setButtonLabel
  // route writes resources too) snaps back after the f.restart reload,
  // and the frame re-renders from the fresh values.
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  oi::Object* name = Managed(*app)->name_object;
  ASSERT_NE(name, nullptr);
  std::optional<std::string> original = name->Attribute("bindings");
  wm_->mutable_resources().Put("swm*button.name.bindings", "<Btn3> : f.lower");
  std::optional<std::string> overridden = name->Attribute("bindings");
  EXPECT_EQ(overridden, "<Btn3> : f.lower");
  Execute("f.restart");
  EXPECT_EQ(Managed(*app)->name_object->Attribute("bindings"), original);
}

TEST_F(FunctionsTest, MenuPopupAndItemExecution) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);

  // Btn1 on the pulldown button pops up the window menu.
  oi::Object* pulldown = client->frame->FindDescendant("pulldown");
  ASSERT_NE(pulldown, nullptr);
  xbase::Point pos = ObjectRootPos(pulldown);
  Click({pos.x + 1, pos.y + 1});

  // The menu is up; find its Close (f.iconify) item and click it.
  oi::Object* item = wm_->toolkit(0).FindObject(
      server_->QueryPointer().window);  // (not the item; search via registry)
  (void)item;
  // Locate the wmIconify item through the toolkit registry by label.
  oi::Object* found = nullptr;
  for (xproto::WindowId wid : AllWindows()) {
    oi::Object* candidate = wm_->toolkit(0).FindObject(wid);
    if (candidate != nullptr && candidate->type() == oi::ObjectType::kButton &&
        static_cast<oi::Button*>(candidate)->label() == "Close" &&
        server_->IsViewable(candidate->window())) {
      found = candidate;
      break;
    }
  }
  ASSERT_NE(found, nullptr) << "window menu did not pop up";
  xbase::Point item_pos = ObjectRootPos(found);
  Click({item_pos.x + 1, item_pos.y + 1});

  // The menu item acted on the client the menu was popped up for.
  EXPECT_EQ(client->state, xproto::WmState::kIconic);
  // And the menu popped down.
  EXPECT_FALSE(server_->IsViewable(found->window()));
}

TEST_F(FunctionsTest, DynamicButtonLabelFunction) {
  // §4.2: buttons change appearance via window manager functions.
  StartWm(
      "Swm*button.nail.bindings: <Btn1> : f.setButtonLabel(STUCK)\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  oi::Object* nail = Managed(*app)->frame->FindDescendant("nail");
  ASSERT_NE(nail, nullptr);
  xbase::Point pos = ObjectRootPos(nail);
  Click({pos.x + 1, pos.y + 1});
  EXPECT_EQ(static_cast<oi::Button*>(nail)->label(), "STUCK");
}

TEST_F(FunctionsTest, RefreshRedrawsEverything) {
  StartWm("swm*rootPanels: RootPanel\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  Execute("f.refresh");  // Mostly: must not crash and keeps draw lists.
  EXPECT_FALSE(
      xserver::ServerTestPeer::FindWindow(*server_, Managed(*app)->name_object->window())
          ->draw_ops.empty());

  // A popped-up menu is on screen too.
  server_->SimulateMotion({120, 60});
  Execute("f.menu(windowMenu)");
  oi::Object* quit = nullptr;
  oi::Object* menu_item = nullptr;
  for (xproto::WindowId wid : AllWindows()) {
    oi::Object* candidate = wm_->toolkit(0).FindObject(wid);
    if (candidate == nullptr) {
      continue;
    }
    if (candidate->name() == "quit") {
      quit = candidate;
    }
    if (candidate->type() == oi::ObjectType::kButton &&
        static_cast<oi::Button*>(candidate)->label() == "Close" &&
        server_->IsViewable(candidate->window())) {
      menu_item = candidate;
    }
  }
  ASSERT_NE(quit, nullptr);
  ASSERT_NE(menu_item, nullptr) << "window menu did not pop up";
  const std::string before = server_->RenderScreen(0).ToString();

  // A foreign client wipes a decoration button, a root panel button and a
  // menu item, each visibly; f.refresh must bring every one of them back.
  xlib::Display vandal(server_.get(), "vandal");
  std::string shown = before;
  for (oi::Object* victim : {Managed(*app)->name_object, quit, menu_item}) {
    ASSERT_TRUE(vandal.ClearWindow(victim->window()));
    std::string cleared = server_->RenderScreen(0).ToString();
    ASSERT_NE(cleared, shown) << victim->name();
    shown = cleared;
  }
  Execute("f.refresh");
  EXPECT_EQ(server_->RenderScreen(0).ToString(), before);
}

TEST_F(FunctionsTest, PlacesWritesXinitrcReplacement) {
  StartWm();
  auto app = Spawn("oclock", {"oclock", "Clock"}, {0, 0, 20, 20});
  Execute("f.places");
  const std::string& places = wm_->last_places();
  EXPECT_NE(places.find("swmhints"), std::string::npos);
  EXPECT_NE(places.find("oclock &"), std::string::npos);
  EXPECT_NE(places.find("exec swm"), std::string::npos);
}

TEST_F(FunctionsTest, AutoRaisePolicyFromEnterBindings) {
  // The paper's thesis: policies are data.  An auto-raise ("focus follows
  // mouse") policy needs nothing but an <Enter> binding on the decoration.
  StartWm(
      "Swm*panel.openLook.bindings: <Enter> : f.raise f.focus\n");
  auto a = Spawn("alpha", {"alpha", "Alpha"});
  auto b = Spawn("beta", {"beta", "Beta"});
  // Separate them so entering one is unambiguous.
  wm_->MoveFrameTo(Managed(*a), {10, 10});
  wm_->MoveFrameTo(Managed(*b), {100, 50});
  wm_->ProcessEvents();
  wm_->LowerClient(Managed(*a));

  // Move the pointer onto alpha's decoration surface itself (the title-row
  // gap between the pulldown and name buttons, where the frame panel is the
  // deepest window).
  xbase::Rect frame_a = Managed(*a)->FrameGeometry();
  oi::Object* pulldown = Managed(*a)->frame->FindDescendant("pulldown");
  ASSERT_NE(pulldown, nullptr);
  server_->SimulateMotion(
      {frame_a.x + pulldown->geometry().Right() + 1, frame_a.y + 1});
  ASSERT_EQ(server_->QueryPointer().window, Managed(*a)->frame->window());
  wm_->ProcessEvents();

  auto order = FrameOrder(server_->RootWindow(0));
  xproto::WindowId fa = Managed(*a)->frame->window();
  xproto::WindowId fb = Managed(*b)->frame->window();
  EXPECT_GT(std::find(order.begin(), order.end(), fa),
            std::find(order.begin(), order.end(), fb));
  EXPECT_EQ(server_->GetInputFocus(), a->window());
}

TEST_F(FunctionsTest, MotionBindingFires) {
  StartWm("Swm*button.name.bindings: <Motion> : f.exec(moved)\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  // Motion events need a selection: objects don't select PointerMotion by
  // default, so drive it through an automatic grab (press first).
  oi::Object* name = Managed(*app)->name_object;
  xbase::Point pos = ObjectRootPos(name);
  server_->SimulateMotion({pos.x + 1, pos.y + 1});
  wm_->ProcessEvents();
  server_->SimulateButton(1, true);
  wm_->ProcessEvents();
  server_->SimulateMotion({pos.x + 2, pos.y + 1});
  wm_->ProcessEvents();
  server_->SimulateButton(1, false);
  wm_->ProcessEvents();
  EXPECT_EQ(wm_->executed_commands(), (std::vector<std::string>{"moved"}));
}

TEST_F(FunctionsTest, UnknownFunctionIsDiagnosed) {
  StartWm();
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  int errors_before = xbase::LogErrorCount();
  Execute("f.fly");
  EXPECT_GT(xbase::LogErrorCount(), errors_before);
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
}

}  // namespace
}  // namespace swm_test
