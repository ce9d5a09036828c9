// Icons: appearance panels, placement, holders and root icons
// (paper §4.1.2–§4.1.5).
#include "src/xlib/icccm.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using swm::IconHolder;
using swm::ManagedClient;

TEST_F(SwmTest, IconifyBuildsIconAppearancePanel) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  wm_->Iconify(client);
  wm_->ProcessEvents();

  EXPECT_EQ(client->state, xproto::WmState::kIconic);
  ASSERT_NE(client->icon, nullptr);
  // The template's Xicon panel: iconimage above iconname (Fig. in §4.1.2).
  oi::Object* image = client->icon->FindDescendant("iconimage");
  oi::Object* name = client->icon->FindDescendant("iconname");
  ASSERT_NE(image, nullptr);
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(static_cast<oi::Button*>(image)->has_image());  // xlogo32 default.
  EXPECT_EQ(static_cast<oi::Button*>(name)->label(), "xterm");
  EXPECT_LT(image->geometry().y, name->geometry().y);

  // Frame and client hidden; icon viewable.
  EXPECT_FALSE(server_->IsViewable(client->frame->window()));
  EXPECT_FALSE(server_->IsViewable(app->window()));
  EXPECT_TRUE(server_->IsViewable(client->icon->window()));

  // WM_STATE records Iconic + the icon window (ICCCM).
  auto state = xlib::GetWmState(&app->display(), app->window());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->state, xproto::WmState::kIconic);
  EXPECT_EQ(state->icon_window, client->icon->window());
}

TEST_F(SwmTest, DeiconifyRestores) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  xbase::Rect geometry = client->FrameGeometry();
  wm_->Iconify(client);
  wm_->ProcessEvents();
  wm_->Deiconify(client);
  wm_->ProcessEvents();
  EXPECT_EQ(client->state, xproto::WmState::kNormal);
  EXPECT_TRUE(server_->IsViewable(app->window()));
  EXPECT_FALSE(server_->IsViewable(client->icon->window()));
  EXPECT_EQ(client->FrameGeometry(), geometry);
}

TEST_F(SwmTest, IconClickDeiconifies) {
  // Template binding: <Btn1> on iconimage/iconname -> f.deiconify; the
  // icon tree resolves to its owning client.
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  wm_->Iconify(client);
  wm_->ProcessEvents();
  oi::Object* image = client->icon->FindDescendant("iconimage");
  xbase::Point pos = ObjectRootPos(image);
  Click({pos.x + 2, pos.y + 2});
  EXPECT_EQ(client->state, xproto::WmState::kNormal);
}

TEST_F(SwmTest, InitialStateIconicFromWmHints) {
  StartWm();
  xlib::ClientAppConfig config;
  config.name = "bg";
  config.wm_class = {"bg", "Background"};
  config.initial_state = xproto::WmState::kIconic;
  xlib::ClientApp app(server_.get(), config);
  app.Map();
  wm_->ProcessEvents();
  ManagedClient* client = wm_->FindClient(app.window());
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->state, xproto::WmState::kIconic);
  EXPECT_FALSE(server_->IsViewable(app.window()));
}

TEST_F(SwmTest, IconPositionFromWmHints) {
  StartWm();
  xlib::ClientAppConfig config;
  config.name = "pinned";
  config.wm_class = {"pinned", "Pinned"};
  xlib::ClientApp app(server_.get(), config);
  xproto::WmHints hints;
  hints.flags = xproto::kIconPositionHint;
  hints.icon_position = {44, 33};
  xlib::SetWmHints(&app.display(), app.window(), hints);
  app.Map();
  wm_->ProcessEvents();
  ManagedClient* client = wm_->FindClient(app.window());
  wm_->Iconify(client);
  wm_->ProcessEvents();
  EXPECT_EQ(client->icon->geometry().origin(), (xbase::Point{44, 33}));
}

TEST_F(SwmTest, FreeIconsGetDistinctSlots) {
  StartWm();
  auto a = Spawn("a", {"a", "A"});
  auto b = Spawn("b", {"b", "B"});
  wm_->Iconify(Managed(*a));
  wm_->Iconify(Managed(*b));
  wm_->ProcessEvents();
  EXPECT_NE(Managed(*a)->icon->geometry().origin(),
            Managed(*b)->icon->geometry().origin());
}

TEST_F(SwmTest, IconPositionRememberedAcrossCycles) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  wm_->Iconify(client);
  wm_->ProcessEvents();
  // Move the icon (as a drag would), then deiconify/iconify again.
  client->icon->SetGeometry(
      xbase::Rect{70, 20, client->icon->geometry().width,
                  client->icon->geometry().height});
  wm_->Deiconify(client);
  wm_->Iconify(client);
  wm_->ProcessEvents();
  EXPECT_EQ(client->icon->geometry().origin(), (xbase::Point{70, 20}));
}

TEST_F(SwmTest, CustomIconPixmapNameUsed) {
  StartWm();
  xlib::ClientAppConfig config;
  config.name = "round";
  config.wm_class = {"round", "Round"};
  config.icon_pixmap_name = "circle";
  xlib::ClientApp app(server_.get(), config);
  app.Map();
  wm_->ProcessEvents();
  ManagedClient* client = wm_->FindClient(app.window());
  wm_->Iconify(client);
  wm_->ProcessEvents();
  auto* image = static_cast<oi::Button*>(client->icon->FindDescendant("iconimage"));
  ASSERT_TRUE(image->has_image());
  EXPECT_LE(image->PreferredSize().width, 20);  // circle(16), not xlogo(32).
}

TEST_F(SwmTest, IconNameTracksProperty) {
  StartWm();
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  wm_->Iconify(client);
  wm_->ProcessEvents();
  xlib::SetWmIconName(&app->display(), app->window(), "tiny");
  wm_->ProcessEvents();
  auto* name = static_cast<oi::Button*>(client->icon->FindDescendant("iconname"));
  EXPECT_EQ(name->label(), "tiny");
}

// ---- Icon holders ------------------------------------------------------------------

class IconHolderTest : public SwmTest {
 protected:
  static constexpr char kHolderResources[] =
      "swm*iconHolders: termBox other\n"
      "swm*iconHolder.termBox.geometry: 60x30+120+4\n"
      "swm*iconHolder.termBox.class: XTerm\n"
      "swm*iconHolder.other.geometry: 60x30+120+44\n"
      "swm*iconHolder.other.hideWhenEmpty: True\n";
};

TEST_F(IconHolderTest, HoldersCreatedFromResources) {
  StartWm(kHolderResources);
  auto holders = wm_->icon_holders(0);
  ASSERT_EQ(holders.size(), 2u);
  EXPECT_EQ(holders[0]->name(), "termBox");
  EXPECT_EQ(holders[0]->class_filter(), "XTerm");
  EXPECT_TRUE(holders[1]->hide_when_empty());
  // hideWhenEmpty holder starts hidden; the other is mapped.
  EXPECT_TRUE(server_->IsViewable(holders[0]->window()));
  EXPECT_FALSE(server_->IsViewable(holders[1]->window()));
}

TEST_F(IconHolderTest, ClassFilterRoutesIcons) {
  // §4.1.5: "group all xterm icons in one panel, and other icons in a
  // separate panel".
  StartWm(kHolderResources);
  auto term = Spawn("xterm", {"xterm", "XTerm"});
  auto clock = Spawn("xclock", {"xclock", "XClock"});
  wm_->Iconify(Managed(*term));
  wm_->Iconify(Managed(*clock));
  wm_->ProcessEvents();

  auto holders = wm_->icon_holders(0);
  EXPECT_EQ(Managed(*term)->icon_holder, holders[0]);
  EXPECT_EQ(Managed(*clock)->icon_holder, holders[1]);
  // Icons are parented inside the holders (actual icons are managed, not a
  // fixed representation like twm's icon manager).
  EXPECT_EQ(server_->QueryTree(Managed(*term)->icon->window())->parent,
            holders[0]->window());
}

TEST_F(IconHolderTest, HideWhenEmptyShowsAndHides) {
  StartWm(kHolderResources);
  auto clock = Spawn("xclock", {"xclock", "XClock"});
  IconHolder* other = wm_->icon_holders(0)[1];
  EXPECT_FALSE(server_->IsViewable(other->window()));
  wm_->Iconify(Managed(*clock));
  wm_->ProcessEvents();
  EXPECT_TRUE(server_->IsViewable(other->window()));
  wm_->Deiconify(Managed(*clock));
  wm_->ProcessEvents();
  EXPECT_FALSE(server_->IsViewable(other->window()));
}

TEST_F(IconHolderTest, IconsLayOutInRows) {
  StartWm(
      "swm*iconHolders: box\n"
      "swm*iconHolder.box.geometry: 46x90+100+4\n");
  IconHolder* box = wm_->icon_holders(0)[0];
  auto a = Spawn("a", {"a", "A"});
  auto b = Spawn("b", {"b", "B"});
  wm_->Iconify(Managed(*a));
  wm_->Iconify(Managed(*b));
  wm_->ProcessEvents();
  ASSERT_EQ(box->icons().size(), 2u);
  xbase::Rect ga = Managed(*a)->icon->geometry();
  xbase::Rect gb = Managed(*b)->icon->geometry();
  // Icons (xlogo32-based, ~34 wide) don't fit side by side in 46 cells:
  // the second wraps to a new row.
  EXPECT_EQ(ga.x, gb.x);
  EXPECT_GT(gb.y, ga.y);
  EXPECT_FALSE(ga.Intersects(gb));
}

TEST_F(IconHolderTest, SizeToFitGrowsWithIcons) {
  StartWm(
      "swm*iconHolders: fit\n"
      "swm*iconHolder.fit.geometry: 44x10+100+4\n"
      "swm*iconHolder.fit.sizeToFit: True\n");
  IconHolder* fit = wm_->icon_holders(0)[0];
  xbase::Rect before = *server_->GetGeometry(fit->window());
  auto a = Spawn("a", {"a", "A"});
  wm_->Iconify(Managed(*a));
  wm_->ProcessEvents();
  xbase::Rect after = *server_->GetGeometry(fit->window());
  EXPECT_GT(after.height, before.height);  // Grew to fit the icon.
}

TEST_F(IconHolderTest, UnmanageRemovesFromHolder) {
  StartWm(kHolderResources);
  auto term = Spawn("xterm", {"xterm", "XTerm"});
  wm_->Iconify(Managed(*term));
  wm_->ProcessEvents();
  IconHolder* box = wm_->icon_holders(0)[0];
  EXPECT_EQ(box->icons().size(), 1u);
  term->display().DestroyWindow(term->window());
  wm_->ProcessEvents();
  EXPECT_TRUE(box->icons().empty());
}

// ---- Root icons ----------------------------------------------------------------------

TEST_F(SwmTest, RootIconsCreatedFromResources) {
  // §4.1.3: icon appearance panels with no client; they cannot be
  // deiconified but have bindings.
  StartWm(
      "swm*rootIcons: trash\n"
      "swm*panel.trash: button iconimage +C+0 button iconname +C+1\n"
      "swm*rootIcon.trash.geometry: +150+60\n");
  // Rendered and mapped at the configured position.
  bool found = false;
  xbase::Canvas canvas = server_->RenderScreen(0);
  for (int y = 55; y < 75 && !found; ++y) {
    for (int x = 145; x < 180 && !found; ++x) {
      if (canvas.At(x, y) == '#') {
        found = true;  // Icon image pixels.
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SwmTest, RootIconBindingsFire) {
  StartWm(
      "swm*rootIcons: trash\n"
      "swm*panel.trash: button iconimage +C+0\n"
      "swm*rootIcon.trash.geometry: +150+60\n"
      "swm*panel.trash.button.iconimage.bindings: <Btn1> : f.exec(empty-trash)\n");
  Click({160, 65});
  EXPECT_EQ(wm_->executed_commands(),
            (std::vector<std::string>{"empty-trash"}));
}

// ---- Root panels ------------------------------------------------------------------------

TEST_F(SwmTest, RootPanelIsReparentedAndFunctional) {
  // §4.1.4 and Figure 2: root panels are treated like client windows
  // (reparented) and their buttons drive WM functions.
  StartWm("swm*rootPanels: RootPanel\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});

  // Exactly one internal managed client beyond the xterm: the root panel.
  ManagedClient* panel_client = nullptr;
  for (ManagedClient* client : wm_->Clients()) {
    if (client->is_internal) {
      panel_client = client;
    }
  }
  ASSERT_NE(panel_client, nullptr);
  EXPECT_EQ(panel_client->wm_class.clazz, "SwmRootPanel");
  EXPECT_NE(panel_client->frame, nullptr);  // Reparented like Figure 2.

  // Click its "iconify" button: prompts for a window (no current client).
  oi::Object* iconify_button = nullptr;
  for (xproto::WindowId wid : AllWindows()) {
    oi::Object* candidate = wm_->toolkit(0).FindObject(wid);
    if (candidate != nullptr && candidate->name() == "iconify") {
      iconify_button = candidate;
    }
  }
  ASSERT_NE(iconify_button, nullptr);
  xbase::Point pos = ObjectRootPos(iconify_button);
  Click({pos.x + 1, pos.y + 1});
  EXPECT_TRUE(wm_->awaiting_target());
  // Select the xterm.
  xbase::Point target = server_->RootPosition(app->window());
  Click({target.x + 1, target.y + 1});
  EXPECT_EQ(Managed(*app)->state, xproto::WmState::kIconic);
}

// The icon tree takes the client's resource prefix, sticky and shaped
// markers included, the same prefix that chose its icon panel.
TEST_F(SwmTest, IconObjectsSeeTheStickyPrefix) {
  StartWm(
      "swm*XTerm*sticky: True\n"
      "swm*sticky*XTerm*icon: stuckIcon\n"
      "swm*panel.stuckIcon: button iconimage +C+0\n"
      "swm*sticky*XTerm*myMarker: stuck\n"
      "swm*XTerm*myMarker: plain\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ManagedClient* client = Managed(*app);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->sticky);
  wm_->Iconify(client);
  wm_->ProcessEvents();
  ASSERT_NE(client->icon, nullptr);
  EXPECT_EQ(client->icon->name(), "stuckIcon");
  EXPECT_EQ(client->frame->Attribute("myMarker"), "stuck");
  EXPECT_EQ(client->icon->Attribute("myMarker"), "stuck");
  oi::Object* image = client->icon->FindDescendant("iconimage");
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(image->Attribute("myMarker"), "stuck");
}

}  // namespace
}  // namespace swm_test
