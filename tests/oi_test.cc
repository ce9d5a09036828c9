#include <gtest/gtest.h>

#include "src/base/logging.h"
#include "src/oi/toolkit.h"
#include "src/xserver/server.h"
#include "tests/server_test_peer.h"
#include "tests/swm_test_util.h"

namespace oi {
namespace {

// ---- Panel definition parsing --------------------------------------------------

TEST(ObjectPositionTest, ParseForms) {
  EXPECT_EQ(ParseObjectPosition("+0+0"),
            (ObjectPosition{HAlign::kLeft, 0, 0}));
  EXPECT_EQ(ParseObjectPosition("+C+0"),
            (ObjectPosition{HAlign::kCenter, 0, 0}));
  EXPECT_EQ(ParseObjectPosition("-0+0"),
            (ObjectPosition{HAlign::kRight, 0, 0}));
  EXPECT_EQ(ParseObjectPosition("+3+1"),
            (ObjectPosition{HAlign::kLeft, 3, 1}));
  EXPECT_EQ(ParseObjectPosition("-1+0"),
            (ObjectPosition{HAlign::kRight, 1, 0}));
}

TEST(ObjectPositionTest, Malformed) {
  EXPECT_FALSE(ParseObjectPosition("").has_value());
  EXPECT_FALSE(ParseObjectPosition("0+0").has_value());
  EXPECT_FALSE(ParseObjectPosition("+x+0").has_value());
  EXPECT_FALSE(ParseObjectPosition("+0+").has_value());
  EXPECT_FALSE(ParseObjectPosition("+0+0extra").has_value());
  EXPECT_FALSE(ParseObjectPosition("-C+0").has_value());  // Center can't be right-bound.
}

TEST(ObjectPositionTest, RoundTrip) {
  for (const char* text : {"+0+0", "+C+1", "-2+3", "+10+5"}) {
    auto pos = ParseObjectPosition(text);
    ASSERT_TRUE(pos.has_value()) << text;
    EXPECT_EQ(pos->ToString(), text);
  }
}

TEST(PanelDefTest, PaperOpenLookDefinition) {
  // Verbatim from the paper §4.1.1 (after resource-continuation joining).
  auto items = ParsePanelDefinition(
      "button pulldown +0+0 button name +C+0 button nail -0+0 panel client +0+1");
  ASSERT_TRUE(items.has_value());
  ASSERT_EQ(items->size(), 4u);
  EXPECT_EQ((*items)[0].type, ObjectType::kButton);
  EXPECT_EQ((*items)[0].name, "pulldown");
  EXPECT_EQ((*items)[1].position.align, HAlign::kCenter);
  EXPECT_EQ((*items)[2].position.align, HAlign::kRight);
  EXPECT_EQ((*items)[3].type, ObjectType::kPanel);
  EXPECT_EQ((*items)[3].name, "client");
  EXPECT_EQ((*items)[3].position.row, 1);
}

TEST(PanelDefTest, PaperRootPanelDefinition) {
  auto items = ParsePanelDefinition(
      "button quit +0+0 button restart +1+0 button iconify +2+0 button deiconify +3+0 "
      "button move +0+1 button resize +1+1 button raise +2+1 button lower +3+1");
  ASSERT_TRUE(items.has_value());
  EXPECT_EQ(items->size(), 8u);
  EXPECT_EQ((*items)[7].position.row, 1);
  EXPECT_EQ((*items)[7].position.column, 3);
}

TEST(PanelDefTest, Malformed) {
  EXPECT_FALSE(ParsePanelDefinition("").has_value());
  EXPECT_FALSE(ParsePanelDefinition("button foo").has_value());       // Not ×3.
  EXPECT_FALSE(ParsePanelDefinition("widget foo +0+0").has_value());  // Bad type.
  EXPECT_FALSE(ParsePanelDefinition("button foo nowhere").has_value());
}

// ---- Toolkit fixture -------------------------------------------------------------

class ToolkitTest : public ::testing::Test {
 protected:
  ToolkitTest()
      : server_({xserver::ScreenConfig{200, 100, false}}), dpy_(&server_, "wm") {
    toolkit_ = std::make_unique<Toolkit>(&dpy_, &db_, 0);
    toolkit_->SetResourcePrefix({"swm", "color", "screen0"},
                                {"Swm", "Color", "Screen0"});
  }

  std::optional<std::string> Definition(const std::string& name) {
    return db_.Get({"swm", "color", "screen0", "panel", name},
                   {"Swm", "Color", "Screen0", "Panel", name});
  }

  xserver::Server server_;
  xlib::Display dpy_;
  xrdb::ResourceDatabase db_;
  std::unique_ptr<Toolkit> toolkit_;
};

TEST_F(ToolkitTest, ButtonAttributesFromResources) {
  db_.Put("swm*button.ok.label", "OK!");
  db_.Put("swm*button.ok.background", "=");
  db_.Put("swm*button.ok.bindings", "<Btn1> : f.raise");
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "ok");
  EXPECT_EQ(button->label(), "OK!");
  ASSERT_EQ(button->bindings().size(), 1u);
  EXPECT_EQ(button->bindings()[0].functions[0].name, "f.raise");
  EXPECT_EQ(xserver::ServerTestPeer::FindWindow(server_, button->window())->background, '=');
}

TEST_F(ToolkitTest, AttributeGenericAcrossTypes) {
  // Paper §2: any object can be treated as a generic base object when
  // dealing with attributes.
  db_.Put("swm*color.screen0*myAttr", "shared");
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "b");
  auto text = toolkit_->CreateText(nullptr, dpy_.RootWindow(0), "t");
  auto panel = toolkit_->CreatePanel(nullptr, dpy_.RootWindow(0), "p");
  Object* objects[] = {button.get(), text.get(), panel.get()};
  for (Object* object : objects) {
    EXPECT_EQ(object->Attribute("myAttr"), "shared");
  }
}

TEST_F(ToolkitTest, BuildPanelTreeFromDefinition) {
  db_.Put("swm*panel.openLook",
          "button pulldown +0+0 button name +C+0 button nail -0+0 panel client +0+1");
  auto tree = toolkit_->BuildPanelTree(
      "openLook", dpy_.RootWindow(0),
      [this](const std::string& name) { return Definition(name); });
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->children().size(), 4u);
  EXPECT_NE(tree->FindDescendant("client"), nullptr);
  EXPECT_NE(tree->FindDescendant("name"), nullptr);
  EXPECT_EQ(tree->FindDescendant("client")->type(), ObjectType::kPanel);
  // Every object has its own X window under the tree root.
  EXPECT_EQ(server_.QueryTree(tree->window())->children.size(), 4u);
}

TEST_F(ToolkitTest, BuildNestedPanels) {
  db_.Put("swm*panel.outer", "panel inner +0+0 button b +0+1");
  db_.Put("swm*panel.inner", "button x +0+0 button y +1+0");
  auto tree = toolkit_->BuildPanelTree(
      "outer", dpy_.RootWindow(0),
      [this](const std::string& name) { return Definition(name); });
  ASSERT_NE(tree, nullptr);
  Object* inner = tree->FindDescendant("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(static_cast<Panel*>(inner)->children().size(), 2u);
  EXPECT_NE(tree->FindDescendant("y"), nullptr);
}

TEST_F(ToolkitTest, BuildDetectsCycles) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  db_.Put("swm*panel.a", "panel b +0+0");
  db_.Put("swm*panel.b", "panel a +0+0");
  auto tree = toolkit_->BuildPanelTree(
      "a", dpy_.RootWindow(0),
      [this](const std::string& name) { return Definition(name); });
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  ASSERT_NE(tree, nullptr);  // Cycle degrades to a plain container.
  Object* b = tree->FindDescendant("b");
  ASSERT_NE(b, nullptr);
  Object* nested_a = static_cast<Panel*>(b)->FindDescendant("a");
  // The nested 'a' stops the recursion (empty container).
  if (nested_a != nullptr) {
    EXPECT_TRUE(static_cast<Panel*>(nested_a)->children().empty());
  }
}

TEST_F(ToolkitTest, BuildMissingDefinitionFails) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  auto tree = toolkit_->BuildPanelTree(
      "nonexistent", dpy_.RootWindow(0),
      [this](const std::string& name) { return Definition(name); });
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  EXPECT_EQ(tree, nullptr);
}

TEST_F(ToolkitTest, RowLayoutLeftCenterRight) {
  db_.Put("swm*panel.bar",
          "button lft +0+0 button mid +C+0 button rgt -0+0 panel client +0+1");
  auto tree = toolkit_->BuildPanelTree(
      "bar", dpy_.RootWindow(0),
      [this](const std::string& name) { return Definition(name); });
  ASSERT_NE(tree, nullptr);
  Object* client = tree->FindDescendant("client");
  client->SetSizeOverride(xbase::Size{60, 10});
  tree->DoLayout();

  EXPECT_EQ(tree->geometry().width, 60);
  Object* lft = tree->FindDescendant("lft");
  Object* mid = tree->FindDescendant("mid");
  Object* rgt = tree->FindDescendant("rgt");
  EXPECT_EQ(lft->geometry().x, 0);
  EXPECT_EQ(rgt->geometry().Right(), 60);
  // Centered roughly in the middle.
  int mid_center = mid->geometry().x + mid->geometry().width / 2;
  EXPECT_NEAR(mid_center, 30, 2);
  // Client row sits below the title row.
  EXPECT_EQ(client->geometry().y, lft->geometry().height);
  EXPECT_EQ(tree->geometry().height, lft->geometry().height + 10);
}

TEST_F(ToolkitTest, ColumnsOrderWithinRow) {
  db_.Put("swm*panel.grid",
          "button a +0+0 button b +1+0 button c +2+0 button d +0+1 button e +1+1");
  auto tree = toolkit_->BuildPanelTree(
      "grid", dpy_.RootWindow(0),
      [this](const std::string& name) { return Definition(name); });
  tree->DoLayout();
  Object* a = tree->FindDescendant("a");
  Object* b = tree->FindDescendant("b");
  Object* c = tree->FindDescendant("c");
  Object* d = tree->FindDescendant("d");
  EXPECT_LT(a->geometry().x, b->geometry().x);
  EXPECT_LT(b->geometry().x, c->geometry().x);
  EXPECT_EQ(a->geometry().y, b->geometry().y);
  EXPECT_GT(d->geometry().y, a->geometry().y);
}

TEST_F(ToolkitTest, DynamicLabelAndImage) {
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "dyn");
  EXPECT_EQ(button->label(), "dyn");  // Defaults to the object name.
  button->SetLabel("busy");
  EXPECT_EQ(button->label(), "busy");
  EXPECT_FALSE(button->has_image());
  button->SetImage(xbase::XLogo32());
  EXPECT_TRUE(button->has_image());
  EXPECT_GT(button->PreferredSize().width, 32);
  button->ClearImage();
  EXPECT_FALSE(button->has_image());
}

TEST_F(ToolkitTest, DynamicRebinding) {
  db_.Put("swm*button.reb.bindings", "<Btn1> : f.raise");
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "reb");
  ASSERT_EQ(button->bindings().size(), 1u);
  // "buttons can not only dynamically change appearance, but they can also
  // change functionality" (§4.2).
  button->SetBindings(xtb::ParseBindings("<Btn1> : f.lower\n<Btn2> : f.zoom").bindings);
  EXPECT_EQ(button->bindings().size(), 2u);
  EXPECT_EQ(button->bindings()[0].functions[0].name, "f.lower");
}

TEST_F(ToolkitTest, DispatchButtonPressToBinding) {
  db_.Put("swm*button.hot.bindings", "<Btn1> : f.raise f.save\nShift<Btn1> : f.lower");
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "hot");
  button->SetGeometry({5, 5, 10, 3});
  button->Show();

  std::vector<std::string> calls;
  toolkit_->SetActionHandler(
      [&](const xtb::FunctionCall& fn, const ActionContext& context) {
        calls.push_back(fn.name);
        EXPECT_EQ(context.object, button.get());
      });

  server_.SimulateMotion({7, 6});
  server_.SimulateButton(1, true);
  server_.SimulateButton(1, false);
  dpy_.DrainEvents([&](const xproto::Event& event) { toolkit_->DispatchEvent(event); });
  EXPECT_EQ(calls, (std::vector<std::string>{"f.raise", "f.save"}));

  calls.clear();
  server_.SimulateButton(1, true, static_cast<uint32_t>(xproto::ModifierMask::kShift));
  server_.SimulateButton(1, false, static_cast<uint32_t>(xproto::ModifierMask::kShift));
  dpy_.DrainEvents([&](const xproto::Event& event) { toolkit_->DispatchEvent(event); });
  EXPECT_EQ(calls, (std::vector<std::string>{"f.lower"}));
}

TEST_F(ToolkitTest, DispatchKeyWithDetail) {
  db_.Put("swm*button.k.bindings", "<Key>Up : f.warpVertical(-50)");
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "k");
  button->SetGeometry({0, 0, 8, 3});
  button->Show();
  std::vector<std::string> calls;
  toolkit_->SetActionHandler(
      [&](const xtb::FunctionCall& fn, const ActionContext&) {
        calls.push_back(fn.ToString());
      });
  server_.SimulateMotion({2, 1});
  server_.SimulateKey(xtb::InternKeySym("Up"), true);
  server_.SimulateKey(xtb::InternKeySym("Down"), true);  // Unbound.
  dpy_.DrainEvents([&](const xproto::Event& event) { toolkit_->DispatchEvent(event); });
  EXPECT_EQ(calls, (std::vector<std::string>{"f.warpVertical(-50)"}));
}

TEST_F(ToolkitTest, TreePrefixEnablesSpecificResources) {
  db_.Put("swm*panel.deco", "button name +C+0 panel client +0+1");
  db_.Put("swm*button.name.label", "generic");
  db_.Put("swm*XClock*button.name.label", "clock-title");
  auto generic = toolkit_->BuildPanelTree(
      "deco", dpy_.RootWindow(0),
      [this](const std::string& name) { return Definition(name); });
  auto specific = toolkit_->BuildPanelTree(
      "deco", dpy_.RootWindow(0),
      [this](const std::string& name) { return Definition(name); },
      {"XClock", "xclock"}, {"XClock", "xclock"});
  EXPECT_EQ(static_cast<Button*>(generic->FindDescendant("name"))->label(), "generic");
  EXPECT_EQ(static_cast<Button*>(specific->FindDescendant("name"))->label(),
            "clock-title");
}

TEST_F(ToolkitTest, PanelShapeToChildren) {
  db_.Put("swm*panel.shapeit", "panel client +0+0");
  db_.Put("swm*panel.shapeit*shape", "True");
  auto tree = toolkit_->BuildPanelTree(
      "shapeit", dpy_.RootWindow(0),
      [this](const std::string& name) { return Definition(name); });
  Object* client = tree->FindDescendant("client");
  client->SetSizeOverride(xbase::Size{30, 20});
  tree->DoLayout();
  tree->ApplyShape();
  EXPECT_TRUE(dpy_.IsShaped(tree->window()));
  auto shape = dpy_.GetShape(tree->window());
  ASSERT_TRUE(shape.has_value());
  EXPECT_EQ(shape->Bounds(), client->geometry());
}

TEST_F(ToolkitTest, MenuLayoutAndPopup) {
  db_.Put("swm*button.itemA.label", "First");
  auto menu = toolkit_->CreateMenu(dpy_.RootWindow(0), "m");
  menu->AddItem("itemA", "");
  menu->AddItem("itemB", "Second");
  EXPECT_EQ(menu->items().size(), 2u);
  EXPECT_EQ(menu->items()[0]->label(), "First");   // From the resource db.
  EXPECT_EQ(menu->items()[1]->label(), "Second");  // Explicit.

  EXPECT_FALSE(menu->popped_up());
  menu->PopupAt({40, 20});
  EXPECT_TRUE(menu->popped_up());
  EXPECT_TRUE(server_.IsViewable(menu->window()));
  EXPECT_EQ(menu->geometry().origin(), (xbase::Point{40, 20}));
  // Items stack vertically.
  EXPECT_LT(menu->items()[0]->geometry().y, menu->items()[1]->geometry().y);
  menu->Popdown();
  EXPECT_FALSE(server_.IsViewable(menu->window()));
}

TEST_F(ToolkitTest, ObjectDestructionUnregisters) {
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "gone");
  xproto::WindowId window = button->window();
  EXPECT_EQ(toolkit_->FindObject(window), button.get());
  button.reset();
  EXPECT_EQ(toolkit_->FindObject(window), nullptr);
  EXPECT_FALSE(server_.WindowExists(window));
}

TEST_F(ToolkitTest, AttributeCacheInvalidatedByRuntimePut) {
  // A search list must never serve a value older than the database: a Put
  // bumps the generation and the next query rebuilds the list.
  db_.Put("swm*button.live.label", "before");
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "live");
  EXPECT_EQ(button->Attribute("label"), "before");
  EXPECT_EQ(button->Attribute("label"), "before");  // From the built list.
  db_.Put("swm*button.live.label", "after");
  EXPECT_EQ(button->Attribute("label"), "after");
}

TEST_F(ToolkitTest, NegativeCacheInvalidatedByRuntimePut) {
  // A Put that makes a previously-absent attribute appear must be visible
  // immediately, even though the path's list was already built.
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "late");
  EXPECT_FALSE(button->Attribute("tooltip").has_value());
  EXPECT_FALSE(button->Attribute("tooltip").has_value());  // Miss from the built list.
  db_.Put("swm*button.late.tooltip", "appeared");
  EXPECT_EQ(button->Attribute("tooltip"), "appeared");
}

TEST_F(ToolkitTest, AttributeCacheInvalidatedBySetTreePrefix) {
  // Installing a tree prefix rebinds every object under that root to its
  // new path, so stale pre-prefix answers must not survive.
  db_.Put("swm*button.name.label", "generic");
  db_.Put("swm*XTerm*button.name.label", "terminal");
  db_.Put("swm*panel.deco", "button name +C+0");
  auto tree = toolkit_->BuildPanelTree(
      "deco", dpy_.RootWindow(0),
      [this](const std::string& name) { return Definition(name); });
  Object* name = tree->FindDescendant("name");
  EXPECT_EQ(name->Attribute("label"), "generic");
  toolkit_->SetTreePrefix(tree.get(), {"XTerm", "xterm"}, {"XTerm", "xterm"});
  EXPECT_EQ(name->Attribute("label"), "terminal");
}

TEST_F(ToolkitTest, AttributeCacheInvalidatedBySetResources) {
  // Pointing the toolkit at a different database drops every search list
  // built from the old one, even though the object paths are unchanged.
  db_.Put("swm*button.swap.label", "old-db");
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "swap");
  EXPECT_EQ(button->Attribute("label"), "old-db");
  xrdb::ResourceDatabase other;
  other.Put("swm*button.swap.label", "new-db");
  toolkit_->SetResources(&other);
  EXPECT_EQ(button->Attribute("label"), "new-db");
  toolkit_->SetResources(&db_);
  EXPECT_EQ(button->Attribute("label"), "old-db");
}

TEST_F(ToolkitTest, DecorationsOfOneClassShareSearchLists) {
  // Objects on the same full resource path share one search list, so the
  // trie is walked once per distinct path however many trees are built.
  db_.Put("swm*panel.deco", "button name +C+0 panel client +0+1");
  db_.Put("swm*button.name.label", "generic");
  db_.Put("swm*XTerm*button.name.label", "terminal");
  auto build = [this]() {
    return toolkit_->BuildPanelTree(
        "deco", dpy_.RootWindow(0),
        [this](const std::string& name) { return Definition(name); }, {"XTerm", "xterm"},
        {"XTerm", "xterm"});
  };
  toolkit_->ResetQueryStats();
  const Toolkit::QueryStats& stats = toolkit_->query_stats();
  std::vector<std::unique_ptr<Panel>> trees;
  trees.push_back(build());
  // Root before and after its tree prefix, the name button, the client panel.
  EXPECT_EQ(toolkit_->search_path_count(), 4u);
  EXPECT_EQ(stats.trie_lookups, 4u);
  const uint64_t queries_per_tree = stats.queries;
  for (int i = 0; i < 7; ++i) {
    trees.push_back(build());
  }
  EXPECT_EQ(toolkit_->search_path_count(), 4u);
  EXPECT_EQ(stats.trie_lookups, 4u);
  EXPECT_EQ(stats.queries, 8 * queries_per_tree);
  EXPECT_EQ(stats.cache_hits, stats.queries - stats.trie_lookups);
  for (const std::unique_ptr<Panel>& tree : trees) {
    EXPECT_EQ(static_cast<Button*>(tree->FindDescendant("name"))->label(), "terminal");
  }
}

TEST_F(ToolkitTest, SetTreePrefixRebindsOnlyThatTree) {
  db_.Put("swm*panel.deco", "button name +C+0");
  db_.Put("swm*button.name.label", "generic");
  db_.Put("swm*sticky*button.name.label", "stuck");
  auto lookup = [this](const std::string& name) { return Definition(name); };
  auto stuck = toolkit_->BuildPanelTree("deco", dpy_.RootWindow(0), lookup);
  auto plain = toolkit_->BuildPanelTree("deco", dpy_.RootWindow(0), lookup);
  Object* stuck_name = stuck->FindDescendant("name");
  Object* plain_name = plain->FindDescendant("name");
  toolkit_->SetTreePrefix(stuck.get(), {"sticky"}, {"Sticky"});
  EXPECT_EQ(stuck_name->Attribute("label"), "stuck");
  EXPECT_EQ(plain_name->Attribute("label"), "generic");
  toolkit_->SetTreePrefix(stuck.get(), {}, {});
  EXPECT_EQ(stuck_name->Attribute("label"), "generic");
}

TEST_F(ToolkitTest, QueryStatsCountCacheHits) {
  db_.Put("swm*button.stat.label", "x");
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "stat");
  // Construction itself built the path's list; drop it so the first query
  // below builds it again and the next two are answered from it.
  toolkit_->InvalidateQueryCaches();
  toolkit_->ResetQueryStats();
  button->Attribute("label");
  button->Attribute("label");
  button->Attribute("label");
  const Toolkit::QueryStats& stats = toolkit_->query_stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.trie_lookups, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST_F(ToolkitTest, ExposeTriggersRender) {
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "exp");
  button->SetGeometry({0, 0, 10, 3});
  dpy_.DrainEvents([](const xproto::Event&) {});
  button->Show();  // Generates Expose.
  int handled = 0;
  dpy_.DrainEvents([&](const xproto::Event& event) {
    if (toolkit_->DispatchEvent(event)) {
      ++handled;
    }
  });
  EXPECT_GT(handled, 0);
  // Expose damage is retained until the next frame flush.
  toolkit_->FlushFrame();
  // The render produced draw ops (border + label).
  EXPECT_FALSE(xserver::ServerTestPeer::FindWindow(server_, button->window())->draw_ops.empty());
}

// ---- Search lists under the window manager ----------------------------------------

class SearchListWmTest : public swm_test::SwmTest {
 protected:
  oi::Object* NameObject(const xlib::ClientApp& app) {
    swm::ManagedClient* client = Managed(app);
    return client == nullptr ? nullptr : client->name_object;
  }
};

TEST_F(SearchListWmTest, RemanagingAClassReusesItsSearchLists) {
  StartWm();
  const Toolkit& toolkit = wm_->toolkit(0);
  auto first = Spawn("xterm", {"xterm", "XTerm"});
  first.reset();  // Disconnects: the window goes, and swm unmanages it.
  wm_->ProcessEvents();
  ASSERT_EQ(wm_->ClientCount(), 0u);
  const size_t paths = toolkit.search_path_count();
  const uint64_t lookups = toolkit.query_stats().trie_lookups;
  const uint64_t queries = toolkit.query_stats().queries;
  auto second = Spawn("xterm", {"xterm", "XTerm"});
  ASSERT_NE(NameObject(*second), nullptr);
  EXPECT_GT(toolkit.query_stats().queries, queries);
  EXPECT_EQ(toolkit.search_path_count(), paths);
  EXPECT_EQ(toolkit.query_stats().trie_lookups, lookups);
}

TEST_F(SearchListWmTest, SwmLookupsOfOneClassShareSearchLists) {
  // swm's own lookups (decoration, sticky, panel definitions) ask the
  // toolkit under the client's prefix: the first manage of a class builds
  // their lists, the second rebuilds none, and every lookup is a query.
  StartWm();
  const Toolkit& toolkit = wm_->toolkit(0);
  auto first = Spawn("xterm", {"xterm", "XTerm"});
  ASSERT_NE(Managed(*first), nullptr);
  const size_t paths = toolkit.search_path_count();
  const uint64_t lookups = toolkit.query_stats().trie_lookups;
  const uint64_t queries = toolkit.query_stats().queries;
  auto second = Spawn("xterm", {"xterm", "XTerm"});
  swm::ManagedClient* client = Managed(*second);
  ASSERT_NE(client, nullptr);
  EXPECT_GT(toolkit.query_stats().queries, queries);
  EXPECT_EQ(toolkit.search_path_count(), paths);
  EXPECT_EQ(toolkit.query_stats().trie_lookups, lookups);

  const uint64_t before = toolkit.query_stats().queries;
  EXPECT_EQ(wm_->ClientResource(*client, "decoration"),
            wm_->ClientResource(*Managed(*first), "decoration"));
  EXPECT_FALSE(wm_->ClientResource(*client, "sticky").has_value());
  EXPECT_TRUE(wm_->PanelDefinition(0, client->decoration_name).has_value());
  EXPECT_EQ(toolkit.query_stats().queries, before + 4);
  EXPECT_EQ(toolkit.query_stats().trie_lookups, lookups);
  EXPECT_EQ(toolkit.search_path_count(), paths);
}

TEST_F(SearchListWmTest, RuntimePutReachesTheNextManageOfAClass) {
  // A Put moves the database generation, so the next manage of a class
  // rebuilds the list its decoration lookup keeps.
  StartWm();
  auto first = Spawn("probe", {"probe", "Probe"});
  ASSERT_NE(Managed(*first), nullptr);
  const std::string old_decoration = Managed(*first)->decoration_name;
  ASSERT_NE(old_decoration, "probeDeco");
  wm_->mutable_resources().Put("swm*panel.probeDeco", "button name +C+0 panel client +0+1");
  wm_->mutable_resources().Put("swm*Probe*decoration", "probeDeco");
  auto second = Spawn("probe", {"probe", "Probe"});
  ASSERT_NE(Managed(*second), nullptr);
  EXPECT_EQ(Managed(*second)->decoration_name, "probeDeco");
  EXPECT_EQ(Managed(*first)->decoration_name, old_decoration);
}

TEST_F(SearchListWmTest, PutStickyToggleAndRestart) {
  StartWm(
      "swm*button.name.myMarker: generic\n"
      "swm*sticky*button.name.myMarker: stuck\n");
  auto app = Spawn("xterm", {"xterm", "XTerm"});
  ASSERT_NE(NameObject(*app), nullptr);
  EXPECT_EQ(NameObject(*app)->Attribute("myMarker"), "generic");
  // A runtime Put moves the database generation: the next query rebuilds
  // the path's list and sees it.
  wm_->mutable_resources().Put("swm*XTerm*button.name.myMarker", "runtime");
  EXPECT_EQ(NameObject(*app)->Attribute("myMarker"), "runtime");
  // Sticking rebuilds the decoration under the "sticky" tree prefix, whose
  // level comes before the class level.
  ASSERT_TRUE(wm_->ExecuteCommandString("f.stick(XTerm)", 0));
  wm_->ProcessEvents();
  ASSERT_TRUE(Managed(*app)->sticky);
  EXPECT_EQ(NameObject(*app)->Attribute("myMarker"), "stuck");
  ASSERT_TRUE(wm_->ExecuteCommandString("f.stick(XTerm)", 0));
  wm_->ProcessEvents();
  ASSERT_FALSE(Managed(*app)->sticky);
  EXPECT_EQ(NameObject(*app)->Attribute("myMarker"), "runtime");
  // f.restart reloads the database from template + user resources.
  ASSERT_TRUE(wm_->ExecuteCommandString("f.restart", 0));
  wm_->ProcessEvents();
  EXPECT_EQ(NameObject(*app)->Attribute("myMarker"), "generic");
}

}  // namespace
}  // namespace oi
