// Layout-policy engine tests (docs/POLICIES.md): factory and resource
// selection, xswm conformance for the maximize policy (including the
// `close` / `last` remote-control verbs), tiling and dynamic slot geometry,
// ICCCM hint handling inside slots, the cascade satellite fixes, runtime
// policy switching over swmcmd and persistence across a WM restart.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/swm/policy/dynamic_policy.h"
#include "src/swm/policy/layout_policy.h"
#include "src/swm/policy/tiling_policy.h"
#include "src/swm/swmcmd.h"
#include "src/xlib/icccm.h"
#include "src/xserver/replay.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using swm::CreateLayoutPolicy;
using swm::DynamicPolicy;
using swm::LayoutPolicyNames;
using swm::ManagedClient;
using swm::TilingPolicy;
using xserver::FingerprintServer;
using xserver::ServerFingerprint;

class PolicyTest : public SwmTest {
 protected:
  // swmcmd round trip: a shell client writes the property, the WM drains it.
  void Swmcmd(const std::string& command) {
    xlib::Display shell(server_.get(), "policy-shell");
    swm::SendSwmCommand(&shell, 0, command);
    wm_->ProcessEvents();
  }

  xbase::Rect Frame(const xlib::ClientApp& app) {
    ManagedClient* client = Managed(app);
    EXPECT_NE(client, nullptr);
    return client->frame->geometry();
  }

  xproto::WindowId Focus() { return wm_->display().GetInputFocus(); }

  // `count` clients created but not yet mapped, so a test can map them all
  // and let the WM see the whole burst as one batch.
  std::vector<std::unique_ptr<xlib::ClientApp>> Unmapped(int count) {
    std::vector<std::unique_ptr<xlib::ClientApp>> apps;
    for (int i = 0; i < count; ++i) {
      xlib::ClientAppConfig config;
      config.name = "storm" + std::to_string(i);
      config.wm_class = {config.name, "Storm"};
      config.command = {config.name};
      config.geometry = {0, 0, 30, 10};
      config.size_hint_flags = xproto::kPSize;
      apps.push_back(std::make_unique<xlib::ClientApp>(server_.get(), config));
    }
    return apps;
  }

  // Drains a client's queue; returns the geometry of every synthetic
  // ConfigureNotify about its own window, in arrival order.
  static std::vector<xbase::Rect> DrainSyntheticConfigures(xlib::ClientApp& app) {
    std::vector<xbase::Rect> geometries;
    app.display().DrainEvents([&](const xproto::Event& event) {
      const auto* configure = std::get_if<xproto::ConfigureNotifyEvent>(&event);
      if (configure != nullptr && configure->synthetic &&
          configure->window == app.window()) {
        geometries.push_back(configure->geometry);
      }
    });
    return geometries;
  }

  static std::vector<xbase::Rect> Slots(const std::string& policy, size_t count) {
    return policy == "tiling" ? TilingPolicy::SplitSlots({200, 100}, count)
                              : DynamicPolicy::GridSlots({200, 100}, count);
  }
};

// ---- Factory and selection --------------------------------------------------

TEST_F(PolicyTest, FactoryKnowsAllRegisteredPolicies) {
  StartWm();
  EXPECT_EQ(LayoutPolicyNames().size(), 4u);
  for (const std::string& name : LayoutPolicyNames()) {
    auto policy = CreateLayoutPolicy(name, wm_.get());
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
  EXPECT_EQ(CreateLayoutPolicy("cascade-of-doom", wm_.get()), nullptr);
}

TEST_F(PolicyTest, ResourceSelectsPolicy) {
  StartWm("swm.layout.policy: tiling\n");
  EXPECT_STREQ(wm_->layout_policy().name(), "tiling");
}

TEST_F(PolicyTest, UnknownResourceFallsBackToFloating) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  StartWm("swm.layout.policy: nonsense\n");
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  EXPECT_STREQ(wm_->layout_policy().name(), "floating");
}

// Default == floating is a standing contract, not just a golden snapshot:
// a run with the resource set explicitly must be byte-identical to a run
// with no policy resource at all.
TEST_F(PolicyTest, ExplicitFloatingMatchesDefaultByteForByte) {
  auto run = [&](const std::string& resources) {
    StartWm(resources);
    auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
    auto b = Spawn("beta", {"beta", "Beta"}, {50, 40, 40, 20},
                   xproto::kPPosition | xproto::kPSize);
    a->RequestMoveResize({60, 10, 35, 12});
    wm_->ProcessEvents();
    b->RequestIconify();
    wm_->ProcessEvents();
    b->Map();
    wm_->ProcessEvents();
    a->display().DestroyWindow(a->window());
    wm_->ProcessEvents();
    return FingerprintServer(*server_);
  };
  ServerFingerprint implicit = run("");
  ServerFingerprint explicit_floating = run("swm.layout.policy: floating\n");
  EXPECT_EQ(implicit.total_requests, explicit_floating.total_requests);
  EXPECT_EQ(implicit.screen_hash, explicit_floating.screen_hash);
  EXPECT_EQ(implicit.draw_ops, explicit_floating.draw_ops);
  EXPECT_EQ(implicit.pixels_drawn, explicit_floating.pixels_drawn);
}

// ---- Maximize (xswm conformance) --------------------------------------------

TEST_F(PolicyTest, MaximizeFillsViewportAndFocusesNewest) {
  StartWm("swm.layout.policy: maximize\n");
  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  auto b = Spawn("beta", {"beta", "Beta"}, {0, 0, 40, 20});
  auto c = Spawn("gamma", {"gamma", "Gamma"}, {0, 0, 20, 10});
  // Every eligible window fills the whole 200x100 viewport...
  EXPECT_EQ(Frame(*a), (xbase::Rect{0, 0, 200, 100}));
  EXPECT_EQ(Frame(*b), (xbase::Rect{0, 0, 200, 100}));
  EXPECT_EQ(Frame(*c), (xbase::Rect{0, 0, 200, 100}));
  // ...and the newest one is focused (xswm: new windows take over).
  EXPECT_EQ(Focus(), c->window());
}

TEST_F(PolicyTest, MaximizeDeniesClientGeometry) {
  StartWm("swm.layout.policy: maximize\n");
  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  a->ProcessEvents();
  int notified_before = a->configure_notify_count();
  a->RequestMoveResize({10, 10, 30, 20});
  wm_->ProcessEvents();
  a->ProcessEvents();
  // The slot is reasserted and the client is told its actual geometry via a
  // synthetic ConfigureNotify (ICCCM denial).
  EXPECT_EQ(Frame(*a), (xbase::Rect{0, 0, 200, 100}));
  EXPECT_GT(a->configure_notify_count(), notified_before);
}

TEST_F(PolicyTest, MaximizeTransientsKeepFloatingSemantics) {
  StartWm("swm.layout.policy: maximize\n");
  auto owner = Spawn("owner", {"owner", "Owner"}, {0, 0, 30, 10});

  xlib::ClientAppConfig config;
  config.name = "dialog";
  config.wm_class = {"dialog", "Dialog"};
  config.command = {"dialog"};
  config.geometry = {20, 30, 40, 16};
  config.size_hint_flags = xproto::kUSPosition | xproto::kUSSize;
  auto dialog = std::make_unique<xlib::ClientApp>(server_.get(), config);
  xlib::SetTransientForHint(&dialog->display(), dialog->window(), owner->window());
  dialog->Map();
  wm_->ProcessEvents();

  // The owner is maximized; the transient keeps its requested size and
  // user position instead of being swallowed by the slot.
  EXPECT_EQ(Frame(*owner).size(), (xbase::Size{200, 100}));
  ManagedClient* dialog_client = Managed(*dialog);
  ASSERT_NE(dialog_client, nullptr);
  EXPECT_EQ(server_->GetGeometry(dialog->window())->size(), (xbase::Size{40, 16}));
  EXPECT_EQ(dialog_client->ClientDesktopPosition(), (xbase::Point{20, 30}));
}

TEST_F(PolicyTest, MaximizeCloseVerbIsPoliteThenForceful) {
  StartWm("swm.layout.policy: maximize\n");
  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  auto b = Spawn("beta", {"beta", "Beta"}, {0, 0, 30, 10});
  xlib::SetWmProtocols(&b->display(), b->window(), {"WM_DELETE_WINDOW"});

  // `swmcmd close` on a WM_DELETE_WINDOW speaker: polite message, window
  // stays managed until the client acts.
  Swmcmd("close");
  b->ProcessEvents();
  EXPECT_TRUE(b->saw_delete_window());
  EXPECT_NE(Managed(*b), nullptr);

  // A client without the protocol is disconnect-killed, and focus falls
  // back to the previously focused window.
  auto c = Spawn("gamma", {"gamma", "Gamma"}, {0, 0, 30, 10});
  EXPECT_EQ(Focus(), c->window());
  Swmcmd("close");
  EXPECT_EQ(wm_->FindClient(c->window()), nullptr);
  EXPECT_EQ(Focus(), b->window());
}

TEST_F(PolicyTest, MaximizeLastVerbSwapsBetweenTopTwo) {
  StartWm("swm.layout.policy: maximize\n");
  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  auto b = Spawn("beta", {"beta", "Beta"}, {0, 0, 30, 10});
  auto c = Spawn("gamma", {"gamma", "Gamma"}, {0, 0, 30, 10});
  EXPECT_EQ(Focus(), c->window());
  Swmcmd("last");
  EXPECT_EQ(Focus(), b->window());
  Swmcmd("last");  // xswm: `last` toggles between the top two.
  EXPECT_EQ(Focus(), c->window());
}

TEST_F(PolicyTest, MaximizeIconifyPassesFocusAndDeiconifyReclaimsIt) {
  StartWm("swm.layout.policy: maximize\n");
  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  auto b = Spawn("beta", {"beta", "Beta"}, {0, 0, 30, 10});
  EXPECT_EQ(Focus(), b->window());
  wm_->Iconify(Managed(*b));
  wm_->ProcessEvents();
  EXPECT_EQ(Focus(), a->window());
  wm_->Deiconify(wm_->FindClient(b->window()));
  wm_->ProcessEvents();
  EXPECT_EQ(Focus(), b->window());
  EXPECT_EQ(Frame(*b), (xbase::Rect{0, 0, 200, 100}));
}

// ---- Tiling -----------------------------------------------------------------

TEST(TilingSlotsTest, RecursiveSplitCoversViewportExactly) {
  for (size_t count = 1; count <= 6; ++count) {
    std::vector<xbase::Rect> slots = TilingPolicy::SplitSlots({200, 100}, count);
    ASSERT_EQ(slots.size(), count);
    long long area = 0;
    for (size_t i = 0; i < slots.size(); ++i) {
      const xbase::Rect& slot = slots[i];
      EXPECT_GE(slot.x, 0);
      EXPECT_GE(slot.y, 0);
      EXPECT_LE(slot.x + slot.width, 200);
      EXPECT_LE(slot.y + slot.height, 100);
      area += static_cast<long long>(slot.width) * slot.height;
      for (size_t j = i + 1; j < slots.size(); ++j) {
        bool disjoint = slots[j].x >= slot.x + slot.width ||
                        slot.x >= slots[j].x + slots[j].width ||
                        slots[j].y >= slot.y + slot.height ||
                        slot.y >= slots[j].y + slots[j].height;
        EXPECT_TRUE(disjoint) << "slots " << i << " and " << j << " overlap";
      }
    }
    EXPECT_EQ(area, 200 * 100) << count << " slots must tile the viewport";
  }
}

TEST(TilingSlotsTest, AlternatingCutsFormASpiral) {
  std::vector<xbase::Rect> slots = TilingPolicy::SplitSlots({200, 100}, 3);
  EXPECT_EQ(slots[0], (xbase::Rect{0, 0, 100, 100}));   // Left half.
  EXPECT_EQ(slots[1], (xbase::Rect{100, 0, 100, 50}));  // Top of the right.
  EXPECT_EQ(slots[2], (xbase::Rect{100, 50, 100, 50}));
}

TEST_F(PolicyTest, TilingPlacesWindowsInManageOrder) {
  StartWm("swm.layout.policy: tiling\n");
  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  auto b = Spawn("beta", {"beta", "Beta"}, {0, 0, 30, 10});
  auto c = Spawn("gamma", {"gamma", "Gamma"}, {0, 0, 30, 10});
  EXPECT_EQ(Frame(*a), (xbase::Rect{0, 0, 100, 100}));
  EXPECT_EQ(Frame(*b), (xbase::Rect{100, 0, 100, 50}));
  EXPECT_EQ(Frame(*c), (xbase::Rect{100, 50, 100, 50}));
}

TEST_F(PolicyTest, TilingReflowsSurvivorsOnUnmanage) {
  StartWm("swm.layout.policy: tiling\n");
  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  auto b = Spawn("beta", {"beta", "Beta"}, {0, 0, 30, 10});
  auto c = Spawn("gamma", {"gamma", "Gamma"}, {0, 0, 30, 10});
  a->display().DestroyWindow(a->window());
  wm_->ProcessEvents();
  // Manage order is preserved: beta now leads the split.
  EXPECT_EQ(Frame(*b), (xbase::Rect{0, 0, 100, 100}));
  EXPECT_EQ(Frame(*c), (xbase::Rect{100, 0, 100, 100}));
}

// ---- Dynamic ----------------------------------------------------------------

TEST(DynamicSlotsTest, GridCoversViewportExactly) {
  for (size_t count = 1; count <= 7; ++count) {
    std::vector<xbase::Rect> slots = DynamicPolicy::GridSlots({200, 100}, count);
    ASSERT_EQ(slots.size(), count);
    long long area = 0;
    for (const xbase::Rect& slot : slots) {
      area += static_cast<long long>(slot.width) * slot.height;
    }
    EXPECT_EQ(area, 200 * 100) << count << " grid cells must tile the viewport";
  }
  std::vector<xbase::Rect> quad = DynamicPolicy::GridSlots({200, 100}, 4);
  EXPECT_EQ(quad[0], (xbase::Rect{0, 0, 100, 50}));
  EXPECT_EQ(quad[3], (xbase::Rect{100, 50, 100, 50}));
}

TEST_F(PolicyTest, DynamicReflowsOnIconifyAndDeiconify) {
  StartWm("swm.layout.policy: dynamic\n");
  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  auto b = Spawn("beta", {"beta", "Beta"}, {0, 0, 30, 10});
  EXPECT_EQ(Frame(*a), (xbase::Rect{0, 0, 100, 100}));
  EXPECT_EQ(Frame(*b), (xbase::Rect{100, 0, 100, 100}));
  wm_->Iconify(Managed(*b));
  wm_->ProcessEvents();
  // The survivor reclaims the whole viewport...
  EXPECT_EQ(Frame(*a), (xbase::Rect{0, 0, 200, 100}));
  wm_->Deiconify(wm_->FindClient(b->window()));
  wm_->ProcessEvents();
  // ...and splits again on deiconify.
  EXPECT_EQ(Frame(*a), (xbase::Rect{0, 0, 100, 100}));
  EXPECT_EQ(Frame(*b), (xbase::Rect{100, 0, 100, 100}));
}

// ---- ICCCM hints inside slots -----------------------------------------------

TEST_F(PolicyTest, MaxSizeHintedClientCentersInItsSlot) {
  StartWm("swm.layout.policy: maximize\n");
  xlib::ClientAppConfig config;
  config.name = "capped";
  config.wm_class = {"capped", "Capped"};
  config.command = {"capped"};
  config.geometry = {0, 0, 40, 20};
  auto app = std::make_unique<xlib::ClientApp>(server_.get(), config);
  xproto::SizeHints hints;
  hints.flags = xproto::kPSize | xproto::kPMaxSize;
  hints.width = 40;
  hints.height = 20;
  hints.max_width = 40;
  hints.max_height = 20;
  xlib::SetWmNormalHints(&app->display(), app->window(), hints);
  app->Map();
  wm_->ProcessEvents();

  // The slot grant is constrained by WM_NORMAL_HINTS: the client keeps its
  // hinted maximum and the frame centers in the viewport slot.
  EXPECT_EQ(server_->GetGeometry(app->window())->size(), (xbase::Size{40, 20}));
  xbase::Rect frame = Frame(*app);
  EXPECT_EQ(frame.x, (200 - frame.width) / 2);
  EXPECT_EQ(frame.y, (100 - frame.height) / 2);
}

TEST_F(PolicyTest, ResizeIncrementHintsHonoredInTilingSlots) {
  StartWm("swm.layout.policy: tiling\n");
  xlib::ClientAppConfig config;
  config.name = "stepped";
  config.wm_class = {"stepped", "Stepped"};
  config.command = {"stepped"};
  config.geometry = {0, 0, 30, 10};
  auto app = std::make_unique<xlib::ClientApp>(server_.get(), config);
  xproto::SizeHints hints;
  hints.flags = xproto::kPSize | xproto::kPResizeInc;
  hints.width = 30;
  hints.height = 10;
  hints.width_inc = 7;
  hints.height_inc = 9;
  xlib::SetWmNormalHints(&app->display(), app->window(), hints);
  app->Map();
  wm_->ProcessEvents();

  // No base/min size is set, so Constrain steps from 0: exact multiples.
  xbase::Size client = server_->GetGeometry(app->window())->size();
  EXPECT_EQ(client.width % 7, 0) << "width must sit on an increment";
  EXPECT_EQ(client.height % 9, 0) << "height must sit on an increment";
}

// ---- Cascade satellites -----------------------------------------------------

TEST_F(PolicyTest, CascadeClampsWindowsThatNoLongerFit) {
  StartWm();  // floating, 200x100 screen.
  auto big1 = Spawn("big1", {"big1", "Big"}, {0, 0, 180, 80});
  auto big2 = Spawn("big2", {"big2", "Big"}, {0, 0, 180, 80});
  // First lands at the cascade origin; the second would start at (32,32)
  // and hang off-screen, so it clamps back to (8,8) instead.
  EXPECT_EQ(Managed(*big1)->ClientDesktopPosition(), (xbase::Point{8, 8}));
  EXPECT_EQ(Managed(*big2)->ClientDesktopPosition(), (xbase::Point{8, 8}));
}

TEST_F(PolicyTest, CascadeResetsAfterViewportPan) {
  StartWm("swm*virtualDesktop: 400x300\n");
  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  EXPECT_EQ(Managed(*a)->ClientDesktopPosition(), (xbase::Point{8, 8}));
  ASSERT_TRUE(wm_->ExecuteCommandString("f.pan(30,20)", 0));
  // The cascade re-anchors to the new viewport rather than continuing at
  // (32,32) of the old one.
  auto b = Spawn("beta", {"beta", "Beta"}, {0, 0, 30, 10});
  EXPECT_EQ(Managed(*b)->ClientDesktopPosition(), (xbase::Point{38, 28}));
}

// ---- Batched reflow ---------------------------------------------------------
// Slot policies request a reflow from their hooks; inside ProcessEvents the
// WM runs one per screen per batch (WindowManager::RequestRelayout).

// A manage storm costs each window a fixed amount of work however many
// windows share the batch.  Work is the toolkit's layout passes plus the
// synthetic ConfigureNotifys every client receives; reflowing once per
// manage makes it grow with the population instead.
TEST_F(PolicyTest, ManageStormWorkPerWindowStaysFlat) {
  // A decoration that is only the client panel, so even the 1-pixel slots
  // of a deep tiling split are granted exactly.
  const std::string bare = "swm*panel.bare: panel client +0+0\nswm*decoration: bare\n";
  for (const std::string policy : {"tiling", "dynamic"}) {
    std::map<int, double> work_per_window;
    for (int count : {8, 32, 128}) {
      StartWm(bare + "swm.layout.policy: " + policy + "\n");
      auto apps = Unmapped(count);
      for (auto& app : apps) {
        app->Map();
      }
      uint64_t layouts_before = wm_->toolkit(0).frame_stats().layouts;
      wm_->ProcessEvents();
      uint64_t work = wm_->toolkit(0).frame_stats().layouts - layouts_before;
      std::vector<xbase::Rect> slots = Slots(policy, apps.size());
      for (size_t i = 0; i < apps.size(); ++i) {
        EXPECT_EQ(Frame(*apps[i]), slots[i]) << policy << " " << count << " #" << i;
        work += DrainSyntheticConfigures(*apps[i]).size();
      }
      work_per_window[count] = static_cast<double>(work) / count;
    }
    EXPECT_LE(work_per_window[128], 2 * work_per_window[8])
        << policy << ": per-window work at 8 clients " << work_per_window[8]
        << ", at 32 " << work_per_window[32] << ", at 128 " << work_per_window[128];
  }
}

// A client that destroys several tiled windows at once: the survivors reflow
// after the whole burst has left the tables, so the WM never configures a
// window the same burst already destroyed (no BadWindow, no heal sweep).
TEST_F(PolicyTest, DestroyBurstUnderSlotPolicyRaisesNoXErrors) {
  for (const std::string policy : {"tiling", "dynamic"}) {
    StartWm("swm.layout.policy: " + policy + "\n");
    auto apps = Unmapped(6);
    for (auto& app : apps) {
      app->Map();
    }
    wm_->ProcessEvents();
    uint64_t errors = wm_->x_error_count();
    uint64_t healed = wm_->healed_count();
    for (size_t i = 0; i < 4; ++i) {
      apps[i]->display().DestroyWindow(apps[i]->window());
    }
    wm_->ProcessEvents();
    EXPECT_EQ(wm_->x_error_count(), errors) << policy;
    EXPECT_EQ(wm_->healed_count(), healed) << policy;
    std::vector<xbase::Rect> slots = Slots(policy, 2);
    EXPECT_EQ(Frame(*apps[4]), slots[0]) << policy;
    EXPECT_EQ(Frame(*apps[5]), slots[1]) << policy;
  }
}

// N denied ConfigureRequests in one batch share one reflow, and each
// requester still hears its slot geometry in a synthetic ConfigureNotify
// (the ICCCM 4.1.5 denial).
TEST_F(PolicyTest, BatchedConfigureDenialsShareOneReflow) {
  StartWm("swm.layout.policy: tiling\n");
  auto apps = Unmapped(3);
  for (auto& app : apps) {
    app->Map();
  }
  wm_->ProcessEvents();
  for (auto& app : apps) {
    DrainSyntheticConfigures(*app);
  }
  // One denial alone: what a single reflow tells each client.
  apps[0]->RequestMoveResize({10, 10, 40, 20});
  wm_->ProcessEvents();
  std::vector<size_t> per_reflow;
  for (auto& app : apps) {
    per_reflow.push_back(DrainSyntheticConfigures(*app).size());
    ASSERT_GT(per_reflow.back(), 0u);
  }

  for (auto& app : apps) {
    app->RequestMoveResize({10, 10, 40, 20});
  }
  wm_->ProcessEvents();
  std::vector<xbase::Rect> slots = Slots("tiling", apps.size());
  for (size_t i = 0; i < apps.size(); ++i) {
    std::vector<xbase::Rect> notified = DrainSyntheticConfigures(*apps[i]);
    EXPECT_EQ(notified.size(), per_reflow[i]) << "client " << i;
    EXPECT_EQ(Frame(*apps[i]), slots[i]) << "client " << i;
    ASSERT_FALSE(notified.empty());
    std::optional<xbase::Rect> granted =
        apps[i]->display().GetGeometry(apps[i]->window());
    ASSERT_TRUE(granted.has_value());
    xbase::Point position = Managed(*apps[i])->ClientDesktopPosition();
    EXPECT_EQ(notified.back(),
              (xbase::Rect{position.x, position.y, granted->width, granted->height}))
        << "client " << i;
  }
}

// ---- Runtime switching and persistence --------------------------------------

TEST_F(PolicyTest, SwmcmdPolicySwitchRelaysOutTheWholePopulation) {
  StartWm();
  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  auto b = Spawn("beta", {"beta", "Beta"}, {0, 0, 30, 10});

  Swmcmd("policy maximize");
  EXPECT_STREQ(wm_->layout_policy().name(), "maximize");
  EXPECT_EQ(Frame(*a).size(), (xbase::Size{200, 100}));
  EXPECT_EQ(Frame(*b).size(), (xbase::Size{200, 100}));

  Swmcmd("policy tiling");
  EXPECT_STREQ(wm_->layout_policy().name(), "tiling");
  EXPECT_EQ(Frame(*a), (xbase::Rect{0, 0, 100, 100}));
  EXPECT_EQ(Frame(*b), (xbase::Rect{100, 0, 100, 100}));

  Swmcmd("policy floating");
  EXPECT_STREQ(wm_->layout_policy().name(), "floating");
  // Floating does not force geometry: windows keep their tiled frames and
  // regain control over their own ConfigureRequests.
  a->RequestMoveResize({10, 10, 30, 10});
  wm_->ProcessEvents();
  EXPECT_NE(Frame(*a), (xbase::Rect{0, 0, 100, 100}));
}

TEST_F(PolicyTest, UnknownPolicyNameRejectedAndCurrentKept) {
  StartWm("swm.layout.policy: tiling\n");
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  EXPECT_FALSE(wm_->ExecuteCommandString("policy bogus", 0));
  EXPECT_FALSE(wm_->SetLayoutPolicy(""));
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  EXPECT_STREQ(wm_->layout_policy().name(), "tiling");
}

TEST_F(PolicyTest, FPolicyFunctionSwitchesToo) {
  StartWm();
  ASSERT_TRUE(wm_->ExecuteCommandString("f.policy(dynamic)", 0));
  EXPECT_STREQ(wm_->layout_policy().name(), "dynamic");
}

TEST_F(PolicyTest, PolicySurvivesWmRestart) {
  StartWm();
  ASSERT_TRUE(wm_->SetLayoutPolicy("tiling"));
  // f.restart persists session state onto SWM_RESTART_INFO...
  wm_->PersistSessionState();
  wm_.reset();
  // ...and the successor adopts the recorded policy before managing anything.
  swm::WindowManager::Options options;
  options.template_name = "openlook";
  wm_ = std::make_unique<swm::WindowManager>(server_.get(), options);
  ASSERT_TRUE(wm_->Start());
  EXPECT_STREQ(wm_->layout_policy().name(), "tiling");

  auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
  auto b = Spawn("beta", {"beta", "Beta"}, {0, 0, 30, 10});
  EXPECT_EQ(Frame(*a), (xbase::Rect{0, 0, 100, 100}));
  EXPECT_EQ(Frame(*b), (xbase::Rect{100, 0, 100, 100}));
}

TEST(RestartTablePolicyTest, PolicyLineRoundTripsAndIsNotARecord) {
  swm::RestartTable table = swm::RestartTable::FromPropertyText(
      "swmhints -geometry 40x12+1+2 -cmd xterm\n"
      "policy maximize\n");
  EXPECT_EQ(table.size(), 1u);  // The policy line is not a malformed record.
  ASSERT_TRUE(table.policy_name().has_value());
  EXPECT_EQ(*table.policy_name(), "maximize");
  swm::RestartTable reparsed =
      swm::RestartTable::FromPropertyText(table.ToPropertyText());
  ASSERT_TRUE(reparsed.policy_name().has_value());
  EXPECT_EQ(*reparsed.policy_name(), "maximize");
  EXPECT_EQ(reparsed.size(), 1u);
}

}  // namespace
}  // namespace swm_test
