// Seeded chaos (docs/ROBUSTNESS.md): drive the WM through a randomized
// client workload while an installed FaultPlan destroys windows in the
// manage/configure races, fails requests out of the blue, corrupts property
// reads and duplicates/reorders event delivery.  After every step the WM's
// structural invariants must hold.  Both the workload and the faults derive
// from the seed, so a failing seed reproduces exactly.
#include <memory>
#include <string>
#include <vector>

#include "src/swm/swmcmd.h"
#include "src/xserver/faults.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using swm::ManagedClient;

// The invariants a healthy WM maintains no matter what clients do:
// every managed client's window exists, its frame exists, and the window is
// actually reparented into its frame's client panel.
void CheckInvariants(xserver::Server* server, swm::WindowManager* wm) {
  for (ManagedClient* client : wm->Clients()) {
    ASSERT_TRUE(server->WindowExists(client->window))
        << "dangling ManagedClient for window " << client->window;
    ASSERT_NE(client->frame, nullptr) << "client " << client->window;
    ASSERT_TRUE(server->WindowExists(client->frame->window()))
        << "frame of client " << client->window;
    ASSERT_NE(client->client_panel, nullptr) << "client " << client->window;
    auto tree = server->QueryTree(client->window);
    ASSERT_TRUE(tree.has_value());
    EXPECT_EQ(tree->parent, client->client_panel->window())
        << "client " << client->window << " not parented in its frame";
  }
}

class ChaosControlTest : public SwmTest {
 protected:
  void SetUp() override { xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal); }
  void TearDown() override { xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning); }
};

class ChaosTest : public ChaosControlTest,
                  public ::testing::WithParamInterface<uint64_t> {};

TEST_P(ChaosTest, SurvivesSeededFaults) {
  const uint64_t seed = GetParam();
  StartWm();

  xserver::FaultPlan plan;
  plan.seed = seed;
  plan.destroy_on_map_permille = 250;
  plan.destroy_on_reparent_permille = 120;
  plan.destroy_on_configure_permille = 80;
  plan.corrupt_property_permille = 30;
  plan.duplicate_event_permille = 60;
  plan.delay_event_permille = 60;
  server_->InstallFaultPlan(plan);

  // The workload draws from its own stream so faults and actions stay
  // independently reproducible.
  xserver::FaultRng driver(seed * 0x9e3779b9u + 1);
  std::vector<std::unique_ptr<xlib::ClientApp>> apps;
  int spawned = 0;

  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
    int action = apps.empty() ? 0 : driver.Range(0, 6);
    switch (action) {
      case 0: {  // Spawn and map a fresh client.
        xlib::ClientAppConfig config;
        config.name = "chaos" + std::to_string(spawned++);
        config.wm_class = {config.name, "Chaos"};
        config.command = {config.name};
        config.geometry = {driver.Range(0, 120), driver.Range(0, 60),
                           driver.Range(10, 50), driver.Range(8, 30)};
        apps.push_back(std::make_unique<xlib::ClientApp>(server_.get(), config));
        apps.back()->Map();
        break;
      }
      case 1: {  // A client destroys its window.
        auto& app = apps[driver.Range(0, static_cast<int>(apps.size()) - 1)];
        app->display().DestroyWindow(app->window());
        break;
      }
      case 2: {  // ICCCM withdrawal.
        apps[driver.Range(0, static_cast<int>(apps.size()) - 1)]->Unmap();
        break;
      }
      case 3: {  // Configure through the redirect.
        auto& app = apps[driver.Range(0, static_cast<int>(apps.size()) - 1)];
        app->RequestMoveResize({driver.Range(-10, 150), driver.Range(-10, 80),
                                driver.Range(1, 60), driver.Range(1, 40)});
        break;
      }
      case 4: {  // WM_CHANGE_STATE iconify request.
        apps[driver.Range(0, static_cast<int>(apps.size()) - 1)]->RequestIconify();
        break;
      }
      case 5: {  // (Re)map — deiconifies or remaps a withdrawn window.
        apps[driver.Range(0, static_cast<int>(apps.size()) - 1)]->Map();
        break;
      }
      case 6: {  // swmcmd traffic, valid and garbage.
        xlib::Display shell(server_.get(), "chaos-shell");
        swm::SendSwmCommand(&shell, 0,
                            driver.Roll(500) ? "f.exec(chaos)" : "f.raise(((");
        break;
      }
    }
    wm_->ProcessEvents();
    CheckInvariants(server_.get(), wm_.get());
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }

  // Faults off: the WM must still be fully functional.
  server_->ClearFaultPlan();
  wm_->ProcessEvents();
  CheckInvariants(server_.get(), wm_.get());
  EXPECT_GT(server_->fault_counters().Total(), 0u)
      << "seed " << seed << " injected nothing — chaos was a no-op";

  auto survivor = Spawn("survivor", {"survivor", "Survivor"});
  ManagedClient* client = Managed(*survivor);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(server_->IsViewable(survivor->window()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Range<uint64_t>(1, 25));  // 24 distinct seeds.

// The control experiment: the exact fault the self-healing layer exists for,
// with the layer switched off.  The client dies in the reparent→SelectInput
// gap, no DestroyNotify ever reaches the WM, and a dangling ManagedClient
// stays behind — proving the barrier in the tests above is load-bearing.
TEST_F(ChaosControlTest, WithoutSelfHealingDestroyDuringManageLeavesDanglingClient) {
  swm::WindowManager::Options options;
  options.template_name = "openlook";
  options.self_heal = false;
  StartWm(options);

  xserver::FaultPlan plan;
  plan.destroy_on_reparent_permille = 1000;
  server_->InstallFaultPlan(plan);

  xlib::ClientAppConfig config;
  config.name = "doomed";
  config.wm_class = {"doomed", "Doomed"};
  xlib::ClientApp app(server_.get(), config);
  app.Map();
  wm_->ProcessEvents();

  EXPECT_FALSE(server_->WindowExists(app.window()));
  // The bug, demonstrated: the window is gone but the WM still tracks it.
  EXPECT_EQ(wm_->ClientCount(), 1u);
  EXPECT_NE(wm_->FindClient(app.window()), nullptr);
}

// Same fault, healing on: the manage path rolls back and nothing dangles.
TEST_F(ChaosControlTest, WithSelfHealingSameFaultRollsBack) {
  StartWm();
  xserver::FaultPlan plan;
  plan.destroy_on_reparent_permille = 1000;
  server_->InstallFaultPlan(plan);

  xlib::ClientAppConfig config;
  config.name = "doomed";
  config.wm_class = {"doomed", "Doomed"};
  xlib::ClientApp app(server_.get(), config);
  app.Map();
  wm_->ProcessEvents();

  EXPECT_FALSE(server_->WindowExists(app.window()));
  EXPECT_EQ(wm_->ClientCount(), 0u);
  EXPECT_EQ(wm_->FindClient(app.window()), nullptr);
}

}  // namespace
}  // namespace swm_test
