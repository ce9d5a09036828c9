// Bounded window-id space (docs/PROTOCOL.md "Window ids"): each connection
// holds an id slot that Disconnect frees for the next client, and a
// connection that spends its range asks the server for the largest free run
// of it.  A long session that connects and disconnects without end, or one
// client that creates and destroys without end, never runs out of ids, and
// every table keyed by window id falls back to its baseline, so a window
// that reuses an id inherits nothing from the window that had it before.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "src/base/logging.h"
#include "src/xlib/client_app.h"
#include "src/xlib/display.h"
#include "src/xserver/server.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using xproto::kIdMask;
using xproto::kNone;
using xproto::WindowId;

// What the server and swm hold per window, for before/after comparisons.
struct StateSizes {
  size_t windows = 0;
  swm::WindowManager::KeyedTableSizes wm;
  size_t toolkit_objects = 0;
  size_t panner_boxes = 0;
  friend bool operator==(const StateSizes&, const StateSizes&) = default;
};

class IdSpaceTest : public SwmTest {
 protected:
  void StartWithPanner() {
    StartWm("swm*virtualDesktop: 400x300\n");
    ASSERT_NE(wm_->panner(0), nullptr);
    wm_->ProcessEvents();
  }

  StateSizes Sizes() const {
    return {AllWindows().size(), wm_->keyed_table_sizes(), wm_->toolkit(0).object_count(),
            wm_->panner(0)->boxes().size()};
  }

  std::unique_ptr<xlib::ClientApp> NewApp(const std::string& name) {
    xlib::ClientAppConfig config;
    config.name = name;
    config.wm_class = {"churn", "Churn"};
    config.command = {"churn"};
    config.geometry = {0, 0, 36, 18};
    return std::make_unique<xlib::ClientApp>(server_.get(), config);
  }
};

// More connect / create / map / disconnect cycles than there are id slots:
// without recycling, the connection after the last slot could create no
// window.  Each client takes the slot its predecessor freed and mints the
// same first id.
TEST_F(IdSpaceTest, ConnectionsOutnumberSlots) {
  StartWithPanner();
  const StateSizes baseline = Sizes();
  const uint64_t wm_errors = wm_->x_error_count();
  std::set<WindowId> ids;
  std::set<xproto::ClientId> departed;
  for (uint32_t cycle = 0; cycle < xproto::kIdSlots + 16; ++cycle) {
    std::unique_ptr<xlib::ClientApp> app = NewApp("churn");
    ASSERT_NE(app->window(), kNone) << "cycle " << cycle;
    ids.insert(app->window());
    app->Map();
    wm_->ProcessEvents();
    app->ProcessEvents();
    ASSERT_NE(Managed(*app), nullptr) << "cycle " << cycle;
    ASSERT_EQ(app->display().ErrorCount(), 0u) << "cycle " << cycle;
    departed.insert(app->display().client_id());
    app.reset();  // Disconnect: the server destroys the window, frees the slot.
    wm_->ProcessEvents();
  }
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(wm_->x_error_count(), wm_errors);
  EXPECT_EQ(Sizes(), baseline);
  for (xproto::ClientId client : departed) {
    EXPECT_FALSE(server_->HasClient(client));
  }
  // The slot is free again: the next client gets the same base.
  xlib::Display next(server_.get(), "next");
  EXPECT_EQ(server_->IdBase(next.client_id()), *ids.begin());
}

// A window that reuses a recycled id starts with a clean ledger: not
// quarantined, no coalesced configure waiting for it, its own event count,
// and its own sanitized properties logged as news.
TEST_F(IdSpaceTest, RecycledIdStartsClean) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  StartWithPanner();
  const StateSizes baseline = Sizes();

  // The first owner of the id: an oversized name (sanitized and logged) and
  // a ConfigureRequest flood that gets it quarantined.
  std::unique_ptr<xlib::ClientApp> loud = NewApp(std::string(100000, 'x'));
  const WindowId id = loud->window();
  const std::string key = "icccm:WM_NAME:" + std::to_string(id);
  loud->Map();
  wm_->ProcessEvents();
  ASSERT_NE(Managed(*loud), nullptr);
  const int logged_at_manage = xbase::LogThrottleCount(key);
  ASSERT_GT(logged_at_manage, 0);
  for (int i = 0; i < 300; ++i) {
    loud->RequestMoveResize({i % 40, i % 20, 30 + i % 8, 10 + i % 4});
  }
  wm_->ProcessEvents();
  ASSERT_TRUE(wm_->IsQuarantined(id));
  ASSERT_EQ(wm_->keyed_table_sizes().pending_configures,
            baseline.wm.pending_configures + 1);
  const uint64_t loud_events = wm_->events_dispatched_for(id);

  loud.reset();
  wm_->ProcessEvents();
  EXPECT_EQ(Sizes(), baseline);
  EXPECT_EQ(xbase::LogThrottleCount(key), 0);

  // The next client takes the freed slot and mints the same id.
  std::unique_ptr<xlib::ClientApp> quiet = NewApp(std::string(100000, 'y'));
  ASSERT_EQ(quiet->window(), id);
  EXPECT_FALSE(wm_->IsQuarantined(id));
  EXPECT_EQ(wm_->events_dispatched_for(id), 0u);
  quiet->Map();
  wm_->ProcessEvents();
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  ASSERT_NE(Managed(*quiet), nullptr);
  EXPECT_FALSE(wm_->IsQuarantined(id));
  EXPECT_EQ(wm_->keyed_table_sizes().pending_configures, baseline.wm.pending_configures);
  EXPECT_LT(wm_->events_dispatched_for(id), loud_events);
  EXPECT_EQ(xbase::LogThrottleCount(key), logged_at_manage);
  EXPECT_EQ(quiet->display().ErrorCount(), 0u);
}

// One connection creates and destroys more windows than its range holds.
// When the range is spent the Display asks once for the largest free run:
// with windows kept alive at the 1000th and 1500000th ids, that is the run
// between them.  Runs in-process (a direct query) and in wire mode (a
// GetIdRange round trip).
class IdRangeTest : public ::testing::TestWithParam<bool> {};

TEST_P(IdRangeTest, OneConnectionOutlivesItsRange) {
  xserver::Server server;
  xlib::Display display(&server, "churn");
  display.set_wire_mode(GetParam());
  const WindowId root = display.RootWindow(0);
  const WindowId base = server.IdBase(display.client_id());
  const std::set<uint32_t> kept = {0, 1000, 1500000};
  const uint32_t range = kIdMask + 1;
  WindowId after_range = kNone;
  for (uint32_t i = 0; i < range + 5000; ++i) {
    WindowId window = display.CreateWindow(root, {0, 0, 4, 4});
    ASSERT_NE(window, kNone) << "create " << i;
    if (i == range) {
      after_range = window;
    }
    if (kept.count(i) == 0) {
      ASSERT_TRUE(display.DestroyWindow(window)) << "destroy " << i;
    }
  }
  EXPECT_EQ(display.ErrorCount(), 0u);
  EXPECT_EQ(after_range, base | 1001);
  EXPECT_EQ(server.QueryTree(root)->children,
            (std::vector<WindowId>{base, base | 1000, base | 1500000}));
}

INSTANTIATE_TEST_SUITE_P(Modes, IdRangeTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Wire") : std::string("Direct");
                         });

}  // namespace
}  // namespace swm_test
