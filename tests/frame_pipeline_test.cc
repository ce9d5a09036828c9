// The retained-mode frame pipeline (docs/RENDERING.md): dirty-flag
// invalidation and one-paint-per-flush at the oi layer, event-batch
// coalescing at the swm layer.  Pixel identity against a full repaint is
// checked in frame_differential_test.cc.
#include <gtest/gtest.h>

#include "src/oi/toolkit.h"
#include "src/xlib/icccm.h"
#include "src/xserver/server.h"
#include "tests/server_test_peer.h"
#include "tests/swm_test_util.h"

namespace oi {
namespace {

class FrameSchedulerTest : public ::testing::Test {
 protected:
  FrameSchedulerTest()
      : server_({xserver::ScreenConfig{200, 100, false}}), dpy_(&server_, "wm") {
    toolkit_ = std::make_unique<Toolkit>(&dpy_, &db_, 0);
    toolkit_->SetResourcePrefix({"swm", "color", "screen0"},
                                {"Swm", "Color", "Screen0"});
  }

  xserver::Server server_;
  xlib::Display dpy_;
  xrdb::ResourceDatabase db_;
  std::unique_ptr<Toolkit> toolkit_;
};

TEST_F(FrameSchedulerTest, RepeatedInvalidationPaintsOnce) {
  auto panel = toolkit_->CreatePanel(nullptr, dpy_.RootWindow(0), "p");
  auto button = toolkit_->CreateButton(panel.get(), panel->window(), "b");
  Button* b = button.get();
  panel->AddChild(std::move(button));
  toolkit_->FlushFrame();  // Settle construction-time dirt.

  toolkit_->ResetFrameStats();
  for (int i = 0; i < 100; ++i) {
    b->SetLabel("label" + std::to_string(i));
  }
  const FrameScheduler::Stats& stats = toolkit_->frame_stats();
  EXPECT_EQ(stats.invalidations, 100u);
  EXPECT_EQ(stats.objects_painted, 0u);  // Nothing paints before the flush.
  toolkit_->FlushFrame();
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.layouts, 1u);  // 100 invalidations collapse to one pass.
  EXPECT_GE(stats.objects_painted, 1u);  // The button...
  EXPECT_LE(stats.objects_painted, 2u);  // ...plus the panel if it resized.
  // The final label is what reached the server.
  bool found = false;
  for (const xserver::DrawOp& op :
       xserver::ServerTestPeer::FindWindow(server_, b->window())->draw_ops) {
    found = found || op.text == "label99";
  }
  EXPECT_TRUE(found);
}

TEST_F(FrameSchedulerTest, PureMoveDoesNotRepaint) {
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "b");
  button->SetGeometry({0, 0, 20, 5});
  toolkit_->FlushFrame();
  toolkit_->ResetFrameStats();
  button->SetGeometry({50, 30, 20, 5});  // Same size: display list survives.
  toolkit_->FlushFrame();
  EXPECT_EQ(toolkit_->frame_stats().objects_painted, 0u);
  EXPECT_EQ(toolkit_->frame_stats().frames, 0u);  // Nothing pending, no frame.
  std::optional<xbase::Rect> geometry = dpy_.GetGeometry(button->window());
  ASSERT_TRUE(geometry.has_value());
  EXPECT_EQ(geometry->x, 50);  // ...but the move itself was applied.
  EXPECT_EQ(geometry->y, 30);
}

TEST_F(FrameSchedulerTest, ResizeRepaintsWithTightDamage) {
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "b");
  button->SetGeometry({0, 0, 20, 5});
  toolkit_->FlushFrame();
  toolkit_->ResetFrameStats();
  button->SetGeometry({0, 0, 30, 8});
  toolkit_->FlushFrame();
  EXPECT_EQ(toolkit_->frame_stats().objects_painted, 1u);
  EXPECT_EQ(toolkit_->frame_scheduler().last_frame_damage_area(), 30 * 8);
}

TEST_F(FrameSchedulerTest, ExposeDamageIsRetainedUntilFlush) {
  auto button = toolkit_->CreateButton(nullptr, dpy_.RootWindow(0), "b");
  button->SetGeometry({0, 0, 10, 3});
  toolkit_->FlushFrame();
  dpy_.DrainEvents([](const xproto::Event&) {});
  toolkit_->ResetFrameStats();
  button->Show();  // Generates Expose.
  dpy_.DrainEvents(
      [&](const xproto::Event& event) { toolkit_->DispatchEvent(event); });
  EXPECT_EQ(toolkit_->frame_stats().expose_rects, 1u);
  EXPECT_TRUE(toolkit_->frame_scheduler().HasPendingWork());
  toolkit_->FlushFrame();
  EXPECT_EQ(toolkit_->frame_stats().objects_painted, 1u);
  EXPECT_FALSE(toolkit_->frame_scheduler().HasPendingWork());
}

TEST_F(FrameSchedulerTest, DestroyedObjectsAreForgotten) {
  auto panel = toolkit_->CreatePanel(nullptr, dpy_.RootWindow(0), "p");
  auto button = toolkit_->CreateButton(panel.get(), panel->window(), "b");
  Button* b = button.get();
  panel->AddChild(std::move(button));
  b->SetLabel("pending");  // Dirty, never flushed.
  panel.reset();
  toolkit_->FlushFrame();  // Must not touch the freed objects.
  EXPECT_FALSE(toolkit_->frame_scheduler().HasPendingWork());
}

}  // namespace
}  // namespace oi

namespace swm_test {
namespace {

// Regression for the BuildIcon DoLayout()-without-render bug: an icon built
// while the client iconifies must be laid out AND painted, and a retitle
// while iconic must reach the screen.
TEST_F(SwmTest, IconBuiltWhileIconicIsPainted) {
  StartWm();
  auto app = Spawn("edit", {"edit", "Editor"});
  xlib::SetWmIconName(&app->display(), app->window(), "ed");
  wm_->ProcessEvents();
  swm::ManagedClient* client = Managed(*app);
  ASSERT_NE(client, nullptr);

  app->RequestIconify();
  wm_->ProcessEvents();
  ASSERT_NE(client->icon, nullptr);
  oi::Object* name_obj = client->icon->FindDescendant("iconname");
  ASSERT_NE(name_obj, nullptr);
  auto label_drawn = [&](const std::string& text) {
    for (const xserver::DrawOp& op :
         xserver::ServerTestPeer::FindWindow(*server_, name_obj->window())->draw_ops) {
      if (op.text == text) {
        return true;
      }
    }
    return false;
  };
  EXPECT_GT(name_obj->geometry().width, 0);
  EXPECT_TRUE(label_drawn("ed"));

  // Retitle while iconic: relayout (the label grows) plus repaint.
  int old_width = name_obj->geometry().width;
  xlib::SetWmIconName(&app->display(), app->window(), "renamed-editor");
  wm_->ProcessEvents();
  EXPECT_TRUE(label_drawn("renamed-editor"));
  EXPECT_GT(name_obj->geometry().width, old_width);
}

// Satellite: redundant ConfigureNotify/Expose within one drained batch are
// coalesced (keep-last / union-rects) before dispatch.
TEST_F(SwmTest, EventBatchCoalescesConfigureAndExpose) {
  StartWm();
  auto app = Spawn("app", {"app", "App"});
  ASSERT_NE(Managed(*app), nullptr);
  uint64_t coalesced_before = wm_->events_coalesced();
  uint64_t dispatched_before = wm_->events_dispatched();
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    app->RequestMoveResize({i * 5, i * 3, 30 + i, 10 + i});
  }
  wm_->ProcessEvents();
  // Each request dispatches (requests carry distinct deltas), but the
  // notify/expose cascade they trigger collapses.
  EXPECT_GE(wm_->events_dispatched() - dispatched_before,
            static_cast<uint64_t>(kRequests));
  EXPECT_GT(wm_->events_coalesced(), coalesced_before);
  // Keep-last semantics: the final request is what sticks.
  std::optional<xbase::Rect> geometry = app->display().GetGeometry(app->window());
  ASSERT_TRUE(geometry.has_value());
  EXPECT_EQ(geometry->width, 30 + kRequests - 1);
  EXPECT_EQ(geometry->height, 10 + kRequests - 1);
}

}  // namespace
}  // namespace swm_test
