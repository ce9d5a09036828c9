// Differential property test for the retained-mode frame pipeline
// (docs/RENDERING.md): seeded random operation sequences run against two
// identical WM stacks.  After every operation the oracle stack also runs an
// "invalidate everything, then flush" pass, which lays out and repaints
// every toolkit object anew, and the two rendered framebuffers must
// be byte-identical.  Over the whole run the retained stack must paint
// strictly fewer objects and pixels than the oracle passes alone did.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/oi/object.h"
#include "src/swm/wm.h"
#include "src/xlib/client_app.h"
#include "src/xlib/icccm.h"
#include "src/xserver/server.h"

namespace swm_test {
namespace {

struct Stack {
  std::unique_ptr<xserver::Server> server;
  std::unique_ptr<swm::WindowManager> wm;
  std::vector<std::unique_ptr<xlib::ClientApp>> apps;
};

Stack StartStack(int width = 200, int height = 100) {
  Stack stack;
  stack.server = std::make_unique<xserver::Server>(
      std::vector<xserver::ScreenConfig>{xserver::ScreenConfig{width, height, false}});
  swm::WindowManager::Options options;
  options.template_name = "openlook";
  stack.wm = std::make_unique<swm::WindowManager>(stack.server.get(), options);
  EXPECT_TRUE(stack.wm->Start());
  return stack;
}

// Work done by one oracle pass.
struct PassCost {
  uint64_t objects_painted = 0;
  int64_t pixels_drawn = 0;
};

void InvalidateWindowTree(Stack* stack, xproto::WindowId window) {
  if (oi::Object* object = stack->wm->toolkit(0).FindObject(window)) {
    object->TreeRoot()->InvalidateTree(oi::kLayoutDirty | oi::kPaintDirty);
  }
  auto tree = stack->server->QueryTree(window);
  if (tree.has_value()) {
    for (xproto::WindowId child : tree->children) {
      InvalidateWindowTree(stack, child);
    }
  }
}

// The oracle: every toolkit object reachable from the root is laid out and
// repainted, whatever the retained pipeline thinks is dirty.
PassCost InvalidateEverythingAndFlush(Stack* stack) {
  uint64_t painted_before = stack->wm->toolkit(0).frame_stats().objects_painted;
  int64_t pixels_before = stack->server->render_stats().pixels_drawn;
  InvalidateWindowTree(stack, stack->server->RootWindow(0));
  stack->wm->FlushFrames();
  return PassCost{stack->wm->toolkit(0).frame_stats().objects_painted - painted_before,
                  stack->server->render_stats().pixels_drawn - pixels_before};
}

void SettleEvents(Stack* stack) {
  stack->wm->ProcessEvents();
  for (std::unique_ptr<xlib::ClientApp>& app : stack->apps) {
    app->ProcessEvents();
  }
  stack->wm->ProcessEvents();
}

// One random operation, applied identically to both stacks.  `op`, `target`
// and the geometry/name payloads are drawn once so the streams match.
void ApplyOp(Stack* stack, int op, int target, const xbase::Rect& geometry,
             const std::string& name, int* spawned) {
  std::vector<std::unique_ptr<xlib::ClientApp>>& apps = stack->apps;
  if (apps.empty() || (op == 0 && apps.size() < 5)) {
    xlib::ClientAppConfig config;
    config.name = "diff" + std::to_string((*spawned)++);
    config.wm_class = {config.name, "Diff"};
    config.command = {config.name};
    config.geometry = geometry;
    apps.push_back(std::make_unique<xlib::ClientApp>(stack->server.get(), config));
    apps.back()->Map();
  } else {
    xlib::ClientApp& app = *apps[target % apps.size()];
    switch (op) {
      case 1:
        app.RequestMoveResize(geometry);
        break;
      case 2:
        app.RequestIconify();
        break;
      case 3:
        app.Map();  // Deiconify (or no-op when already mapped).
        break;
      case 4:
        xlib::SetWmName(&app.display(), app.window(), name);
        break;
      default:
        xlib::SetWmIconName(&app.display(), app.window(), name);
        break;
    }
  }
  SettleEvents(stack);
}

TEST(FrameDifferentialTest, RetainedMatchesFullRepaintPixelForPixel) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kError);
  constexpr int kSequences = 100;
  constexpr int kOpsPerSequence = 12;
  int64_t total_retained_pixels = 0;
  int64_t total_oracle_pixels = 0;
  uint64_t total_retained_painted = 0;
  uint64_t total_oracle_painted = 0;

  for (int sequence = 0; sequence < kSequences; ++sequence) {
    std::mt19937_64 rng(0xf00dULL + sequence);
    Stack retained = StartStack();
    Stack oracle = StartStack();
    int spawned_retained = 0;
    int spawned_oracle = 0;

    for (int step = 0; step < kOpsPerSequence; ++step) {
      SCOPED_TRACE("sequence " + std::to_string(sequence) + " step " +
                   std::to_string(step));
      int op = static_cast<int>(rng() % 6);
      int target = static_cast<int>(rng() % 8);
      xbase::Rect geometry{static_cast<int>(rng() % 140),
                           static_cast<int>(rng() % 60),
                           static_cast<int>(10 + rng() % 50),
                           static_cast<int>(6 + rng() % 24)};
      std::string name = "name" + std::to_string(rng() % 12);

      ApplyOp(&retained, op, target, geometry, name, &spawned_retained);
      ApplyOp(&oracle, op, target, geometry, name, &spawned_oracle);
      PassCost pass = InvalidateEverythingAndFlush(&oracle);
      total_oracle_painted += pass.objects_painted;
      total_oracle_pixels += pass.pixels_drawn;

      ASSERT_EQ(retained.server->RenderScreen(0).ToString(),
                oracle.server->RenderScreen(0).ToString());
    }

    total_retained_pixels += retained.server->render_stats().pixels_drawn;
    total_retained_painted += retained.wm->toolkit(0).frame_stats().objects_painted;
  }

  // Everything the retained stack painted, start-up included, stays below
  // what the full repaints alone cost.
  EXPECT_LT(total_retained_pixels, total_oracle_pixels);
  EXPECT_LT(total_retained_painted, total_oracle_painted);
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
}

// Event storm: 4 clients each get 8 move/resize + retitle pairs per batch,
// and one ProcessEvents drains the batch.  After every batch the retained
// framebuffer must equal a full repaint of the same state.  The batch paints
// at most one frame per settle iteration, however many ConfigureRequests it
// holds, and fewer objects than the full repaint.
TEST(FrameDifferentialTest, EventStormMatchesFullRepaint) {
  Stack retained = StartStack(300, 200);
  Stack oracle = StartStack(300, 200);
  for (Stack* stack : {&retained, &oracle}) {
    for (int i = 0; i < 4; ++i) {
      xlib::ClientAppConfig config;
      config.name = "storm" + std::to_string(i);
      config.wm_class = {config.name, "Storm"};
      config.command = {config.name};
      config.geometry = {10 + i * 40, 10 + i * 20, 40, 20};
      stack->apps.push_back(std::make_unique<xlib::ClientApp>(stack->server.get(), config));
      stack->apps.back()->Map();
    }
    stack->wm->ProcessEvents();
  }

  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("batch " + std::to_string(round));
    const oi::FrameScheduler::Stats before = retained.wm->toolkit(0).frame_stats();
    const uint64_t iterations_before = retained.wm->settle_iterations();
    for (Stack* stack : {&retained, &oracle}) {
      for (int e = 0; e < 8; ++e) {
        for (size_t i = 0; i < stack->apps.size(); ++i) {
          xlib::ClientApp& app = *stack->apps[i];
          app.RequestMoveResize({static_cast<int>(i) * 30 + e * 4, round * 10 + e,
                                 40 + (e % 3) * 6, 20 + (e % 2) * 4});
          xlib::SetWmName(&app.display(), app.window(),
                          "w" + std::to_string((e + round) % 5));
        }
      }
      stack->wm->ProcessEvents();
    }
    const oi::FrameScheduler::Stats& after = retained.wm->toolkit(0).frame_stats();
    PassCost full = InvalidateEverythingAndFlush(&oracle);
    ASSERT_EQ(retained.server->RenderScreen(0).ToString(),
              oracle.server->RenderScreen(0).ToString());
    EXPECT_LE(after.frames - before.frames,
              retained.wm->settle_iterations() - iterations_before);
    EXPECT_LT(after.objects_painted - before.objects_painted, full.objects_painted);
  }
}

}  // namespace
}  // namespace swm_test
