// §5 — SHAPE extension support.
//
// Shape-mask region conversion, shape-to-children composition, shaped
// reparenting (the shapeit decoration for oclock/xeyes) and shaped
// hit-testing.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/base/bitmap.h"
#include "src/base/region.h"

namespace {

// Bitmap mask -> banded region (the server-side ShapeCombineMask cost).
void BM_MaskToRegion(benchmark::State& state) {
  const int diameter = static_cast<int>(state.range(0));
  const xbase::Bitmap& mask = xbase::CircleMask(diameter);
  for (auto _ : state) {
    xbase::Region region = mask.ToRegion();
    benchmark::DoNotOptimize(region);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaskToRegion)->Arg(16)->Arg(64)->Arg(256);

// Region algebra on shaped windows (intersection against clip rectangles).
void BM_ShapeClipIntersection(benchmark::State& state) {
  xbase::Region circle = xbase::CircleMask(128).ToRegion();
  xbase::Region clip(xbase::Rect{32, 32, 64, 64});
  for (auto _ : state) {
    xbase::Region out = circle.Intersect(clip);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShapeClipIntersection);

// Managing a shaped client: decoration choice flips to the shaped panel,
// and the frame is shaped to its children (paper §5's oclock example).
void BM_ManageShapedClient(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  int i = 0;
  for (auto _ : state) {
    xlib::ClientAppConfig config = bench_util::ClientConfig(i++);
    config.wm_class = {"oclock", "Clock"};
    config.geometry = {10, 10, 64, 64};
    config.shaped = true;
    xlib::ClientApp app(server.get(), config);
    app.Map();
    wm->ProcessEvents();
    benchmark::DoNotOptimize(app.display().IsShaped(app.window()));
    state.PauseTiming();
    app.display().DestroyWindow(app.window());
    wm->ProcessEvents();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ManageShapedClient);

// Shape-to-children panel composition with N children (§5: "it is shaped
// to contain its children").
void BM_ShapeToChildren(benchmark::State& state) {
  const int children = static_cast<int>(state.range(0));
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  std::string def;
  for (int i = 0; i < children; ++i) {
    def += "button b" + std::to_string(i) + " +" + std::to_string(i % 8) + "+" +
           std::to_string(i / 8) + " ";
  }
  oi::Toolkit& toolkit = wm->toolkit(0);
  auto lookup = [&](const std::string& name) -> std::optional<std::string> {
    if (name == "shapedPanel") {
      return def;
    }
    return std::nullopt;
  };
  auto tree = toolkit.BuildPanelTree("shapedPanel", server->RootWindow(0), lookup);
  tree->DoLayout();
  xlib::Display& dpy = wm->display();
  for (auto _ : state) {
    // The shape-to-children composition itself.
    std::vector<xbase::Rect> rects;
    for (const auto& child : tree->children()) {
      rects.push_back(child->geometry());
    }
    dpy.ShapeSetRegion(tree->window(), xbase::Region(std::move(rects)));
  }
  state.SetItemsProcessed(state.iterations() * children);
}
BENCHMARK(BM_ShapeToChildren)->Arg(2)->Arg(16)->Arg(64);

// Hit-testing through a shaped window (pointer events follow the shape).
void BM_ShapedHitTest(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  xproto::ClientId client = server->Connect();
  xproto::WindowId win = server->CreateWindow(client, server->IdBase(client), server->RootWindow(0),
                                              {0, 0, 128, 128}, 0,
                                              xproto::WindowClass::kInputOutput, false);
  server->MapWindow(client, win);
  server->ShapeSetRegion(client, win, xbase::CircleMask(128).ToRegion());
  int toggle = 0;
  for (auto _ : state) {
    // Alternate inside/outside the circle.
    server->SimulateMotion(toggle++ % 2 == 0 ? xbase::Point{64, 64}
                                             : xbase::Point{2, 2});
    benchmark::DoNotOptimize(server->QueryPointer().window);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShapedHitTest);

}  // namespace

BENCHMARK_MAIN();
