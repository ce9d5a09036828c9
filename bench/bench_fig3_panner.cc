// Figure 3 — the Virtual Desktop panner (paper §6.1).
//
// Regenerates the panner rendering and measures the panner's update cost as
// windows accumulate, panner-driven panning, and the panner-resize ->
// desktop-resize path.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"

namespace {

constexpr char kPannerResources[] =
    "swm*virtualDesktop: 4608x3600\n"
    "swm*panner: True\n"
    "swm*pannerScale: 48\n";

void PrintFigure3() {
  xserver::Server server({xserver::ScreenConfig{100, 40, false}});
  auto wm = bench_util::MakeSwm(&server,
                                "swm*virtualDesktop: 400x160\n"
                                "swm*panner: True\n"
                                "swm*pannerScale: 8\n");
  // A few windows spread over the desktop so the miniature shows boxes.
  std::vector<std::unique_ptr<xlib::ClientApp>> apps;
  for (int i = 0; i < 3; ++i) {
    xlib::ClientAppConfig config;
    config.name = "w" + std::to_string(i);
    config.wm_class = {"w", "W"};
    config.geometry = {0, 0, 60, 24};
    apps.push_back(std::make_unique<xlib::ClientApp>(&server, config));
    apps.back()->Map();
  }
  wm->ProcessEvents();
  int i = 0;
  for (auto* client : wm->Clients()) {
    if (!client->is_internal) {
      wm->MoveFrameTo(client, {40 + 120 * i, 20 + 40 * i});
      ++i;
    }
  }
  wm->vdesk(0)->PanTo({60, 30});
  wm->panner(0)->Update();
  wm->ProcessEvents();
  std::printf("Figure 3: Virtual Desktop panner (regenerated)\n%s\n",
              server.RenderScreen(0).ToString().c_str());
}

// One reconcile with nothing moved, vs managed window count: the walk over
// every client that each batch's reconcile makes.  It draws nothing; a full
// rebuild of the miniature is Panner::Redraw.
void BM_PannerUpdate(benchmark::State& state) {
  const int windows = static_cast<int>(state.range(0));
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), kPannerResources);
  auto apps = bench_util::SpawnClients(server.get(), windows,
                                       [&] { wm->ProcessEvents(); });
  swm::Panner* panner = wm->panner(0);
  for (auto _ : state) {
    panner->Update();
  }
  state.SetItemsProcessed(state.iterations() * windows);
}
BENCHMARK(BM_PannerUpdate)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

// A full panner interaction: click into the panner to recenter the
// viewport (Btn1 semantics of §6.1).
void BM_PannerClickPan(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), kPannerResources);
  auto apps = bench_util::SpawnClients(server.get(), 16,
                                       [&] { wm->ProcessEvents(); });
  swm::Panner* panner = wm->panner(0);
  xbase::Point origin = server->RootPosition(panner->window());
  int toggle = 0;
  for (auto _ : state) {
    xbase::Point target{origin.x + 10 + (toggle % 2) * 30, origin.y + 10};
    ++toggle;
    server->SimulateMotion(target);
    server->SimulateButton(1, true);
    server->SimulateButton(1, false);
    wm->ProcessEvents();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PannerClickPan);

// Miniature-window move: press Btn2 on a miniature, drop elsewhere.
void BM_PannerWindowMove(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), kPannerResources);
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm->ProcessEvents();
  swm::ManagedClient* client = wm->FindClient(app.window());
  swm::Panner* panner = wm->panner(0);
  int toggle = 0;
  for (auto _ : state) {
    wm->MoveFrameTo(client, {480, 480});
    wm->ProcessEvents();
    xbase::Point origin = server->RootPosition(panner->window());
    server->SimulateMotion({origin.x + 10, origin.y + 10});
    server->SimulateButton(2, true);
    wm->ProcessEvents();
    server->SimulateMotion({origin.x + 20 + (toggle % 2) * 10, origin.y + 20});
    ++toggle;
    server->SimulateButton(2, false);
    wm->ProcessEvents();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PannerWindowMove);

// Resizing the panner resizes the Virtual Desktop (paper §6.1).
void BM_PannerResizeDesktop(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), kPannerResources);
  wm->ProcessEvents();
  swm::ManagedClient* panner_client = wm->FindClient(wm->panner(0)->window());
  int toggle = 0;
  for (auto _ : state) {
    xbase::Size size = toggle++ % 2 == 0 ? xbase::Size{80, 60} : xbase::Size{96, 75};
    wm->ResizeClient(panner_client, size);
    wm->ProcessEvents();
    benchmark::DoNotOptimize(wm->vdesk(0)->size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PannerResizeDesktop);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
