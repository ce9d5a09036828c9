// Event-storm benchmark for the retained-mode frame pipeline
// (docs/RENDERING.md): N clients each emit M configure/property events per
// ProcessEvents drain.  The pipeline coalesces the batch and paints each
// damaged object once per flush.
//
// Counters (averaged per drain): objects painted, pixels the server was
// asked to draw, events dispatched after coalescing.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/xlib/icccm.h"

namespace {

constexpr int kClients = 8;
constexpr int kEventsPerClient = 12;

void BM_FramePipeline_EventStorm_Retained(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  swm::WindowManager::Options options;
  options.template_name = "openlook";
  auto wm = std::make_unique<swm::WindowManager>(server.get(), options);
  wm->Start();
  auto apps = bench_util::SpawnClients(server.get(), kClients,
                                       [&] { wm->ProcessEvents(); });
  wm->toolkit(0).ResetFrameStats();
  server->ResetRenderStats();

  int round = 0;
  for (auto _ : state) {
    for (int e = 0; e < kEventsPerClient; ++e) {
      for (int i = 0; i < kClients; ++i) {
        xlib::ClientApp& app = *apps[i];
        // Alternating move/resize requests plus a retitle: the storm a
        // busy client (or a drag) produces between two WM wakeups.
        xbase::Rect geometry{(i * 13 + e * 3 + round) % 500,
                             (i * 7 + e * 5) % 400,
                             100 + ((e + round) % 5) * 8,
                             60 + ((e + i) % 4) * 6};
        app.RequestMoveResize(geometry);
        xlib::SetWmName(&app.display(), app.window(),
                        "client" + std::to_string(i) + "-" +
                            std::to_string((e + round) % 7));
      }
    }
    wm->ProcessEvents();
    ++round;
  }

  const oi::FrameScheduler::Stats& frames = wm->toolkit(0).frame_stats();
  const xserver::Server::RenderStats& render = server->render_stats();
  auto per_drain = [&](double value) {
    return benchmark::Counter(value, benchmark::Counter::kAvgIterations);
  };
  state.counters["objects_painted"] = per_drain(
      static_cast<double>(frames.objects_painted));
  state.counters["layouts"] = per_drain(static_cast<double>(frames.layouts));
  state.counters["pixels_drawn"] = per_drain(
      static_cast<double>(render.pixels_drawn));
  state.counters["events_dispatched"] = per_drain(
      static_cast<double>(wm->events_dispatched()));
  state.counters["events_coalesced"] = per_drain(
      static_cast<double>(wm->events_coalesced()));
  state.SetItemsProcessed(state.iterations() * kClients * kEventsPerClient);
}
BENCHMARK(BM_FramePipeline_EventStorm_Retained);

}  // namespace

BENCHMARK_MAIN();
