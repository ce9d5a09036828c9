// Evaluation §8 — the paper's central performance claim:
//
//   "swm, like any toolkit based window manager, has somewhat slower
//    performance than a window manager written directly on top of Xlib."
//
// Head-to-head: swm (OI objects, resource lookups, bindings) vs the twm
// baseline (fixed decoration, direct xlib) on identical operations.  The
// expected *shape*: both linear in window count, swm slower by a constant
// factor — the flexibility/performance trade-off the paper calls
// "well worth the speed trade-off".
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace {

// ---- Manage/unmanage ---------------------------------------------------------

void BM_Swm_ManageUnmanage(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  for (auto _ : state) {
    std::vector<std::unique_ptr<xlib::ClientApp>> apps;
    for (int i = 0; i < batch; ++i) {
      apps.push_back(
          std::make_unique<xlib::ClientApp>(server.get(), bench_util::ClientConfig(i)));
      apps.back()->Map();
    }
    wm->ProcessEvents();
    for (auto& app : apps) {
      app->display().DestroyWindow(app->window());
    }
    wm->ProcessEvents();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Swm_ManageUnmanage)->Arg(1)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// One app launch and exit while `standing` clients stay managed on a
// virtual desktop: connect a fresh client, map it, let swm manage it, then
// destroy the app (its Display disconnects) and let swm unmanage it.  The
// server's per-client indexes keep connect/disconnect independent of the
// population, and the panner looks up and draws only the launched window's
// box and its erase, so `draw_ops_per_launch` stays flat.  Each batch paints
// one frame, so `frames_per_launch` counts the batches of a launch and an
// exit.  What still grows is O(n) by design: the pointer-window search and
// the sibling erase walk their lists.
void BM_Swm_LaunchWithStanding(benchmark::State& state) {
  const int standing = static_cast<int>(state.range(0));
  const bool panner = state.range(1) != 0;
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(),
                                std::string("swm*virtualDesktop: 3456x2700\nswm*panner: ") +
                                    (panner ? "True\n" : "False\n"));
  auto apps = bench_util::SpawnClients(server.get(), standing, [&] { wm->ProcessEvents(); });
  const uint64_t draw_ops_before = server->render_stats().draw_ops;
  const uint64_t frames_before = wm->toolkit(0).frame_stats().frames;
  for (auto _ : state) {
    auto app =
        std::make_unique<xlib::ClientApp>(server.get(), bench_util::ClientConfig(standing));
    app->Map();
    wm->ProcessEvents();
    app.reset();
    wm->ProcessEvents();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["draw_ops_per_launch"] = benchmark::Counter(
      static_cast<double>(server->render_stats().draw_ops - draw_ops_before),
      benchmark::Counter::kAvgIterations);
  state.counters["frames_per_launch"] = benchmark::Counter(
      static_cast<double>(wm->toolkit(0).frame_stats().frames - frames_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Swm_LaunchWithStanding)
    ->ArgNames({"standing", "panner"})
    ->ArgsProduct({{16, 256, 1024}, {0, 1}});

void BM_Twm_ManageUnmanage(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  auto server = bench_util::MakeServer();
  twm::Twm wm(server.get());
  wm.Start();
  for (auto _ : state) {
    std::vector<std::unique_ptr<xlib::ClientApp>> apps;
    for (int i = 0; i < batch; ++i) {
      apps.push_back(
          std::make_unique<xlib::ClientApp>(server.get(), bench_util::ClientConfig(i)));
      apps.back()->Map();
    }
    wm.ProcessEvents();
    for (auto& app : apps) {
      app->display().DestroyWindow(app->window());
    }
    wm.ProcessEvents();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Twm_ManageUnmanage)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

// ---- Move --------------------------------------------------------------------

void BM_Swm_MoveWindow(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm->ProcessEvents();
  swm::ManagedClient* client = wm->FindClient(app.window());
  int i = 0;
  for (auto _ : state) {
    wm->MoveFrameTo(client, {10 + (i % 50), 10 + (i % 40)});
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Swm_MoveWindow);

void BM_Twm_MoveWindow(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  twm::Twm wm(server.get());
  wm.Start();
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm.ProcessEvents();
  twm::TwmClient* client = wm.FindClient(app.window());
  int i = 0;
  for (auto _ : state) {
    wm.MoveClient(client, {10 + (i % 50), 10 + (i % 40)});
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Twm_MoveWindow);

// ---- Resize (relayout of the decoration) -----------------------------------------

void BM_Swm_ResizeWindow(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm->ProcessEvents();
  swm::ManagedClient* client = wm->FindClient(app.window());
  int i = 0;
  for (auto _ : state) {
    wm->ResizeClient(client, {100 + (i % 40), 60 + (i % 30)});
    // ResizeClient only lays out; the frame paints at the next FlushFrames,
    // as it would at the end of an event batch.
    wm->FlushFrames();
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Swm_ResizeWindow);

void BM_Twm_ResizeWindow(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  twm::Twm wm(server.get());
  wm.Start();
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm.ProcessEvents();
  twm::TwmClient* client = wm.FindClient(app.window());
  int i = 0;
  for (auto _ : state) {
    wm.ResizeClient(client, {100 + (i % 40), 60 + (i % 30)});
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Twm_ResizeWindow);

// ---- Titlebar click handling ----------------------------------------------------

void BM_Swm_TitleClick(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm->ProcessEvents();
  swm::ManagedClient* client = wm->FindClient(app.window());
  xbase::Point pos = server->RootPosition(client->name_object->window());
  server->SimulateMotion({pos.x + 1, pos.y + 1});
  wm->ProcessEvents();
  for (auto _ : state) {
    server->SimulateButton(1, true);  // Bindings: f.raise.
    server->SimulateButton(1, false);
    wm->ProcessEvents();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Swm_TitleClick);

void BM_Twm_TitleClick(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  twm::Twm wm(server.get());
  wm.Start();
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm.ProcessEvents();
  twm::TwmClient* client = wm.FindClient(app.window());
  xbase::Point pos = server->RootPosition(client->title);
  server->SimulateMotion({pos.x + 1, pos.y + 1});
  wm.ProcessEvents();
  for (auto _ : state) {
    server->SimulateButton(1, true);  // Fixed policy: raise.
    server->SimulateButton(1, false);
    wm.ProcessEvents();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Twm_TitleClick);

// ---- Iconify/deiconify cycle -------------------------------------------------------

void BM_Swm_IconifyCycle(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm->ProcessEvents();
  swm::ManagedClient* client = wm->FindClient(app.window());
  for (auto _ : state) {
    wm->Iconify(client);
    wm->Deiconify(client);
    wm->ProcessEvents();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Swm_IconifyCycle);

void BM_Twm_IconifyCycle(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  twm::Twm wm(server.get());
  wm.Start();
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm.ProcessEvents();
  twm::TwmClient* client = wm.FindClient(app.window());
  for (auto _ : state) {
    wm.Iconify(client);
    wm.Deiconify(client);
    wm.ProcessEvents();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Twm_IconifyCycle);

}  // namespace

BENCHMARK_MAIN();
