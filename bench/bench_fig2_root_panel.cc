// Figure 2 — the root panel (paper §4.1.4).
//
// Regenerates the 8-button/2-row root panel rendering and measures root
// panel construction and button-event dispatch through the bindings engine.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"

namespace {

std::string RowsOfButtons(int buttons, int columns) {
  std::string def;
  for (int i = 0; i < buttons; ++i) {
    def += "button b" + std::to_string(i) + " +" + std::to_string(i % columns) + "+" +
           std::to_string(i / columns) + " ";
  }
  return def;
}

void PrintFigure2() {
  xserver::Server server({xserver::ScreenConfig{46, 12, false}});
  auto wm = bench_util::MakeSwm(&server, "swm*rootPanels: RootPanel\nswm*panner: False\n");
  std::printf("Figure 2: root panel example (regenerated)\n%s\n",
              server.RenderScreen(0).ToString().c_str());
}

// Building a root panel with B buttons (the Figure 2 panel has 8).
void BM_BuildRootPanel(benchmark::State& state) {
  const int buttons = static_cast<int>(state.range(0));
  auto server = bench_util::MakeServer();
  std::string resources =
      "swm*panel.bench: " + RowsOfButtons(buttons, 4) + "\nswm*panner: False\n";
  auto wm = bench_util::MakeSwm(server.get(), resources);
  oi::Toolkit& toolkit = wm->toolkit(0);
  auto lookup = [&](const std::string& name) { return wm->PanelDefinition(0, name); };
  for (auto _ : state) {
    auto tree = toolkit.BuildPanelTree("bench", server->RootWindow(0), lookup);
    tree->DoLayout();
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * buttons);
}
BENCHMARK(BM_BuildRootPanel)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// Button press -> binding match -> function dispatch, the §4.4 hot path.
void BM_ButtonDispatch(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(
      server.get(),
      "swm*rootPanels: RootPanel\nswm*panner: False\n"
      "swm*panel.RootPanel.button.raise.bindings: <Btn1> : f.nop\n");
  wm->ProcessEvents();
  // Find the root panel's "raise" button and park the pointer on it.
  oi::Object* button = nullptr;
  std::vector<xproto::WindowId> windows{server->RootWindow(0)};  // Walked level by level.
  for (size_t i = 0; i < windows.size() && button == nullptr; ++i) {
    oi::Object* candidate = wm->toolkit(0).FindObject(windows[i]);
    if (candidate != nullptr && candidate->name() == "raise") {
      button = candidate;
    }
    std::vector<xproto::WindowId> children = server->QueryTree(windows[i])->children;
    windows.insert(windows.end(), children.begin(), children.end());
  }
  if (button == nullptr) {
    state.SkipWithError("root panel button not found");
    return;
  }
  xbase::Point pos = server->RootPosition(button->window());
  server->SimulateMotion({pos.x + 1, pos.y + 1});
  wm->ProcessEvents();
  for (auto _ : state) {
    server->SimulateButton(1, true);
    server->SimulateButton(1, false);
    wm->ProcessEvents();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ButtonDispatch);

// Dynamic appearance change (f.setButtonLabel path) per §4.2.
void BM_DynamicButtonRelabel(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm->ProcessEvents();
  swm::ManagedClient* client = wm->FindClient(app.window());
  auto* name = static_cast<oi::Button*>(client->name_object);
  int i = 0;
  for (auto _ : state) {
    name->SetLabel(i++ % 2 == 0 ? "busy" : "idle");
    benchmark::DoNotOptimize(name->label());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DynamicButtonRelabel);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
