// Layout-policy engine (docs/POLICIES.md).
//
// Two costs matter: the per-manage overhead each policy adds (a manage storm
// of N clients — slot policies request a reflow per manage, and the event
// loop runs one per batch, so the storm is O(N) in ApplySlot calls), and the
// cost of a runtime policy switch (SetLayoutPolicy relayouts every screen).
// The floating policy is the baseline: its manage storm is the pre-refactor
// cascade placement and its relayout is a no-op.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/swm/policy/dynamic_policy.h"
#include "src/swm/policy/layout_policy.h"
#include "src/swm/policy/tiling_policy.h"

namespace {

// Managing N clients under a given policy, end to end through the WM's
// event loop.  Manual timing: server/client construction is off the clock.
void ManageStorm(benchmark::State& state, const std::string& policy) {
  const int clients = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto server = bench_util::MakeServer();
    std::vector<std::unique_ptr<xlib::ClientApp>> apps;
    apps.reserve(clients);
    for (int i = 0; i < clients; ++i) {
      apps.push_back(
          std::make_unique<xlib::ClientApp>(server.get(), bench_util::ClientConfig(i)));
    }

    auto start = std::chrono::steady_clock::now();
    auto wm = bench_util::MakeSwm(
        server.get(), "swm*panner: False\nswm.layout.policy: " + policy + "\n");
    for (auto& app : apps) {
      app->Map();
    }
    wm->ProcessEvents();
    benchmark::DoNotOptimize(wm->ClientCount());
    auto elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
    state.SetIterationTime(elapsed.count());

    apps.clear();
    wm.reset();
    server.reset();
  }
  state.SetItemsProcessed(state.iterations() * clients);
}

void BM_ManageStorm_Floating(benchmark::State& state) {
  ManageStorm(state, "floating");
}
void BM_ManageStorm_Maximize(benchmark::State& state) {
  ManageStorm(state, "maximize");
}
void BM_ManageStorm_Tiling(benchmark::State& state) { ManageStorm(state, "tiling"); }
void BM_ManageStorm_Dynamic(benchmark::State& state) {
  ManageStorm(state, "dynamic");
}
BENCHMARK(BM_ManageStorm_Floating)->Arg(8)->Arg(32)->Arg(128)->UseManualTime();
BENCHMARK(BM_ManageStorm_Maximize)->Arg(8)->Arg(32)->Arg(128)->UseManualTime();
BENCHMARK(BM_ManageStorm_Tiling)->Arg(8)->Arg(32)->Arg(128)->UseManualTime();
BENCHMARK(BM_ManageStorm_Dynamic)->Arg(8)->Arg(32)->Arg(128)->UseManualTime();

// One full runtime policy switch over a standing population of N clients:
// SetLayoutPolicy tears the old policy down, adopts the population and
// relayouts every screen.  Cycles through all four policies so each
// iteration pays four switches (reported per switch via items processed).
void BM_PolicySwitch(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  auto apps = bench_util::SpawnClients(server.get(), clients,
                                       [&] { wm->ProcessEvents(); });
  const std::vector<std::string>& names = swm::LayoutPolicyNames();
  for (auto _ : state) {
    for (const std::string& name : names) {
      benchmark::DoNotOptimize(wm->SetLayoutPolicy(name));
    }
  }
  state.SetItemsProcessed(state.iterations() * names.size());
}
BENCHMARK(BM_PolicySwitch)->Arg(4)->Arg(16)->Arg(64);

// The pure slot geometry, isolated from the WM: how expensive is computing
// a layout for N windows?  (Answers whether reflow cost is geometry or
// request traffic — it is traffic; this is nanoseconds.)
void BM_SlotGeometry(benchmark::State& state) {
  const size_t count = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto tiling = swm::TilingPolicy::SplitSlots({1152, 900}, count);
    benchmark::DoNotOptimize(tiling);
    auto dynamic = swm::DynamicPolicy::GridSlots({1152, 900}, count);
    benchmark::DoNotOptimize(dynamic);
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_SlotGeometry)->Arg(4)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
