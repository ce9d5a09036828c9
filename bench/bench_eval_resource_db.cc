// Evaluation §8 — the resource-database design decision:
//
//   "One of the biggest mistakes made with twm was using a separate
//    initialization file rather than the more general X resource database
//    for configuration."
//
// Quantifies the cost of that choice: Xrm lookup latency vs database size,
// specific (tight, per-client) vs non-specific (loose) entries, and the
// attribute-query path objects actually use.  Expected shape: lookups
// bounded by query depth (trie walk), largely insensitive to database size.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/swm/templates.h"
#include "src/xrdb/database.h"

namespace {

xrdb::ResourceDatabase MakeDb(int entries) {
  xrdb::ResourceDatabase db;
  for (int i = 0; i < entries; ++i) {
    // A spread of realistic swm entries.
    std::string cls = "Class" + std::to_string(i % 97);
    std::string inst = "inst" + std::to_string(i % 89);
    switch (i % 4) {
      case 0:
        db.Put("swm*" + cls + "*decoration", "panel" + std::to_string(i));
        break;
      case 1:
        db.Put("swm.color.screen0." + cls + "." + inst + ".decoration",
               "panel" + std::to_string(i));
        break;
      case 2:
        db.Put("swm*button.b" + std::to_string(i) + ".bindings", "<Btn1> : f.raise");
        break;
      case 3:
        db.Put("Swm*panel.p" + std::to_string(i), "button a +0+0 panel client +0+1");
        break;
    }
  }
  db.Put("swm*decoration", "fallback");
  db.Put("swm.color.screen0.Target.target.decoration", "specific-hit");
  return db;
}

// Non-specific lookup (loose-binding fallback), vs DB size.
void BM_LooseLookup(benchmark::State& state) {
  xrdb::ResourceDatabase db = MakeDb(static_cast<int>(state.range(0)));
  std::vector<std::string> names{"swm", "color", "screen0", "NoSuch", "nosuch",
                                 "decoration"};
  std::vector<std::string> classes{"Swm", "Color", "Screen0", "NoSuch", "nosuch",
                                   "Decoration"};
  for (auto _ : state) {
    auto value = db.Get(names, classes);
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LooseLookup)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// Fully specific lookup (the paper's class.instance form), vs DB size.
void BM_SpecificLookup(benchmark::State& state) {
  xrdb::ResourceDatabase db = MakeDb(static_cast<int>(state.range(0)));
  std::vector<std::string> names{"swm", "color", "screen0", "Target", "target",
                                 "decoration"};
  std::vector<std::string> classes{"Swm", "Color", "Screen0", "Target", "target",
                                   "Decoration"};
  for (auto _ : state) {
    auto value = db.Get(names, classes);
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpecificLookup)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// Missing resource: the full backtracking search.
void BM_MissLookup(benchmark::State& state) {
  xrdb::ResourceDatabase db = MakeDb(static_cast<int>(state.range(0)));
  std::vector<std::string> names{"swm", "color", "screen0", "Target", "target",
                                 "noSuchAttr"};
  std::vector<std::string> classes{"Swm", "Color", "Screen0", "Target", "target",
                                   "NoSuchAttr"};
  for (auto _ : state) {
    auto value = db.Get(names, classes);
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MissLookup)->Arg(100)->Arg(10000);

// Query depth scaling: deeper component paths cost more (trie walk).
void BM_LookupDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  xrdb::ResourceDatabase db;
  std::string entry = "swm";
  std::vector<std::string> names{"swm"};
  std::vector<std::string> classes{"Swm"};
  for (int i = 1; i < depth; ++i) {
    entry += ".c" + std::to_string(i);
    names.push_back("c" + std::to_string(i));
    classes.push_back("C" + std::to_string(i));
  }
  db.Put(entry, "value");
  for (auto _ : state) {
    auto value = db.Get(names, classes);
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LookupDepth)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Parsing a whole template (what swm startup does).
void BM_LoadTemplate(benchmark::State& state) {
  std::string text = *swm::TemplateText("openlook");
  for (auto _ : state) {
    xrdb::ResourceDatabase db;
    benchmark::DoNotOptimize(db.LoadFromString(text));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoadTemplate);

// The end-to-end object attribute query (toolkit prefix + tree prefix +
// path), as issued during decoration construction.
void BM_ObjectAttributeQuery(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm->ProcessEvents();
  swm::ManagedClient* client = wm->FindClient(app.window());
  oi::Object* name = client->name_object;
  for (auto _ : state) {
    auto value = name->Attribute("bindings");
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectAttributeQuery);

// Same query with the toolkit's search lists dropped every iteration:
// InvalidateQueryCaches rebinds every object of the session, then the query
// rebuilds its path's search list (a walk from the trie root) and probes it.
void BM_ObjectAttributeQueryCold(benchmark::State& state) {
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  xlib::ClientApp app(server.get(), bench_util::ClientConfig(0));
  app.Map();
  wm->ProcessEvents();
  swm::ManagedClient* client = wm->FindClient(app.window());
  oi::Object* name = client->name_object;
  const oi::Toolkit& toolkit = wm->toolkit(0);
  for (auto _ : state) {
    toolkit.InvalidateQueryCaches();
    auto value = name->Attribute("bindings");
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectAttributeQueryCold);

// A decoration attribute storm: every frame object of every managed client
// re-queried for the attributes decoration construction reads.  This is
// what f.restart or a template reload costs per redecoration pass; the
// cache-hit counter shows how much of the storm already-built search lists
// answer.
void BM_DecorationAttributeStorm(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  auto server = bench_util::MakeServer();
  auto wm = bench_util::MakeSwm(server.get(), "swm*panner: False\n");
  auto apps = bench_util::SpawnClients(server.get(), clients,
                                       [&wm]() { wm->ProcessEvents(); });
  const oi::Toolkit& toolkit = wm->toolkit(0);
  static const char* kAttributes[] = {"bindings", "decoration", "font",
                                      "foreground", "background"};
  toolkit.ResetQueryStats();
  for (auto _ : state) {
    for (swm::ManagedClient* client : wm->Clients()) {
      for (const char* attribute : kAttributes) {
        auto frame_value = client->frame->Attribute(attribute);
        benchmark::DoNotOptimize(frame_value);
        if (client->name_object != nullptr) {
          auto name_value = client->name_object->Attribute(attribute);
          benchmark::DoNotOptimize(name_value);
        }
      }
    }
  }
  const oi::Toolkit::QueryStats& stats = toolkit.query_stats();
  state.SetItemsProcessed(static_cast<int64_t>(stats.queries));
  state.counters["cache_hit_rate"] =
      stats.queries == 0 ? 0.0
                         : static_cast<double>(stats.cache_hits) /
                               static_cast<double>(stats.queries);
}
BENCHMARK(BM_DecorationAttributeStorm)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
