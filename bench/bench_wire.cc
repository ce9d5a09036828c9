// Wire-codec benchmarks (PR 6, docs/PROTOCOL.md): decode throughput for the
// hardened parser and wall-clock for deterministic trace replay.
//
//   BM_DecodeRequestStream   parse a pre-encoded mixed request stream;
//                            messages_per_second is the decode rate.
//   BM_DispatchBytesStream   the same stream through the full Server
//                            dispatch path (parse + execute + events).
//   BM_TraceReplay           replay a recorded session (honest traffic,
//                            input, a mutated hostile stream) into a fresh
//                            server per iteration.
//   BM_Display_DirectRequests a fixed request mix through an in-process
//                            Display outside wire mode (no bytes encoded);
//                            one iteration is requests_per_iteration
//                            requests, so ns per request is the time per
//                            iteration divided by that.
//   BM_Display_DirectQueries the queries swm asks most, through the same
//                            in-process Display: answered by
//                            Server::Answer, no bytes and no sequence slot;
//                            queries_per_iteration per iteration.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/logging.h"
#include "src/xlib/display.h"
#include "src/xproto/trace.h"
#include "src/xproto/wire.h"
#include "src/xserver/faults.h"
#include "src/xserver/replay.h"

namespace {

// A mixed stream representative of session traffic: window lifecycle,
// configuration, properties, and drawing, sent by the client whose id base
// is `base`.  Every request after the first creates names a window it made.
std::vector<uint8_t> BuildStream(int frames, xproto::WindowId base, size_t* frame_count) {
  xproto::WireWriter w;
  size_t count = 0;
  for (int i = 0; i < frames; ++i) {
    switch (i % 6) {
      case 0:
        xproto::EncodeRequest(
            xproto::CreateWindowRequest{.window = base | static_cast<uint32_t>(i / 6),
                                        .parent = 1,
                                        .geometry = {i % 500, i % 300, 120, 80}},
            &w);
        break;
      case 1:
        xproto::EncodeRequest(
            xproto::MapWindowRequest{.window = base | static_cast<uint32_t>(i % 40)}, &w);
        break;
      case 2:
        xproto::EncodeRequest(
            xproto::ConfigureWindowRequest{
                .window = base | static_cast<uint32_t>(i % 40),
                .value_mask = xproto::kConfigX | xproto::kConfigY,
                .geometry = {i % 400, i % 200, 0, 0}},
            &w);
        break;
      case 3:
        xproto::EncodeRequest(
            xproto::ChangePropertyRequest{
                .window = base | static_cast<uint32_t>(i % 40),
                .property = 5,
                .type = 1,
                .format = 8,
                .mode = 0,
                .data = std::vector<uint8_t>(32, 'x')},
            &w);
        break;
      case 4:
        xproto::EncodeRequest(
            xproto::DrawRequest{.window = base | static_cast<uint32_t>(i % 40),
                                .kind = 0,
                                .rect = {0, 0, 40, 20},
                                .fill = '#'},
            &w);
        break;
      case 5:
        xproto::EncodeRequest(
            xproto::SelectInputRequest{.window = base | static_cast<uint32_t>(i % 40),
                                       .event_mask = 0xFFFF},
            &w);
        break;
    }
    ++count;
  }
  *frame_count = count;
  return w.Take();
}

void BM_DecodeRequestStream(benchmark::State& state) {
  size_t frames = 0;
  std::vector<uint8_t> stream = BuildStream(600, xproto::WindowId{1} << xproto::kIdSlotShift,
                                            &frames);
  size_t decoded = 0;
  for (auto _ : state) {
    std::span<const uint8_t> rest(stream);
    while (!rest.empty()) {
      xproto::Request request;
      xproto::ParseError error;
      size_t used = xproto::DecodeRequest(rest, &request, &error);
      if (used == 0) {
        state.SkipWithError("decode failed on honest stream");
        break;
      }
      rest = rest.subspan(used);
      ++decoded;
      benchmark::DoNotOptimize(request);
    }
  }
  state.counters["messages_per_second"] = benchmark::Counter(
      static_cast<double>(decoded), benchmark::Counter::kIsRate);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_DecodeRequestStream);

void BM_DispatchBytesStream(benchmark::State& state) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  size_t frames = 0;
  // A fresh server's first client takes id slot 1.
  std::vector<uint8_t> stream = BuildStream(600, xproto::WindowId{1} << xproto::kIdSlotShift,
                                            &frames);
  std::unique_ptr<xserver::Server> server;
  size_t dispatched = 0;
  for (auto _ : state) {
    // Every pass creates windows, so each one gets a fresh server (built,
    // and its predecessor destroyed, untimed): the time per iteration must
    // not depend on how many iterations the harness picks.
    state.PauseTiming();
    server = bench_util::MakeServer();
    xproto::ClientId client = server->Connect("bench");
    state.ResumeTiming();
    xserver::Server::DispatchResult result = server->DispatchBytes(client, stream);
    dispatched += result.requests_dispatched;
  }
  state.counters["messages_per_second"] = benchmark::Counter(
      static_cast<double>(dispatched), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DispatchBytesStream);

// Records one session up front: honest wire-mode traffic, simulated input,
// and a hostile stream mangled by the seeded wire mutations.
xproto::Trace RecordSession() {
  xserver::Server server;
  xproto::TraceRecorder recorder;
  server.SetTraceRecorder(&recorder);

  xlib::Display honest(&server, "bench-honest");
  honest.set_wire_mode(true);
  xproto::WindowId root = server.RootWindow(0);
  for (int i = 0; i < 20; ++i) {
    xproto::WindowId w =
        honest.CreateWindow(root, {(i * 17) % 150, (i * 11) % 80, 40, 20});
    honest.MapWindow(w);
    honest.MoveWindow(w, {(i * 23) % 140, (i * 7) % 70});
  }

  xserver::FaultPlan plan;
  plan.seed = 99;
  plan.bitflip_request_permille = 300;
  plan.lie_length_permille = 150;
  plan.truncate_request_permille = 150;
  plan.scramble_opcode_permille = 150;
  server.InstallFaultPlan(plan);
  xproto::ClientId hostile = server.Connect("bench-hostile");
  size_t frames = 0;
  std::vector<uint8_t> stream = BuildStream(200, server.IdBase(hostile), &frames);
  server.DispatchBytes(hostile, stream);
  server.ClearFaultPlan();

  for (int i = 0; i < 10; ++i) {
    server.SimulateMotion({(i * 13) % 150, (i * 9) % 80});
    server.SimulateButton(1, true);
    server.SimulateButton(1, false);
  }

  server.SetTraceRecorder(nullptr);
  recorder.RecordExpect(server.TotalRequests(), server.render_stats().draw_ops,
                        static_cast<uint64_t>(server.render_stats().pixels_drawn));
  return recorder.Take();
}

void BM_TraceReplay(benchmark::State& state) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  xproto::Trace trace = RecordSession();
  size_t records = 0;
  for (auto _ : state) {
    xserver::Server server;
    xserver::ReplayResult result = xserver::ReplayTrace(&server, trace);
    if (!result.expectations_met) {
      state.SkipWithError("replay diverged");
      break;
    }
    records += result.records_applied;
  }
  state.counters["records_per_second"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kIsRate);
  state.counters["trace_records"] =
      benchmark::Counter(static_cast<double>(trace.records.size()));
}
BENCHMARK(BM_TraceReplay);

// A mix of what swm's own Display sends while managing and decorating:
// configure, text and fill draws, a title property, unmap/map.  The clear
// keeps each window's display list from growing across iterations.
void BM_Display_DirectRequests(benchmark::State& state) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  xserver::Server server;
  xlib::Display display(&server, "bench-direct");
  xproto::AtomId name = server.InternAtom("WM_NAME");
  xproto::AtomId string_type = server.InternAtom("STRING");
  constexpr int kWindows = 16;
  std::vector<xproto::WindowId> windows;
  for (int i = 0; i < kWindows; ++i) {
    windows.push_back(
        display.CreateWindow(display.RootWindow(0), {i * 8, i * 6, 120, 80}));
    display.MapWindow(windows.back());
  }
  const std::string title = "xterm: ~/src/swm";
  const std::vector<uint8_t> title_bytes(title.begin(), title.end());
  xserver::DrawOp text;
  text.kind = xserver::DrawOp::Kind::kTextCentered;
  text.rect = {0, 0, 120, 1};
  text.text = title;
  xserver::DrawOp fill;
  fill.kind = xserver::DrawOp::Kind::kFillRect;
  fill.rect = {0, 1, 120, 3};
  fill.fill = '#';
  constexpr int kRequestsPerIteration = 7;
  int i = 0;
  for (auto _ : state) {
    xproto::WindowId window = windows[i % kWindows];
    benchmark::DoNotOptimize(display.MoveWindow(window, {i % 200, i % 150}));
    benchmark::DoNotOptimize(display.Draw(window, text));
    benchmark::DoNotOptimize(display.Draw(window, fill));
    benchmark::DoNotOptimize(display.ChangeProperty(
        window, name, string_type, 8, xserver::PropMode::kReplace, title_bytes));
    benchmark::DoNotOptimize(display.UnmapWindow(window));
    benchmark::DoNotOptimize(display.MapWindow(window));
    benchmark::DoNotOptimize(display.ClearWindow(window));
    ++i;
  }
  if (display.ErrorCount() != 0) {
    state.SkipWithError("a benchmark request raised an X error");
  }
  state.counters["requests_per_iteration"] = kRequestsPerIteration;
}
BENCHMARK(BM_Display_DirectRequests);

// What swm asks while managing and moving a client: the frame's geometry,
// attributes, title and children, the client's root position, the pointer.
void BM_Display_DirectQueries(benchmark::State& state) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  xserver::Server server;
  xlib::Display display(&server, "bench-direct");
  xproto::AtomId name = display.InternAtom("WM_NAME");
  constexpr int kWindows = 16;
  std::vector<xproto::WindowId> frames;
  std::vector<xproto::WindowId> clients;
  for (int i = 0; i < kWindows; ++i) {
    frames.push_back(display.CreateWindow(display.RootWindow(0), {i * 8, i * 6, 120, 80}));
    clients.push_back(display.CreateWindow(frames.back(), {0, 1, 120, 79}));
    display.SetStringProperty(frames.back(), "WM_NAME", "xterm: ~/src/swm");
    display.MapWindow(clients.back());
    display.MapWindow(frames.back());
  }
  xproto::WindowId root = display.RootWindow(0);
  constexpr int kQueriesPerIteration = 6;
  uint64_t requests_before = display.RequestCount();
  int i = 0;
  for (auto _ : state) {
    xproto::WindowId frame = frames[i % kWindows];
    benchmark::DoNotOptimize(display.GetGeometry(frame));
    benchmark::DoNotOptimize(display.GetWindowAttributes(frame));
    benchmark::DoNotOptimize(display.GetProperty(frame, name));
    benchmark::DoNotOptimize(display.QueryTree(frame));
    benchmark::DoNotOptimize(display.TranslateCoordinates(clients[i % kWindows], root, {0, 0}));
    benchmark::DoNotOptimize(display.QueryPointer());
    ++i;
  }
  if (display.ErrorCount() != 0 || display.RequestCount() != requests_before) {
    state.SkipWithError("an in-process query took a sequence slot or raised an error");
  }
  state.counters["queries_per_iteration"] = kQueriesPerIteration;
}
BENCHMARK(BM_Display_DirectQueries);

}  // namespace

BENCHMARK_MAIN();
