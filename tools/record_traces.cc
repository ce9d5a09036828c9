// Regenerates the checked-in trace corpus under tests/traces/.
//
// Each chaos_seed_<n>.swmtrace is a recorded session: honest wire-mode
// traffic, a hostile byte stream mangled by the seeded FaultPlan wire
// mutations (the recorder captures the post-mutation bytes, so replay needs
// no fault plan), simulated input, and an expect footer carrying the final
// server counters.  trace_replay_test replays these twice per run and
// requires identical fingerprints plus a matching footer.
//
// Each duplex_seed_<n>.swmtrace is a *duplex* session: query-bearing
// traffic routed through a real socketpair Connection under seeded
// transport faults (short reads, short writes, EINTR storms, mutated and
// reset replies).  The recorder captures reply frames at emission — before
// the transport faults touch them — so replay verifies the honest reply
// stream in both directions with no fault plan installed.
//
// The seeded streams pick the window a request names by a small drawn
// index: 1 the root, 2 the honest client's window, 3 and up the stream
// client's own creates in order, minted from its id range (Targets below).
//
// Usage: record_traces [output-dir]     (default: tests/traces)
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/xlib/display.h"
#include "src/xproto/trace.h"
#include "src/xproto/transport.h"
#include "src/xproto/wire.h"
#include "src/xserver/connection.h"
#include "src/xserver/faults.h"
#include "src/xserver/server.h"

namespace {

// The windows a seeded stream names.  A drawn index k picks the root (1),
// the honest client's window (2), or the (k - 2)th id the stream's own
// client minted for a CreateWindow, whether or not that create succeeded.
struct Targets {
  xproto::WindowId root = xproto::kNone;
  xproto::WindowId honest = xproto::kNone;
  xproto::WindowId base = xproto::kNone;  // The stream client's id base.
  uint32_t minted = 0;                    // Ids minted so far.

  xproto::WindowId Pick(int k) const {
    return k == 1 ? root : k == 2 ? honest : base | static_cast<uint32_t>(k - 3);
  }
  xproto::WindowId Mint() { return base | minted++; }
};

// Plausible request traffic for the mutator to chew on, drawn from the
// driver stream so every seed records different bytes.
std::vector<uint8_t> BuildRequestBuffer(xserver::FaultRng* driver, Targets* targets,
                                        int frames) {
  xproto::WireWriter w;
  for (int i = 0; i < frames; ++i) {
    switch (driver->Range(0, 4)) {
      case 0:
        xproto::EncodeRequest(
            xproto::CreateWindowRequest{
                .window = targets->Mint(),
                .parent = targets->root,
                .geometry = {driver->Range(-20, 150), driver->Range(-20, 80),
                             driver->Range(1, 60), driver->Range(1, 40)}},
            &w);
        break;
      case 1:
        xproto::EncodeRequest(
            xproto::MapWindowRequest{.window = targets->Pick(driver->Range(1, 40))},
            &w);
        break;
      case 2:
        xproto::EncodeRequest(
            xproto::ConfigureWindowRequest{
                .window = targets->Pick(driver->Range(1, 40)),
                .value_mask = xproto::kConfigX | xproto::kConfigY,
                .geometry = {driver->Range(-50, 200), driver->Range(-50, 100), 0, 0}},
            &w);
        break;
      case 3:
        xproto::EncodeRequest(
            xproto::DrawRequest{
                .window = targets->Pick(driver->Range(1, 40)),
                .kind = 0,
                .rect = {0, 0, driver->Range(1, 30), driver->Range(1, 20)},
                .fill = '#'},
            &w);
        break;
      case 4:
        xproto::EncodeRequest(
            xproto::DestroyWindowRequest{.window = targets->Pick(driver->Range(1, 40))},
            &w);
        break;
    }
  }
  return w.Take();
}

bool RecordSeed(uint64_t seed, const std::string& path) {
  xserver::Server server;
  xproto::TraceRecorder recorder;
  server.SetTraceRecorder(&recorder);

  // Honest traffic first: a wire-mode client builds a small session.
  xlib::Display honest(&server, "corpus-honest");
  honest.set_wire_mode(true);
  xproto::WindowId root = server.RootWindow(0);
  xproto::WindowId w1 = honest.CreateWindow(root, {10, 10, 40, 20}, 1);
  honest.SetWindowBackground(w1, '.');
  honest.MapWindow(w1);

  // Then the hostile stream under the seeded wire mutations.
  xserver::FaultPlan plan;
  plan.seed = seed;
  plan.bitflip_request_permille = 350;
  plan.lie_length_permille = 200;
  plan.truncate_request_permille = 200;
  plan.scramble_opcode_permille = 200;
  server.InstallFaultPlan(plan);

  xserver::FaultRng driver(seed * 0x9e3779b9u + 7);
  xproto::ClientId hostile = server.Connect("corpus-hostile");
  Targets targets{.root = root, .honest = w1, .base = server.IdBase(hostile)};
  for (int round = 0; round < 30; ++round) {
    server.DispatchBytes(hostile, BuildRequestBuffer(&driver, &targets, driver.Range(1, 5)));
    if (round % 5 == 0) {
      server.SimulateMotion({driver.Range(0, 150), driver.Range(0, 80)});
    }
    if (round % 7 == 0) {
      server.SimulateButton(1, true);
      server.SimulateButton(1, false);
    }
  }
  server.ClearFaultPlan();

  // A little more honest traffic after the storm, then the expect footer.
  honest.MoveWindow(w1, {30, 15});
  server.WarpPointer(0, {5, 5});

  server.SetTraceRecorder(nullptr);
  recorder.RecordExpect(server.TotalRequests(), server.render_stats().draw_ops,
                        static_cast<uint64_t>(server.render_stats().pixels_drawn));
  if (!xproto::WriteTraceFile(path, recorder.trace())) {
    std::fprintf(stderr, "record_traces: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu records, %llu requests, %llu parse errors)\n",
              path.c_str(), recorder.trace().records.size(),
              static_cast<unsigned long long>(server.TotalRequests()),
              static_cast<unsigned long long>(server.wire_parse_errors()));
  return true;
}

// One query drawn from the driver stream, queued on the framed endpoint.
void QueueDuplexRequest(xserver::FaultRng* driver, Targets* targets,
                        xproto::WireClientEndpoint* ep) {
  xproto::WindowId root = targets->root;
  switch (driver->Range(0, 5)) {
    case 0:
      ep->QueueRequest(xproto::CreateWindowRequest{
          .window = targets->Mint(),
          .parent = root,
          .geometry = {driver->Range(0, 120), driver->Range(0, 60),
                       driver->Range(1, 50), driver->Range(1, 30)}});
      break;
    case 1:
      ep->QueueRequest(xproto::MapWindowRequest{
          .window = targets->Pick(driver->Range(1, 30))});
      break;
    case 2:
      ep->QueueRequest(xproto::QueryTreeRequest{.window = root});
      break;
    case 3:
      ep->QueueRequest(xproto::GetGeometryRequest{
          .window = targets->Pick(driver->Range(1, 30))});
      break;
    case 4:
      ep->QueueRequest(xproto::InternAtomRequest{
          .name = std::string(static_cast<size_t>(driver->Range(1, 24)), 'Q')});
      break;
    case 5:
      ep->QueueRequest(xproto::GetPropertyRequest{
          .window = root,
          .property = static_cast<xproto::AtomId>(driver->Range(1, 20))});
      break;
  }
}

bool RecordDuplexSeed(uint64_t seed, const std::string& path) {
  xserver::Server server;
  xproto::TraceRecorder recorder;
  server.SetTraceRecorder(&recorder);

  // Honest duplex traffic first: wire-mode queries leave kReply records.
  xlib::Display honest(&server, "corpus-duplex-honest");
  honest.set_wire_mode(true);
  xproto::WindowId root = server.RootWindow(0);
  xproto::WindowId w1 = honest.CreateWindow(root, {12, 8, 50, 25}, 1);
  honest.MapWindow(w1);
  honest.SetStringProperty(w1, "WM_NAME", "duplex-corpus");
  (void)honest.GetGeometry(w1);
  (void)honest.QueryTree(root);
  (void)honest.GetStringProperty(w1, "WM_NAME");
  (void)honest.InternAtom("WM_PROTOCOLS");

  // Then a framed socketpair connection under the seeded storm.  Transport
  // faults only: they reslice, delay, reset and corrupt traffic without
  // rewriting the request frames DispatchBytes records, so the trace stays
  // byte-faithful to what crossed the wire and replays over a fresh
  // socketpair transport land on identical fingerprints.  (Wire mutations
  // rewrite frames *after* reassembly; the chaos_seed corpus covers those
  // in direct-dispatch replay.)
  xserver::FaultPlan plan;
  plan.seed = seed;
  plan.short_read_permille = 250;
  plan.short_write_permille = 250;
  plan.eintr_storm_permille = 150;
  plan.mutate_reply_permille = 150;
  plan.reset_midframe_permille = seed % 2 == 0 ? 60 : 0;
  server.InstallFaultPlan(plan);

  xproto::ChannelPair pair = xproto::MakeSocketPair();
  xserver::Connection conn(&server, std::move(pair.server), "corpus-duplex-remote");
  conn.InstallTransportFaults(plan);
  conn.Establish();
  xproto::WireClientEndpoint ep(std::move(pair.client));

  xserver::FaultRng driver(seed * 0x2545f491u + 3);
  Targets targets{.root = root, .honest = w1, .base = server.IdBase(conn.client())};
  for (int round = 0; round < 40; ++round) {
    if (conn.state() == xserver::ConnectionState::kClosed) {
      break;
    }
    QueueDuplexRequest(&driver, &targets, &ep);
    ep.Flush();
    conn.Pump();
    ep.Poll();
    while (std::optional<std::vector<uint8_t>> frame = ep.NextFrame()) {
      // The corpus client discards frames; mutated replies are its problem.
    }
    if (round % 9 == 0) {
      server.SimulateMotion({driver.Range(0, 150), driver.Range(0, 80)});
    }
  }
  if (conn.state() != xserver::ConnectionState::kClosed) {
    conn.BeginDrain();
    for (int i = 0; i < 16 && conn.state() != xserver::ConnectionState::kClosed; ++i) {
      ep.Poll();
      conn.Pump();
    }
    conn.Close(xserver::CloseReason::kGracefulDrain);
  }
  server.ClearFaultPlan();

  // Honest queries after the storm, then the expect footer.
  honest.MoveWindow(w1, {20, 12});
  (void)honest.GetGeometry(w1);
  server.WarpPointer(0, {8, 8});

  server.SetTraceRecorder(nullptr);
  recorder.RecordExpect(server.TotalRequests(), server.render_stats().draw_ops,
                        static_cast<uint64_t>(server.render_stats().pixels_drawn));
  if (!xproto::WriteTraceFile(path, recorder.trace())) {
    std::fprintf(stderr, "record_traces: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu records, %llu requests, %llu replies)\n", path.c_str(),
              recorder.trace().records.size(),
              static_cast<unsigned long long>(server.TotalRequests()),
              static_cast<unsigned long long>(server.replies_emitted()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  std::string dir = argc > 1 ? argv[1] : "tests/traces";
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::string path = dir + "/chaos_seed_" + std::to_string(seed) + ".swmtrace";
    if (!RecordSeed(seed, path)) {
      return 1;
    }
  }
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::string path = dir + "/duplex_seed_" + std::to_string(seed) + ".swmtrace";
    if (!RecordDuplexSeed(seed, path)) {
      return 1;
    }
  }
  return 0;
}
