// Transport-fault chaos (docs/PROTOCOL.md, "Transport fault injection"):
// 24 seeds drive framed socketpair connections through a randomized client
// workload while the fault plan shreds the transport — short reads, short
// writes, EINTR storms, mid-frame connection resets, mutated reply bytes —
// on top of the PR-6 wire mutations.  The contract: the server never
// crashes, never leaks (ASan/UBSan run this in tools/check.sh), closes
// misbehaving connections with a typed reason, and keeps serving healthy
// clients afterward.  Same seed, same storm.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/base/logging.h"
#include "src/xlib/display.h"
#include "src/xproto/transport.h"
#include "src/xproto/wire.h"
#include "src/xserver/connection.h"
#include "src/xserver/faults.h"
#include "src/xserver/server.h"

namespace xserver {
namespace {

using xproto::Reply;
using xproto::WindowId;
using xproto::WireClientEndpoint;

// Aggregated across all seeds; the environment teardown below (which runs
// after every test) asserts the storm actually hit every fault class.
FaultCounters g_transport_totals;
FaultCounters g_server_totals;
uint64_t g_connections_closed_by_fault = 0;

void Accumulate(const FaultCounters& from, FaultCounters* into) {
  into->short_reads += from.short_reads;
  into->short_writes += from.short_writes;
  into->eintr_retries += from.eintr_retries;
  into->connection_resets += from.connection_resets;
  into->mutated_replies += from.mutated_replies;
  into->bitflipped_requests += from.bitflipped_requests;
  into->length_lies += from.length_lies;
  into->truncated_requests += from.truncated_requests;
  into->scrambled_opcodes += from.scrambled_opcodes;
  into->failed_requests += from.failed_requests;
}

class TransportChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal); }
  void TearDown() override { xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning); }
};

TEST_P(TransportChaosTest, SurvivesSeededTransportStorm) {
  const uint64_t seed = GetParam();
  Server server;

  FaultPlan plan;
  plan.seed = seed;
  // Wire mutations (pre-parser, inside DispatchBytes).
  plan.bitflip_request_permille = 60;
  plan.lie_length_permille = 40;
  plan.truncate_request_permille = 40;
  plan.scramble_opcode_permille = 40;
  // Transport faults (on the channel bytes, inside Connection).
  plan.short_read_permille = 250;
  plan.short_write_permille = 250;
  plan.eintr_storm_permille = 150;
  plan.reset_midframe_permille = seed % 2 == 0 ? 100 : 0;
  plan.mutate_reply_permille = 120;
  server.InstallFaultPlan(plan);

  // A third of the seeds also render the screen every 24 steps of the
  // storm, so a repaint interleaves with transport pumping on one thread.
  const bool painted = seed % 3 == 0;

  // Two framed connections share the storm; a protocol error or mid-frame
  // reset on one must never disturb the other beyond its own teardown.
  struct Peer {
    std::unique_ptr<Connection> conn;
    std::unique_ptr<WireClientEndpoint> ep;
    std::vector<WindowId> windows;
    WindowId next_id = xproto::kNone;  // The id its next CreateWindow names.
  };
  std::vector<Peer> peers;
  for (int i = 0; i < 2; ++i) {
    xproto::ChannelPair pair = xproto::MakeSocketPair();
    Peer peer;
    peer.conn = std::make_unique<Connection>(&server, std::move(pair.server), "chaos-peer");
    peer.conn->InstallTransportFaults(plan);
    peer.conn->Establish();
    peer.next_id = server.IdBase(peer.conn->client());
    peer.ep = std::make_unique<WireClientEndpoint>(std::move(pair.client));
    peers.push_back(std::move(peer));
  }

  FaultRng workload(seed * 77 + 13);
  for (int step = 0; step < 120; ++step) {
    Peer& peer = peers[static_cast<size_t>(step) % peers.size()];
    if (peer.conn->state() == ConnectionState::kClosed) {
      continue;
    }
    switch (workload.Range(0, 6)) {
      case 0:
        peer.ep->QueueRequest(xproto::CreateWindowRequest{
            .window = peer.next_id++,
            .parent = server.RootWindow(0),
            .geometry = {workload.Range(0, 200), workload.Range(0, 150),
                         workload.Range(1, 300), workload.Range(1, 200)}});
        break;
      case 1: {
        auto tree = server.QueryTree(server.RootWindow(0));
        if (tree && !tree->children.empty()) {
          WindowId w = tree->children[static_cast<size_t>(workload.Range(
              0, static_cast<int>(tree->children.size()) - 1))];
          peer.ep->QueueRequest(xproto::MapWindowRequest{.window = w});
        }
        break;
      }
      case 2:
        peer.ep->QueueRequest(xproto::QueryTreeRequest{.window = server.RootWindow(0)});
        break;
      case 3:
        peer.ep->QueueRequest(xproto::GetGeometryRequest{
            .window = static_cast<WindowId>(workload.Range(1, 64))});
        break;
      case 4:
        peer.ep->QueueRequest(xproto::InternAtomRequest{
            .name = std::string(static_cast<size_t>(workload.Range(1, 48)), 'A')});
        break;
      case 5:
        peer.ep->QueueRequest(xproto::GetPropertyRequest{
            .window = server.RootWindow(0),
            .property = static_cast<xproto::AtomId>(workload.Range(1, 40))});
        break;
      case 6:
        peer.ep->QueueRequest(xproto::TranslateCoordinatesRequest{
            .src = server.RootWindow(0),
            .dst = server.RootWindow(0),
            .point = {workload.Range(-50, 50), workload.Range(-50, 50)}});
        break;
    }
    peer.ep->Flush();
    peer.conn->Pump();
    peer.ep->Poll();
    // Drain whatever made it back; mutated replies may fail to decode —
    // that is the client's problem, never the server's.
    while (std::optional<std::vector<uint8_t>> frame = peer.ep->NextFrame()) {
      if (!frame->empty() && (*frame)[0] == 1) {
        Reply reply;
        xproto::ParseError error;
        (void)xproto::DecodeReply(*frame, &reply, &error);
      }
    }
    if (painted && step % 24 == 0) {
      (void)server.RenderScreen(0);
    }
  }

  // One seed in four kills a peer mid-request frame on top of everything.
  if (seed % 4 == 1 && peers[0].conn->state() != ConnectionState::kClosed) {
    peers[0].ep->QueueRequest(
        xproto::CreateWindowRequest{.window = peers[0].next_id++,
                                    .parent = server.RootWindow(0),
                                    .geometry = {0, 0, 10, 10}});
    peers[0].ep->CloseMidFrame();
    for (int i = 0; i < 8 && peers[0].conn->state() != ConnectionState::kClosed; ++i) {
      peers[0].conn->Pump();
    }
    EXPECT_EQ(peers[0].conn->state(), ConnectionState::kClosed);
  }

  // Teardown: whatever the storm left open drains gracefully.
  for (Peer& peer : peers) {
    Accumulate(peer.conn->transport_fault_counters(), &g_transport_totals);
    if (peer.conn->state() != ConnectionState::kClosed) {
      peer.conn->BeginDrain();
      for (int i = 0; i < 16 && peer.conn->state() != ConnectionState::kClosed; ++i) {
        peer.ep->Poll();
        peer.conn->Pump();
      }
      peer.conn->Close(CloseReason::kGracefulDrain);
    } else if (peer.conn->close_reason() != CloseReason::kGracefulDrain &&
               peer.conn->close_reason() != CloseReason::kPeerClosed) {
      ++g_connections_closed_by_fault;
    }
    // Every close reason is typed — never "unknown".
    EXPECT_STRNE(CloseReasonName(peer.conn->close_reason()), "");
  }
  Accumulate(server.fault_counters(), &g_server_totals);

  // The server still serves a healthy client after the storm (with the
  // faults switched off — the weather cleared, the server must have too).
  server.InstallFaultPlan(FaultPlan{});
  xlib::Display healthy(&server, "after-the-storm");
  healthy.set_wire_mode(true);
  WindowId window = healthy.CreateWindow(server.RootWindow(0), {4, 4, 80, 60});
  ASSERT_NE(window, xproto::kNone);
  ASSERT_TRUE(healthy.MapWindow(window));
  auto geometry = healthy.GetGeometry(window);
  ASSERT_TRUE(geometry.has_value());
  EXPECT_EQ(*geometry, (xbase::Rect{4, 4, 80, 60}));
  EXPECT_EQ(healthy.wire_stats().wire_fallbacks, 0u);
  EXPECT_TRUE(server.WindowExists(window));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportChaosTest, ::testing::Range<uint64_t>(1, 25));

// Runs after all 24 seeds (gtest tears environments down after the last
// test): across the suite the storm must actually have exercised every
// fault class it advertises — a chaos harness that injects nothing is a
// green light lying about coverage.
class StormCoverageCheck : public ::testing::Environment {
 public:
  void TearDown() override {
    EXPECT_GT(g_transport_totals.short_reads, 0u);
    EXPECT_GT(g_transport_totals.short_writes, 0u);
    EXPECT_GT(g_transport_totals.eintr_retries, 0u);
    EXPECT_GT(g_transport_totals.connection_resets, 0u);
    EXPECT_GT(g_transport_totals.mutated_replies, 0u);
    EXPECT_GT(g_server_totals.WireMutations(), 0u);
    EXPECT_GT(g_connections_closed_by_fault, 0u);
  }
};

const ::testing::Environment* const g_coverage_check =
    ::testing::AddGlobalTestEnvironment(new StormCoverageCheck);

}  // namespace
}  // namespace xserver
