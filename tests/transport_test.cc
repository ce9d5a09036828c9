// Duplex transport tests (docs/PROTOCOL.md, "Connection lifecycle"):
// frame reassembly across arbitrary short reads, the socketpair round trip
// (request bytes in, reply/error/event frames out), connection lifecycle
// states and close reasons, backpressure charging the misbehavior ledger,
// and the kill-a-client-mid-request teardown guarantees — the dead client's
// windows are swept, every other client's sequence space is untouched.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/region.h"
#include "src/swm/quarantine.h"
#include "src/xlib/display.h"
#include "src/xproto/transport.h"
#include "src/xproto/wire.h"
#include "src/xserver/connection.h"
#include "src/xserver/replay.h"
#include "src/xserver/server.h"
#include "src/xserver/wire_host.h"

namespace xserver {
namespace {

using xproto::ByteChannel;
using xproto::ChannelPair;
using xproto::FrameReassembler;
using xproto::FrameStream;
using xproto::IoStatus;
using xproto::MakePipePair;
using xproto::MakeSocketPair;
using xproto::Reply;
using xproto::Request;
using xproto::WireClientEndpoint;
using xproto::WindowId;

std::vector<uint8_t> EncodeAll(const std::vector<Request>& requests) {
  xproto::WireWriter w;
  for (const Request& r : requests) {
    xproto::EncodeRequest(r, &w);
  }
  return w.Take();
}

// ---- Frame reassembly -------------------------------------------------------

TEST(FrameReassembler, ReassemblesRequestStreamFedByteByByte) {
  std::vector<Request> sent = {
      xproto::CreateWindowRequest{.parent = 1, .geometry = {0, 0, 100, 80}},
      xproto::MapWindowRequest{.window = 7},
      xproto::InternAtomRequest{.name = "WM_CLASS"},
      xproto::GetGeometryRequest{.window = 7},
  };
  std::vector<uint8_t> stream = EncodeAll(sent);

  FrameReassembler reasm(FrameStream::kRequests);
  std::vector<std::vector<uint8_t>> frames;
  for (uint8_t byte : stream) {
    ASSERT_TRUE(reasm.Feed({&byte, 1}));
    while (std::optional<std::vector<uint8_t>> frame = reasm.NextFrame()) {
      frames.push_back(std::move(*frame));
    }
  }
  ASSERT_EQ(frames.size(), sent.size());
  size_t offset = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    // Each extracted frame is byte-identical to its slice of the stream.
    ASSERT_EQ(frames[i],
              std::vector<uint8_t>(stream.begin() + static_cast<ptrdiff_t>(offset),
                                   stream.begin() + static_cast<ptrdiff_t>(offset) +
                                       static_cast<ptrdiff_t>(frames[i].size())));
    Request decoded;
    xproto::ParseError error;
    ASSERT_GT(xproto::DecodeRequest(frames[i], &decoded, &error), 0u);
    EXPECT_TRUE(decoded == sent[i]);
    offset += frames[i].size();
  }
  EXPECT_EQ(offset, stream.size());
  EXPECT_EQ(reasm.buffered_bytes(), 0u);
}

TEST(FrameReassembler, ReassemblesServerStreamAcrossSplits) {
  // Server→client stream: an error frame, a reply frame, an event frame.
  xproto::WireWriter w;
  xproto::EncodeError({.code = xproto::ErrorCode::kBadWindow,
                       .request = xproto::RequestCode::kMapWindow,
                       .resource_id = 9,
                       .sequence = 3},
                      &w);
  xproto::EncodeReply(xproto::AtomReply{.atom = 17}, 4, &w);
  xproto::EncodeEvent(xproto::MapNotifyEvent{.event_window = 5, .window = 5}, 5, &w);
  std::vector<uint8_t> stream = w.Take();

  // Feed in awkward splits: 1, 7, 31, rest.
  FrameReassembler reasm(FrameStream::kServerToClient);
  size_t cuts[] = {1, 7, 31, stream.size()};
  size_t prev = 0;
  std::vector<std::vector<uint8_t>> frames;
  for (size_t cut : cuts) {
    ASSERT_TRUE(reasm.Feed(std::span(stream.data() + prev, cut - prev)));
    while (std::optional<std::vector<uint8_t>> frame = reasm.NextFrame()) {
      frames.push_back(std::move(*frame));
    }
    prev = cut;
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0][0], 0);  // Error.
  EXPECT_EQ(frames[1][0], 1);  // Reply.
  EXPECT_GE(frames[2][0], 2);  // Event.
}

TEST(FrameReassembler, LengthLieSurrendersHeaderInsteadOfHanging) {
  // A request frame whose length field says zero would never complete; the
  // reassembler must surrender the header so the decoder can reject it.
  std::vector<uint8_t> lie = {8, 0, 0, 0, 1, 0, 0, 0};
  FrameReassembler reasm(FrameStream::kRequests);
  ASSERT_TRUE(reasm.Feed(lie));
  std::optional<std::vector<uint8_t>> frame = reasm.NextFrame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->size(), 4u);
  Request decoded;
  xproto::ParseError error;
  EXPECT_EQ(xproto::DecodeRequest(*frame, &decoded, &error), 0u);
}

TEST(FrameReassembler, UnboundedPartialFrameTripsOverflow) {
  // A frame header claiming kMaxRequestBytes, then endless filler that never
  // completes it within the buffer cap.
  FrameReassembler reasm(FrameStream::kRequests, /*buffer_cap=*/256);
  std::vector<uint8_t> head = {10, 0,
                               static_cast<uint8_t>((xproto::kMaxRequestBytes / 4) & 0xFF),
                               static_cast<uint8_t>((xproto::kMaxRequestBytes / 4) >> 8)};
  ASSERT_TRUE(reasm.Feed(head));
  std::vector<uint8_t> filler(512, 0xAA);
  EXPECT_FALSE(reasm.Feed(filler));
  EXPECT_TRUE(reasm.overflowed());
}

// ---- Byte channels ----------------------------------------------------------

void RoundTripBytesThrough(ChannelPair pair) {
  ASSERT_NE(pair.client, nullptr);
  ASSERT_NE(pair.server, nullptr);
  std::vector<uint8_t> payload(1000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  size_t written = 0;
  ASSERT_EQ(pair.client->Write(payload, &written), IoStatus::kOk);
  ASSERT_EQ(written, payload.size());
  std::vector<uint8_t> got;
  uint8_t buf[256];
  while (got.size() < payload.size()) {
    size_t n = 0;
    IoStatus s = pair.server->Read(buf, sizeof(buf), &n);
    ASSERT_NE(s, IoStatus::kError);
    got.insert(got.end(), buf, buf + n);
    if (s == IoStatus::kWouldBlock && n == 0) {
      break;
    }
  }
  EXPECT_EQ(got, payload);
  // Close the client end: the server end sees EOF.
  pair.client->Close();
  size_t n = 0;
  EXPECT_EQ(pair.server->Read(buf, sizeof(buf), &n), IoStatus::kClosed);
}

TEST(ByteChannel, SocketPairRoundTripAndEof) { RoundTripBytesThrough(MakeSocketPair()); }

TEST(ByteChannel, PipePairRoundTripAndEof) { RoundTripBytesThrough(MakePipePair()); }

// ---- Connection round trip --------------------------------------------------

// Moves bytes both ways until the pair goes quiescent.
void PumpPair(Connection* conn, WireClientEndpoint* ep, int spins = 16) {
  for (int i = 0; i < spins; ++i) {
    ep->Flush();
    conn->Pump();
    ep->Poll();
    if (ep->queued_bytes() == 0 && conn->outbound_queued() == 0) {
      return;
    }
  }
}

// A remote client learns its id base and mask at connection setup, asks for
// a free run of its range with GetIdRange, and hears BadIDChoice for an id
// outside it — all as frames.
TEST(Connection, IdRangeTravelsTheWire) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server), "remote-host");
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();
  const WindowId base = server.IdBase(conn.client());
  ASSERT_NE(base, xproto::kNone);

  ep.QueueRequest(xproto::QueryScreensRequest{});
  PumpPair(&conn, &ep);
  Reply reply;
  xproto::ParseError error;
  ASSERT_TRUE(ep.NextReply(&reply, &error)) << xproto::ParseErrorText(error);
  const auto* screens = std::get_if<xproto::ScreensReply>(&reply);
  ASSERT_NE(screens, nullptr);
  EXPECT_EQ(screens->id_base, base);
  EXPECT_EQ(screens->id_mask, xproto::kIdMask);

  ep.QueueRequest(xproto::CreateWindowRequest{
      .window = base | 7, .parent = server.RootWindow(0), .geometry = {0, 0, 8, 8}});
  ep.QueueRequest(xproto::GetIdRangeRequest{});
  PumpPair(&conn, &ep);
  ASSERT_TRUE(ep.NextReply(&reply, &error)) << xproto::ParseErrorText(error);
  EXPECT_EQ(std::get<xproto::IdRangeReply>(reply),
            (xproto::IdRangeReply{.start_id = base | 8, .count = xproto::kIdMask - 7}));

  // Another client's id: the create is refused with a BadIDChoice frame.
  const WindowId foreign = base + (WindowId{1} << xproto::kIdSlotShift);
  ep.QueueRequest(xproto::CreateWindowRequest{
      .window = foreign, .parent = server.RootWindow(0), .geometry = {0, 0, 8, 8}});
  PumpPair(&conn, &ep);
  std::optional<xproto::XError> refused;
  while (std::optional<std::vector<uint8_t>> frame = ep.NextFrame()) {
    xproto::XError x;
    if (!frame->empty() && (*frame)[0] == 0 && xproto::DecodeError(*frame, &x, &error) > 0) {
      refused = x;
    }
  }
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->code, xproto::ErrorCode::kBadIDChoice);
  EXPECT_EQ(refused->resource_id, foreign);
  EXPECT_FALSE(server.WindowExists(foreign));
  EXPECT_TRUE(server.WindowExists(base | 7));
}

TEST(Connection, QueryRoundTripOverSocketpair) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server), "remote-host");
  WireClientEndpoint ep(std::move(pair.client));

  conn.Establish();
  EXPECT_EQ(conn.state(), ConnectionState::kEstablished);
  ASSERT_NE(conn.client(), 0u);

  // Create + map a window, then query it back — all in bytes.
  ep.QueueRequest(xproto::CreateWindowRequest{.window = server.IdBase(conn.client()),
                                              .parent = server.RootWindow(0),
                                              .geometry = {10, 20, 300, 200},
                                              .border_width = 2});
  PumpPair(&conn, &ep);
  // CreateWindow has no reply; learn the id via QueryTree on the root.
  ep.QueueRequest(xproto::QueryTreeRequest{.window = server.RootWindow(0)});
  PumpPair(&conn, &ep);
  Reply reply;
  xproto::ParseError error;
  ASSERT_TRUE(ep.NextReply(&reply, &error)) << xproto::ParseErrorText(error);
  const auto* tree = std::get_if<xproto::TreeReply>(&reply);
  ASSERT_NE(tree, nullptr);
  ASSERT_EQ(tree->children.size(), 1u);
  WindowId window = tree->children[0];

  ep.QueueRequest(xproto::GetGeometryRequest{.window = window});
  PumpPair(&conn, &ep);
  uint16_t sequence = 0;
  ASSERT_TRUE(ep.NextReply(&reply, &error, &sequence));
  const auto* geo = std::get_if<xproto::GeometryReply>(&reply);
  ASSERT_NE(geo, nullptr);
  EXPECT_EQ(geo->geometry, (xbase::Rect{10, 20, 300, 200}));
  EXPECT_EQ(geo->border_width, 2);
  // Queries occupy sequence slots like any other request.
  EXPECT_EQ(sequence, server.SequenceNumber(conn.client()));

  EXPECT_GT(conn.stats().replies_queued, 0u);
  EXPECT_EQ(conn.stats().parse_errors, 0u);

  conn.BeginDrain();
  PumpPair(&conn, &ep);
  conn.Pump();
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kGracefulDrain);
}

TEST(Connection, ErrorsTravelTheWire) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server));
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();

  ep.QueueRequest(xproto::MapWindowRequest{.window = 0xDEAD});
  PumpPair(&conn, &ep);
  std::optional<std::vector<uint8_t>> frame = ep.NextFrame();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ((*frame)[0], 0) << "error frames start with a zero byte";
  xproto::XError xerr;
  xproto::ParseError perr;
  ASSERT_GT(xproto::DecodeError(*frame, &xerr, &perr), 0u);
  EXPECT_EQ(xerr.code, xproto::ErrorCode::kBadWindow);
  EXPECT_EQ(xerr.resource_id, 0xDEADu);
  EXPECT_EQ(conn.stats().errors_queued, 1u);
}

TEST(Connection, EventsTravelTheWire) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server));
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();

  // Create a window and select PropertyChange on it, all over the wire.
  ep.QueueRequest(xproto::CreateWindowRequest{.window = server.IdBase(conn.client()),
                                              .parent = server.RootWindow(0),
                                              .geometry = {0, 0, 50, 50}});
  ep.QueueRequest(xproto::QueryTreeRequest{.window = server.RootWindow(0)});
  PumpPair(&conn, &ep);
  Reply reply;
  xproto::ParseError error;
  ASSERT_TRUE(ep.NextReply(&reply, &error));
  WindowId window = std::get<xproto::TreeReply>(reply).children.at(0);
  ep.QueueRequest(
      xproto::SelectInputRequest{.window = window, .event_mask = xproto::kPropertyChangeMask});
  PumpPair(&conn, &ep);

  // A direct client touches a property; the event reaches us as a frame.
  xlib::Display other(&server, "localhost");
  ASSERT_TRUE(other.SetStringProperty(window, "WM_NAME", "hello"));
  PumpPair(&conn, &ep);

  bool saw_property_notify = false;
  while (std::optional<std::vector<uint8_t>> frame = ep.NextFrame()) {
    if ((*frame)[0] < 2) {
      continue;
    }
    xproto::Event event;
    uint16_t seq = 0;
    ASSERT_GT(xproto::DecodeEvent(*frame, &event, &error, &seq), 0u)
        << xproto::ParseErrorText(error);
    if (const auto* pn = std::get_if<xproto::PropertyNotifyEvent>(&event)) {
      EXPECT_EQ(pn->window, window);
      saw_property_notify = true;
    }
  }
  EXPECT_TRUE(saw_property_notify);
  EXPECT_GT(conn.stats().events_queued, 0u);
}

TEST(Connection, ProtocolErrorClosesAndChargesLedger) {
  Server server;
  swm::MisbehaviorLedger ledger;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server));
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();
  conn.SetMisbehaviorHook(
      [&ledger](xproto::ClientId client, int cost) { ledger.Charge(client, cost); });

  std::vector<uint8_t> garbage = {99, 0, 2, 0, 1, 2, 3, 4};  // Unknown opcode.
  ep.QueueBytes(garbage);
  PumpPair(&conn, &ep);
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kProtocolError);
  EXPECT_GT(conn.stats().parse_errors, 0u);
  // The X error for the rejected frame was flushed before teardown.
  ep.Poll();
  std::optional<std::vector<uint8_t>> frame = ep.NextFrame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ((*frame)[0], 0);
}

TEST(Connection, WriteStallChargesLedgerAndCloses) {
  Server server;
  swm::QuarantinePolicy policy;
  policy.budget = 24;  // Two charges at cost 12 quarantine the client.
  swm::MisbehaviorLedger ledger(policy);

  // Tiny kernel buffers + tiny high-water mark so backpressure is immediate.
  ChannelPair pair = MakeSocketPair(/*buffer_bytes=*/2048);
  ConnectionLimits limits;
  limits.write_queue_high_water = 512;
  limits.stall_pump_limit = 3;
  Connection conn(&server, std::move(pair.server), "stalled-peer", limits);
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();
  bool quarantined = false;
  conn.SetMisbehaviorHook([&](xproto::ClientId client, int cost) {
    quarantined = ledger.Charge(client, cost) || quarantined;
  });

  // Pile up a large property, then query it repeatedly without ever reading
  // the replies: the kernel buffer fills, the outbound queue pins over the
  // high-water mark, and the peer is declared stalled.
  ep.QueueRequest(xproto::CreateWindowRequest{.window = server.IdBase(conn.client()),
                                              .parent = server.RootWindow(0),
                                              .geometry = {0, 0, 10, 10}});
  ep.QueueRequest(xproto::QueryTreeRequest{.window = server.RootWindow(0)});
  ep.Flush();
  conn.Pump();
  xproto::ClientId client = conn.client();
  WindowId window = server.QueryTree(server.RootWindow(0))->children.at(0);
  xproto::AtomId prop = server.InternAtom("BIG");
  std::vector<uint8_t> big(4096, 0x5A);
  server.ChangeProperty(client, window, prop, server.InternAtom("STRING"), 8,
                        PropMode::kReplace, big);

  for (int i = 0; i < 32 && conn.state() != ConnectionState::kClosed; ++i) {
    ep.QueueRequest(xproto::GetPropertyRequest{.window = window, .property = prop});
    ep.Flush();
    conn.Pump();  // Client never Polls: replies have nowhere to go.
  }
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kWriteStalled);
  EXPECT_TRUE(quarantined);
  EXPECT_TRUE(ledger.IsQuarantined(client));
  EXPECT_GT(conn.stats().write_queue_peak, limits.write_queue_high_water);
}

// The acceptance-critical teardown test: a client killed mid-request frame.
TEST(Connection, KillClientMidRequestSweepsWindowsAndSparesOthers) {
  Server server;

  // The survivor: a direct-call client with a window and a sequence history.
  xlib::Display survivor(&server, "survivor");
  WindowId survivor_win =
      survivor.CreateWindow(server.RootWindow(0), {0, 0, 64, 64});
  ASSERT_TRUE(survivor.MapWindow(survivor_win));
  uint64_t survivor_seq = survivor.RequestCount();
  uint64_t survivor_errors = survivor.ErrorCount();

  // The victim: a framed connection that dies halfway through a request.
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server), "victim");
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();
  xproto::ClientId victim = conn.client();

  ep.QueueRequest(xproto::CreateWindowRequest{.window = server.IdBase(victim),
                                              .parent = server.RootWindow(0),
                                              .geometry = {5, 5, 40, 40}});
  PumpPair(&conn, &ep);
  ASSERT_EQ(server.QueryTree(server.RootWindow(0))->children.size(), 2u);
  WindowId victim_win = server.QueryTree(server.RootWindow(0))->children.back();
  ASSERT_NE(victim_win, survivor_win);

  // Queue a full MapWindow plus a CreateWindow that will be cut mid-frame.
  ep.QueueRequest(xproto::MapWindowRequest{.window = victim_win});
  ep.QueueRequest(xproto::CreateWindowRequest{.window = server.IdBase(victim) + 1,
                                              .parent = server.RootWindow(0),
                                              .geometry = {1, 1, 10, 10}});
  ep.CloseMidFrame();
  for (int i = 0; i < 8 && conn.state() != ConnectionState::kClosed; ++i) {
    conn.Pump();
  }
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kPeerClosed);

  // The victim's windows are gone; the torn frame was never dispatched.
  EXPECT_FALSE(server.WindowExists(victim_win));
  EXPECT_FALSE(server.HasClient(victim));
  ASSERT_EQ(server.QueryTree(server.RootWindow(0))->children.size(), 1u);

  // The survivor is untouched: window intact, sequence space unperturbed,
  // no stray errors, and new requests keep working.
  EXPECT_TRUE(server.WindowExists(survivor_win));
  EXPECT_EQ(survivor.RequestCount(), survivor_seq);
  EXPECT_EQ(survivor.ErrorCount(), survivor_errors);
  ASSERT_TRUE(survivor.MoveWindow(survivor_win, {3, 4}));
  EXPECT_EQ(survivor.RequestCount(), survivor_seq + 1);
  EXPECT_EQ(survivor.GetGeometry(survivor_win)->x, 3);
}

// ---- Dead-peer writes ------------------------------------------------------

// A peer that stops *receiving* (SHUT_RD) without closing its write side is
// only discoverable on the write path: the reply flush hits EPIPE.  That is
// a transport error on an established connection — not a crash, not a
// busy-loop, and (because SIGPIPE is suppressed) not process death.
TEST(Connection, EpipeOnReplyFlushClosesWithTransportError) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server), "dead-reader");
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();

  // The request reaches the server-side buffer before the receive side is
  // shut down; only the reply direction is broken.
  ep.QueueRequest(xproto::GetGeometryRequest{.window = server.RootWindow(0)});
  ep.Flush();
  ASSERT_EQ(::shutdown(ep.PollFd(), SHUT_RD), 0);

  for (int i = 0; i < 8 && conn.state() != ConnectionState::kClosed; ++i) {
    conn.Pump();
  }
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kTransportError)
      << "a write-side death discovery is a transport error, not an EOF";
  EXPECT_GT(conn.stats().requests_dispatched, 0u)
      << "the request itself was intact and must have been dispatched";
  // Surviving to this line IS the SIGPIPE regression test: the EPIPE write
  // above would have killed the process under the default disposition.
  struct sigaction current;
  ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &current), 0);
  EXPECT_EQ(current.sa_handler, SIG_IGN)
      << "transport channel creation must suppress SIGPIPE process-wide";
}

// Same discovery, mid-drain: EOF was already read (so the close reason is
// the drain's kPeerClosed), and the undeliverable replies are discarded
// without spinning on the dead socket.
TEST(Connection, EpipeDuringDrainKeepsPeerClosedReason) {
  Server server;
  ChannelPair pair = MakeSocketPair();
  Connection conn(&server, std::move(pair.server), "dying-reader");
  WireClientEndpoint ep(std::move(pair.client));
  conn.Establish();

  ep.QueueRequest(xproto::GetGeometryRequest{.window = server.RootWindow(0)});
  ep.Flush();
  // Full close: the server reads EOF and drains, but the queued reply can
  // no longer be delivered.
  ep.Close();
  uint64_t pumps_before = conn.stats().pumps;
  for (int i = 0; i < 8 && conn.state() != ConnectionState::kClosed; ++i) {
    conn.Pump();
  }
  EXPECT_EQ(conn.state(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kPeerClosed);
  EXPECT_LE(conn.stats().pumps - pumps_before, 8u) << "no busy-loop on EPIPE";
  // Closed is terminal: further pumps are cheap no-ops.
  EXPECT_EQ(conn.Pump(), ConnectionState::kClosed);
}

// A channel that plays back scripted read and write results, for races a
// real socket only hits now and then.  An empty script reads/writes as
// kWouldBlock.
class ScriptedChannel : public ByteChannel {
 public:
  struct ReadStep {
    IoStatus status = IoStatus::kWouldBlock;
    std::vector<uint8_t> bytes;
  };

  ScriptedChannel(std::deque<ReadStep> reads, std::deque<IoStatus> writes)
      : reads_(std::move(reads)), writes_(std::move(writes)) {}

  IoStatus Write(std::span<const uint8_t> data, size_t* written) override {
    *written = 0;
    if (writes_.empty()) {
      return IoStatus::kWouldBlock;
    }
    IoStatus status = writes_.front();
    writes_.pop_front();
    if (status == IoStatus::kOk) {
      *written = data.size();
    }
    return status;
  }
  IoStatus Read(uint8_t* buf, size_t cap, size_t* bytes_read) override {
    *bytes_read = 0;
    if (reads_.empty()) {
      return IoStatus::kWouldBlock;
    }
    ReadStep step = std::move(reads_.front());
    reads_.pop_front();
    *bytes_read = std::min(cap, step.bytes.size());
    std::copy_n(step.bytes.begin(), *bytes_read, buf);
    return step.status;
  }
  void Close() override { open_ = false; }
  bool IsOpen() const override { return open_; }

 private:
  std::deque<ReadStep> reads_;
  std::deque<IoStatus> writes_;
  bool open_ = true;
};

// The race a SIGKILL mid-frame can hit: the pump reads the victim's partial
// frame and then EAGAIN, the victim dies, and the reply flush is the first
// operation to notice (EPIPE).  A read then sees the EOF, so this is the
// peer's death mid-request, not a transport error.
TEST(Connection, EpipeThenEofOnEstablishedPeerIsMidFrameDeath) {
  Server server;
  std::vector<uint8_t> stream = xproto::EncodeRequestBytes(
      xproto::GetGeometryRequest{.window = server.RootWindow(0)});
  std::vector<uint8_t> torn = xproto::EncodeRequestBytes(xproto::MapWindowRequest{.window = 1});
  stream.insert(stream.end(), torn.begin(), torn.begin() + 3);
  auto channel = std::make_unique<ScriptedChannel>(
      std::deque<ScriptedChannel::ReadStep>{{IoStatus::kOk, stream},
                                            {IoStatus::kWouldBlock, {}},
                                            {IoStatus::kClosed, {}}},
      std::deque<IoStatus>{IoStatus::kClosed});
  Connection conn(&server, std::move(channel), "killed-mid-frame");
  conn.Establish();
  int charges = 0;
  conn.SetMisbehaviorHook([&](xproto::ClientId, int) { ++charges; });

  EXPECT_EQ(conn.Pump(), ConnectionState::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kPeerClosed);
  EXPECT_TRUE(conn.died_mid_frame());
  EXPECT_EQ(charges, 1);
  EXPECT_EQ(conn.stats().requests_dispatched, 1u);
}

// ---- Display duplex equivalence --------------------------------------------

// The answers one Display gets to every query, compared across modes.
struct QueryAnswers {
  std::optional<xbase::Rect> parent_geometry, child_geometry;
  std::optional<xserver::WindowAttributes> parent_attrs, child_attrs;
  std::optional<xserver::QueryTreeReply> tree;
  std::optional<xbase::Point> translated;
  xproto::AtomId wm_name = xproto::kAtomNone;
  std::optional<std::string> atom_name, title, missing;
  std::optional<xbase::Rect> bad_geometry;
  xserver::PointerState pointer;
  WindowId focus = xproto::kNone;
  bool parent_shaped = true, child_shaped = false;
  std::optional<xbase::Region> parent_shape, child_shape;
};

void ExpectSameAnswers(const QueryAnswers& a, const QueryAnswers& b, const char* mode) {
  EXPECT_EQ(a.parent_geometry, b.parent_geometry) << mode;
  EXPECT_EQ(a.child_geometry, b.child_geometry) << mode;
  for (auto [x, y] : {std::pair{&a.parent_attrs, &b.parent_attrs},
                      std::pair{&a.child_attrs, &b.child_attrs}}) {
    ASSERT_TRUE(x->has_value() && y->has_value()) << mode;
    EXPECT_EQ((*x)->window_class, (*y)->window_class) << mode;
    EXPECT_EQ((*x)->map_state, (*y)->map_state) << mode;
    EXPECT_EQ((*x)->override_redirect, (*y)->override_redirect) << mode;
    EXPECT_EQ((*x)->all_event_masks, (*y)->all_event_masks) << mode;
    EXPECT_EQ((*x)->border_width, (*y)->border_width) << mode;
    EXPECT_EQ((*x)->your_event_mask, (*y)->your_event_mask) << mode;
  }
  ASSERT_TRUE(a.tree.has_value() && b.tree.has_value()) << mode;
  EXPECT_EQ(a.tree->root, b.tree->root) << mode;
  EXPECT_EQ(a.tree->parent, b.tree->parent) << mode;
  EXPECT_EQ(a.tree->children, b.tree->children) << mode;
  EXPECT_EQ(a.translated, b.translated) << mode;
  EXPECT_EQ(a.wm_name, b.wm_name) << mode;
  EXPECT_EQ(a.atom_name, b.atom_name) << mode;
  EXPECT_EQ(a.title, b.title) << mode;
  EXPECT_EQ(a.missing, b.missing) << mode;
  EXPECT_EQ(a.bad_geometry, b.bad_geometry) << mode;
  EXPECT_EQ(a.pointer.screen, b.pointer.screen) << mode;
  EXPECT_EQ(a.pointer.root_pos, b.pointer.root_pos) << mode;
  EXPECT_EQ(a.pointer.window, b.pointer.window) << mode;
  EXPECT_EQ(a.pointer.buttons_down, b.pointer.buttons_down) << mode;
  EXPECT_EQ(a.focus, b.focus) << mode;
  EXPECT_EQ(a.parent_shaped, b.parent_shaped) << mode;
  EXPECT_EQ(a.child_shaped, b.child_shaped) << mode;
  EXPECT_EQ(a.parent_shape.has_value(), b.parent_shape.has_value()) << mode;
  ASSERT_TRUE(a.child_shape.has_value() && b.child_shape.has_value()) << mode;
  EXPECT_EQ(a.child_shape->rects(), b.child_shape->rects()) << mode;
}

// Selects `mask` on `parent` (each connection holds its own selection),
// then asks every query.
QueryAnswers AskEverything(xlib::Display& d, WindowId parent, WindowId child, uint32_t mask) {
  EXPECT_TRUE(d.SelectInput(parent, mask));
  QueryAnswers out;
  out.parent_geometry = d.GetGeometry(parent);
  out.child_geometry = d.GetGeometry(child);
  out.parent_attrs = d.GetWindowAttributes(parent);
  out.child_attrs = d.GetWindowAttributes(child);
  out.tree = d.QueryTree(parent);
  out.translated = d.TranslateCoordinates(child, d.RootWindow(0), {0, 0});
  out.wm_name = d.InternAtom("WM_NAME");
  out.atom_name = d.GetAtomName(out.wm_name);
  out.title = d.GetStringProperty(parent, "WM_NAME");
  out.missing = d.GetStringProperty(parent, "MISSING");
  out.bad_geometry = d.GetGeometry(0xBAD);
  out.pointer = d.QueryPointer();
  out.focus = d.GetInputFocus();
  out.parent_shaped = d.IsShaped(parent);
  out.child_shaped = d.IsShaped(child);
  out.parent_shape = d.GetShape(parent);
  out.child_shape = d.GetShape(child);
  return out;
}

// Every query answers the same in process, over the in-process codec and
// from a remote Display over a unix socket (served on a second thread while
// the main thread touches only the remote Display).
TEST(DisplayDuplex, WireModeQueriesMatchDirectCalls) {
  Server server;
  xlib::Display direct(&server, "direct");
  xlib::Display wired(&server, "wired");
  wired.set_wire_mode(true);

  WindowId parent = wired.CreateWindow(server.RootWindow(0), {10, 10, 200, 150}, 3);
  ASSERT_NE(parent, xproto::kNone);
  WindowId child = wired.CreateWindow(parent, {20, 30, 50, 40});
  ASSERT_NE(child, xproto::kNone);
  ASSERT_TRUE(wired.MapWindow(parent));
  ASSERT_TRUE(wired.MapWindow(child));
  ASSERT_TRUE(wired.SetStringProperty(parent, "WM_NAME", "duplex"));
  ASSERT_TRUE(wired.ShapeSetMask(child, xbase::CircleMask(16)));
  ASSERT_TRUE(wired.SetInputFocus(child));
  wired.WarpPointer(0, {38, 48});  // The middle of the child's circle.
  constexpr uint32_t kMask = xproto::kPropertyChangeMask | xproto::kStructureNotifyMask;

  QueryAnswers direct_answers = AskEverything(direct, parent, child, kMask);
  QueryAnswers wired_answers = AskEverything(wired, parent, child, kMask);
  WireHost host(&server, "@swm-duplex-" + std::to_string(::getpid()));
  ASSERT_TRUE(host.ok());
  std::atomic<bool> done{false};
  std::thread serve([&] { host.RunUntil([&] { return done.load(); }, 10000); });
  std::optional<QueryAnswers> remote_answers;
  {
    xlib::Display remote(host.socket_path());
    if (remote.Connected()) {
      remote_answers = AskEverything(remote, parent, child, kMask);
    }
  }
  done = true;
  serve.join();

  EXPECT_EQ(direct_answers.pointer.window, child);
  EXPECT_EQ(direct_answers.focus, child);
  EXPECT_TRUE(direct_answers.child_shaped);
  EXPECT_FALSE(direct_answers.parent_shaped);
  EXPECT_EQ(direct_answers.parent_attrs->your_event_mask, kMask);
  EXPECT_EQ(direct_answers.child_attrs->your_event_mask, 0u);
  EXPECT_EQ(direct_answers.bad_geometry, std::nullopt);
  EXPECT_EQ(direct_answers.missing, std::nullopt);
  ExpectSameAnswers(direct_answers, wired_answers, "wire");
  ASSERT_TRUE(remote_answers.has_value());
  ExpectSameAnswers(direct_answers, *remote_answers, "remote");

  // The whole suite ran on the wire, and only the wire-mode queries took
  // sequence slots.
  const xlib::Display::WireStats& stats = wired.wire_stats();
  EXPECT_GT(stats.wire_replies, 0u);
  EXPECT_EQ(stats.reply_parse_errors, 0u);
  EXPECT_EQ(direct.wire_stats().wire_requests, 0u);
  EXPECT_EQ(direct.RequestCount(), 1u);  // Its SelectInput.
}

// The five calls that once had no wire encoding each send exactly one
// request in wire mode.
TEST(DisplayDuplex, FormerlyUnwiredCallsEachSendOneRequest) {
  Server server;
  xlib::Display wired(&server, "wired");
  wired.set_wire_mode(true);
  WindowId window = wired.CreateWindow(server.RootWindow(0), {0, 0, 8, 8});
  ASSERT_NE(window, xproto::kNone);
  std::vector<std::function<void()>> calls = {
      [&] { (void)wired.GetInputFocus(); },
      [&] { (void)wired.QueryPointer(); },
      [&] { (void)wired.IsShaped(window); },
      [&] { wired.ShapeSetMask(window, xbase::Bitmap(8, 8)); },
      [&] { wired.WarpPointer(0, {4, 4}); }};
  for (size_t i = 0; i < calls.size(); ++i) {
    uint64_t before = wired.wire_stats().wire_requests;
    calls[i]();
    EXPECT_EQ(wired.wire_stats().wire_requests, before + 1) << "call " << i;
  }
  EXPECT_EQ(wired.ErrorCount(), 0u);
  EXPECT_EQ(wired.wire_stats().wire_fallbacks, 0u);
}

// A mask whose region needs more rectangles than a shape request carries is
// refused (BadLength) in every mode; it is never truncated.
TEST(DisplayDuplex, OversizedShapeMaskFailsInEveryMode) {
  xbase::Bitmap checkerboard(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      checkerboard.Set(x, y, (x + y) % 2 == 0);
    }
  }
  ASSERT_GT(checkerboard.ToRegion().rects().size(), xproto::kMaxWireRects);
  for (bool wire : {false, true}) {
    Server server;
    xlib::Display d(&server, "shaper");
    d.set_wire_mode(wire);
    WindowId window = d.CreateWindow(server.RootWindow(0), {0, 0, 64, 64});
    EXPECT_FALSE(d.ShapeSetMask(window, checkerboard)) << "wire " << wire;
    ASSERT_TRUE(d.LastError().has_value()) << "wire " << wire;
    EXPECT_EQ(d.LastError()->code, xproto::ErrorCode::kBadLength) << "wire " << wire;
    EXPECT_FALSE(d.IsShaped(window)) << "wire " << wire;
  }
}

// Calls every void wrapper at least once — successes, mode variants and
// requests that fail on a destroyed window — using only atoms interned
// ahead of time, so no query takes a sequence slot in either mode.
// Returns each call's result.
std::vector<bool> RunVoidRequestScript(xlib::Display& d, xproto::AtomId name_atom,
                                       xproto::AtomId string_atom) {
  std::vector<bool> ok;
  WindowId root = d.RootWindow(0);
  WindowId a = d.CreateWindow(root, {10, 10, 60, 40}, 1);
  WindowId b = d.CreateWindow(root, {80, 20, 50, 30});
  WindowId c = d.CreateWindow(root, {5, 5, 20, 10}, 0, /*override_redirect=*/true);
  ok.push_back(a != xproto::kNone && b != xproto::kNone && c != xproto::kNone);

  ok.push_back(d.SelectInput(a, xproto::kStructureNotifyMask | xproto::kExposureMask |
                                    xproto::kPropertyChangeMask));
  ok.push_back(d.SetWindowBackground(a, '.'));
  ok.push_back(d.SetCursor(a, "left_ptr"));
  ok.push_back(d.MapWindow(a));
  ok.push_back(d.MapRaised(b));
  ok.push_back(d.ReparentWindow(c, a, {3, 4}));
  ok.push_back(d.MapWindow(c));
  xserver::ConfigureValues values;
  values.geometry = {12, 14, 64, 44};
  values.border_width = 2;
  ok.push_back(d.ConfigureWindow(a,
                                 xproto::kConfigX | xproto::kConfigY | xproto::kConfigWidth |
                                     xproto::kConfigHeight | xproto::kConfigBorderWidth,
                                 values));
  ok.push_back(d.MoveWindow(b, {90, 25}));
  ok.push_back(d.ResizeWindow(b, {55, 35}));
  ok.push_back(d.MoveResizeWindow(b, {70, 30, 40, 20}));
  ok.push_back(d.LowerWindow(b));
  ok.push_back(d.RaiseWindow(b));

  std::string title = "xterm: ~/src/swm";
  ok.push_back(d.ChangeProperty(a, name_atom, string_atom, 8, xserver::PropMode::kReplace,
                                std::vector<uint8_t>(title.begin(), title.end())));
  ok.push_back(d.ChangeProperty(a, name_atom, string_atom, 8, xserver::PropMode::kAppend,
                                {'!', '!'}));
  ok.push_back(d.ChangeProperty(a, name_atom, string_atom, 8, xserver::PropMode::kPrepend,
                                {'>', ' '}));
  ok.push_back(d.DeleteProperty(b, name_atom));

  xproto::ClientMessageEvent message;
  message.window = a;
  message.message_type = name_atom;
  message.data = {1, 2, 3, 4, 5};
  ok.push_back(d.SendEvent(a, 0, xproto::Event{message}));
  ok.push_back(d.SendEvent(root, xproto::kSubstructureNotifyMask, xproto::Event{message}));
  ok.push_back(d.SetInputFocus(a));
  ok.push_back(d.GrabButton(a, 1, 0, xproto::kButtonPressMask));
  ok.push_back(d.UngrabButton(a, 1, 0));
  ok.push_back(d.AddToSaveSet(b));
  ok.push_back(d.RemoveFromSaveSet(b));

  ok.push_back(d.ShapeSelect(b, true));
  ok.push_back(d.ShapeSetRegion(b, xbase::Region(std::vector<xbase::Rect>{{0, 0, 20, 10},
                                                                         {10, 10, 30, 10}})));
  ok.push_back(d.ShapeClear(b));

  xserver::DrawOp text;
  text.kind = xserver::DrawOp::Kind::kText;
  text.rect = {1, 1, 50, 1};
  text.text = title;
  ok.push_back(d.Draw(a, text));
  xserver::DrawOp fill;
  fill.kind = xserver::DrawOp::Kind::kFillRect;
  fill.rect = {0, 2, 30, 5};
  fill.fill = '#';
  ok.push_back(d.Draw(a, fill));
  xserver::DrawOp bitmap;
  bitmap.kind = xserver::DrawOp::Kind::kBitmap;
  bitmap.rect = {2, 2, 8, 4};
  bitmap.bitmap = *xbase::Bitmap::FromAscii("#..#\n.##.\n#..#\n");
  ok.push_back(d.Draw(b, bitmap));
  ok.push_back(d.ClearWindow(b));
  ok.push_back(d.Draw(b, fill));
  ok.push_back(d.UnmapWindow(b));
  ok.push_back(d.MapWindow(b));

  // Every request below names a window that no longer exists.
  ok.push_back(d.DestroyWindow(c));
  ok.push_back(d.MapWindow(c));
  ok.push_back(d.MoveWindow(c, {1, 1}));
  ok.push_back(d.ChangeProperty(c, name_atom, string_atom, 8, xserver::PropMode::kReplace,
                                {'x'}));
  ok.push_back(d.Draw(c, fill));
  ok.push_back(d.ShapeSetRegion(c, xbase::Region(xbase::Rect{0, 0, 4, 4})));
  ok.push_back(d.SendEvent(c, 0, xproto::Event{message}));
  ok.push_back(d.DestroyWindow(c));
  return ok;
}

struct VoidScriptOutcome {
  std::vector<bool> results;
  ServerFingerprint fingerprint;
  uint64_t requests = 0;
  uint64_t errors = 0;
  std::optional<xproto::XError> last_error;
  std::vector<xproto::Event> own_events;
  std::vector<xproto::Event> observed_events;
  uint64_t observer_requests = 0;
  uint64_t wire_requests = 0;
};

VoidScriptOutcome RunVoidRequestScriptOn(bool wire_mode) {
  Server server;
  xproto::AtomId name_atom = server.InternAtom("WM_NAME");
  xproto::AtomId string_atom = server.InternAtom("STRING");
  xlib::Display observer(&server, "observer");
  observer.SetErrorHandler([](const xproto::XError&) {});
  observer.SelectInput(server.RootWindow(0),
                       xproto::kSubstructureNotifyMask | xproto::kPropertyChangeMask);
  xlib::Display d(&server, wire_mode ? "wired" : "direct");
  d.set_wire_mode(wire_mode);
  d.SetErrorHandler([](const xproto::XError&) {});

  VoidScriptOutcome out;
  out.results = RunVoidRequestScript(d, name_atom, string_atom);
  out.fingerprint = FingerprintServer(server);
  out.requests = d.RequestCount();
  out.errors = d.ErrorCount();
  out.last_error = d.LastError();
  d.DrainEvents([&](const xproto::Event& e) { out.own_events.push_back(e); });
  observer.DrainEvents([&](const xproto::Event& e) { out.observed_events.push_back(e); });
  out.observer_requests = observer.RequestCount();
  out.wire_requests = d.wire_stats().wire_requests;
  return out;
}

TEST(DisplayDuplex, VoidRequestsMatchAcrossModes) {
  VoidScriptOutcome direct = RunVoidRequestScriptOn(/*wire_mode=*/false);
  VoidScriptOutcome wired = RunVoidRequestScriptOn(/*wire_mode=*/true);

  EXPECT_EQ(direct.results, wired.results);
  EXPECT_EQ(direct.fingerprint.total_requests, wired.fingerprint.total_requests);
  EXPECT_EQ(direct.fingerprint.draw_ops, wired.fingerprint.draw_ops);
  EXPECT_EQ(direct.fingerprint.pixels_drawn, wired.fingerprint.pixels_drawn);
  EXPECT_EQ(direct.fingerprint.screen_hash, wired.fingerprint.screen_hash);
  EXPECT_EQ(direct.requests, wired.requests);
  EXPECT_EQ(direct.errors, wired.errors);
  EXPECT_EQ(direct.observer_requests, wired.observer_requests);
  ASSERT_TRUE(direct.last_error.has_value());
  ASSERT_TRUE(wired.last_error.has_value());
  EXPECT_EQ(direct.last_error->code, wired.last_error->code);
  EXPECT_EQ(direct.last_error->request, wired.last_error->request);
  EXPECT_EQ(direct.last_error->resource_id, wired.last_error->resource_id);
  EXPECT_EQ(direct.last_error->sequence, wired.last_error->sequence);
  EXPECT_EQ(direct.own_events, wired.own_events);
  EXPECT_EQ(direct.observed_events, wired.observed_events);

  // The script exercised what it claims: failures on the destroyed window,
  // drawing, and events for both the client and the observer.
  EXPECT_GE(direct.errors, 7u);
  EXPECT_GT(direct.fingerprint.draw_ops, 0u);
  EXPECT_FALSE(direct.own_events.empty());
  EXPECT_FALSE(direct.observed_events.empty());

  // Only wire mode encodes; the in-process direct funnel sends no bytes.
  EXPECT_EQ(direct.wire_requests, 0u);
  EXPECT_EQ(wired.wire_requests, direct.requests);
}

}  // namespace
}  // namespace xserver
