// Deterministic trace record/replay (docs/PROTOCOL.md): a recorded session —
// connects, request bytes exactly as the parser saw them (wire mutations
// included), simulated input — must replay onto a fresh server to the same
// observable state, every time.  The checked-in chaos-seed traces under
// tests/traces/ are the regression corpus: streams that once carried live
// fault-plan mutations now replay bit-identically with no fault plan at all.
#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/xlib/display.h"
#include "src/xproto/trace.h"
#include "src/xserver/replay.h"
#include "src/xserver/server.h"
#include "tests/transcript.h"

namespace swm_test {
namespace {

using xproto::Trace;
using xserver::FingerprintServer;
using xserver::ReplayResult;
using xserver::ReplayTrace;
using xserver::Server;
using xserver::ServerFingerprint;

// A fresh abstract-namespace socket name per replay, so tests (and parallel
// ctest processes) never share a listener.
std::string UniqueSocketPath(const std::string& tag) {
  static int counter = 0;
  return "@swm-trace-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(++counter);
}

// Replays `trace` with every traced client on the out-of-process path.
ReplayResult ReplayOverSocket(Server* server, const Trace& trace, const std::string& tag) {
  xserver::ReplayOptions options;
  options.listen_socket = UniqueSocketPath(tag);
  return ReplayTrace(server, trace, options);
}

// A small scripted session issued through wire-mode Displays (so every
// request travels as bytes and lands in the recorder) plus simulated input.
void RunScriptedSession(Server* server) {
  xlib::Display a(server, "host-a");
  a.set_wire_mode(true);
  xlib::Display b(server, "host-b");
  b.set_wire_mode(true);

  xproto::WindowId root = server->RootWindow(0);
  // Event selections, so the clients receive window ids in events too.
  b.SelectInput(root, xproto::kSubstructureNotifyMask);
  xproto::WindowId wa = a.CreateWindow(root, {10, 10, 40, 20}, 1);
  ASSERT_NE(wa, xproto::kNone);
  a.SelectInput(wa, xproto::kStructureNotifyMask | xproto::kExposureMask |
                        xproto::kButtonPressMask | xproto::kPropertyChangeMask);
  a.SetWindowBackground(wa, '.');
  a.MapWindow(wa);
  xserver::DrawOp op;
  op.kind = xserver::DrawOp::Kind::kFillRect;
  op.rect = {0, 0, 10, 5};
  op.fill = '#';
  a.Draw(wa, op);

  xproto::WindowId wb = b.CreateWindow(root, {60, 30, 30, 15});
  b.MapWindow(wb);
  b.MoveWindow(wb, {70, 35});
  b.RaiseWindow(wb);

  // Queries too, so the recorded session carries reply frames (kReply
  // records) and replay can verify the server-to-client direction.
  a.SetStringProperty(wa, "WM_NAME", "scripted");
  (void)a.GetGeometry(wa);
  (void)a.QueryTree(root);
  (void)a.GetStringProperty(wa, "WM_NAME");
  (void)b.InternAtom("WM_PROTOCOLS");
  (void)b.GetWindowAttributes(wb);
  (void)b.TranslateCoordinates(wb, root, {0, 0});

  server->SimulateMotion({75, 40});
  server->SimulateButton(1, true);
  server->SimulateButton(1, false);
  server->SimulateKey('x', true);
  server->SimulateKey('x', false);
  server->WarpPointer(0, {5, 5});

  a.UnmapWindow(wa);
  a.MapWindow(wa);
  b.DestroyWindow(wb);

  // Each client takes what it was sent, so a transcript tap sees it.
  a.DrainEvents([](const xproto::Event&) {});
  b.DrainEvents([](const xproto::Event&) {});
}

// Hash of the id-renamed transcript of RunScriptedSession: every event each
// client took and every reply the server emitted, window ids replaced by
// first-appearance ordinals (tests/transcript.h).  Recorded on the tree that
// minted window ids server-side, before clients chose their own; renaming
// makes it independent of the ids, so it pins behaviour across that change.
constexpr size_t kScriptedTranscriptEvents = 16;
constexpr size_t kScriptedTranscriptReplies = 9;
constexpr uint64_t kScriptedTranscriptHash = 12920752786695083625ull;

TEST(TraceReplayTest, ScriptedSessionTranscriptIsPinned) {
  Server server;
  xproto::TraceRecorder recorder;
  server.SetTraceRecorder(&recorder);
  Transcript transcript;
  transcript.Tap(&server);
  RunScriptedSession(&server);
  server.SetEventTapForTest({});
  server.SetTraceRecorder(nullptr);
  transcript.AddReplies(recorder.trace());

  EXPECT_EQ(transcript.events(), kScriptedTranscriptEvents);
  EXPECT_EQ(transcript.replies(), kScriptedTranscriptReplies);
  EXPECT_EQ(transcript.hash(), kScriptedTranscriptHash);
}

TEST(TraceReplayTest, ScriptedSessionReplaysToIdenticalState) {
  Server recorded;
  xproto::TraceRecorder recorder;
  recorded.SetTraceRecorder(&recorder);
  RunScriptedSession(&recorded);
  recorded.SetTraceRecorder(nullptr);
  recorder.RecordExpect(recorded.TotalRequests(), recorded.render_stats().draw_ops,
                        static_cast<uint64_t>(recorded.render_stats().pixels_drawn));
  Trace trace = recorder.Take();
  ASSERT_FALSE(trace.records.empty());

  Server replay1;
  ReplayResult r1 = ReplayTrace(&replay1, trace);
  EXPECT_TRUE(r1.expectations_met) << r1.mismatch;
  EXPECT_EQ(r1.parse_errors, 0u);

  Server replay2;
  ReplayResult r2 = ReplayTrace(&replay2, trace);

  // Recorded run and both replays converge on the same observable state —
  // reply stream included (the fingerprint hashes every emitted reply frame).
  ServerFingerprint original = FingerprintServer(recorded);
  EXPECT_EQ(FingerprintServer(replay1), original);
  EXPECT_EQ(FingerprintServer(replay2), original);
  EXPECT_EQ(r1.records_applied, r2.records_applied);
  EXPECT_EQ(r1.requests_dispatched, r2.requests_dispatched);
  EXPECT_GT(r1.recorded_replies, 0u) << "the scripted session issues queries";
  EXPECT_TRUE(r1.replies_match) << r1.reply_mismatch;
  EXPECT_TRUE(r2.replies_match) << r2.reply_mismatch;
}

TEST(TraceReplayTest, TransportReplayMatchesDirectReplayByteForByte) {
  // The acceptance bar: a recorded session replays byte-identically when
  // every traced client connects through a listening socket and the host's
  // readiness loop instead of direct dispatch — same fingerprint, same reply
  // stream.
  Server recorded;
  xproto::TraceRecorder recorder;
  recorded.SetTraceRecorder(&recorder);
  RunScriptedSession(&recorded);
  recorded.SetTraceRecorder(nullptr);
  recorder.RecordExpect(recorded.TotalRequests(), recorded.render_stats().draw_ops,
                        static_cast<uint64_t>(recorded.render_stats().pixels_drawn));
  Trace trace = recorder.Take();

  Server direct;
  ReplayResult rd = ReplayTrace(&direct, trace);
  ASSERT_TRUE(rd.expectations_met) << rd.mismatch;

  Server t1;
  ReplayResult rt1 = ReplayOverSocket(&t1, trace, "duplex");
  Server t2;
  ReplayResult rt2 = ReplayOverSocket(&t2, trace, "duplex");

  EXPECT_TRUE(rt1.expectations_met) << rt1.mismatch;
  EXPECT_GT(rt1.recorded_replies, 0u);
  EXPECT_TRUE(rt1.replies_match) << rt1.reply_mismatch;
  EXPECT_TRUE(rt2.replies_match) << rt2.reply_mismatch;
  EXPECT_EQ(rt1.requests_dispatched, rd.requests_dispatched);
  EXPECT_EQ(rt1.replayed_reply_hash, rd.replayed_reply_hash)
      << "the socket transport must carry the same reply bytes direct "
         "dispatch produces";

  ServerFingerprint original = FingerprintServer(recorded);
  EXPECT_EQ(FingerprintServer(direct), original);
  EXPECT_EQ(FingerprintServer(t1), original);
  EXPECT_EQ(FingerprintServer(t2), original);
}

TEST(TraceReplayTest, MutatedStreamReplaysWithoutTheFaultPlan) {
  // Record with live wire mutations: the recorder sees post-mutation bytes,
  // so replay needs no fault plan and reproduces the mangled stream exactly —
  // parse errors included.
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  Server recorded;
  xproto::TraceRecorder recorder;
  recorded.SetTraceRecorder(&recorder);

  xserver::FaultPlan plan;
  plan.seed = 77;
  plan.bitflip_request_permille = 400;
  plan.lie_length_permille = 200;
  plan.truncate_request_permille = 200;
  plan.scramble_opcode_permille = 200;
  recorded.InstallFaultPlan(plan);

  xproto::ClientId hostile = recorded.Connect("hostile");
  xproto::WindowId root = recorded.RootWindow(0);
  xproto::WindowId base = recorded.IdBase(hostile);
  for (uint32_t i = 0; i < 50; ++i) {
    xproto::WireWriter w;
    xproto::EncodeRequest(xproto::CreateWindowRequest{.window = base | i,
                                                      .parent = root,
                                                      .geometry = {static_cast<int>(i),
                                                                   static_cast<int>(i), 10, 5}},
                          &w);
    // The root first, then each window the stream created before.
    xproto::EncodeRequest(xproto::MapWindowRequest{.window = i == 0 ? root : base | (i - 1)},
                          &w);
    recorded.DispatchBytes(hostile, w.span());
  }
  ASSERT_GT(recorded.fault_counters().WireMutations(), 0u);
  ASSERT_GT(recorded.wire_parse_errors(), 0u) << "mutations should have broken frames";

  recorded.ClearFaultPlan();
  recorded.SetTraceRecorder(nullptr);
  recorder.RecordExpect(recorded.TotalRequests(), recorded.render_stats().draw_ops,
                        static_cast<uint64_t>(recorded.render_stats().pixels_drawn));
  Trace trace = recorder.Take();

  Server replay1;
  ReplayResult r1 = ReplayTrace(&replay1, trace);
  Server replay2;
  ReplayResult r2 = ReplayTrace(&replay2, trace);
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);

  EXPECT_TRUE(r1.expectations_met) << r1.mismatch;
  EXPECT_EQ(FingerprintServer(replay1), FingerprintServer(replay2));
  EXPECT_EQ(FingerprintServer(replay1), FingerprintServer(recorded));
  EXPECT_EQ(replay1.wire_parse_errors(), recorded.wire_parse_errors())
      << "replay reproduces every parse error without a fault plan";
  EXPECT_EQ(r1.requests_dispatched, r2.requests_dispatched);
  EXPECT_EQ(r1.parse_errors, r2.parse_errors);
}

TEST(TraceReplayTest, SerializedTraceSurvivesTheDiskRoundTrip) {
  Server recorded;
  xproto::TraceRecorder recorder;
  recorded.SetTraceRecorder(&recorder);
  RunScriptedSession(&recorded);
  recorded.SetTraceRecorder(nullptr);

  std::string path = ::testing::TempDir() + "/session.swmtrace";
  ASSERT_TRUE(xproto::WriteTraceFile(path, recorder.trace()));
  xproto::ParseError error;
  std::optional<Trace> loaded = xproto::ReadTraceFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << xproto::ParseErrorText(error);

  Server replay;
  ReplayTrace(&replay, *loaded);
  EXPECT_EQ(FingerprintServer(replay), FingerprintServer(recorded));
}

// ---- Checked-in chaos-seed corpus -------------------------------------------

class TraceCorpusTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceCorpusTest, CorpusTraceReplaysDeterministically) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  std::string path = std::string(SWM_TRACE_DIR) + "/" + GetParam();
  xproto::ParseError error;
  std::optional<Trace> trace = xproto::ReadTraceFile(path, &error);
  ASSERT_TRUE(trace.has_value()) << path << ": " << xproto::ParseErrorText(error);
  ASSERT_FALSE(trace->records.empty());

  Server replay1;
  ReplayResult r1 = ReplayTrace(&replay1, *trace);
  Server replay2;
  ReplayResult r2 = ReplayTrace(&replay2, *trace);
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);

  EXPECT_GT(r1.expectations_checked, 0u) << "corpus traces carry an expect footer";
  EXPECT_TRUE(r1.expectations_met) << r1.mismatch;
  EXPECT_TRUE(r2.expectations_met) << r2.mismatch;
  EXPECT_EQ(FingerprintServer(replay1), FingerprintServer(replay2));
  EXPECT_EQ(replay1.wire_parse_errors(), replay2.wire_parse_errors());
  EXPECT_EQ(r1.replies_match, r2.replies_match);

  // The duplex traces were recorded through real framed connections: they
  // carry kReply records and replay cleanly over a listening socket too,
  // with the reply stream verified in both directions.  (The chaos traces
  // dispatch their hostile streams directly: those keep dispatching
  // mid-buffer after parse errors, which a lifecycle-enforcing Connection
  // deliberately refuses to do.)
  if (GetParam().rfind("duplex", 0) == 0) {
    EXPECT_GT(r1.recorded_replies, 0u);
    EXPECT_TRUE(r1.replies_match) << r1.reply_mismatch;

    xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
    Server transport_replay;
    ReplayResult rt = ReplayOverSocket(&transport_replay, *trace, "corpus");
    xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
    EXPECT_TRUE(rt.expectations_met) << rt.mismatch;
    EXPECT_TRUE(rt.replies_match) << rt.reply_mismatch;
    EXPECT_EQ(FingerprintServer(transport_replay), FingerprintServer(replay1));
  }
}

INSTANTIATE_TEST_SUITE_P(CheckedInTraces, TraceCorpusTest,
                         ::testing::Values("chaos_seed_1.swmtrace",
                                           "chaos_seed_2.swmtrace",
                                           "chaos_seed_3.swmtrace",
                                           "chaos_seed_4.swmtrace",
                                           "duplex_seed_1.swmtrace",
                                           "duplex_seed_2.swmtrace",
                                           "duplex_seed_3.swmtrace",
                                           "duplex_seed_4.swmtrace"));

}  // namespace
}  // namespace swm_test
