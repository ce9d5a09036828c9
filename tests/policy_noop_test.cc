// The layout-policy refactor's no-op gate (docs/POLICIES.md): with the
// default `floating` policy, the refactored WM must be *byte-identical* to
// the pre-refactor code.  Three anchors:
//
//  1. A deterministic scripted WM session whose ServerFingerprint was
//     recorded on the pre-refactor tree (the golden constants below).  Any
//     drift in placement, sizing, stacking, decoration traffic or paint
//     output changes the fingerprint and fails the gate.
//  2. The same session run with `swm.layout.policy: floating` set explicitly
//     must match a run with no policy resource at all (default == floating,
//     forever, not just against this PR's golden).
//  3. The checked-in trace corpus (duplex_seed_* / chaos_seed_*) still
//     replays deterministically — the refactor may not perturb the server
//     side either.
//
// Regenerating the golden after an *intentional* behavior change: run with
// --gtest_also_run_disabled_tests --gtest_filter='*PrintFingerprint*' and
// paste the printed values.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/swm/swmcmd.h"
#include "src/xproto/trace.h"
#include "src/xserver/replay.h"
#include "tests/swm_test_util.h"
#include "tests/transcript.h"

namespace swm_test {
namespace {

using xserver::FingerprintServer;
using xserver::ReplayResult;
using xserver::ReplayTrace;
using xserver::Server;
using xserver::ServerFingerprint;

// Pre-refactor fingerprint of RunScriptedWmSession, recorded at commit
// 70078b5 (before LayoutPolicy existed).  The floating policy must keep
// reproducing it exactly.  The request, draw-op and pixel counts were
// re-recorded when the panner began drawing only what changed, once per
// batch, without a GetGeometry (680, 152 and 2387 before), and again when
// mid-batch flushes began only laying out, so a frame paints once per
// batch and child objects map at creation (635, 120 and 2079 before); the
// screen hash and the reply constants are the pre-refactor recording.
constexpr uint64_t kGoldenTotalRequests = 606;
constexpr uint64_t kGoldenDrawOps = 108;
constexpr int64_t kGoldenPixelsDrawn = 1947;
constexpr uint64_t kGoldenScreenHash = 4979895773632615327ull;
constexpr uint64_t kGoldenRepliesEmitted = 0;
constexpr uint64_t kGoldenReplyBytes = 0;
constexpr uint64_t kGoldenReplyHash = 1469598103934665603ull;

// The same session with `swm*panner: False`, recorded on the tree just
// before the panner began sending only its diff, and re-recorded with the
// golden above when frames began painting once per batch (558, 84 and
// 1586 before).  Nothing outside the panner and the frame pipeline may
// move it.
constexpr uint64_t kNoPannerTotalRequests = 533;
constexpr uint64_t kNoPannerDrawOps = 74;
constexpr int64_t kNoPannerPixelsDrawn = 1476;
constexpr uint64_t kNoPannerScreenHash = 7283973634920403739ull;

class PolicyNoopTest : public SwmTest {
 protected:
  // A fixed workload covering every layout decision site: default cascade
  // placement, PPosition/USPosition honoring, ConfigureRequest move+resize,
  // iconify/deiconify, zoom, raise via swmcmd, a viewport pan, withdrawal
  // and destruction.  No faults, no randomness: the resulting server state
  // is a pure function of the WM's layout policy.
  //
  // When `transcript` is set it records every event each client takes,
  // window ids renamed to first-appearance ordinals (tests/transcript.h).
  ServerFingerprint RunScriptedWmSession(const std::string& extra_resources,
                                         Transcript* transcript = nullptr) {
    on_server_created_ = [transcript](Server* server) {
      if (transcript != nullptr) {
        transcript->Tap(server);
      }
    };
    StartWm("swm*virtualDesktop: 400x300\n" + extra_resources);

    auto a = Spawn("alpha", {"alpha", "Alpha"}, {0, 0, 30, 10});
    auto b = Spawn("beta", {"beta", "Beta"}, {50, 40, 40, 20},
                   xproto::kPPosition | xproto::kPSize);
    auto c = Spawn("gamma", {"gamma", "Gamma"}, {5, 5, 20, 10},
                   xproto::kUSPosition | xproto::kUSSize);
    auto d = Spawn("delta", {"delta", "Delta"}, {0, 0, 24, 12});

    a->RequestMoveResize({60, 10, 35, 12});
    wm_->ProcessEvents();
    a->ProcessEvents();

    b->RequestIconify();
    wm_->ProcessEvents();
    b->Map();  // Deiconify via MapRequest.
    wm_->ProcessEvents();

    xlib::Display shell(server_.get(), "noop-shell");
    swm::SendSwmCommand(&shell, 0, "f.raise(Alpha)");
    wm_->ProcessEvents();
    swm::SendSwmCommand(&shell, 0, "f.zoom(Gamma)");
    wm_->ProcessEvents();
    swm::SendSwmCommand(&shell, 0, "f.lower(Delta)");
    wm_->ProcessEvents();

    auto e = Spawn("epsilon", {"epsilon", "Epsilon"}, {0, 0, 26, 14});

    // Withdrawal and destruction exercise the unmanage path.
    c->Unmap();
    wm_->ProcessEvents();
    d->display().DestroyWindow(d->window());
    wm_->ProcessEvents();

    // Pan last: the post-refactor floating policy resets its cascade cursor
    // on pan (a deliberate fix), so no placements follow the pan here.
    swm::SendSwmCommand(&shell, 0, "f.pan(30,20)");
    wm_->ProcessEvents();
    // Every client takes what it was sent, so the transcript holds it all.
    for (xlib::ClientApp* app : {a.get(), b.get(), c.get(), d.get(), e.get()}) {
      app->display().DrainEvents([](const xproto::Event&) {});
    }
    shell.DrainEvents([](const xproto::Event&) {});

    server_->SetEventTapForTest({});
    return FingerprintServer(*server_);
  }
};

// Hash of the id-renamed transcript of RunScriptedWmSession (every event
// each client took), recorded on the tree that minted window ids
// server-side, before clients chose their own.  Renaming makes it
// independent of the ids themselves, so it pins the event sequence across
// that change.
constexpr size_t kGoldenTranscriptEvents = 162;
constexpr uint64_t kGoldenTranscriptHash = 16845851088887080303ull;
constexpr size_t kNoPannerTranscriptEvents = 148;
constexpr uint64_t kNoPannerTranscriptHash = 7930047803681491949ull;

TEST_F(PolicyNoopTest, FloatingMatchesPreRefactorGolden) {
  Transcript transcript;
  ServerFingerprint fp = RunScriptedWmSession("", &transcript);
  EXPECT_EQ(transcript.events(), kGoldenTranscriptEvents);
  EXPECT_EQ(transcript.hash(), kGoldenTranscriptHash);
  EXPECT_EQ(fp.total_requests, kGoldenTotalRequests);
  EXPECT_EQ(fp.draw_ops, kGoldenDrawOps);
  EXPECT_EQ(fp.pixels_drawn, kGoldenPixelsDrawn);
  EXPECT_EQ(fp.screen_hash, kGoldenScreenHash);
  EXPECT_EQ(fp.replies_emitted, kGoldenRepliesEmitted);
  EXPECT_EQ(fp.reply_bytes, kGoldenReplyBytes);
  EXPECT_EQ(fp.reply_hash, kGoldenReplyHash);
  EXPECT_EQ(fp.wire_parse_errors, 0u);
}

TEST_F(PolicyNoopTest, FloatingWithoutPannerMatchesGolden) {
  Transcript transcript;
  ServerFingerprint fp = RunScriptedWmSession("swm*panner: False\n", &transcript);
  EXPECT_EQ(transcript.events(), kNoPannerTranscriptEvents);
  EXPECT_EQ(transcript.hash(), kNoPannerTranscriptHash);
  EXPECT_EQ(fp.total_requests, kNoPannerTotalRequests);
  EXPECT_EQ(fp.draw_ops, kNoPannerDrawOps);
  EXPECT_EQ(fp.pixels_drawn, kNoPannerPixelsDrawn);
  EXPECT_EQ(fp.screen_hash, kNoPannerScreenHash);
  EXPECT_EQ(fp.replies_emitted, kGoldenRepliesEmitted);
  EXPECT_EQ(fp.reply_bytes, kGoldenReplyBytes);
  EXPECT_EQ(fp.reply_hash, kGoldenReplyHash);
  EXPECT_EQ(fp.wire_parse_errors, 0u);
}

void PrintFingerprint(const ServerFingerprint& fp) {
  printf("kGoldenTotalRequests  = %llu\n",
         static_cast<unsigned long long>(fp.total_requests));
  printf("kGoldenDrawOps        = %llu\n",
         static_cast<unsigned long long>(fp.draw_ops));
  printf("kGoldenPixelsDrawn    = %lld\n",
         static_cast<long long>(fp.pixels_drawn));
  printf("kGoldenScreenHash     = %lluull\n",
         static_cast<unsigned long long>(fp.screen_hash));
  printf("kGoldenRepliesEmitted = %llu\n",
         static_cast<unsigned long long>(fp.replies_emitted));
  printf("kGoldenReplyBytes     = %llu\n",
         static_cast<unsigned long long>(fp.reply_bytes));
  printf("kGoldenReplyHash      = %lluull\n",
         static_cast<unsigned long long>(fp.reply_hash));
}

TEST_F(PolicyNoopTest, DISABLED_PrintFingerprintForGoldenCapture) {
  PrintFingerprint(RunScriptedWmSession(""));
}

TEST_F(PolicyNoopTest, DISABLED_PrintNoPannerFingerprintForGoldenCapture) {
  PrintFingerprint(RunScriptedWmSession("swm*panner: False\n"));
}

// ---- Checked-in corpus still replays deterministically ----------------------

class PolicyCorpusTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyCorpusTest, CorpusUnchangedByPolicyRefactor) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  std::string path = std::string(SWM_TRACE_DIR) + "/" + GetParam();
  xproto::ParseError error;
  std::optional<xproto::Trace> trace = xproto::ReadTraceFile(path, &error);
  ASSERT_TRUE(trace.has_value()) << path << ": " << xproto::ParseErrorText(error);

  Server replay1;
  ReplayResult r1 = ReplayTrace(&replay1, *trace);
  Server replay2;
  ReplayResult r2 = ReplayTrace(&replay2, *trace);
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);

  // The expect footer in each corpus trace *is* the pre-refactor recording:
  // request totals, draw ops and pixels drawn at record time.  Meeting it
  // proves the replayed server state is byte-identical to what the
  // pre-refactor tree produced.
  EXPECT_GT(r1.expectations_checked, 0u);
  EXPECT_TRUE(r1.expectations_met) << r1.mismatch;
  EXPECT_TRUE(r2.expectations_met) << r2.mismatch;
  EXPECT_EQ(FingerprintServer(replay1), FingerprintServer(replay2));
}

INSTANTIATE_TEST_SUITE_P(CheckedInTraces, PolicyCorpusTest,
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
