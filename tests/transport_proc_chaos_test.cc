// Multi-process crash-tolerance chaos suite (docs/PROTOCOL.md
// "Out-of-process operation").  Per seed, a WireHost serves three forked
// clients: two survivors issuing a seeded stream of queries, and one victim
// that is SIGKILLed with a partial request frame on the wire (and, on odd
// seeds, an unread reply in flight).  The survivors hash every server frame
// they receive, byte-for-byte, and finish their scripts only after the
// victim is dead and swept.  A control run of the same seed — identical
// survivors, a victim that exits cleanly — must produce byte-identical
// survivor reply streams: one client's crash is invisible to every other.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/poller.h"
#include "src/xlib/display.h"
#include "src/xproto/transport.h"
#include "src/xproto/wire.h"
#include "src/xserver/server.h"
#include "src/xserver/wire_host.h"

namespace xserver {
namespace {

using xproto::WireClientEndpoint;
using xproto::WindowId;

constexpr int kSeeds = 24;
constexpr int kSurvivors = 2;

const char* const kAtomNames[] = {"SWM_CHAOS_ATOM_0", "SWM_CHAOS_ATOM_1",
                                  "SWM_CHAOS_ATOM_2"};

std::string RunSocketPath(uint32_t seed, bool kill_mode) {
  return "@swm-proc-chaos-" + std::to_string(::getpid()) + "-" +
         std::to_string(seed) + (kill_mode ? "-kill" : "-ctrl");
}

void FlushAll(WireClientEndpoint* ep) {
  for (int i = 0; i < 1000 && ep->queued_bytes() > 0; ++i) {
    ep->Flush();
  }
}

// Child-side: block until one reply frame arrives, folding every inbound
// server frame (replies, errors, events — whatever the stream carries) into
// the chained FNV-1a hash.  Returns false on timeout or a dead socket.
bool AwaitReply(WireClientEndpoint* ep, uint64_t* hash, uint32_t* frames) {
  int64_t deadline = xbase::EventLoop::NowMs() + 5000;
  while (xbase::EventLoop::NowMs() < deadline) {
    ep->Flush();
    ep->Poll();
    bool got_reply = false;
    while (std::optional<std::vector<uint8_t>> frame = ep->NextFrame()) {
      for (uint8_t b : *frame) {
        *hash = (*hash ^ b) * 1099511628211ull;
      }
      ++*frames;
      if (!frame->empty() && (*frame)[0] == 1) {
        got_reply = true;
      }
    }
    if (got_reply) {
      return true;
    }
    if (!ep->open()) {
      return false;
    }
    struct pollfd pfd = {ep->PollFd(), POLLIN, 0};
    ::poll(&pfd, 1, 50);
  }
  return false;
}

// Child-side: the connection's id base, from the QueryScreens round trip a
// client makes at connection setup.  kNone on timeout or a dead socket.
WindowId AwaitIdBase(WireClientEndpoint* ep) {
  ep->QueueRequest(xproto::QueryScreensRequest{});
  int64_t deadline = xbase::EventLoop::NowMs() + 5000;
  while (xbase::EventLoop::NowMs() < deadline && ep->open()) {
    ep->Flush();
    xproto::Reply reply;
    xproto::ParseError error;
    if (ep->NextReply(&reply, &error)) {
      const auto* screens = std::get_if<xproto::ScreensReply>(&reply);
      return screens != nullptr ? screens->id_base : xproto::kNone;
    }
    struct pollfd pfd = {ep->PollFd(), POLLIN, 0};
    ::poll(&pfd, 1, 50);
  }
  return xproto::kNone;
}

// The seeded query `request_index` issues for survivor `idx`.  Every choice
// touches only pre-existing server state — the root window, parent-interned
// atoms, a root-to-root coordinate translation — so the answers cannot
// depend on what any other client did or when it died.  (QueryScreens is
// not in the mix: its reply carries the connection's id base, which
// depends on the order the forked clients happened to connect in.)
xproto::Request SurvivorRequest(uint32_t seed, int idx, int request_index,
                                WindowId root) {
  switch ((seed * 7 + static_cast<uint32_t>(idx) * 13 +
           static_cast<uint32_t>(request_index)) %
          4) {
    case 0:
      return xproto::GetGeometryRequest{.window = root};
    case 1:
      return xproto::InternAtomRequest{.name = kAtomNames[request_index % 3]};
    case 2:
      return xproto::GetWindowAttributesRequest{.window = root};
    default:
      return xproto::TranslateCoordinatesRequest{
          .src = root, .dst = root, .point = {request_index, idx}};
  }
}

struct SurvivorResult {
  uint64_t hash = 1469598103934665603ull;
  uint32_t frames = 0;
  bool ok = false;
};

struct RunResult {
  SurvivorResult survivors[kSurvivors];
  uint64_t mid_frame_deaths = 0;
  uint64_t peer_closed = 0;
  int misbehavior_charges = 0;
  size_t root_children_after = 0;
  bool completed = false;
};

// One full session: host + 2 survivor processes + 1 victim process.  In kill
// mode the victim dies by SIGKILL mid-request; in control mode it exits
// cleanly.  Survivors run the same script either way, and their second half
// only starts once the victim's connection is gone.
RunResult RunSeed(uint32_t seed, bool kill_mode) {
  RunResult result;
  Server server;
  WindowId root = server.RootWindow(0);
  {
    // Pre-intern the atoms the survivors query, so their ids are fixed
    // before any child races to intern them.
    xlib::Display parent_dpy(&server, "chaos-parent");
    for (const char* name : kAtomNames) {
      parent_dpy.InternAtom(name);
    }
  }

  WireHostOptions options;
  options.misbehavior_hook = [&](xproto::ClientId, int) {
    ++result.misbehavior_charges;
  };
  WireHost host(&server, RunSocketPath(seed, kill_mode), std::move(options));
  if (!host.ok()) {
    return result;
  }

  int total_requests = 6 + static_cast<int>(seed % 5);
  int first_half = total_requests / 2;

  int ready_pipe[kSurvivors][2];
  int go_pipe[kSurvivors][2];
  int result_pipe[kSurvivors][2];
  pid_t survivor_pid[kSurvivors];
  for (int idx = 0; idx < kSurvivors; ++idx) {
    if (::pipe(ready_pipe[idx]) != 0 || ::pipe(go_pipe[idx]) != 0 ||
        ::pipe(result_pipe[idx]) != 0) {
      return result;
    }
  }

  for (int idx = 0; idx < kSurvivors; ++idx) {
    survivor_pid[idx] = ::fork();
    if (survivor_pid[idx] == 0) {
      // ---- survivor child ----
      std::unique_ptr<xproto::ByteChannel> channel =
          xproto::ConnectSocket(host.socket_path());
      if (channel == nullptr) {
        ::_exit(40);
      }
      WireClientEndpoint ep(std::move(channel));
      SurvivorResult mine;
      for (int i = 0; i < total_requests; ++i) {
        if (i == first_half) {
          // Halfway barrier: everything after this line runs against a
          // server that has already watched the victim die.
          uint8_t b = 1;
          if (::write(ready_pipe[idx][1], &b, 1) != 1 ||
              ::read(go_pipe[idx][0], &b, 1) != 1) {
            ::_exit(41);
          }
        }
        ep.QueueRequest(SurvivorRequest(seed, idx, i, root));
        if (!AwaitReply(&ep, &mine.hash, &mine.frames)) {
          ::_exit(42);
        }
      }
      if (::write(result_pipe[idx][1], &mine.hash, sizeof mine.hash) !=
              sizeof mine.hash ||
          ::write(result_pipe[idx][1], &mine.frames, sizeof mine.frames) !=
              sizeof mine.frames) {
        ::_exit(43);
      }
      ::_exit(0);
    }
  }

  pid_t victim_pid = ::fork();
  if (victim_pid == 0) {
    // ---- victim child ----
    std::unique_ptr<xproto::ByteChannel> channel =
        xproto::ConnectSocket(host.socket_path());
    if (channel == nullptr) {
      ::_exit(50);
    }
    WireClientEndpoint ep(std::move(channel));
    WindowId victim_base = AwaitIdBase(&ep);
    if (victim_base == xproto::kNone) {
      ::_exit(52);
    }
    int windows = 1 + static_cast<int>(seed % 3);
    for (int i = 0; i < windows; ++i) {
      ep.QueueRequest(xproto::CreateWindowRequest{
          .window = victim_base + static_cast<WindowId>(i),
          .parent = root,
          .geometry = {i * 8, 4, 6, 6}});
    }
    if (seed % 2 == 1) {
      // Mid-reply death: ask a question, never read the answer.
      ep.QueueRequest(xproto::GetGeometryRequest{.window = root});
    }
    FlushAll(&ep);
    xproto::WireWriter w;
    xproto::EncodeRequest(xproto::MapWindowRequest{.window = 0xDEADBEEF}, &w);
    std::vector<uint8_t> frame = w.Take();
    if (kill_mode) {
      size_t cut = 1 + seed % (frame.size() - 1);
      ep.QueueBytes(std::span<const uint8_t>(frame).first(cut));
      FlushAll(&ep);
      ::raise(SIGKILL);
      ::_exit(51);  // Unreachable.
    }
    ep.QueueBytes(frame);
    FlushAll(&ep);
    ::_exit(0);
  }

  // ---- parent: serve the loop, sequence the phases ----
  bool ok =
      host.RunUntil([&]() { return host.stats().accepted == kSurvivors + 1; },
                    10000);
  // The victim dies (or finishes) on its own; wait for its session to be
  // swept while the survivors idle at the halfway barrier.
  ok = ok && host.RunUntil(
                 [&]() { return host.connection_count() == kSurvivors; }, 10000);
  auto pipe_ready = [](int fd) {
    struct pollfd pfd = {fd, POLLIN, 0};
    return ::poll(&pfd, 1, 0) == 1;
  };
  for (int idx = 0; idx < kSurvivors && ok; ++idx) {
    ok = host.RunUntil([&]() { return pipe_ready(ready_pipe[idx][0]); }, 10000);
    uint8_t b = 0;
    ok = ok && ::read(ready_pipe[idx][0], &b, 1) == 1;
  }
  result.mid_frame_deaths = host.stats().mid_frame_deaths;
  result.peer_closed = host.closed_with(CloseReason::kPeerClosed);
  result.root_children_after = server.QueryTree(root)->children.size();
  for (int idx = 0; idx < kSurvivors && ok; ++idx) {
    uint8_t b = 1;
    ok = ::write(go_pipe[idx][1], &b, 1) == 1;
  }
  ok = ok &&
       host.RunUntil([&]() { return host.connection_count() == 0; }, 10000);

  int status = 0;
  ::waitpid(victim_pid, &status, 0);
  bool victim_ok = kill_mode
                       ? (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
                       : (WIFEXITED(status) && WEXITSTATUS(status) == 0);
  for (int idx = 0; idx < kSurvivors; ++idx) {
    ::waitpid(survivor_pid[idx], &status, 0);
    SurvivorResult& sr = result.survivors[idx];
    sr.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (sr.ok) {
      sr.ok = ::read(result_pipe[idx][0], &sr.hash, sizeof sr.hash) ==
                  sizeof sr.hash &&
              ::read(result_pipe[idx][0], &sr.frames, sizeof sr.frames) ==
                  sizeof sr.frames;
    }
  }
  for (int idx = 0; idx < kSurvivors; ++idx) {
    ::close(ready_pipe[idx][0]);
    ::close(ready_pipe[idx][1]);
    ::close(go_pipe[idx][0]);
    ::close(go_pipe[idx][1]);
    ::close(result_pipe[idx][0]);
    ::close(result_pipe[idx][1]);
  }
  result.completed = ok && victim_ok;
  return result;
}

TEST(TransportProcChaos, SurvivorStreamsAreByteIdenticalAcrossVictimCrash) {
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunResult killed = RunSeed(seed, /*kill_mode=*/true);
    RunResult control = RunSeed(seed, /*kill_mode=*/false);

    ASSERT_TRUE(killed.completed) << "kill run did not complete";
    ASSERT_TRUE(control.completed) << "control run did not complete";

    // The crash was seen for what it was: one mid-request death, typed
    // kPeerClosed, a ledger charge, and the victim's windows swept while
    // the survivors were still mid-session.
    EXPECT_EQ(killed.mid_frame_deaths, 1u);
    EXPECT_GE(killed.peer_closed, 1u);
    EXPECT_GT(killed.misbehavior_charges, 0);
    EXPECT_EQ(killed.root_children_after, 0u)
        << "victim windows must be swept by the time survivors resume";
    EXPECT_EQ(control.mid_frame_deaths, 0u)
        << "a clean exit must not count as a mid-frame death";

    // The acceptance bar: every survivor's reply stream is byte-identical
    // with and without the crash.
    for (int idx = 0; idx < kSurvivors; ++idx) {
      SCOPED_TRACE("survivor " + std::to_string(idx));
      ASSERT_TRUE(killed.survivors[idx].ok);
      ASSERT_TRUE(control.survivors[idx].ok);
      EXPECT_GT(killed.survivors[idx].frames, 0u);
      EXPECT_EQ(killed.survivors[idx].frames, control.survivors[idx].frames);
      EXPECT_EQ(killed.survivors[idx].hash, control.survivors[idx].hash)
          << "a crash leaked into another client's reply stream";
    }
  }
}

}  // namespace
}  // namespace xserver
