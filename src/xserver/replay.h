// Deterministic trace replay (docs/PROTOCOL.md).
//
// A trace recorded via xproto::TraceRecorder is a complete account of the
// external stimuli a server saw: connections, request byte buffers (exactly
// as the parser saw them, wire mutations included), and simulated input.
// ReplayTrace feeds those stimuli to a fresh server in order, so the same
// trace always produces the same window tree, the same render stats, and the
// same error counts — replaying twice and diffing is the regression test.
//
// Client ids are minted by the server at Connect time, so a trace's recorded
// ids are remapped: each kConnect record connects a fresh client and binds
// the recorded id to the new one.  Ids that appear without a kConnect record
// (e.g. a WM connected before recording started) can be pre-bound through
// ReplayOptions::client_map.
#ifndef SRC_XSERVER_REPLAY_H_
#define SRC_XSERVER_REPLAY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/xproto/trace.h"
#include "src/xserver/server.h"

namespace xserver {

struct ReplayOptions {
  // Pre-seeded recorded-id → live-id bindings (for clients that connected
  // before recording started, typically the window manager).
  std::map<xproto::ClientId, xproto::ClientId> client_map;
  // Invoked at every kPump record — the recorded session's "drain the WM's
  // event queue" points.  Optional.
  std::function<void()> pump;
  // Non-empty: the full out-of-process path.  Replay binds a WireHost to
  // this socket ('@' prefix = abstract namespace), connects each traced
  // client through the listener, and lets the epoll readiness loop — accept,
  // read, dispatch, flush — move every byte.  Traced clients bind to live
  // ids in accept order (connect order on a unix socket).  Replies come back
  // across the kernel boundary and are verified against the trace's kReply
  // records, which makes this the cross-version gate for recorded sessions.
  // (Pre-bound clients in `client_map` have no channel and stay on the
  // direct path.)
  std::string listen_socket;
};

struct ReplayResult {
  size_t records_applied = 0;
  size_t requests_dispatched = 0;  // Frames parsed and executed.
  size_t parse_errors = 0;         // Frames the wire codec rejected.
  // kExpect verification: counters recorded at capture time vs. this replay.
  size_t expectations_checked = 0;
  bool expectations_met = true;
  std::string mismatch;  // Human-readable first mismatch, empty when met.
  // Reply-direction verification: the trace's kReply records (the honest
  // bytes the recording server emitted) vs. the reply frames this replay
  // produced, as chained FNV-1a hashes + byte/frame counts.  Byte-identical
  // streams are the acceptance bar for duplex traces.
  size_t recorded_replies = 0;
  uint64_t recorded_reply_bytes = 0;
  uint64_t recorded_reply_hash = 1469598103934665603ull;
  size_t replayed_replies = 0;
  uint64_t replayed_reply_bytes = 0;
  uint64_t replayed_reply_hash = 1469598103934665603ull;
  bool replies_match = true;
  std::string reply_mismatch;
};

// Applies every record of `trace` to `server`.  Stops at nothing: malformed
// request buffers raise X errors exactly as they did when recorded.
ReplayResult ReplayTrace(Server* server, const xproto::Trace& trace,
                         const ReplayOptions& options = {});

// Fingerprint of observable server state used by determinism tests: request
// and error totals, render stats, and a hash of every screen's rendered
// canvas.  Two replays of the same trace must produce equal fingerprints.
struct ServerFingerprint {
  uint64_t total_requests = 0;
  uint64_t wire_parse_errors = 0;
  uint64_t draw_ops = 0;
  int64_t pixels_drawn = 0;
  uint64_t screen_hash = 0;
  // Reply direction: count / bytes / chained FNV-1a of every reply frame the
  // server emitted, in order — covers the server→client half of a session.
  uint64_t replies_emitted = 0;
  uint64_t reply_bytes = 0;
  uint64_t reply_hash = 0;

  bool operator==(const ServerFingerprint&) const = default;
};

ServerFingerprint FingerprintServer(const Server& server);

}  // namespace xserver

#endif  // SRC_XSERVER_REPLAY_H_
