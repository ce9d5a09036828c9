// Server-side framed connection (docs/PROTOCOL.md, "Connection lifecycle").
//
// A Connection owns one ByteChannel end and drives the duplex wire protocol
// for one client: it reassembles inbound request frames across arbitrary
// short reads, hands them to Server::DispatchBytes, and writes the resulting
// reply frames — plus encoded X errors and queued events — back through a
// bounded outbound queue.  On top of that it implements the lifecycle a real
// display server needs against misbehaving peers:
//
//   kConnecting -> kEstablished -> kDraining -> kClosed
//
// with typed close reasons.  Stalled or hostile peers are detected by
// write-queue high-water marks, read-idle deadlines and reassembler
// overflow; each detection charges a pluggable misbehavior hook (the swm
// layer wires its MisbehaviorLedger in) before the connection is torn down.
// Teardown goes through Server::Disconnect, so save-set processing and
// window sweeping behave exactly as for direct-call clients, and no other
// client's sequence space is perturbed.
//
// Transport fault injection lives here too: short reads/writes, EINTR
// storms, mid-frame connection resets and reply-byte mutations are applied
// on the bytes crossing the channel, after trace recording, so recorded
// sessions replay the honest stream deterministically.
#ifndef SRC_XSERVER_CONNECTION_H_
#define SRC_XSERVER_CONNECTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/xproto/transport.h"
#include "src/xserver/faults.h"
#include "src/xserver/server.h"

namespace xserver {

enum class ConnectionState : uint8_t {
  kConnecting,   // Channel attached, client not yet registered with the server.
  kEstablished,  // Normal duplex operation.
  kDraining,     // No more reads; flushing the outbound queue, then closing.
  kClosed,       // Torn down; the server-side client is disconnected.
};

enum class CloseReason : uint8_t {
  kNone,           // Still open.
  kPeerClosed,     // Peer closed its end (EOF / EPIPE).
  kGracefulDrain,  // BeginDrain() completed.
  kWriteStalled,   // Peer stopped reading; outbound queue pinned over high water.
  kReadIdle,       // Peer sent nothing for read_idle_ms (WireHost).
  kReadOverflow,   // Peer streamed an unbounded partial frame (reassembler cap).
  kProtocolError,  // A frame the wire codec rejected; the stream cannot resync.
  kTransportError, // Unrecoverable channel error.
  kReset,          // Fault injection killed the connection mid-frame.
};

const char* ConnectionStateName(ConnectionState state);
const char* CloseReasonName(CloseReason reason);

struct ConnectionLimits {
  // Outbound bytes still queued after a flush before the peer counts as
  // stalled; stall_pump_limit consecutive over-water pumps close it.
  size_t write_queue_high_water = 64 * 1024;
  int stall_pump_limit = 4;
  // Reassembler buffer cap for inbound request bytes.
  size_t read_buffer_cap = 64 * 1024;
  // Wall-clock deadlines for readiness-driven hosts (WireHost): a peer that
  // sends nothing for read_idle_ms, or leaves our outbound queue non-empty
  // for write_stall_ms, is closed (kReadIdle / kWriteStalled).  Pump()-based
  // harnesses ignore these: they have no read-idle deadline and count write
  // stalls in pumps (stall_pump_limit).  read_idle_ms == 0 disables the idle
  // deadline (quiet clients are legal); the resource database exposes both
  // as swm.transport.idleMs / swm.transport.stallMs.
  int64_t read_idle_ms = 0;
  int64_t write_stall_ms = 5000;
  // Cost charged to the misbehavior hook per detection (matches the swm
  // quarantine policy's error_cost).
  int misbehavior_cost = 12;
};

class Connection {
 public:
  struct Stats {
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t frames_dispatched = 0;
    uint64_t requests_dispatched = 0;
    uint64_t parse_errors = 0;
    uint64_t replies_queued = 0;
    uint64_t events_queued = 0;
    uint64_t errors_queued = 0;
    uint64_t pumps = 0;
    size_t write_queue_peak = 0;
  };

  // Takes ownership of the server end of a channel pair.  The server object
  // must outlive the connection.
  Connection(Server* server, std::unique_ptr<xproto::ByteChannel> channel,
             std::string machine = "socketpair", ConnectionLimits limits = {});
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Registers the client with the server and installs the error callback
  // that encodes X errors onto the outbound queue.  kConnecting -> kEstablished.
  void Establish();

  // One duplex cycle: read + reassemble + dispatch inbound frames, queue
  // replies/errors/events, flush outbound, run lifecycle checks.  Returns
  // the state after the cycle; call repeatedly until kClosed (or until the
  // test's condition is met).
  ConnectionState Pump();

  // Stop reading; flush what is queued, then close as kGracefulDrain.
  void BeginDrain();

  // Immediate teardown: disconnects the server-side client (save-set
  // processing + window sweep) and closes the channel.
  void Close(CloseReason reason);

  // Deadline-expiry teardown for readiness hosts (WireHost): charges the
  // misbehavior hook — blowing a wall-clock deadline is a policy violation,
  // exactly like blowing a pump-count limit — then closes with `reason`.
  void CloseExpired(CloseReason reason);

  // Abandons the transport without tearing down the session: the channel
  // closes but the client record — windows included — survives on the
  // server.  Trace replay uses this for clients the recording never
  // disconnected, so a transport-mode replay leaves the same observable
  // state a direct-dispatch replay does.
  void Detach();

  // Charged (client id, cost) on each stall/idle/overflow/protocol
  // detection.  The swm layer points this at MisbehaviorLedger::Charge.
  void SetMisbehaviorHook(std::function<void(xproto::ClientId, int)> hook);

  // Installs transport faults (the transport fields of `plan`; the wire and
  // semantic fields stay the server's business).  Deterministic per
  // connection: the RNG is seeded from plan.seed and the client id.
  void InstallTransportFaults(const FaultPlan& plan);

  xproto::ClientId client() const { return client_; }
  ConnectionState state() const { return state_; }
  CloseReason close_reason() const { return close_reason_; }
  const Stats& stats() const { return stats_; }
  const FaultCounters& transport_fault_counters() const { return fault_counters_; }
  size_t outbound_queued() const { return outbox_.size() - outbox_sent_; }
  const ConnectionLimits& limits() const { return limits_; }
  // Channel fd for readiness polling (epoll/poll); -1 for fd-less channels.
  // The fd stays channel-owned — callers must not close it.
  int PollFd() const { return channel_ ? channel_->ReadFd() : -1; }
  // True when the peer's EOF arrived with a partial request frame still
  // buffered — the signature of a client killed mid-request.
  bool died_mid_frame() const { return died_mid_frame_; }

 private:
  // Reads whatever the channel has into the reassembler (short-read and
  // EINTR-storm faults apply here).  Returns false when the connection
  // closed under it.
  bool ReadInbound();
  // Feed + overflow detection (charge, close kReadOverflow).
  bool FeedChecked(std::span<const uint8_t> bytes);
  // Dispatches every complete inbound frame; queues the reply bytes (reply
  // mutation and mid-frame reset faults apply here).  Returns false when the
  // connection died mid-dispatch (reset fault or protocol error).
  bool DispatchInbound();
  // Queues reply frames with per-frame mutation / mid-frame reset faults.
  bool QueueReplies(std::span<uint8_t> frames);
  void QueueEvents();
  void QueueBytes(std::span<const uint8_t> bytes);
  // Flushes as much of the outbound queue as the peer accepts (short-write
  // fault applies here).
  xproto::IoStatus FlushOutbound();
  void ChargeMisbehavior();
  // Ends a drain with drain_reason_, accounting a partial request frame left
  // by a peer that closed as a mid-request death.
  void CloseDrained();

  Server* server_;
  std::unique_ptr<xproto::ByteChannel> channel_;
  std::string machine_;
  ConnectionLimits limits_;

  xproto::ClientId client_ = 0;
  ConnectionState state_ = ConnectionState::kConnecting;
  CloseReason close_reason_ = CloseReason::kNone;
  // Reason the drain in progress will close with (kGracefulDrain for
  // BeginDrain, kPeerClosed when the drain started at EOF).
  CloseReason drain_reason_ = CloseReason::kGracefulDrain;

  xproto::FrameReassembler inbound_;
  // Short-read fault stash: bytes read from the channel but not yet fed to
  // the reassembler (delivered on later pumps, as a slow kernel would).
  std::vector<uint8_t> pending_in_;
  size_t pending_in_offset_ = 0;

  std::vector<uint8_t> outbox_;
  size_t outbox_sent_ = 0;
  int stalled_pumps_ = 0;
  bool died_mid_frame_ = false;

  bool faults_active_ = false;
  FaultPlan plan_;
  FaultRng rng_{1};
  FaultCounters fault_counters_;

  std::function<void(xproto::ClientId, int)> misbehavior_hook_;
  Stats stats_;
};

}  // namespace xserver

#endif  // SRC_XSERVER_CONNECTION_H_
