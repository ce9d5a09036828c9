#include "src/xserver/connection.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/xproto/wire.h"

namespace xserver {

using xproto::IoStatus;

const char* ConnectionStateName(ConnectionState state) {
  switch (state) {
    case ConnectionState::kConnecting:
      return "connecting";
    case ConnectionState::kEstablished:
      return "established";
    case ConnectionState::kDraining:
      return "draining";
    case ConnectionState::kClosed:
      return "closed";
  }
  return "?";
}

const char* CloseReasonName(CloseReason reason) {
  switch (reason) {
    case CloseReason::kNone:
      return "none";
    case CloseReason::kPeerClosed:
      return "peer-closed";
    case CloseReason::kGracefulDrain:
      return "graceful-drain";
    case CloseReason::kWriteStalled:
      return "write-stalled";
    case CloseReason::kReadIdle:
      return "read-idle";
    case CloseReason::kReadOverflow:
      return "read-overflow";
    case CloseReason::kProtocolError:
      return "protocol-error";
    case CloseReason::kTransportError:
      return "transport-error";
    case CloseReason::kReset:
      return "reset";
  }
  return "?";
}

Connection::Connection(Server* server, std::unique_ptr<xproto::ByteChannel> channel,
                       std::string machine, ConnectionLimits limits)
    : server_(server),
      channel_(std::move(channel)),
      machine_(std::move(machine)),
      limits_(limits),
      inbound_(xproto::FrameStream::kRequests, limits.read_buffer_cap) {}

Connection::~Connection() {
  if (state_ != ConnectionState::kClosed) {
    Close(close_reason_ == CloseReason::kNone ? CloseReason::kGracefulDrain
                                              : close_reason_);
  }
}

void Connection::Establish() {
  if (state_ != ConnectionState::kConnecting) {
    return;
  }
  client_ = server_->Connect(machine_);
  // X errors for this client travel the wire like everything else: encode
  // onto the outbound queue as the server raises them.
  server_->SetErrorCallback(client_, [this](const xproto::XError& error) {
    xproto::WireWriter w;
    xproto::EncodeError(error, &w);
    QueueBytes(w.span());
    ++stats_.errors_queued;
  });
  // Per-connection deterministic fault stream: same plan seed + same client
  // id => same faults, every run.
  if (faults_active_) {
    rng_ = FaultRng(plan_.seed ^ (0x9e3779b97f4a7c15ull * (client_ + 1)));
  }
  state_ = ConnectionState::kEstablished;
}

void Connection::SetMisbehaviorHook(std::function<void(xproto::ClientId, int)> hook) {
  misbehavior_hook_ = std::move(hook);
}

void Connection::InstallTransportFaults(const FaultPlan& plan) {
  plan_ = plan;
  faults_active_ = plan.short_read_permille > 0 || plan.short_write_permille > 0 ||
                   plan.eintr_storm_permille > 0 || plan.reset_midframe_permille > 0 ||
                   plan.mutate_reply_permille > 0;
  rng_ = FaultRng(plan_.seed ^ (0x9e3779b97f4a7c15ull * (client_ + 1)));
}

void Connection::ChargeMisbehavior() {
  if (misbehavior_hook_) {
    misbehavior_hook_(client_, limits_.misbehavior_cost);
  }
}

void Connection::Close(CloseReason reason) {
  if (state_ == ConnectionState::kClosed) {
    return;
  }
  state_ = ConnectionState::kClosed;
  close_reason_ = reason;
  if (reason != CloseReason::kPeerClosed && reason != CloseReason::kGracefulDrain) {
    XB_LOG(Warning) << "connection client=" << client_ << " closed: "
                    << CloseReasonName(reason);
  }
  // Disconnect runs save-set processing and sweeps the client's windows —
  // the same teardown a direct-call client gets, touching no other client.
  if (client_ != 0) {
    server_->Disconnect(client_);
    client_ = 0;
  }
  if (channel_) {
    channel_->Close();
  }
}

void Connection::CloseExpired(CloseReason reason) {
  if (state_ == ConnectionState::kClosed) {
    return;
  }
  ChargeMisbehavior();
  Close(reason);
}

void Connection::Detach() {
  if (state_ == ConnectionState::kClosed) {
    return;
  }
  state_ = ConnectionState::kClosed;
  close_reason_ = CloseReason::kGracefulDrain;
  if (client_ != 0) {
    // The error callback captures `this`; the client record outlives us.
    server_->SetErrorCallback(client_, nullptr);
    client_ = 0;
  }
  if (channel_) {
    channel_->Close();
  }
}

void Connection::BeginDrain() {
  if (state_ == ConnectionState::kEstablished || state_ == ConnectionState::kConnecting) {
    if (state_ == ConnectionState::kConnecting) {
      Establish();
    }
    state_ = ConnectionState::kDraining;
    drain_reason_ = CloseReason::kGracefulDrain;
  }
}

void Connection::QueueBytes(std::span<const uint8_t> bytes) {
  outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());
}

bool Connection::FeedChecked(std::span<const uint8_t> bytes) {
  if (!inbound_.Feed(bytes)) {
    ChargeMisbehavior();
    Close(CloseReason::kReadOverflow);
    return false;
  }
  return true;
}

bool Connection::ReadInbound() {
  // Bytes a short-read fault held back last pump arrive first — the stream
  // stays in order, just sliced.
  if (pending_in_offset_ < pending_in_.size()) {
    std::span<const uint8_t> rest(pending_in_.data() + pending_in_offset_,
                                  pending_in_.size() - pending_in_offset_);
    pending_in_offset_ = pending_in_.size();
    if (!FeedChecked(rest)) {
      return false;
    }
    pending_in_.clear();
    pending_in_offset_ = 0;
  }

  uint8_t buf[4096];
  for (;;) {
    if (faults_active_ && plan_.eintr_storm_permille > 0 &&
        rng_.Roll(plan_.eintr_storm_permille)) {
      // The channel retries real EINTR internally; the storm is accounted as
      // the retries a blocking loop would have burned.
      fault_counters_.eintr_retries += static_cast<uint64_t>(rng_.Range(1, 4));
    }
    size_t n = 0;
    IoStatus status = channel_->Read(buf, sizeof(buf), &n);
    if (n > 0) {
      stats_.bytes_read += n;
      std::span<const uint8_t> data(buf, n);
      if (faults_active_ && n > 1 && rng_.Roll(plan_.short_read_permille)) {
        // Deliver a slice now, stash the rest for the next pump.
        size_t cut = static_cast<size_t>(rng_.Range(1, static_cast<int>(n) - 1));
        pending_in_.assign(data.begin() + static_cast<ptrdiff_t>(cut), data.end());
        pending_in_offset_ = 0;
        ++fault_counters_.short_reads;
        return FeedChecked(data.first(cut));
      }
      if (!FeedChecked(data)) {
        return false;
      }
    }
    switch (status) {
      case IoStatus::kOk:
        if (n == 0) {
          return true;
        }
        break;  // More may be waiting.
      case IoStatus::kWouldBlock:
        return true;
      case IoStatus::kClosed:
        // EOF: dispatch what already arrived, flush, then close.
        state_ = ConnectionState::kDraining;
        drain_reason_ = CloseReason::kPeerClosed;
        return true;
      case IoStatus::kError:
        Close(CloseReason::kTransportError);
        return false;
    }
  }
}

bool Connection::QueueReplies(std::span<uint8_t> frames) {
  size_t cursor = 0;
  while (cursor < frames.size()) {
    size_t remaining = frames.size() - cursor;
    size_t frame_len =
        xproto::FrameBytesAtHead(xproto::FrameStream::kServerToClient,
                                 frames.subspan(cursor))
            .value_or(remaining);
    frame_len = std::clamp(frame_len, size_t{1}, remaining);
    std::span<uint8_t> frame = frames.subspan(cursor, frame_len);
    if (faults_active_ && rng_.Roll(plan_.mutate_reply_permille)) {
      // In-flight corruption.  The trace already captured the honest bytes
      // in Server::EmitReply, so replays are unaffected.
      int flips = rng_.Range(1, 3);
      for (int i = 0; i < flips; ++i) {
        size_t bit = rng_.Next() % (frame.size() * 8);
        frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      ++fault_counters_.mutated_replies;
    }
    if (faults_active_ && rng_.Roll(plan_.reset_midframe_permille)) {
      // Die partway through the frame: the peer sees a truncated stream,
      // then EOF.
      size_t keep = std::max<size_t>(1, frame.size() / 2);
      QueueBytes(frame.first(keep));
      ++fault_counters_.connection_resets;
      FlushOutbound();
      Close(CloseReason::kReset);
      return false;
    }
    QueueBytes(frame);
    cursor += frame_len;
  }
  return true;
}

bool Connection::DispatchInbound() {
  uint64_t assembled_before = inbound_.frames_assembled();
  std::vector<uint8_t> frames = inbound_.TakeFrames();
  if (frames.empty()) {
    return true;
  }
  stats_.frames_dispatched += inbound_.frames_assembled() - assembled_before;
  Server::DispatchResult result = server_->DispatchBytes(client_, frames);
  stats_.requests_dispatched += result.requests_dispatched;
  stats_.parse_errors += result.parse_errors;
  stats_.replies_queued += result.replies;
  if (!result.reply_bytes.empty() && !QueueReplies(result.reply_bytes)) {
    return false;
  }
  if (result.parse_errors > 0) {
    // The codec rejected a frame; its X error is already queued via the
    // error callback.  A framed stream cannot resynchronize past that, so
    // flush what the client has earned and tear down.
    ChargeMisbehavior();
    FlushOutbound();
    Close(CloseReason::kProtocolError);
    return false;
  }
  return true;
}

void Connection::QueueEvents() {
  if (client_ == 0) {
    return;
  }
  uint16_t sequence = static_cast<uint16_t>(server_->SequenceNumber(client_));
  while (std::optional<xproto::Event> event = server_->NextEvent(client_)) {
    xproto::WireWriter w;
    xproto::EncodeEvent(*event, sequence, &w);
    QueueBytes(w.span());
    ++stats_.events_queued;
  }
}

IoStatus Connection::FlushOutbound() {
  while (outbox_sent_ < outbox_.size()) {
    std::span<const uint8_t> chunk(outbox_.data() + outbox_sent_,
                                   outbox_.size() - outbox_sent_);
    bool short_write = faults_active_ && chunk.size() > 1 &&
                       rng_.Roll(plan_.short_write_permille);
    if (short_write) {
      chunk = chunk.first(
          static_cast<size_t>(rng_.Range(1, static_cast<int>(chunk.size()) - 1)));
      ++fault_counters_.short_writes;
    }
    size_t written = 0;
    IoStatus status = channel_->Write(chunk, &written);
    outbox_sent_ += written;
    stats_.bytes_written += written;
    if (status != IoStatus::kOk) {
      return status;
    }
    if (short_write || written == 0) {
      // Faulted short write ends this pump's flushing (the rest goes next
      // pump); a zero-byte accept means the peer's buffer is full.
      return written == 0 && !short_write ? IoStatus::kWouldBlock : IoStatus::kOk;
    }
  }
  outbox_.clear();
  outbox_sent_ = 0;
  return IoStatus::kOk;
}

void Connection::CloseDrained() {
  // EOF with a partial request frame still buffered: the client died
  // mid-request (SIGKILL, crash).  That burdened the server with reassembly
  // work it can never finish — charge it like any other misbehavior before
  // the sweep.
  if (drain_reason_ == CloseReason::kPeerClosed && inbound_.buffered_bytes() > 0) {
    died_mid_frame_ = true;
    ChargeMisbehavior();
  }
  Close(drain_reason_);
}

ConnectionState Connection::Pump() {
  if (state_ == ConnectionState::kConnecting) {
    Establish();
  }
  if (state_ == ConnectionState::kClosed) {
    return state_;
  }
  ++stats_.pumps;

  if (state_ == ConnectionState::kEstablished) {
    if (!ReadInbound()) {
      return state_;
    }
  }
  if (state_ != ConnectionState::kClosed) {
    if (!DispatchInbound()) {
      return state_;
    }
  }
  QueueEvents();

  stats_.write_queue_peak = std::max(stats_.write_queue_peak, outbound_queued());
  IoStatus flush = FlushOutbound();
  if (flush == IoStatus::kClosed) {
    // A write rejected with EPIPE/ECONNRESET.  On an established connection
    // the peer may have died after this pump's read: if one more read sees
    // its EOF (or reset), the close is the peer's, as the next pump would
    // have found.  A peer that only stopped receiving still reads as open,
    // and a dead peer found on the write side alone is a transport error.
    // During a drain the read side already diagnosed the close; keep it.
    if (state_ == ConnectionState::kEstablished) {
      uint8_t byte = 0;
      size_t n = 0;
      if (channel_->Read(&byte, 1, &n) != IoStatus::kClosed) {
        Close(CloseReason::kTransportError);
        return state_;
      }
      drain_reason_ = CloseReason::kPeerClosed;
    }
    CloseDrained();
    return state_;
  }
  if (flush == IoStatus::kError) {
    Close(CloseReason::kTransportError);
    return state_;
  }

  if (state_ == ConnectionState::kDraining) {
    if (outbound_queued() == 0) {
      CloseDrained();
    }
    return state_;
  }

  // Backpressure: a peer that stops reading pins our queue over the high
  // water mark; each stalled pump is a misbehavior charge, and a run of
  // them is a dead peer.
  if (outbound_queued() > limits_.write_queue_high_water) {
    ++stalled_pumps_;
    ChargeMisbehavior();
    XB_LOG_EVERY_N(Warning, "conn-write-stall", 16)
        << "connection client=" << client_ << " write queue "
        << outbound_queued() << "B over high water ("
        << limits_.write_queue_high_water << "B), stalled pump "
        << stalled_pumps_ << "/" << limits_.stall_pump_limit;
    if (stalled_pumps_ >= limits_.stall_pump_limit) {
      Close(CloseReason::kWriteStalled);
      return state_;
    }
  } else {
    stalled_pumps_ = 0;
  }
  return state_;
}

}  // namespace xserver
