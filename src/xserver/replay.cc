#include "src/xserver/replay.h"

#include <memory>
#include <sstream>
#include <vector>

#include "src/base/geometry.h"
#include "src/base/logging.h"
#include "src/xproto/transport.h"
#include "src/xserver/connection.h"
#include "src/xserver/wire_host.h"

namespace xserver {

using xproto::ClientId;
using xproto::Trace;
using xproto::TraceRecord;
using xproto::TraceRecordType;

namespace {

void HashBytes(std::span<const uint8_t> bytes, uint64_t* hash) {
  for (uint8_t b : bytes) {
    *hash = (*hash ^ b) * 1099511628211ull;
  }
}

// One traced client's live channel when ReplayOptions::listen_socket is set.
struct TransportClient {
  Connection* conn = nullptr;  // Host-owned; null once the host reaps it.
  std::unique_ptr<xproto::WireClientEndpoint> endpoint;
  ClientId live_id = 0;
  uint64_t requests_seen = 0;
  uint64_t parse_errors_seen = 0;
  uint64_t bytes_sent = 0;  // Request bytes queued, for quiescence detection.
};

}  // namespace

ReplayResult ReplayTrace(Server* server, const Trace& trace,
                         const ReplayOptions& options) {
  ReplayResult result;
  std::map<ClientId, ClientId> client_map = options.client_map;
  auto live = [&](ClientId recorded) -> ClientId {
    auto it = client_map.find(recorded);
    return it == client_map.end() ? recorded : it->second;
  };

  // Live channels, keyed by *recorded* client id (socket mode only).
  std::map<ClientId, TransportClient> channels;

  // Socket mode: the readiness loop owns every server-side connection.
  std::unique_ptr<WireHost> host;
  if (!options.listen_socket.empty()) {
    WireHostOptions host_options;
    host_options.machine = "replay-socket";
    // A connection the host reaps (protocol error, EOF) dies with dispatch
    // counters the record loop hasn't folded in yet; catch them here.
    host_options.on_close = [&](const Connection& conn) {
      for (auto& [recorded_id, tc] : channels) {
        if (tc.conn == &conn) {
          const Connection::Stats& stats = conn.stats();
          result.requests_dispatched +=
              static_cast<size_t>(stats.requests_dispatched - tc.requests_seen);
          result.parse_errors +=
              static_cast<size_t>(stats.parse_errors - tc.parse_errors_seen);
          tc.requests_seen = stats.requests_dispatched;
          tc.parse_errors_seen = stats.parse_errors;
          tc.conn = nullptr;
          break;
        }
      }
    };
    host = std::make_unique<WireHost>(server, options.listen_socket,
                                      std::move(host_options));
    if (!host->ok()) {
      XB_LOG(Error) << "replay: cannot listen on " << options.listen_socket;
      host.reset();
    }
  }

  // Folds a channel's dispatch counters and reply frames into the result.
  auto collect = [&](TransportClient& tc) {
    if (tc.conn != nullptr) {
      const Connection::Stats& stats = tc.conn->stats();
      result.requests_dispatched +=
          static_cast<size_t>(stats.requests_dispatched - tc.requests_seen);
      result.parse_errors += static_cast<size_t>(stats.parse_errors - tc.parse_errors_seen);
      tc.requests_seen = stats.requests_dispatched;
      tc.parse_errors_seen = stats.parse_errors;
    }
    while (std::optional<std::vector<uint8_t>> frame = tc.endpoint->NextFrame()) {
      if (!frame->empty() && (*frame)[0] == 1) {
        ++result.replayed_replies;
        result.replayed_reply_bytes += frame->size();
        HashBytes(*frame, &result.replayed_reply_hash);
      }
    }
  };

  // Socket mode: let the epoll loop move bytes until the client's stream is
  // fully absorbed (every queued byte flushed and read server-side) and the
  // server's replies are fully flushed, then drain them client-side.
  auto pump_socket = [&](TransportClient& tc) {
    host->RunUntil(
        [&]() {
          tc.endpoint->Flush();
          tc.endpoint->Poll();
          if (tc.endpoint->queued_bytes() > 0) {
            return false;
          }
          if (tc.conn == nullptr) {
            return true;  // Closed and reaped; nothing more will move.
          }
          return tc.conn->stats().bytes_read >= tc.bytes_sent &&
                 tc.conn->outbound_queued() == 0;
        },
        /*budget_ms=*/2000);
    tc.endpoint->Poll();
    collect(tc);
  };

  for (const TraceRecord& rec : trace.records) {
    switch (rec.type) {
      case TraceRecordType::kConnect:
        if (host != nullptr) {
          TransportClient tc;
          std::unique_ptr<xproto::ByteChannel> channel =
              xproto::ConnectSocket(host->socket_path());
          uint64_t accepted_before = host->stats().accepted;
          if (channel != nullptr) {
            tc.endpoint =
                std::make_unique<xproto::WireClientEndpoint>(std::move(channel));
            host->RunUntil(
                [&]() { return host->stats().accepted > accepted_before; },
                /*budget_ms=*/2000);
          }
          if (host->stats().accepted > accepted_before) {
            // Accept order is connect order on a unix socket: the newest
            // live client is ours.
            tc.live_id = host->clients().back();
            tc.conn = host->FindConnection(tc.live_id);
            client_map[rec.client] = tc.live_id;
            channels[rec.client] = std::move(tc);
          } else {
            XB_LOG(Error) << "replay: socket connect failed for traced client "
                          << rec.client;
            client_map[rec.client] = server->Connect(rec.machine);
          }
          break;
        }
        client_map[rec.client] = server->Connect(rec.machine);
        break;
      case TraceRecordType::kDisconnect: {
        auto it = channels.find(rec.client);
        if (it != channels.end()) {
          TransportClient& tc = it->second;
          pump_socket(tc);
          // EOF is the disconnect: the readiness loop drains and sweeps.
          tc.endpoint->Close();
          host->RunUntil([&]() { return tc.conn == nullptr; }, /*budget_ms=*/2000);
          channels.erase(it);
        } else {
          server->Disconnect(live(rec.client));
        }
        break;
      }
      case TraceRecordType::kRequest: {
        auto it = channels.find(rec.client);
        if (it != channels.end()) {
          it->second.endpoint->QueueBytes(rec.bytes);
          it->second.bytes_sent += rec.bytes.size();
          pump_socket(it->second);
          break;
        }
        Server::DispatchResult d = server->DispatchBytes(live(rec.client), rec.bytes);
        result.requests_dispatched += d.requests_dispatched;
        result.parse_errors += d.parse_errors;
        result.replayed_replies += d.replies;
        result.replayed_reply_bytes += d.reply_bytes.size();
        HashBytes(d.reply_bytes, &result.replayed_reply_hash);
        break;
      }
      case TraceRecordType::kReply:
        ++result.recorded_replies;
        result.recorded_reply_bytes += rec.bytes.size();
        HashBytes(rec.bytes, &result.recorded_reply_hash);
        break;
      case TraceRecordType::kMotion:
        server->SimulateMotion({rec.x, rec.y});
        break;
      case TraceRecordType::kButton:
        server->SimulateButton(rec.button, rec.press, rec.modifiers);
        break;
      case TraceRecordType::kKey:
        server->SimulateKey(rec.keysym, rec.press, rec.modifiers);
        break;
      case TraceRecordType::kWarp:
        server->WarpPointer(rec.screen, {rec.x, rec.y});
        break;
      case TraceRecordType::kPump:
        if (options.pump) {
          options.pump();
        }
        break;
      case TraceRecordType::kExpect: {
        ++result.expectations_checked;
        uint64_t requests = server->TotalRequests();
        uint64_t draw_ops = server->render_stats().draw_ops;
        uint64_t pixels = static_cast<uint64_t>(server->render_stats().pixels_drawn);
        if (result.expectations_met &&
            (requests != rec.expect_requests || draw_ops != rec.expect_draw_ops ||
             pixels != rec.expect_pixels)) {
          result.expectations_met = false;
          std::ostringstream out;
          out << "expect mismatch: requests " << requests << " vs recorded "
              << rec.expect_requests << ", draw_ops " << draw_ops << " vs "
              << rec.expect_draw_ops << ", pixels " << pixels << " vs "
              << rec.expect_pixels;
          result.mismatch = out.str();
        }
        break;
      }
    }
    ++result.records_applied;
  }

  // Channels the trace never disconnected: collect their last replies, then
  // detach — the recorded server still had these clients connected, so the
  // replayed one must keep their sessions (and windows) alive too.
  for (auto& [recorded_id, tc] : channels) {
    pump_socket(tc);
    tc.conn = nullptr;  // DetachAll destroys the host-owned connections.
  }
  if (host != nullptr) {
    host->DetachAll();
  }
  channels.clear();

  if (result.recorded_replies > 0 || result.replayed_replies > 0) {
    result.replies_match =
        result.recorded_replies == result.replayed_replies &&
        result.recorded_reply_bytes == result.replayed_reply_bytes &&
        result.recorded_reply_hash == result.replayed_reply_hash;
    if (!result.replies_match) {
      std::ostringstream out;
      out << "reply mismatch: recorded " << result.recorded_replies << " frames/"
          << result.recorded_reply_bytes << "B hash " << std::hex
          << result.recorded_reply_hash << ", replayed " << std::dec
          << result.replayed_replies << " frames/" << result.replayed_reply_bytes
          << "B hash " << std::hex << result.replayed_reply_hash;
      result.reply_mismatch = out.str();
    }
  }
  return result;
}

ServerFingerprint FingerprintServer(const Server& server) {
  ServerFingerprint fp;
  fp.total_requests = server.TotalRequests();
  fp.wire_parse_errors = server.wire_parse_errors();
  fp.draw_ops = server.render_stats().draw_ops;
  fp.pixels_drawn = server.render_stats().pixels_drawn;
  // FNV-1a over every screen's rendered canvas: any divergence in the window
  // tree, stacking, shapes, or display lists shows up here.
  uint64_t hash = 1469598103934665603ull;
  for (int s = 0; s < server.ScreenCount(); ++s) {
    std::string rendered = server.RenderScreen(s).ToString();
    for (char c : rendered) {
      hash ^= static_cast<uint8_t>(c);
      hash *= 1099511628211ull;
    }
  }
  fp.screen_hash = hash;
  fp.replies_emitted = server.replies_emitted();
  fp.reply_bytes = server.reply_bytes_emitted();
  fp.reply_hash = server.reply_hash();
  return fp;
}

}  // namespace xserver
