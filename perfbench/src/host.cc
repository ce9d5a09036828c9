// The host process: xserver::Server + swm::WindowManager + xserver::WireHost,
// driven by one single-threaded loop.
//
// Loop turn: WireHost::PollOnce -> WindowManager::ProcessEvents -> flush.
// The flush pumps every connection that has events queued on the server,
// because Connection::QueueEvents runs only inside that connection's own
// pump: without it a quiet remote client never receives the MapNotify or
// ConfigureNotify that swm's actions caused.
//
// The loop blocks in epoll only when swm's queue is empty, no connection
// read bytes on the last turn and nothing waits to go out.  Blocking with
// work pending stalls the closed loop until the wait times out; such waits
// are counted as blocked_with_work and fail the run.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>

#include "bench.h"
#include "src/base/logging.h"
#include "src/swm/wm.h"
#include "src/xserver/server.h"
#include "src/xserver/wire_host.h"

namespace perfbench {

namespace {

// A blocking wait that lasts this long while the measured phase has an op
// in flight is a stall.
constexpr int kBlockingWaitMs = 1000;

void AddStats(xserver::Connection::Stats* total, const xserver::Connection::Stats& s) {
  total->bytes_read += s.bytes_read;
  total->bytes_written += s.bytes_written;
  total->requests_dispatched += s.requests_dispatched;
  total->replies_queued += s.replies_queued;
  total->events_queued += s.events_queued;
}

// Reads "<key>:  <n> kB" from /proc/self/status; -1 if absent.
int64_t ReadStatusKb(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  char line[256];
  size_t key_len = std::strlen(key);
  int64_t value = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      long long kb = -1;
      if (std::sscanf(line + key_len + 1, "%lld", &kb) == 1) {
        value = kb;
      }
      break;
    }
  }
  std::fclose(f);
  return value;
}

bool Readable(int fd) {
  pollfd p{fd, POLLIN | POLLRDHUP, 0};
  return ::poll(&p, 1, 0) > 0;
}

class Host {
 public:
  Host(const WorkloadSpec& spec, const std::string& socket_path, int control_fd)
      : server_({xserver::ScreenConfig{1152, 900, false}}),
        wm_(&server_, WmOptions(spec)),
        control_fd_(control_fd) {
    if (!wm_.Start()) {
      return;
    }
    internal_clients_ = wm_.ClientCount();
    xserver::WireHostOptions options;
    options.limits = wm_.TransportLimits();
    options.on_close = [this](const xserver::Connection& conn) {
      AddStats(&closed_totals_, conn.stats());
    };
    host_ = std::make_unique<xserver::WireHost>(&server_, socket_path, std::move(options));
    if (!host_->ok()) {
      return;
    }
    ::fcntl(control_fd_, F_SETFL, O_NONBLOCK);
    host_->loop().WatchFd(control_fd_, [this](const xbase::Poller::Event&) { ReadControl(); });
    ok_ = true;
  }

  bool ok() const { return ok_; }
  Tracer& tracer() { return tracer_; }

  void Run() {
    bool work = false;
    while (!quit_) {
      uint64_t read_before = TotalRead();
      int timeout = work ? 0 : kBlockingWaitMs;
      int dispatched = 0;
      {
        ScopedSpan span(tracer_, SpanKind::kHostPoll);
        dispatched = host_->PollOnce(timeout);
      }
      if (timeout > 0 && dispatched == 0 && measuring_) {
        ++blocked_with_work_;
      }
      bool read_last_turn = TotalRead() != read_before;
      {
        ScopedSpan span(tracer_, SpanKind::kProcessEvents);
        wm_.ProcessEvents();
      }
      bool flush_pending = false;
      {
        ScopedSpan span(tracer_, SpanKind::kEventFlush);
        flush_pending = FlushEvents();
      }
      ++turns_;
      work = flush_pending || read_last_turn ||
             server_.PendingEvents(wm_.display().client_id()) > 0;
      // Commands are barriers: run them only once a turn dispatched nothing
      // and left no work behind.
      if (!commands_.empty() && !work && dispatched == 0) {
        char command = commands_.front();
        commands_.pop_front();
        Execute(command);
      } else if (!commands_.empty()) {
        work = true;
      }
    }
  }

 private:
  static swm::WindowManager::Options WmOptions(const WorkloadSpec& spec) {
    swm::WindowManager::Options options;
    options.template_name = "openlook";
    options.resources = spec.resources;
    options.paint_threads = 1;
    return options;
  }

  uint64_t TotalRead() {
    uint64_t total = closed_totals_.bytes_read;
    for (xproto::ClientId client : host_->clients()) {
      total += host_->FindConnection(client)->stats().bytes_read;
    }
    return total;
  }

  // Pumps each connection with events queued on the server or bytes queued
  // outbound.  A connection whose socket is readable is left to the next
  // PollOnce: pumping it here could read its EOF and close it behind the
  // WireHost's back.  Returns true when something is still left to send.
  bool FlushEvents() {
    bool pending = false;
    for (xproto::ClientId client : host_->clients()) {
      xserver::Connection* conn = host_->FindConnection(client);
      if (server_.PendingEvents(client) == 0 && conn->outbound_queued() == 0) {
        continue;
      }
      if (conn->state() != xserver::ConnectionState::kEstablished ||
          Readable(conn->PollFd())) {
        pending = true;
        continue;
      }
      conn->Pump();
      if (conn->state() != xserver::ConnectionState::kEstablished) {
        ++flush_closed_;
        continue;
      }
      if (server_.PendingEvents(client) > 0 || conn->outbound_queued() > 0) {
        pending = true;
      }
    }
    return pending;
  }

  void ReadControl() {
    char buf[64];
    ssize_t n = ::read(control_fd_, buf, sizeof(buf));
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
      quit_ = true;  // The generator is gone.
      return;
    }
    for (ssize_t i = 0; i < n; ++i) {
      commands_.push_back(buf[i]);
    }
  }

  HostCounts Snapshot() {
    xserver::Connection::Stats totals = closed_totals_;
    for (xproto::ClientId client : host_->clients()) {
      AddStats(&totals, host_->FindConnection(client)->stats());
    }
    HostCounts c;
    c.requests = totals.requests_dispatched;
    c.bytes_in = totals.bytes_read;
    c.bytes_out = totals.bytes_written;
    c.events = totals.events_queued;
    c.replies = totals.replies_queued;
    const xserver::Server::RenderStats& render = server_.render_stats();
    c.draw_ops = render.draw_ops;
    c.pixels_drawn = render.pixels_drawn;
    const oi::FrameScheduler::Stats& frame = wm_.toolkit(0).frame_stats();
    c.objects_painted = frame.objects_painted;
    c.damage_area = frame.damage_area;
    c.frames = frame.frames;
    c.layouts = frame.layouts;
    const oi::Toolkit::QueryStats& query = wm_.toolkit(0).query_stats();
    c.xrdb_queries = query.queries;
    c.xrdb_cache_hits = query.cache_hits;
    c.xrdb_trie_lookups = query.trie_lookups;
    c.swm_x_errors = wm_.x_error_count();
    c.loop_turns = turns_;
    c.fd_events = host_->loop().stats().fd_events;
    c.log_lines = static_cast<uint64_t>(xbase::LogErrorCount());
    return c;
  }

  void Execute(char command) {
    switch (command) {
      case kCmdMeasure:
        measuring_ = true;
        base_ = Snapshot();
        rss_kb_at_measure_ = ReadStatusKb("VmRSS");
        break;
      case kCmdTraceOn:
        tracer_.set_on(true);
        break;
      case kCmdTraceOff:
        tracer_.set_on(false);
        break;
      case kCmdReport:
        measuring_ = false;
        break;
      case kCmdQuit:
        quit_ = true;
        break;
      default:
        break;
    }
    HostReport report;
    report.counts = Snapshot() - base_;
    report.client_count = wm_.ClientCount();
    report.internal_clients = internal_clients_;
    report.connection_count = host_->connection_count();
    const xserver::WireHost::Stats& stats = host_->stats();
    report.closed_peer = host_->closed_with(xserver::CloseReason::kPeerClosed);
    report.closed_other = stats.closed - report.closed_peer;
    report.idle_expirations = stats.idle_expirations;
    report.stall_expirations = stats.stall_expirations;
    report.mid_frame_deaths = stats.mid_frame_deaths;
    report.blocked_with_work = blocked_with_work_;
    report.flush_closed = flush_closed_;
    report.rss_kb = ReadStatusKb("VmRSS");
    report.rss_kb_at_measure = rss_kb_at_measure_;
    report.hwm_kb = ReadStatusKb("VmHWM");
    report.spans = tracer_.spans().size();
    report.spans_dropped = tracer_.dropped();
    const char* bytes = reinterpret_cast<const char*>(&report);
    size_t sent = 0;
    while (sent < sizeof(report)) {
      ssize_t n = ::write(control_fd_, bytes + sent, sizeof(report) - sent);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        quit_ = true;
        return;
      }
      sent += static_cast<size_t>(n);
    }
  }

  xserver::Server server_;
  swm::WindowManager wm_;
  std::unique_ptr<xserver::WireHost> host_;
  int control_fd_;
  bool ok_ = false;
  bool quit_ = false;
  bool measuring_ = false;
  std::deque<char> commands_;
  Tracer tracer_;
  xserver::Connection::Stats closed_totals_;
  HostCounts base_;
  uint64_t internal_clients_ = 0;
  uint64_t turns_ = 0;
  uint64_t blocked_with_work_ = 0;
  uint64_t flush_closed_ = 0;
  int64_t rss_kb_at_measure_ = 0;
};

}  // namespace

int RunHost(const WorkloadSpec& spec, const std::string& socket_path, int control_fd,
            const std::string& spans_path) {
  Host host(spec, socket_path, control_fd);
  if (!host.ok()) {
    return 2;
  }
  char ready = kHostReady;
  if (::write(control_fd, &ready, 1) != 1) {
    return 3;
  }
  host.Run();
  if (!host.tracer().spans().empty() && !host.tracer().WriteFile(spans_path)) {
    return 4;
  }
  return 0;
}

}  // namespace perfbench
