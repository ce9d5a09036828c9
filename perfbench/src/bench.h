// Shared pieces of the end-to-end benchmark: workload table, clocks, spans
// and the control protocol between the generator and the host process.
//
// The generator drives the host (server + swm + WireHost) over real X wire
// connections; a second, private socketpair carries control commands.  The
// host executes a command only when it is quiescent (no queued swm events,
// no bytes read on its last turn, nothing queued outbound), so every command
// is a barrier: counters read at it cover exactly the ops before it.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <time.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { kLaunch, kStorm, kRetitle };

struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  // swm resources the host boots with.
  const char* resources;
  // Long-lived generator connections and the windows they hold.
  int standing_connections;
  int standing_windows;
  // Ops run before the measured phase; a fixed count, so the measured ops
  // are the same for a given seed.
  int warmup_ops;
  // Traced runs snapshot the exact counters after this many measured ops,
  // so the counts do not depend on how many ops fit in the run.
  int count_window_ops;
};

const WorkloadSpec* FindWorkload(const std::string& name);

inline int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
inline int64_t MonoNs() { return ClockNs(CLOCK_MONOTONIC); }
inline int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

// ---- Spans -----------------------------------------------------------------

enum class SpanKind : uint32_t {
  kHostPoll,        // WireHost::PollOnce (busy = CPU, off-CPU = host.wait)
  kProcessEvents,   // WindowManager::ProcessEvents
  kEventFlush,      // the host's per-connection event flush pass
  kXlibConnect,     // Display construction (connect + QueryScreens)
  kXlibCreate,      // Display::CreateWindow (request + QueryClientWindows)
  kXlibRequest,     // one fire-and-forget Display request
  kXlibWait,        // waiting for a completion event
  kCount,
};

struct Span {
  int64_t start_ns = 0;  // CLOCK_MONOTONIC, comparable across processes
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;    // thread CPU consumed inside the span
  uint32_t kind = 0;
  uint32_t pad = 0;
};

// In-memory span recorder; written out once, when the process ends.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = size_t{1} << 21;

  bool on() const { return on_; }
  // The first switch-on reserves the whole buffer (address space only), so
  // recording never reallocates and its resident cost is the spans' bytes.
  void set_on(bool on);
  void Record(SpanKind kind, int64_t start_ns, int64_t end_ns, int64_t cpu_ns);
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  bool WriteFile(const std::string& path) const;
  static bool ReadFile(const std::string& path, std::vector<Span>* out);

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// Times one call into a layer when the tracer is on; free when it is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanKind kind)
      : tracer_(tracer.on() ? &tracer : nullptr), kind_(kind) {
    if (tracer_ != nullptr) {
      start_ns_ = MonoNs();
      cpu_ns_ = ThreadCpuNs();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      int64_t cpu = ThreadCpuNs() - cpu_ns_;
      tracer_->Record(kind_, start_ns_, MonoNs(), cpu);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  SpanKind kind_;
  int64_t start_ns_ = 0;
  int64_t cpu_ns_ = 0;
};

// ---- Control protocol --------------------------------------------------------

enum Command : char {
  kCmdMeasure = 'M',   // start of the measured phase: counters rebase here
  kCmdSnapshot = 'K',  // end of the exact-count window
  kCmdTraceOn = 'T',
  kCmdTraceOff = 't',
  kCmdReport = 'E',    // end of the measured phase
  kCmdQuit = 'Q',
};
constexpr char kHostReady = 'R';

// Host counters; a report carries their change since kCmdMeasure.
struct HostCounts {
  uint64_t requests = 0;  // xproto: summed over every generator connection
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t events = 0;
  uint64_t replies = 0;
  uint64_t draw_ops = 0;  // Server::RenderStats
  int64_t pixels_drawn = 0;
  uint64_t objects_painted = 0;  // FrameScheduler::Stats
  uint64_t damage_area = 0;
  uint64_t frames = 0;
  uint64_t layouts = 0;
  uint64_t xrdb_queries = 0;  // Toolkit::QueryStats
  uint64_t xrdb_cache_hits = 0;
  uint64_t xrdb_trie_lookups = 0;
  uint64_t swm_x_errors = 0;
  uint64_t loop_turns = 0;  // host loop turns / EventLoop::Stats
  uint64_t fd_events = 0;
  uint64_t log_lines = 0;  // warnings and errors written to the host log
};
HostCounts operator-(const HostCounts& a, const HostCounts& b);

struct HostReport {
  HostCounts counts;
  uint64_t client_count = 0;    // wm.ClientCount()
  uint64_t internal_clients = 0;  // wm.ClientCount() right after boot
  uint64_t connection_count = 0;
  uint64_t closed_peer = 0;   // closed kPeerClosed
  uint64_t closed_other = 0;  // closed with any other reason
  uint64_t idle_expirations = 0;
  uint64_t stall_expirations = 0;
  uint64_t mid_frame_deaths = 0;
  uint64_t blocked_with_work = 0;
  uint64_t flush_closed = 0;
  int64_t rss_kb = 0;
  int64_t rss_kb_at_measure = 0;
  int64_t hwm_kb = 0;
  uint64_t spans = 0;
  uint64_t spans_dropped = 0;
};

// Runs the host until kCmdQuit (or until the control socket closes).
// Returns the process exit code.
int RunHost(const WorkloadSpec& spec, const std::string& socket_path, int control_fd,
            const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
