// End-to-end swm benchmark (see README.md).
//
//   swm_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--run-dir <dir>]
//
// Forks the host (server + swm + WireHost on an abstract socket) and drives
// it as the generator, both pinned to one CPU.  Boots and populates the host
// several times to time set-up, warms up, then runs the closed loop for
// --seconds.  With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it alternates untraced and traced blocks and prints the
// per-layer metrics.  The last stdout line is the result object; the exit
// code is non-zero when any correctness check failed.
#include <errno.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "generator.h"
#include "probe.h"

namespace perfbench {
namespace {

constexpr int kSetups = 7;
constexpr int64_t kNsPerMs = 1000 * 1000;
constexpr int64_t kNsPerSec = 1000 * kNsPerMs;
// Traced runs alternate untraced and traced blocks, so drift hits both
// sides of the tracing-overhead comparison alike.  A quarter of the ops are
// traced, which bounds the span buffers.
constexpr int64_t kTracedBlockNs = 250 * kNsPerMs;
constexpr int64_t kUntracedBlockNs = 750 * kNsPerMs;
constexpr int kReplyTimeoutMs = 30000;
// The host and generator always share one CPU, and move together to the
// next allowed CPU after this long.  On a VM each vCPU's speed drifts on its
// own, so a run that visits them all does not hang on one vCPU's state.
constexpr int64_t kCpuDwellNs = 100 * kNsPerMs;
// One speed-probe pass (about 0.35 ms) runs between ops this often.
constexpr int64_t kProbeEveryNs = 25 * kNsPerMs;
constexpr unsigned kWatchdogSeconds = 170;
// Enough samples that op_p90_us has at least ten beyond it.
constexpr uint64_t kMinOps = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string run_dir = ".bench_build/runs";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--run-dir") {
      args->run_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// ---- /proc/stat --------------------------------------------------------------

struct CpuTicks {
  uint64_t total = 0;
  uint64_t busy = 0;
  uint64_t steal = 0;
};

// Per-CPU tick counters, indexed by CPU number.
std::map<int, CpuTicks> ReadProcStat() {
  std::map<int, CpuTicks> out;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    int cpu = -1;
    unsigned long long f[8] = {};
    if (std::sscanf(line.c_str(), "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu", &cpu,
                    &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]) != 9) {
      continue;
    }
    CpuTicks ticks;
    for (unsigned long long v : f) {
      ticks.total += v;
    }
    ticks.busy = ticks.total - f[3] - f[4];  // minus idle and iowait
    ticks.steal = f[7];
    out[cpu] = ticks;
  }
  return out;
}

std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Pins this process, and the host when it runs, to one CPU.
bool PinTo(int cpu, pid_t host) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  bool ok = host <= 0 || sched_setaffinity(host, sizeof(one), &one) == 0;
  return sched_setaffinity(0, sizeof(one), &one) == 0 && ok;
}

// ---- Host process ------------------------------------------------------------

pid_t g_host_pid = -1;

void OnWatchdog(int) {
  if (g_host_pid > 0) {
    ::kill(g_host_pid, SIGKILL);
    ::waitpid(g_host_pid, nullptr, 0);
  }
  ::_exit(3);
}

bool ReadFully(int fd, void* buf, size_t size) {
  char* out = static_cast<char*>(buf);
  size_t got = 0;
  while (got < size) {
    pollfd p{fd, POLLIN, 0};
    int ready = ::poll(&p, 1, kReplyTimeoutMs);
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      return false;
    }
    ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

class HostProcess {
 public:
  HostProcess() = default;
  ~HostProcess() { Kill(); }
  HostProcess(const HostProcess&) = delete;
  HostProcess& operator=(const HostProcess&) = delete;

  bool Spawn(const WorkloadSpec& spec, const std::string& socket_path,
             const std::string& spans_path, const std::string& log_path) {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
      return false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      ::close(fds[0]);
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) {
        ::_exit(1);
      }
      ::alarm(0);
      // swm's warnings go to the log, not to the terminal during timing.
      FILE* log = std::fopen(log_path.c_str(), "a");
      if (log != nullptr) {
        ::dup2(::fileno(log), STDOUT_FILENO);
        ::dup2(::fileno(log), STDERR_FILENO);
      }
      ::_exit(RunHost(spec, socket_path, fds[1], spans_path));
    }
    ::close(fds[1]);
    fd_ = fds[0];
    pid_ = pid;
    g_host_pid = pid;
    char ready = 0;
    return ReadFully(fd_, &ready, 1) && ready == kHostReady;
  }

  bool Command(char command, HostReport* report) {
    if (::write(fd_, &command, 1) != 1) {
      return false;
    }
    return ReadFully(fd_, report, sizeof(*report));
  }

  // Quits the host and reaps it; true when it exited cleanly.
  bool Stop() {
    HostReport unused;
    bool ok = Command(kCmdQuit, &unused);
    int status = 0;
    ok = ::waitpid(pid_, &status, 0) == pid_ && ok && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
    Release();
    return ok;
  }

  pid_t pid() const { return pid_; }

 private:
  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    Release();
  }
  void Release() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = -1;
    pid_ = -1;
    g_host_pid = -1;
  }

  pid_t pid_ = -1;
  int fd_ = -1;
};

// ---- Statistics --------------------------------------------------------------

double Quantile(std::vector<int64_t> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1 - frac) +
         static_cast<double>(values[hi]) * frac;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n == 0 ? 0 : n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

struct OpRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;  // generator CPU inside the op
};

// Per-op self time of each span kind: busy (CPU) and off-CPU.
struct LayerTimes {
  double busy_ns[static_cast<size_t>(SpanKind::kCount)] = {};
  double off_ns[static_cast<size_t>(SpanKind::kCount)] = {};
};

// Adds each span to the op in flight at its midpoint; spans outside every
// op (barriers, warm-up) are dropped.  Returns the number attributed.
size_t Attribute(const std::vector<Span>& spans, const std::vector<OpRecord>& ops,
                 LayerTimes* totals) {
  size_t attributed = 0;
  for (const Span& span : spans) {
    int64_t mid = span.start_ns + (span.end_ns - span.start_ns) / 2;
    auto it = std::upper_bound(ops.begin(), ops.end(), mid,
                               [](int64_t t, const OpRecord& op) { return t < op.start_ns; });
    if (it == ops.begin() || mid >= std::prev(it)->end_ns ||
        span.kind >= static_cast<uint32_t>(SpanKind::kCount)) {
      continue;
    }
    totals->busy_ns[span.kind] += static_cast<double>(span.cpu_ns);
    totals->off_ns[span.kind] += static_cast<double>(span.end_ns - span.start_ns - span.cpu_ns);
    ++attributed;
  }
  return attributed;
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

  std::string Json() const {
    std::ostringstream out;
    out << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.10g", entries_[i].value);
      out << (i ? ", " : "") << "\"" << entries_[i].name << "\": {\"value\": " << value
          << ", \"unit\": \"" << entries_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  std::vector<Entry> entries_;
};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c >= ' ' ? c : ' ');
  }
  return out + "\"";
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGALRM, OnWatchdog);
  ::alarm(kWatchdogSeconds);

  ::mkdir(args.run_dir.c_str(), 0755);
  const std::string log_path = args.run_dir + "/host.log";
  const std::string host_spans_path = args.run_dir + "/host.spans";
  const std::string client_spans_path = args.run_dir + "/client.spans";
  std::remove(log_path.c_str());
  std::remove(host_spans_path.c_str());
  std::remove(client_spans_path.c_str());

  const std::vector<int> cpus = AllowedCpus();
  if (cpus.empty()) {
    std::fprintf(stderr, "no CPU to run on\n");
    return 2;
  }
  size_t cpu_index = 0;
  std::vector<std::string> violations;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;

  // ---- Set-up, timed kSetups times; the last host stays for the run.
  Tracer tracer;
  HostProcess host;
  std::unique_ptr<Generator> gen;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups && violations.empty(); ++i) {
    if (i > 0) {
      gen.reset();
      if (!host.Stop()) {
        violations.push_back("host did not exit cleanly after set-up");
        break;
      }
    }
    std::string socket_path =
        "@swm-perfbench-" + std::to_string(::getpid()) + "-" + std::to_string(i);
    cpu_index = static_cast<size_t>(i) % cpus.size();
    PinTo(cpus[cpu_index], 0);  // The host inherits it.
    int64_t t0 = MonoNs();
    if (!host.Spawn(*spec, socket_path, host_spans_path, log_path)) {
      violations.push_back("host failed to boot");
      break;
    }
    gen = std::make_unique<Generator>(*spec, socket_path, args.seed, host.pid(), &tracer);
    if (!gen->Setup()) {
      violations.push_back("standing population failed to map");
      break;
    }
    setup_s.push_back(static_cast<double>(MonoNs() - t0) / kNsPerSec);
  }

  // Built after the last fork, so the host does not inherit its memory.
  SpeedProbe probe;

  // ---- Warm-up, then the measured phase.
  for (int i = 0; violations.empty() && i < spec->warmup_ops; ++i) {
    if (!gen->RunOp(&error)) {
      ++attempted;
      ++failed;
      violations.push_back("warm-up op failed: " + error);
    }
  }
  HostReport at_measure;
  HostReport at_window;
  HostReport at_end;
  if (violations.empty() && !host.Command(kCmdMeasure, &at_measure)) {
    violations.push_back("host did not answer at the measured phase");
  }
  std::vector<int64_t> untraced_ns;
  std::vector<int64_t> traced_ns;
  std::vector<OpRecord> traced_ops;
  uint64_t ops = 0;
  std::vector<uint64_t> ops_per_second;  // completions in each second of the run
  uint64_t window_roundtrips = 0;
  bool have_window = false;
  std::map<int, CpuTicks> stat0 = ReadProcStat();
  clockid_t host_clock = CLOCK_MONOTONIC;
  bool have_host_clock =
      violations.empty() && clock_getcpuclockid(host.pid(), &host_clock) == 0;
  int64_t host_cpu0 = have_host_clock ? ClockNs(host_clock) : 0;
  int64_t gen_cpu0 = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  uint64_t roundtrips0 = violations.empty() ? gen->roundtrips() : 0;
  const int64_t t_start = MonoNs();
  const int64_t deadline = t_start + int64_t{args.seconds} * kNsPerSec;
  int64_t block_end = t_start + kUntracedBlockNs;
  bool traced = false;
  uint64_t host_spans = 0;
  int64_t next_move = t_start + kCpuDwellNs;
  int64_t next_probe = t_start;
  while (violations.empty()) {
    int64_t now = MonoNs();
    if (now >= next_move) {
      cpu_index = (cpu_index + 1) % cpus.size();
      PinTo(cpus[cpu_index], host.pid());
      next_move = now + kCpuDwellNs;
    }
    if (now >= next_probe) {
      probe.RunPass();
      next_probe = now + kProbeEveryNs;
    }
    if (now >= deadline && ops >= kMinOps && (!args.trace || have_window)) {
      break;
    }
    if (args.trace && now >= block_end) {
      // No traced block starts once either span buffer is half full.
      traced = !traced && host_spans < Tracer::kMaxSpans / 2 &&
               tracer.spans().size() < Tracer::kMaxSpans / 2;
      HostReport toggled;
      if (!host.Command(traced ? kCmdTraceOn : kCmdTraceOff, &toggled)) {
        violations.push_back("host did not answer a trace toggle");
        break;
      }
      host_spans = toggled.spans;
      tracer.set_on(traced);
      block_end = MonoNs() + (traced ? kTracedBlockNs : kUntracedBlockNs);
    }
    int64_t cpu_start = traced ? ThreadCpuNs() : 0;
    int64_t start = MonoNs();
    ++attempted;
    bool ok = gen->RunOp(&error);
    int64_t end = MonoNs();
    if (!ok) {
      ++failed;
      violations.push_back("op failed: " + error);
      break;
    }
    ++ops;
    size_t second = static_cast<size_t>((end - t_start) / kNsPerSec);
    if (second >= ops_per_second.size()) {
      ops_per_second.resize(second + 1, 0);
    }
    ++ops_per_second[second];
    if (traced) {
      traced_ns.push_back(end - start);
      traced_ops.push_back(OpRecord{start, end, ThreadCpuNs() - cpu_start});
    } else {
      untraced_ns.push_back(end - start);
    }
    if (args.trace && ops == static_cast<uint64_t>(spec->count_window_ops)) {
      tracer.set_on(false);
      if (!host.Command(kCmdSnapshot, &at_window)) {
        violations.push_back("host did not answer the count snapshot");
      }
      tracer.set_on(traced);
      window_roundtrips = gen->roundtrips() - roundtrips0;
      have_window = true;
    }
  }
  const int64_t t_end = MonoNs();
  int64_t host_cpu1 = have_host_clock ? ClockNs(host_clock) : 0;
  int64_t gen_cpu1 = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  std::map<int, CpuTicks> stat1 = ReadProcStat();
  tracer.set_on(false);

  // ---- Tear-down and the end-of-run checks.
  uint64_t gen_x_errors = 0;
  uint64_t gen_fallbacks = 0;
  uint64_t transients = 0;
  if (gen != nullptr) {
    gen->CloseTransient();
    gen_x_errors = gen->x_errors();
    gen_fallbacks = gen->wire_fallbacks();
    transients = gen->transients_opened();
  }
  bool reported = host.pid() > 0 && host.Command(kCmdReport, &at_end);
  if (host.pid() > 0 && !host.Stop()) {
    violations.push_back("host did not exit cleanly");
  }
  gen.reset();
  if (!reported && violations.empty()) {
    violations.push_back("host did not send its final report");
  }
  if (reported) {
    auto check = [&](bool ok, const std::string& what) {
      if (!ok) {
        violations.push_back(what);
      }
    };
    check(at_end.client_count - at_end.internal_clients ==
              static_cast<uint64_t>(spec->standing_windows),
          "swm manages " + std::to_string(at_end.client_count - at_end.internal_clients) +
              " clients, not the standing population");
    check(at_end.connection_count == static_cast<uint64_t>(spec->standing_connections),
          "host holds " + std::to_string(at_end.connection_count) +
              " connections, not the standing ones");
    check(at_end.closed_peer == transients,
          std::to_string(at_end.closed_peer) + " of " + std::to_string(transients) +
              " transient connections closed kPeerClosed");
    check(at_end.closed_other == 0, "connections closed for a reason other than kPeerClosed");
    check(at_end.idle_expirations == 0 && at_end.stall_expirations == 0,
          "idle or stall deadline expired");
    check(at_end.mid_frame_deaths == 0, "a connection died mid-frame");
    check(at_end.blocked_with_work == 0, "host blocked with work pending");
    check(at_end.flush_closed == 0, "the event flush closed a connection");
    check(gen_x_errors == 0, std::to_string(gen_x_errors) + " X errors on generator displays");
    check(gen_fallbacks == 0, "generator displays fell back from the wire");
    check(at_end.spans_dropped == 0 && tracer.dropped() == 0, "span buffer overflowed");
  }

  // ---- Metrics.
  Metrics metrics;
  Metrics raw;  // end-to-end values before the machine-speed scaling
  const double opsd = static_cast<double>(std::max<uint64_t>(ops, 1));
  if (!args.trace) {
    const double measured_s =
        static_cast<double>(t_end - t_start - probe.wall_ns()) / kNsPerSec;
    raw.Add("ops_per_s", opsd / measured_s, "1/s");
    raw.Add("op_p50_us", Quantile(untraced_ns, 0.5) / 1000, "us");
    raw.Add("op_p90_us", Quantile(untraced_ns, 0.9) / 1000, "us");
    raw.Add("server_cpu_us_per_op", static_cast<double>(host_cpu1 - host_cpu0) / 1000 / opsd,
            "us");
    raw.Add("client_cpu_us_per_op",
            static_cast<double>(gen_cpu1 - gen_cpu0 - probe.cpu_ns()) / 1000 / opsd, "us");
    raw.Add("server_rss_mb", static_cast<double>(at_end.hwm_kb) / 1024, "MB");
    raw.Add("setup_s", Median(setup_s), "s");
    // Reported in the probe's nominal scale: times shrink and rates grow
    // by the factor the machine ran slower than nominal during this run.
    const double scale = probe.Hz() / SpeedProbe::kNominalHz;
    for (const Metrics::Entry& e : raw.entries()) {
      double value = e.unit == "MB" ? e.value : e.unit == "1/s" ? e.value / scale : e.value * scale;
      metrics.Add(e.name, value, e.unit);
    }
  } else {
    std::vector<Span> host_spans;
    if (!Tracer::ReadFile(host_spans_path, &host_spans) || host_spans.empty()) {
      violations.push_back("host spans missing");
    }
    if (!tracer.WriteFile(client_spans_path)) {
      violations.push_back("cannot write client spans");
    }
    LayerTimes t;
    Attribute(host_spans, traced_ops, &t);
    Attribute(tracer.spans(), traced_ops, &t);
    const double n = static_cast<double>(std::max<size_t>(traced_ops.size(), 1));
    auto busy = [&](SpanKind k) { return t.busy_ns[static_cast<size_t>(k)] / n / 1000; };
    auto off = [&](SpanKind k) { return t.off_ns[static_cast<size_t>(k)] / n / 1000; };
    double op_mean_us = 0;
    double client_busy_us = 0;
    for (const OpRecord& op : traced_ops) {
      op_mean_us += static_cast<double>(op.end_ns - op.start_ns) / n / 1000;
      client_busy_us += static_cast<double>(op.cpu_ns) / n / 1000;
    }
    double host_busy_us = busy(SpanKind::kHostPoll) + busy(SpanKind::kProcessEvents) +
                          busy(SpanKind::kEventFlush);
    double xlib_busy_us = 0;
    double xlib_wait_us = 0;
    for (SpanKind k : {SpanKind::kXlibConnect, SpanKind::kXlibCreate, SpanKind::kXlibRequest,
                       SpanKind::kXlibWait}) {
      xlib_busy_us += busy(k);
      xlib_wait_us += off(k);
    }
    double sched_us = op_mean_us - host_busy_us - client_busy_us;
    metrics.Add("xserver.host_poll_us", busy(SpanKind::kHostPoll), "us");
    metrics.Add("xserver.event_flush_us", busy(SpanKind::kEventFlush), "us");
    metrics.Add("swm.process_events_us", busy(SpanKind::kProcessEvents), "us");
    metrics.Add("host.wait_us", off(SpanKind::kHostPoll), "us");
    metrics.Add("xlib.call_us", xlib_busy_us, "us");
    metrics.Add("xlib.wait_us", xlib_wait_us, "us");
    metrics.Add("sched.unaccounted_us", sched_us, "us");
    metrics.Add("trace.host_busy_us", host_busy_us, "us");
    metrics.Add("trace.client_busy_us", client_busy_us, "us");
    metrics.Add("trace.op_mean_us", op_mean_us, "us");
    metrics.Add("trace.op_p50_us", Quantile(traced_ns, 0.5) / 1000, "us");
    metrics.Add("trace.overhead_p50_us",
                (Quantile(traced_ns, 0.5) - Quantile(untraced_ns, 0.5)) / 1000, "us");

    const HostCounts& w = at_window.counts;
    const double k = spec->count_window_ops;
    metrics.Add("xproto.requests", static_cast<double>(w.requests) / k, "count");
    metrics.Add("xproto.bytes_in", static_cast<double>(w.bytes_in) / k, "B");
    metrics.Add("xproto.bytes_out", static_cast<double>(w.bytes_out) / k, "B");
    metrics.Add("xproto.events", static_cast<double>(w.events) / k, "count");
    metrics.Add("xproto.replies", static_cast<double>(w.replies) / k, "count");
    metrics.Add("xlib.roundtrips", static_cast<double>(window_roundtrips) / k, "count");
    metrics.Add("xserver.draw_ops", static_cast<double>(w.draw_ops) / k, "count");
    metrics.Add("xserver.pixels_drawn", static_cast<double>(w.pixels_drawn) / k, "count");
    metrics.Add("oi.objects_painted", static_cast<double>(w.objects_painted) / k, "count");
    metrics.Add("oi.damage_area", static_cast<double>(w.damage_area) / k, "count");
    metrics.Add("xrdb.queries", static_cast<double>(w.xrdb_queries) / k, "count");
    metrics.Add("xrdb.trie_lookups", static_cast<double>(w.xrdb_trie_lookups) / k, "count");
    metrics.Add("xrdb.cache_hit_ratio",
                w.xrdb_queries == 0 ? 0
                                    : static_cast<double>(w.xrdb_cache_hits) /
                                          static_cast<double>(w.xrdb_queries),
                "ratio");
    metrics.Add("swm.x_errors", static_cast<double>(w.swm_x_errors) / k, "count");

    const HostCounts& e = at_end.counts;
    metrics.Add("oi.frames", static_cast<double>(e.frames) / opsd, "count");
    metrics.Add("oi.layouts", static_cast<double>(e.layouts) / opsd, "count");
    metrics.Add("base.loop_turns", static_cast<double>(e.loop_turns) / opsd, "count");
    metrics.Add("base.fd_events", static_cast<double>(e.fd_events) / opsd, "count");
    // The host's own span buffer is resident too; it is not the program's.
    double span_kb = static_cast<double>(at_end.spans * sizeof(Span)) / 1024;
    metrics.Add("host.rss_growth_kb_per_kop",
                (static_cast<double>(at_end.rss_kb - at_end.rss_kb_at_measure) - span_kb) *
                    1000 / opsd,
                "kB");
    metrics.Add("host.blocked_with_work", static_cast<double>(at_end.blocked_with_work),
                "count");
    metrics.Add("host.log_lines", static_cast<double>(e.log_lines), "count");
  }

  // ---- Steadiness record, then the result line.
  double steal_share = 0;
  double cpu_busy_share = 0;
  CpuTicks total_ticks;
  for (int cpu : cpus) {
    if (stat0.count(cpu) != 0 && stat1.count(cpu) != 0) {
      total_ticks.total += stat1[cpu].total - stat0[cpu].total;
      total_ticks.busy += stat1[cpu].busy - stat0[cpu].busy;
      total_ticks.steal += stat1[cpu].steal - stat0[cpu].steal;
    }
  }
  if (total_ticks.total > 0) {
    steal_share = static_cast<double>(total_ticks.steal) / static_cast<double>(total_ticks.total);
    cpu_busy_share = static_cast<double>(total_ticks.busy) / static_cast<double>(total_ticks.total);
  }
  std::ostringstream steady;
  steady << "{\"workload\": " << JsonString(spec->name) << ", \"seed\": " << args.seed
         << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"cpus\": " << cpus.size()
         << ", \"ops\": " << ops << ", \"untraced_samples\": " << untraced_ns.size()
         << ", \"traced_samples\": " << traced_ns.size()
         << ", \"measured_s\": " << static_cast<double>(t_end - t_start) / kNsPerSec
         << ", \"steal_share\": " << steal_share << ", \"cpu_busy_share\": " << cpu_busy_share
         << ", \"probe_hz\": " << probe.Hz() << ", \"probe_passes\": " << probe.passes()
         << ", \"raw\": " << raw.Json() << ", \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    steady << (i ? ", " : "") << setup_s[i];
  }
  steady << "], \"ops_per_second\": [";
  for (size_t i = 0; i < ops_per_second.size(); ++i) {
    steady << (i ? ", " : "") << ops_per_second[i];
  }
  steady << "], \"violations\": [";
  for (size_t i = 0; i < violations.size(); ++i) {
    steady << (i ? ", " : "") << JsonString(violations[i]);
  }
  steady << "]}";
  std::ofstream(args.run_dir + "/steady.json") << steady.str() << "\n";
  for (const std::string& v : violations) {
    std::fprintf(stderr, "correctness: %s\n", v.c_str());
  }
  const bool correct = violations.empty() && failed == 0;
  std::printf("{\"steady\": %s}\n", steady.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed),
              metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: swm_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--run-dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
