#include "bench.h"

#include <fstream>

namespace perfbench {

namespace {

// Why each workload exists is recorded in README.md.
const WorkloadSpec kWorkloads[] = {
    {"launch_vdesk256", WorkloadKind::kLaunch,
     "swm*virtualDesktop: 3456x2700\n"
     "swm*panner: True\n"
     "swm.layout.policy: floating\n",
     /*standing_connections=*/2, /*standing_windows=*/256, /*warmup_ops=*/300,
     /*count_window_ops=*/200},
    {"storm_tile32", WorkloadKind::kStorm, "swm.layout.policy: tiling\n",
     /*standing_connections=*/1, /*standing_windows=*/0, /*warmup_ops=*/10,
     /*count_window_ops=*/20},
    {"retitle_resize32", WorkloadKind::kRetitle, "swm.layout.policy: floating\n",
     /*standing_connections=*/2, /*standing_windows=*/32, /*warmup_ops=*/5000,
     /*count_window_ops=*/1000},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

void Tracer::set_on(bool on) {
  if (on && spans_.capacity() == 0) {
    spans_.reserve(kMaxSpans);
  }
  on_ = on;
}

void Tracer::Record(SpanKind kind, int64_t start_ns, int64_t end_ns, int64_t cpu_ns) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{start_ns, end_ns, cpu_ns, static_cast<uint32_t>(kind), 0});
}

bool Tracer::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(spans_.data()),
            static_cast<std::streamsize>(spans_.size() * sizeof(Span)));
  return static_cast<bool>(out);
}

bool Tracer::ReadFile(const std::string& path, std::vector<Span>* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return false;
  }
  std::streamsize bytes = in.tellg();
  if (bytes < 0 || bytes % static_cast<std::streamsize>(sizeof(Span)) != 0) {
    return false;
  }
  out->resize(static_cast<size_t>(bytes) / sizeof(Span));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out->data()), bytes);
  return static_cast<bool>(in);
}

HostCounts operator-(const HostCounts& a, const HostCounts& b) {
  HostCounts d;
  d.requests = a.requests - b.requests;
  d.bytes_in = a.bytes_in - b.bytes_in;
  d.bytes_out = a.bytes_out - b.bytes_out;
  d.events = a.events - b.events;
  d.replies = a.replies - b.replies;
  d.draw_ops = a.draw_ops - b.draw_ops;
  d.pixels_drawn = a.pixels_drawn - b.pixels_drawn;
  d.objects_painted = a.objects_painted - b.objects_painted;
  d.damage_area = a.damage_area - b.damage_area;
  d.frames = a.frames - b.frames;
  d.layouts = a.layouts - b.layouts;
  d.xrdb_queries = a.xrdb_queries - b.xrdb_queries;
  d.xrdb_cache_hits = a.xrdb_cache_hits - b.xrdb_cache_hits;
  d.xrdb_trie_lookups = a.xrdb_trie_lookups - b.xrdb_trie_lookups;
  d.swm_x_errors = a.swm_x_errors - b.swm_x_errors;
  d.loop_turns = a.loop_turns - b.loop_turns;
  d.fd_events = a.fd_events - b.fd_events;
  d.log_lines = a.log_lines - b.log_lines;
  return d;
}

}  // namespace perfbench
