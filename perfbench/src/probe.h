// Machine-speed probe.
//
// On a shared 4-vCPU Xeon VM, the speed of the same code moved by 20% or
// more over minutes, on every vCPU together, while steal time stayed near
// 0.  The probe is a fixed kernel, independent of the program under test, in the
// same mix as swm's work: pointer chasing through a 4 MB cycle, ordered-map
// lookups, small allocations and integer arithmetic.  The generator runs
// one pass between ops every few milliseconds, on the CPU the ops use, and
// end-to-end times are scaled by the probe's speed relative to a fixed
// nominal speed (see README.md, "Steadiness").
#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  // Probe passes per second on that VM in a fast period; the scale in
  // which end-to-end times are reported.
  static constexpr double kNominalHz = 2800;

  SpeedProbe();

  // Runs one pass and records how long it took.
  void RunPass();
  // Passes per second: one over the median pass time.  0 before any pass.
  double Hz() const;
  size_t passes() const { return pass_ns_.size(); }
  // Wall and CPU time spent in passes, to take out of the measured phase.
  int64_t wall_ns() const { return wall_ns_; }
  int64_t cpu_ns() const { return cpu_ns_; }

 private:
  std::vector<uint32_t> next_;  // one random cycle over all entries
  std::map<uint32_t, uint32_t> tree_;
  uint32_t pos_ = 0;
  uint64_t acc_ = 1;
  std::vector<int64_t> pass_ns_;
  int64_t wall_ns_ = 0;
  int64_t cpu_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
