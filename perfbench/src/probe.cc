#include "probe.h"

#include <algorithm>
#include <utility>

#include "bench.h"

namespace perfbench {

namespace {

constexpr uint32_t kCycleEntries = 1u << 20;  // 4 MB of uint32_t
constexpr uint32_t kTreeEntries = 8192;
constexpr int kStepsPerPass = 400;

uint64_t XorShift(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

}  // namespace

SpeedProbe::SpeedProbe() : next_(kCycleEntries) {
  // A fixed random permutation, linked into one cycle.
  std::vector<uint32_t> order(kCycleEntries);
  for (uint32_t i = 0; i < kCycleEntries; ++i) {
    order[i] = i;
  }
  uint64_t state = 88172645463325252ull;
  for (uint32_t i = kCycleEntries - 1; i > 0; --i) {
    std::swap(order[i], order[XorShift(&state) % (i + 1)]);
  }
  for (uint32_t i = 0; i < kCycleEntries; ++i) {
    next_[order[i]] = order[(i + 1) % kCycleEntries];
  }
  for (uint32_t i = 0; i < kTreeEntries; ++i) {
    tree_[i * 2654435761u] = i;
  }
}

void SpeedProbe::RunPass() {
  int64_t start = MonoNs();
  int64_t cpu_start = ThreadCpuNs();
  for (int step = 0; step < kStepsPerPass; ++step) {
    pos_ = next_[pos_];
    auto it = tree_.lower_bound(pos_ * 2654435761u);
    if (it != tree_.end()) {
      acc_ += it->second;
    }
    std::vector<uint32_t> scratch(16 + (pos_ & 63), pos_);
    for (int i = 0; i < 8; ++i) {
      acc_ = acc_ * 6364136223846793005ull + scratch[static_cast<size_t>(i)];
    }
  }
  int64_t elapsed = MonoNs() - start;
  cpu_ns_ += ThreadCpuNs() - cpu_start;
  pass_ns_.push_back(elapsed);
  wall_ns_ += elapsed;
}

double SpeedProbe::Hz() const {
  if (pass_ns_.empty()) {
    return 0;
  }
  std::vector<int64_t> sorted = pass_ns_;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2),
                   sorted.end());
  return 1e9 / static_cast<double>(sorted[sorted.size() / 2]);
}

}  // namespace perfbench
