// Per-client quarantine (docs/ROBUSTNESS.md "Input hardening and
// quarantine").
//
// A hostile or buggy client can flood the WM with PropertyNotify storms,
// ConfigureRequest floods, or requests that raise X errors.  The ledger
// keeps a token bucket per client window: misbehavior drains tokens, every
// ProcessEvents batch (the WM's time tick — there is no real clock in the
// simulator) refills some.  A window that drains its bucket is quarantined:
// the WM coalesces/drops its requests while keeping its decoration intact,
// and paroles it automatically after a quiet period.
#ifndef SRC_SWM_QUARANTINE_H_
#define SRC_SWM_QUARANTINE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/xproto/types.h"

namespace swm {

struct QuarantinePolicy {
  // Bucket capacity: how much burst misbehavior a client may bank.
  int budget = 96;
  // Tokens restored at each ProcessEvents batch boundary.
  int refill_per_tick = 24;
  // Consecutive quiet ticks (no charges) before a quarantined window is
  // paroled.
  int parole_ticks = 3;
  // Costs per offence.
  int property_cost = 1;
  int configure_cost = 1;
  int error_cost = 12;
};

class MisbehaviorLedger {
 public:
  explicit MisbehaviorLedger(QuarantinePolicy policy = {});

  // Deducts `cost` from the window's bucket.  Returns true when the window
  // is quarantined (whether this charge tripped it or it already was).
  bool Charge(xproto::WindowId window, int cost);

  bool IsQuarantined(xproto::WindowId window) const;

  // Batch boundary: refill every bucket, advance parole clocks.  Windows
  // whose parole completed this tick are returned (and released).
  std::vector<xproto::WindowId> Tick();

  // Drops all state for a window (unmanaged/destroyed).
  void Forget(xproto::WindowId window);

  // A request from a quarantined window was coalesced or dropped.
  void NoteDropped() { ++dropped_; }

  // ---- Introspection ------------------------------------------------------
  size_t quarantined_count() const;
  // Windows with ledger state (charged and not yet forgotten).
  size_t tracked_count() const { return entries_.size(); }
  uint64_t quarantines_started() const { return quarantines_started_; }
  uint64_t dropped() const { return dropped_; }
  const QuarantinePolicy& policy() const { return policy_; }

 private:
  struct Entry {
    int tokens = 0;
    bool quarantined = false;
    int quiet_ticks = 0;
    bool charged_since_tick = false;
  };

  QuarantinePolicy policy_;
  std::map<xproto::WindowId, Entry> entries_;
  uint64_t quarantines_started_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace swm

#endif  // SRC_SWM_QUARANTINE_H_
