// The generator: one thread, at most three remote xlib::Display connections,
// one op in flight.  It waits for each op's MapNotify / ConfigureNotify /
// DestroyNotify before starting the next, as X clients do before drawing.
#ifndef PERFBENCH_SRC_GENERATOR_H_
#define PERFBENCH_SRC_GENERATOR_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/xlib/display.h"

namespace perfbench {

class Generator {
 public:
  Generator(const WorkloadSpec& spec, std::string socket_path, uint64_t seed,
            pid_t host, Tracer* tracer);

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // Connects the standing displays and maps the standing population.
  bool Setup();
  // Runs one op of the workload; false when the op failed (timeout, X error
  // or a wrong completion event).  `error` then says why.
  bool RunOp(std::string* error);
  // Closes the transient connection, if one is open.
  void CloseTransient();

  // Totals over every display this generator opened.
  uint64_t roundtrips() const;
  uint64_t x_errors() const;
  uint64_t wire_fallbacks() const;
  uint64_t transients_opened() const { return transients_opened_; }

 private:
  struct Window {
    xlib::Display* display = nullptr;
    xproto::WindowId id = 0;
    int width = 0;
    int height = 0;
  };

  bool OpLaunch(std::string* error);
  bool OpStorm(std::string* error);
  bool OpRetitle(std::string* error);

  // Creates a window (one round trip), then selects StructureNotify and sets
  // WM_NAME and WM_CLASS; `map` appends a MapWindow to that burst.
  xproto::WindowId CreateNamed(xlib::Display* display, const xbase::Rect& rect,
                               const std::string& name, const std::string& clazz,
                               bool map);
  // A random window rectangle with its origin on the 1152x900 screen.
  xbase::Rect RandomRect();
  void Account(const xlib::Display& display);

  uint64_t Next();
  int Uniform(int lo, int hi);  // inclusive

  const WorkloadSpec& spec_;
  std::string socket_path_;
  uint64_t rng_state_;
  pid_t host_;  // stopped while a burst is written
  Tracer* tracer_;
  std::vector<std::string> classes_;
  std::vector<std::unique_ptr<xlib::Display>> standing_;
  std::unique_ptr<xlib::Display> transient_;
  std::vector<Window> windows_;
  xproto::AtomId wm_name_ = 0;
  xproto::AtomId wm_class_ = 0;
  xproto::AtomId string_ = 0;
  uint64_t ops_ = 0;
  uint64_t transients_opened_ = 0;
  // Counters of displays already closed.
  uint64_t closed_roundtrips_ = 0;
  uint64_t closed_x_errors_ = 0;
  uint64_t closed_fallbacks_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GENERATOR_H_
