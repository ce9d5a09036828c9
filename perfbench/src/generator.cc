#include "generator.h"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "src/xproto/events.h"

namespace perfbench {

namespace {

constexpr int64_t kOpTimeoutNs = int64_t{5} * 1000 * 1000 * 1000;
constexpr int kStormWindows = 32;

// WM_CLASS values a session draws its clients from; each seed picks 8, so
// the attribute cache sees the sharing of a real session.
constexpr const char* kClassPool[] = {
    "XTerm", "Emacs", "XClock", "XCalc", "XLoad", "XMan",  "XEdit", "XMag",
    "Bitmap", "XFig", "IDraw", "XBiff", "XEyes", "XLogo", "XDvi",  "XPaint"};
constexpr int kSessionClasses = 8;

// Xlib buffers a client's requests until the client waits, so a burst of
// fire-and-forget requests reaches the server whole.  xlib::Display writes
// each request at once instead, and the host, woken by the first write,
// could read a burst in pieces.  The work swm does (reflows, configures of
// windows already destroyed) would then depend on scheduling.  So the
// generator stops the host (SIGSTOP) while it writes a burst and continues
// it (SIGCONT) after.  A burst must not wait for the host.
class ScopedBurst {
 public:
  explicit ScopedBurst(pid_t host) : host_(host) { ::kill(host_, SIGSTOP); }
  ~ScopedBurst() { ::kill(host_, SIGCONT); }
  ScopedBurst(const ScopedBurst&) = delete;
  ScopedBurst& operator=(const ScopedBurst&) = delete;

 private:
  pid_t host_;
};

std::vector<uint8_t> Bytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

std::string Lower(std::string text) {
  for (char& c : text) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
  return text;
}

// Pops `display`'s events into `handle` until it returns true, blocking in
// poll(2) between drains.  False on timeout or a dead connection.
template <typename Handler>
bool WaitEvents(Tracer* tracer, xlib::Display* display, Handler&& handle) {
  ScopedSpan span(*tracer, SpanKind::kXlibWait);
  int64_t deadline = MonoNs() + kOpTimeoutNs;
  for (;;) {
    while (std::optional<xproto::Event> event = display->NextEvent()) {
      if (handle(*event)) {
        return true;
      }
    }
    if (!display->Connected()) {
      return false;
    }
    int64_t remaining_ms = (deadline - MonoNs()) / 1000000;
    if (remaining_ms <= 0) {
      return false;
    }
    pollfd p{display->PollFd(), POLLIN, 0};
    ::poll(&p, 1, static_cast<int>(remaining_ms));
  }
}

// Waits until every window in `windows` reported an event of type E.  An E
// naming a window outside the set, or naming one twice, is a wrong event.
template <typename E>
bool WaitAll(Tracer* tracer, xlib::Display* display,
             const std::vector<xproto::WindowId>& windows, std::string* error) {
  std::vector<bool> seen(windows.size(), false);
  size_t remaining = windows.size();
  bool wrong = false;
  bool done = remaining == 0 || WaitEvents(tracer, display, [&](const xproto::Event& event) {
    const E* e = std::get_if<E>(&event);
    if (e == nullptr) {
      return false;
    }
    auto it = std::find(windows.begin(), windows.end(), e->window);
    size_t index = static_cast<size_t>(it - windows.begin());
    if (it == windows.end() || seen[index]) {
      wrong = true;
      return true;
    }
    seen[index] = true;
    return --remaining == 0;
  });
  if (wrong) {
    *error = "completion event names the wrong window";
    return false;
  }
  if (!done) {
    *error = "timed out waiting for completion events";
    return false;
  }
  return true;
}

}  // namespace

Generator::Generator(const WorkloadSpec& spec, std::string socket_path, uint64_t seed,
                     pid_t host, Tracer* tracer)
    : spec_(spec),
      socket_path_(std::move(socket_path)),
      rng_state_(seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull),
      host_(host),
      tracer_(tracer) {
  std::vector<std::string> pool(std::begin(kClassPool), std::end(kClassPool));
  for (int i = 0; i < kSessionClasses; ++i) {
    size_t pick = static_cast<size_t>(Uniform(0, static_cast<int>(pool.size()) - 1));
    classes_.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
}

uint64_t Generator::Next() {  // splitmix64
  uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int Generator::Uniform(int lo, int hi) {
  return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

xbase::Rect Generator::RandomRect() {
  return xbase::Rect{Uniform(0, 1000), Uniform(0, 760), Uniform(80, 400), Uniform(60, 300)};
}

xproto::WindowId Generator::CreateNamed(xlib::Display* display, const xbase::Rect& rect,
                                        const std::string& name, const std::string& clazz,
                                        bool map) {
  xproto::WindowId window = xproto::kNone;
  {
    ScopedSpan span(*tracer_, SpanKind::kXlibCreate);
    window = display->CreateWindow(display->RootWindow(0), rect);
  }
  if (window == xproto::kNone) {
    return window;
  }
  std::string wm_class = Lower(clazz);
  wm_class.push_back('\0');
  wm_class += clazz;
  wm_class.push_back('\0');
  ScopedBurst burst(host_);
  {
    ScopedSpan span(*tracer_, SpanKind::kXlibRequest);
    display->SelectInput(window, xproto::kStructureNotifyMask);
  }
  {
    ScopedSpan span(*tracer_, SpanKind::kXlibRequest);
    display->ChangeProperty(window, wm_name_, string_, 8, xserver::PropMode::kReplace,
                            Bytes(name));
  }
  {
    ScopedSpan span(*tracer_, SpanKind::kXlibRequest);
    display->ChangeProperty(window, wm_class_, string_, 8, xserver::PropMode::kReplace,
                            Bytes(wm_class));
  }
  if (map) {
    ScopedSpan span(*tracer_, SpanKind::kXlibRequest);
    display->MapWindow(window);
  }
  return window;
}

bool Generator::Setup() {
  for (int i = 0; i < spec_.standing_connections; ++i) {
    auto display = std::make_unique<xlib::Display>(socket_path_, "bench-standing");
    if (!display->Connected()) {
      return false;
    }
    standing_.push_back(std::move(display));
  }
  // Atoms are server-global: intern them once, so no op pays a round trip
  // for them.
  xlib::Display* first = standing_.front().get();
  wm_name_ = first->InternAtom("WM_NAME");
  wm_class_ = first->InternAtom("WM_CLASS");
  string_ = first->InternAtom("STRING");
  if (wm_name_ == 0 || wm_class_ == 0 || string_ == 0) {
    return false;
  }
  std::vector<std::vector<xproto::WindowId>> per_display(standing_.size());
  for (int i = 0; i < spec_.standing_windows; ++i) {
    size_t d = static_cast<size_t>(i) % standing_.size();
    xlib::Display* display = standing_[d].get();
    const std::string& clazz = classes_[static_cast<size_t>(Uniform(0, kSessionClasses - 1))];
    xbase::Rect rect = RandomRect();
    xproto::WindowId window = CreateNamed(display, rect, Lower(clazz) + " " + std::to_string(i),
                                          clazz, /*map=*/false);
    if (window == xproto::kNone) {
      return false;
    }
    windows_.push_back(Window{display, window, rect.width, rect.height});
    per_display[d].push_back(window);
  }
  {
    ScopedBurst burst(host_);
    for (const Window& window : windows_) {
      window.display->MapWindow(window.id);
    }
  }
  std::string error;
  for (size_t d = 0; d < standing_.size(); ++d) {
    if (!WaitAll<xproto::MapNotifyEvent>(tracer_, standing_[d].get(), per_display[d],
                                         &error)) {
      return false;
    }
  }
  return true;
}

bool Generator::RunOp(std::string* error) {
  ++ops_;
  uint64_t errors_before = x_errors();
  bool ok = false;
  switch (spec_.kind) {
    case WorkloadKind::kLaunch:
      ok = OpLaunch(error);
      break;
    case WorkloadKind::kStorm:
      ok = OpStorm(error);
      break;
    case WorkloadKind::kRetitle:
      ok = OpRetitle(error);
      break;
  }
  if (ok && x_errors() != errors_before) {
    *error = "X error on a generator display";
    ok = false;
  }
  return ok;
}

// App launch and exit: a fresh connection maps one named window, waits for
// its MapNotify and leaves.  The previous op's connection closes first, so
// its sweep and unmanage land in this op.
bool Generator::OpLaunch(std::string* error) {
  CloseTransient();
  {
    ScopedSpan span(*tracer_, SpanKind::kXlibConnect);
    transient_ = std::make_unique<xlib::Display>(socket_path_, "bench-launch");
  }
  ++transients_opened_;
  xlib::Display* display = transient_.get();
  if (!display->Connected()) {
    *error = "transient connection failed";
    return false;
  }
  const std::string& clazz = classes_[static_cast<size_t>(Uniform(0, kSessionClasses - 1))];
  xproto::WindowId window =
      CreateNamed(display, RandomRect(), Lower(clazz) + " " + std::to_string(ops_),
                  clazz, /*map=*/true);
  if (window == xproto::kNone) {
    *error = "CreateWindow failed";
    return false;
  }
  return WaitAll<xproto::MapNotifyEvent>(tracer_, display, {window}, error);
}

// Session start under tiling: 32 windows created and named, mapped in one
// burst, then destroyed in one burst.
bool Generator::OpStorm(std::string* error) {
  xlib::Display* display = standing_.front().get();
  std::vector<xproto::WindowId> windows;
  windows.reserve(kStormWindows);
  for (int i = 0; i < kStormWindows; ++i) {
    const std::string& clazz =
        classes_[static_cast<size_t>(Uniform(0, kSessionClasses - 1))];
    xproto::WindowId window =
        CreateNamed(display, RandomRect(),
                    Lower(clazz) + " " + std::to_string(ops_) + "." + std::to_string(i),
                    clazz, /*map=*/false);
    if (window == xproto::kNone) {
      *error = "CreateWindow failed";
      return false;
    }
    windows.push_back(window);
  }
  {
    ScopedBurst burst(host_);
    for (xproto::WindowId window : windows) {
      ScopedSpan span(*tracer_, SpanKind::kXlibRequest);
      display->MapWindow(window);
    }
  }
  if (!WaitAll<xproto::MapNotifyEvent>(tracer_, display, windows, error)) {
    return false;
  }
  {
    ScopedBurst burst(host_);
    for (xproto::WindowId window : windows) {
      ScopedSpan span(*tracer_, SpanKind::kXlibRequest);
      display->DestroyWindow(window);
    }
  }
  return WaitAll<xproto::DestroyNotifyEvent>(tracer_, display, windows, error);
}

// Update of an existing window: new WM_NAME, new size, then wait for the
// ConfigureNotify that carries the size.
bool Generator::OpRetitle(std::string* error) {
  Window& target = windows_[static_cast<size_t>(Uniform(0, spec_.standing_windows - 1))];
  int width = target.width;
  int height = target.height;
  while (width == target.width && height == target.height) {
    width = Uniform(100, 500);
    height = Uniform(80, 400);
  }
  std::string title = classes_[static_cast<size_t>(Uniform(0, kSessionClasses - 1))] +
                      " - " + std::to_string(Next() % 100000);
  xlib::Display* display = target.display;
  {
    ScopedBurst burst(host_);
    {
      ScopedSpan span(*tracer_, SpanKind::kXlibRequest);
      display->ChangeProperty(target.id, wm_name_, string_, 8, xserver::PropMode::kReplace,
                              Bytes(title));
    }
    ScopedSpan span(*tracer_, SpanKind::kXlibRequest);
    xserver::ConfigureValues values;
    values.geometry = xbase::Rect{0, 0, width, height};
    display->ConfigureWindow(target.id, xproto::kConfigWidth | xproto::kConfigHeight,
                             values);
  }
  // Synthetic ConfigureNotifys (ICCCM §4.1.5) may trail an earlier op; the
  // real one for this window is the completion.
  bool wrong = false;
  bool done = WaitEvents(tracer_, display, [&](const xproto::Event& event) {
    const auto* e = std::get_if<xproto::ConfigureNotifyEvent>(&event);
    if (e == nullptr || e->synthetic || e->window != target.id) {
      return false;
    }
    wrong = e->geometry.width != width || e->geometry.height != height;
    return true;
  });
  if (!done) {
    *error = "timed out waiting for ConfigureNotify";
    return false;
  }
  if (wrong) {
    *error = "ConfigureNotify does not carry the requested size";
    return false;
  }
  target.width = width;
  target.height = height;
  return true;
}

void Generator::Account(const xlib::Display& display) {
  closed_roundtrips_ += display.wire_stats().wire_replies;
  closed_x_errors_ += display.ErrorCount();
  closed_fallbacks_ += display.wire_stats().wire_fallbacks;
}

void Generator::CloseTransient() {
  if (transient_ != nullptr) {
    Account(*transient_);
    transient_.reset();
  }
}

uint64_t Generator::roundtrips() const {
  uint64_t total = closed_roundtrips_;
  for (const auto& display : standing_) {
    total += display->wire_stats().wire_replies;
  }
  if (transient_ != nullptr) {
    total += transient_->wire_stats().wire_replies;
  }
  return total;
}

uint64_t Generator::x_errors() const {
  uint64_t total = closed_x_errors_;
  for (const auto& display : standing_) {
    total += display->ErrorCount();
  }
  if (transient_ != nullptr) {
    total += transient_->ErrorCount();
  }
  return total;
}

uint64_t Generator::wire_fallbacks() const {
  uint64_t total = closed_fallbacks_;
  for (const auto& display : standing_) {
    total += display->wire_stats().wire_fallbacks;
  }
  if (transient_ != nullptr) {
    total += transient_->wire_stats().wire_fallbacks;
  }
  return total;
}

}  // namespace perfbench
