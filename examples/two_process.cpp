// Two-process operation: this process boots the server + swm and hosts a
// listening unix socket (xserver::WireHost); a fork()ed child process
// connects with xlib::Display::FromEnv() over $SWM_SOCKET, creates and maps
// a window, and swm decorates it exactly as it would an in-process client.
// When the child exits, the server discovers EOF through the event loop,
// closes the connection with a typed reason, and sweeps the client's
// windows — the crash-tolerant lifecycle from docs/PROTOCOL.md
// ("Out-of-process operation").
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "src/swm/wm.h"
#include "src/xlib/display.h"
#include "src/xserver/server.h"
#include "src/xserver/wire_host.h"

int main() {
  // '@' = abstract-namespace socket: no filesystem entry, nothing to clean.
  const std::string socket_path =
      "@swm-two-process-" + std::to_string(::getpid());

  xserver::Server server({xserver::ScreenConfig{80, 28, false}});

  swm::WindowManager::Options wm_options;
  wm_options.template_name = "openlook";
  wm_options.resources =
      "swm*virtualDesktop: 320x112\n"
      "swm*panner: False\n"
      "swm.transport.stallMs: 2000\n";  // picked up by TransportLimits()
  swm::WindowManager wm(&server, wm_options);
  if (!wm.Start()) {
    std::cerr << "another window manager is running?\n";
    return 1;
  }

  xserver::WireHostOptions host_options;
  host_options.limits = wm.TransportLimits();
  xserver::WireHost host(&server, socket_path, std::move(host_options));
  if (!host.ok()) {
    std::cerr << "cannot listen on " << socket_path << "\n";
    return 1;
  }

  // Two pipes make the demo deterministic: `ready` (child -> parent: my
  // window is mapped) and `go` (parent -> child: I rendered, you may exit).
  int ready[2] = {-1, -1}, go[2] = {-1, -1};
  if (::pipe(ready) != 0 || ::pipe(go) != 0) { return 1; }

  pid_t child = ::fork();
  if (child == 0) {
    // ---- client process ---------------------------------------------------
    ::close(ready[0]);
    ::close(go[1]);
    ::setenv("SWM_SOCKET", host.socket_path().c_str(), 1);
    std::unique_ptr<xlib::Display> display =
        xlib::Display::FromEnv("remote-box");
    if (display == nullptr || !display->Connected()) { ::_exit(2); }

    xproto::WindowId win =
        display->CreateWindow(display->RootWindow(0), {4, 3, 30, 8});
    display->SetStringProperty(win, "WM_NAME", "remote xclock");
    display->MapWindow(win);
    // A reply-bearing query proves the duplex path works end to end.
    if (!display->GetGeometry(win).has_value()) { ::_exit(3); }

    char byte = 'R';
    (void)!::write(ready[1], &byte, 1);
    (void)!::read(go[0], &byte, 1);  // wait for the parent's rendering
    ::_exit(display->ErrorCount() == 0 ? 0 : 4);
  }

  // ---- server process -------------------------------------------------------
  ::close(ready[1]);
  ::close(go[0]);
  ::fcntl(ready[0], F_SETFL, O_NONBLOCK);

  // Serve (accept, dispatch, reply) until the child reports its window up,
  // letting swm decorate each redirected map as it arrives.
  bool child_ready = host.RunUntil(
      [&]() {
        wm.ProcessEvents();
        char byte = 0;
        return ::read(ready[0], &byte, 1) == 1;
      },
      5000);
  wm.ProcessEvents();
  if (!child_ready) {
    std::cerr << "child never mapped its window\n";
    return 1;
  }

  std::cout << "remote client connected from another process; swm manages "
            << wm.ClientCount() << " client(s)\n";
  std::cout << "\n---- screen (remote client decorated) ----\n"
            << server.RenderScreen(0).ToString();

  // Let the child exit, then watch the event loop observe EOF: the
  // connection closes with a typed reason and the client's windows vanish.
  char byte = 'G';
  (void)!::write(go[1], &byte, 1);
  int status = 0;
  ::waitpid(child, &status, 0);
  host.RunUntil([&]() { return host.connection_count() == 0; }, 5000);
  wm.ProcessEvents();

  std::cout << "\nchild exited with status "
            << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
            << "; connection closed kPeerClosed="
            << host.closed_with(xserver::CloseReason::kPeerClosed)
            << ", windows swept, swm manages " << wm.ClientCount()
            << " client(s)\n";
  std::cout << "\n---- screen (after disconnect) ----\n"
            << server.RenderScreen(0).ToString();
  return 0;
}
