// Test access to the in-memory server's window records.  Production code
// learns about windows only through requests; tests that check what a
// request did to a window (its draw list, background, selections) read the
// record here.
#ifndef TESTS_SERVER_TEST_PEER_H_
#define TESTS_SERVER_TEST_PEER_H_

#include "src/xserver/server.h"

namespace xserver {

class ServerTestPeer {
 public:
  // The record of `window`, or nullptr when it does not exist.
  static const WindowRec* FindWindow(const Server& server, xproto::WindowId window) {
    return server.Find(window);
  }
};

}  // namespace xserver

#endif  // TESTS_SERVER_TEST_PEER_H_
